"""Experimental protocol: repeated stratified k-fold CV over a set of
combining methods, with error rate, macro-F1, Wilcoxon signed-rank
comparisons, average rankings, and a 0-1-loss bias/variance diagnostic.

F1 is macro-averaged one-vs-rest.  Every method is evaluated on identical
fold splits per (dataset, repeat), so paired significance tests are valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import combiners, training
from .combiners import DEFAULT_H, FIXED_RULES
# fit is not called here but stays a name of this module: bench/tracer.py
# wraps it by this name.
from .learners import Dataset, LearnerSpec, fit  # noqa: F401
from .metadata import MetaMatrix
from .training import AlphaGrid, default_alpha_grid, derive_seed

__all__ = [
    "ProtocolConfig",
    "MethodResult",
    "Comparison",
    "BiasVarianceReport",
    "ExperimentReport",
    "EvaluationError",
    "error_rate",
    "macro_f1",
    "bias_variance",
    "wilcoxon_signed_rank",
    "WilcoxonResult",
    "midranks",
    "average_ranks",
    "alpha_error_curves",
    "run_protocol",
    "default_methods",
]

MIN_NONZERO_DIFFS = 5
EXACT_WILCOXON_LIMIT = 25


class EvaluationError(ValueError):
    pass


def error_rate(predictions: Sequence[int], truth: Sequence[int]) -> float:
    predictions = np.asarray(predictions)
    truth = np.asarray(truth)
    if predictions.shape != truth.shape or predictions.size == 0:
        raise EvaluationError("predictions and truth must be equal-length, non-empty")
    return float(np.mean(predictions != truth))


def macro_f1(predictions: Sequence[int], truth: Sequence[int], n_classes: int) -> float:
    predictions = np.asarray(predictions)
    truth = np.asarray(truth)
    if predictions.shape != truth.shape or predictions.size == 0:
        raise EvaluationError("predictions and truth must be equal-length, non-empty")
    total = 0.0
    for c in range(n_classes):
        tp = float(np.sum((predictions == c) & (truth == c)))
        fp = float(np.sum((predictions == c) & (truth != c)))
        fn = float(np.sum((predictions != c) & (truth == c)))
        denom = 2 * tp + fp + fn
        total += 2 * tp / denom if denom > 0 else 0.0
    return total / n_classes


@dataclass(frozen=True)
class BiasVarianceReport:
    bias: float
    variance: float


def bias_variance(
    final: Sequence[int],
    per_classifier: Sequence[Sequence[int]],
    truth: Sequence[int],
) -> BiasVarianceReport:
    """0-1-loss decomposition: bias is the error rate of the combined
    hypothesis; variance is the mean disagreement rate between the combined
    hypothesis and the individual base hypotheses."""
    final = np.asarray(final)
    truth = np.asarray(truth)
    per = np.asarray(per_classifier)  # (K, n)
    if final.shape != truth.shape or per.ndim != 2 or per.shape[1] != final.shape[0]:
        raise EvaluationError("shape mismatch in bias_variance inputs")
    if final.size == 0:
        raise EvaluationError("empty observation set")
    bias = float(np.mean(final != truth))
    variance = float(np.mean(per != final[None, :]))
    return BiasVarianceReport(bias=bias, variance=variance)


@dataclass(frozen=True)
class WilcoxonResult:
    outcome: str        # "a-better" | "b-better" | "equal"; smaller is better
    p_value: float
    n_used: int
    exact: bool
    flagged: bool = False  # too few nonzero differences to test


def _exact_two_sided_p(ranks2: np.ndarray, w2: int) -> float:
    """Exact tail probability of the signed-rank statistic by dynamic
    programming over doubled (integer) midranks.  w2 is the doubled value of
    min(W+, W-)."""
    total = int(ranks2.sum())
    ways = np.zeros(total + 1, dtype=np.float64)
    ways[0] = 1.0
    for r in ranks2:
        r = int(r)
        ways[r:] = ways[r:] + ways[:total + 1 - r]
    denom = 2.0 ** len(ranks2)
    low = ways[: w2 + 1].sum()
    high = ways[total - w2:].sum()
    return min(1.0, (low + high) / denom)


def wilcoxon_signed_rank(
    a: Sequence[float], b: Sequence[float], significance: float = 0.05
) -> WilcoxonResult:
    """Two-sided paired signed-rank test.  "a-better" means a's values are
    systematically smaller (the convention for loss-like metrics).

    Zero differences are dropped; ties share midranks.  The null
    distribution is enumerated exactly up to 25 pairs, and approximated
    normally (with tie and continuity corrections) beyond.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise EvaluationError("paired samples must have equal length")
    d = a - b
    d = d[d != 0.0]
    n = len(d)
    if n < MIN_NONZERO_DIFFS:
        return WilcoxonResult("equal", 1.0, n, exact=True, flagged=True)

    ranks = midranks(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    w_minus = float(ranks[d < 0].sum())
    w_small = min(w_plus, w_minus)

    if n <= EXACT_WILCOXON_LIMIT:
        ranks2 = np.rint(2 * ranks).astype(np.int64)
        p = _exact_two_sided_p(ranks2, int(round(2 * w_small)))
        exact = True
    else:
        mean = n * (n + 1) / 4.0
        _, counts = np.unique(np.abs(d), return_counts=True)
        tie_term = float((counts**3 - counts).sum()) / 48.0
        sd = math.sqrt(n * (n + 1) * (2 * n + 1) / 24.0 - tie_term)
        z = (w_small - mean + 0.5) / sd  # continuity correction
        p = min(1.0, math.erfc(-z / math.sqrt(2.0)))
        exact = False

    if p >= significance:
        return WilcoxonResult("equal", p, n, exact)
    outcome = "a-better" if w_plus < w_minus else "b-better"
    return WilcoxonResult(outcome, p, n, exact)


def midranks(values: Sequence[float]) -> np.ndarray:
    """Ranks 1..n with tied values sharing the mean of their positions."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def average_ranks(table: np.ndarray) -> np.ndarray:
    """Per-method average rank over datasets. table is (methods, datasets),
    ranked ascending per column (rank 1 = best / lowest)."""
    table = np.asarray(table, dtype=np.float64)
    if table.ndim != 2 or table.size == 0 or not np.isfinite(table).all():
        raise EvaluationError("rank table must be complete and 2-d")
    cols = [midranks(table[:, j]) for j in range(table.shape[1])]
    return np.stack(cols, axis=1).mean(axis=1)


# ---------------------------------------------------------------------------
# Protocol

GRANULAR_METHODS = ("granular-cv", "granular-fixed")


def default_methods() -> tuple[str, ...]:
    rules = tuple(f"rule:{r}" for r in FIXED_RULES)
    return rules + ("decision-template",) + GRANULAR_METHODS


@dataclass(frozen=True)
class ProtocolConfig:
    folds: int = 10
    repeats: int = 10
    seed: int = 0
    significance: float = 0.05
    methods: tuple[str, ...] = field(default_factory=default_methods)
    learners: tuple[LearnerSpec, ...] = ()
    alpha_grid: AlphaGrid = field(default_factory=default_alpha_grid)
    fixed_alpha: float = 1.0
    h: str = DEFAULT_H
    inner_folds: int = 10

    def __post_init__(self) -> None:
        if self.folds < 2 or self.repeats < 1:
            raise EvaluationError("need folds >= 2 and repeats >= 1")
        if not 0.0 < self.significance < 1.0:
            raise EvaluationError("significance must lie in (0, 1)")
        for m in self.methods:
            if not _valid_method(m):
                raise EvaluationError(f"unknown method {m!r}")
        if self.h not in combiners.H_KINDS:
            raise EvaluationError(f"unknown h function {self.h!r}")


def _valid_method(method: str) -> bool:
    if method in GRANULAR_METHODS or method == "decision-template":
        return True
    if method.startswith("rule:"):
        return method[5:] in FIXED_RULES
    return method.startswith("learner:")


@dataclass(frozen=True)
class MethodResult:
    errors: tuple[float, ...]
    f1s: tuple[float, ...]

    @property
    def mean_error(self) -> float:
        return float(np.mean(self.errors))

    @property
    def var_error(self) -> float:
        return float(np.var(self.errors))

    @property
    def mean_f1(self) -> float:
        return float(np.mean(self.f1s))

    @property
    def var_f1(self) -> float:
        return float(np.var(self.f1s))


@dataclass(frozen=True)
class Comparison:
    dataset: str
    method: str       # the granular method
    baseline: str
    metric: str       # "error" | "f1"
    outcome: str      # "win" | "equal" | "loss" from the granular side
    p_value: float


@dataclass(frozen=True)
class ExperimentReport:
    config: dict
    dataset_names: tuple[str, ...]
    results: dict            # dataset -> method -> MethodResult
    comparisons: tuple[Comparison, ...]
    rankings_error: dict     # method -> average rank
    rankings_f1: dict
    bias_variance: dict      # dataset -> method -> BiasVarianceReport


def _learner_lookup(specs: Sequence[LearnerSpec]) -> dict[str, int]:
    return {spec.name: j for j, spec in enumerate(specs)}


def run_protocol(
    datasets: Sequence[Dataset], config: ProtocolConfig
) -> ExperimentReport:
    """Repeated stratified k-fold evaluation of every configured method.

    Outer models come from `training.fit_complements`, the fold path of
    meta-CV, called per (dataset, repeat) with s = derive_seed(config.seed,
    ds_idx, rep).  As derive_seed chains, learner j on fold t gets
    derive_seed(s, t, j) == derive_seed(config.seed, ds_idx, rep, t, j),
    whatever order the fits run in.
    """
    specs = tuple(config.learners)
    if not specs:
        raise EvaluationError("protocol needs a learner roster")
    lookup = _learner_lookup(specs)
    ids = tuple(s.name for s in specs)

    results: dict[str, dict[str, MethodResult]] = {}
    bv: dict[str, dict[str, BiasVarianceReport]] = {}
    comparisons: list[Comparison] = []

    for ds_idx, data in enumerate(datasets):
        name = data.name or f"dataset{ds_idx}"
        counts = np.bincount(data.labels, minlength=data.catalog.size)
        if counts.min() < config.folds:
            raise EvaluationError(
                f"dataset {name!r}: some class has fewer observations than folds"
            )
        per_method_err: dict[str, list[float]] = {m: [] for m in config.methods}
        per_method_f1: dict[str, list[float]] = {m: [] for m in config.methods}
        bv_runs: dict[str, tuple[list[float], list[float]]] = {
            m: ([], []) for m in config.methods
        }

        for rep in range(config.repeats):
            rep_seed = derive_seed(config.seed, ds_idx, rep)
            plan = training.make_fold_plan(data.labels, config.folds, rep_seed)
            fold_models = training.fit_complements(data, specs, plan, rep_seed)
            for fold, models in enumerate(fold_models):
                run_seed = derive_seed(config.seed, ds_idx, rep, fold)
                test_idx = plan.fold_indices(fold)
                train_part = data.subset(plan.complement_indices(fold))
                truth = data.labels[test_idx]
                test_profiles = training.stack_profiles(models, data.features[test_idx])
                base_preds = np.argmax(test_profiles, axis=2).T  # (K, n_test)

                for method in config.methods:
                    preds = _method_predictions(
                        method, models, lookup, train_part, test_profiles,
                        config, run_seed, ids,
                    )
                    per_method_err[method].append(error_rate(preds, truth))
                    per_method_f1[method].append(
                        macro_f1(preds, truth, data.catalog.size)
                    )
                    report = bias_variance(preds, base_preds, truth)
                    bv_runs[method][0].append(report.bias)
                    bv_runs[method][1].append(report.variance)

        results[name] = {
            m: MethodResult(tuple(per_method_err[m]), tuple(per_method_f1[m]))
            for m in config.methods
        }
        bv[name] = {
            m: BiasVarianceReport(
                bias=float(np.mean(bv_runs[m][0])),
                variance=float(np.mean(bv_runs[m][1])),
            )
            for m in config.methods
        }

        for gmethod in GRANULAR_METHODS:
            if gmethod not in config.methods:
                continue
            for other in config.methods:
                if other == gmethod:
                    continue
                res_err = wilcoxon_signed_rank(
                    results[name][gmethod].errors,
                    results[name][other].errors,
                    config.significance,
                )
                comparisons.append(
                    Comparison(name, gmethod, other, "error",
                               _as_win(res_err.outcome), res_err.p_value)
                )
                res_f1 = wilcoxon_signed_rank(
                    tuple(-v for v in results[name][gmethod].f1s),
                    tuple(-v for v in results[name][other].f1s),
                    config.significance,
                )
                comparisons.append(
                    Comparison(name, gmethod, other, "f1",
                               _as_win(res_f1.outcome), res_f1.p_value)
                )

    names = tuple(
        (d.name or f"dataset{i}") for i, d in enumerate(datasets)
    )
    err_table = np.asarray(
        [[results[n][m].mean_error for n in names] for m in config.methods]
    )
    f1_table = np.asarray(
        [[-results[n][m].mean_f1 for n in names] for m in config.methods]
    )
    rank_err = dict(zip(config.methods, average_ranks(err_table).tolist()))
    rank_f1 = dict(zip(config.methods, average_ranks(f1_table).tolist()))

    return ExperimentReport(
        config=_config_echo(config),
        dataset_names=names,
        results=results,
        comparisons=tuple(comparisons),
        rankings_error=rank_err,
        rankings_f1=rank_f1,
        bias_variance=bv,
    )


def _as_win(outcome: str) -> str:
    return {"a-better": "win", "b-better": "loss", "equal": "equal"}[outcome]


def _method_predictions(
    method, models, lookup, train_part, test_profiles, config, run_seed, ids
):
    if method.startswith("learner:"):
        name = method[8:]
        if name not in lookup:
            raise EvaluationError(f"method {method!r} not in the roster")
        return np.argmax(test_profiles[:, lookup[name], :], axis=1)
    if method.startswith("rule:"):
        scores = combiners.fixed_rule_scores_batch(test_profiles, method[5:])
        return np.argmax(scores, axis=1)
    if method == "decision-template":
        meta = MetaMatrix(
            training.stack_profiles(models, train_part.features),
            train_part.catalog, ids,
        )
        model = combiners.dt_fit(meta, train_part.labels)
        return combiners.dt_decide_batch(model, test_profiles)
    if method == "granular-fixed":
        return combiners.granular_decide_batch(
            test_profiles, config.fixed_alpha, config.h
        )
    if method == "granular-cv":
        inner_folds = min(
            config.inner_folds,
            int(np.bincount(train_part.labels,
                            minlength=train_part.catalog.size).min()),
        )
        if inner_folds < 2:
            raise EvaluationError(
                "training part too small for inner cross-validation"
            )
        plan = training.make_fold_plan(
            train_part.labels, inner_folds, derive_seed(run_seed, 0x1A)
        )
        meta = training.generate_meta_cv(
            train_part,
            [model.spec for model in models],
            plan,
            derive_seed(run_seed, 0x2B),
        )
        alpha, _ = training.select_alpha(
            meta, train_part.labels, config.alpha_grid, config.h
        )
        return combiners.granular_decide_batch(test_profiles, alpha, config.h)
    raise EvaluationError(f"unknown method {method!r}")


def _config_echo(config: ProtocolConfig) -> dict:
    return {
        "folds": config.folds,
        "repeats": config.repeats,
        "seed": config.seed,
        "significance": config.significance,
        "methods": list(config.methods),
        "learners": [
            {"kind": s.kind, "params": s.params} for s in config.learners
        ],
        "alpha_grid": list(config.alpha_grid.values),
        "fixed_alpha": config.fixed_alpha,
        "h": config.h,
        "inner_folds": config.inner_folds,
    }


def alpha_error_curves(
    data: Dataset,
    specs: Sequence[LearnerSpec],
    grid: AlphaGrid,
    h_kinds: Sequence[str],
    n_folds: int,
    seed: int,
) -> dict[str, list[tuple[float, float]]]:
    """Meta-level error as a function of alpha, one curve per h function,
    over the meta-data `training.train` builds with the same seed and
    n_folds: each curve is the one train's select_alpha searches."""
    meta = training.cross_validated_meta(data, specs, n_folds, seed)
    return {h: training.select_alpha(meta, data.labels, grid, h)[1] for h in h_kinds}
