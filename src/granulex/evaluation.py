"""Experimental protocol: repeated stratified k-fold CV over a set of
combining methods, with error rate, macro-F1, Wilcoxon signed-rank
comparisons, average rankings, and a 0-1-loss bias/variance diagnostic.

F1 is macro-averaged one-vs-rest.  Every method is evaluated on identical
fold splits per (dataset, repeat), so paired significance tests are valid.
A (dataset, repeat) is one generator, `_repeat_runs`: it lists the
repeat's outer folds and each fold's inner cross-validation by
`training.fold_parts`, fits them in one `training.part_profiles` call, and
yields each outer fold's runs of every method.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from . import combiners, training
from .combiners import DEFAULT_H, FIXED_RULES
# fit is not called here but stays a name of this module: bench/tracer.py
# wraps it by this name.
from .learners import Dataset, LearnerSpec, check_roster, fit  # noqa: F401
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
    "run_protocol",
    "default_methods",
    "config_echo",
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
        if self.folds < 2 or self.inner_folds < 2 or self.repeats < 1:
            raise EvaluationError("need folds, inner_folds >= 2 and repeats >= 1")
        if not 0.0 < self.significance < 1.0:
            raise EvaluationError("significance must lie in (0, 1)")
        if not 0.0 <= self.fixed_alpha < math.inf:  # NaN fails too
            raise EvaluationError("fixed_alpha must be finite and >= 0")
        if not self.methods:
            raise EvaluationError("need at least one method")
        named = default_methods()
        for i, m in enumerate(self.methods):
            if m not in named and not m.startswith("learner:"):
                raise EvaluationError(f"unknown method {m!r}")
            if m in self.methods[:i]:
                raise EvaluationError(f"method {m!r} appears twice")
        if self.h not in combiners.H_KINDS:
            raise EvaluationError(f"unknown h function {self.h!r}")


@dataclass(frozen=True)
class MethodResult:
    """The runs of one method on one data set, one entry per (repeat, outer
    fold) in run order: the error rate, the macro-F1, and the 0-1-loss
    variance `bias_variance` reports for that fold.  Its bias is the error
    rate of the same predictions, so `errors` holds it too."""

    errors: tuple[float, ...]
    f1s: tuple[float, ...]
    variances: tuple[float, ...]

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

    @property
    def mean_variance(self) -> float:
        return float(np.mean(self.variances))


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
    """What `run_protocol` found, each fact held once: the config it echoes,
    one MethodResult per (dataset, method), the Wilcoxon comparisons of the
    granular methods, and the average ranks.  The report files are written
    from these fields alone."""

    config: dict
    dataset_names: tuple[str, ...]
    results: dict            # dataset -> method -> MethodResult
    comparisons: tuple[Comparison, ...]
    rankings: dict           # "error" | "f1" -> method -> average rank


def run_protocol(
    datasets: Sequence[Dataset], config: ProtocolConfig
) -> ExperimentReport:
    """Repeated stratified k-fold evaluation of every configured method.

    The roster, the methods and every dataset are checked before the first
    fit.  Each (dataset, repeat) is one `_repeat_runs` call with seed
    derive_seed(config.seed, ds_idx, rep); its runs, fold by fold, are the
    runs of every method's MethodResult in that order.  The Wilcoxon
    comparisons and the average ranks are computed from these results.
    """
    specs = check_roster(config.learners, EvaluationError)
    learner_names = tuple(s.name for s in specs)
    for method in config.methods:
        if method.startswith("learner:") and method[8:] not in learner_names:
            raise EvaluationError(f"method {method!r} not in the roster")
    names = tuple(d.name or f"dataset{i}" for i, d in enumerate(datasets))
    for i, (name, data) in enumerate(zip(names, datasets)):
        if name in names[:i]:
            raise EvaluationError(f"dataset name {name!r} appears twice")
        counts = np.bincount(data.labels, minlength=data.catalog.size)
        if counts.min() < config.folds:
            raise EvaluationError(
                f"dataset {name!r}: some class has fewer observations than folds"
            )
        # A fold holds at most ceil(n_c / folds) rows of class c, so each
        # training part keeps at least n_c - ceil(n_c / folds) of them.
        kept = counts - -(-counts // config.folds)
        if "granular-cv" in config.methods and kept.min() < 2:
            raise EvaluationError(
                f"dataset {name!r}: some class keeps fewer than 2 rows in a "
                f"training part, too few for granular-cv's inner folds"
            )

    results: dict[str, dict[str, MethodResult]] = {}
    for ds_idx, (name, data) in enumerate(zip(names, datasets)):
        # one entry per (repeat, outer fold): each method's run, in
        # config.methods order
        runs = [run for rep in range(config.repeats)
                for run in _repeat_runs(data, specs, config,
                                        derive_seed(config.seed, ds_idx, rep))]
        results[name] = {m: MethodResult(*zip(*r))
                         for m, r in zip(config.methods, zip(*runs))}

    losses = {n: {m: _losses(r) for m, r in results[n].items()} for n in names}
    comparisons = []
    for name in names:
        for gmethod in GRANULAR_METHODS:
            if gmethod not in config.methods:
                continue
            for other in config.methods:
                if other == gmethod:
                    continue
                for metric, mine in losses[name][gmethod].items():
                    res = wilcoxon_signed_rank(
                        mine, losses[name][other][metric], config.significance
                    )
                    comparisons.append(Comparison(
                        name, gmethod, other, metric,
                        _as_win(res.outcome), res.p_value,
                    ))

    rankings = {}
    for metric in ("error", "f1"):
        table = [[np.mean(losses[n][m][metric]) for n in names]
                 for m in config.methods]
        ranks = average_ranks(np.asarray(table)).tolist()
        rankings[metric] = dict(zip(config.methods, ranks))

    return ExperimentReport(
        config=config_echo(config),
        dataset_names=names,
        results=results,
        comparisons=tuple(comparisons),
        rankings=rankings,
    )


def _losses(result: MethodResult) -> dict[str, tuple[float, ...]]:
    """The compared metrics as losses, smaller better: F1 is negated."""
    return {"error": result.errors, "f1": tuple(-v for v in result.f1s)}


def _as_win(outcome: str) -> str:
    return {"a-better": "win", "b-better": "loss", "equal": "equal"}[outcome]


def _repeat_runs(data, specs, config, rep_seed):
    """The runs of one (dataset, repeat): for each outer fold in order, the
    (error, macro-F1, variance) of each method of config.methods.

    One `training.part_profiles` call fits the repeat's parts, each listed
    and seeded by `training.fold_parts`: first the outer folds, learner j
    of fold t with seed derive_seed(rep_seed, t, j), each also queried on
    its own training rows for decision-template; then, for granular-cv,
    the inner parts of each fold in turn, with the inner plan seeded
    derive_seed(run_seed, 0x1A) and the parts seeded derive_seed(run_seed,
    0x2B), run_seed that of outer part t, as `generate_meta_cv` fits that
    training part.  The profiles are read back in the same order."""
    names = tuple(s.name for s in specs)
    plan = training.make_fold_plan(data.labels, config.folds, rep_seed)
    rests, seeds, queries = training.fold_parts(
        plan, rep_seed, np.arange(data.n_observations))
    if "decision-template" in config.methods:
        for qs, rest in zip(queries, rests):
            qs.append(rest)
    inner_plans = []
    if "granular-cv" in config.methods:
        for rest, run_seed in list(zip(rests, seeds)):  # the outer parts only
            labels = data.labels[rest]
            inner_folds = min(
                config.inner_folds,
                int(np.bincount(labels, minlength=data.catalog.size).min()),
            )
            inner = training.make_fold_plan(
                labels, inner_folds, derive_seed(run_seed, 0x1A))
            inner_plans.append(inner)
            parts = training.fold_parts(inner, derive_seed(run_seed, 0x2B), rest)
            for whole, part in zip((rests, seeds, queries), parts):
                whole += part

    profiles = iter(training.part_profiles(data, specs, rests, seeds, queries))
    outer = list(itertools.islice(profiles, config.folds))
    for fold, (test, *own_rows) in enumerate(outer):
        own = inner = None
        if own_rows:  # decision-template runs
            own = MetaMatrix(own_rows[0], data.catalog, names)
        if inner_plans:  # granular-cv runs
            inner_plan = inner_plans[fold]
            held = [h[0] for h in itertools.islice(profiles, inner_plan.n_folds)]
            inner = training.meta_from_folds(data.catalog, inner_plan, held, names)
        labels = data.labels[rests[fold]]
        truth = data.labels[queries[fold][0]]
        base = np.argmax(test, axis=2).T  # (K, n_test)
        runs = []
        for method in config.methods:
            preds = _method_predictions(method, test, labels, own, inner, config)
            runs.append((
                error_rate(preds, truth),
                macro_f1(preds, truth, data.catalog.size),
                bias_variance(preds, base, truth).variance,
            ))
        yield runs


def _method_predictions(method, profiles, labels, own, inner, config):
    """Decisions of method on the (n, K, M) test profiles of one outer
    fold.  labels are the labels of the fold's training part, own the
    meta-data of its own rows when decision-template runs and inner its
    inner-CV meta-data when granular-cv runs; each is None otherwise."""
    if method.startswith("learner:"):
        column = [s.name for s in config.learners].index(method[8:])
        return np.argmax(profiles[:, column, :], axis=1)
    if method.startswith("rule:"):
        scores = combiners.fixed_rule_scores_batch(profiles, method[5:])
        return np.argmax(scores, axis=1)
    if method == "decision-template":
        model = combiners.dt_fit(own, labels)
        return combiners.dt_decide_batch(model, profiles)
    if method == "granular-fixed":
        return combiners.granular_decide_batch(profiles, config.fixed_alpha, config.h)
    if method == "granular-cv":
        alpha, _ = training.select_alpha(inner, labels, config.alpha_grid, config.h)
        return combiners.granular_decide_batch(profiles, alpha, config.h)
    raise EvaluationError(f"unknown method {method!r}")


def config_echo(config: ProtocolConfig) -> dict:
    """The config as `report.json` echoes it: learners by kind and params,
    the alpha grid as its values."""
    echo = {f.name: getattr(config, f.name) for f in fields(config)}
    echo["learners"] = [{"kind": s.kind, "params": s.params} for s in config.learners]
    echo["alpha_grid"] = list(config.alpha_grid.values)
    return echo
