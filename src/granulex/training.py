"""Training and prediction for the granular ensemble.

Training: generate meta-data of the training set by stratified T-fold
cross-validation, grid-search the specificity weight alpha against the
training-set error of the granular combiner, then refit all base
classifiers on the full training set.  Prediction stacks the (n, K, M)
posterior profiles of the refitted classifiers, checks them all in one
MetaMatrix pass, builds per-class intervals, and decides by maximum
numerical class membership.

Every fold fit of the package goes through `fit_complements`: the meta-CV
of `train`, the outer folds of `evaluation.run_protocol` and `alpha-curve`.
Its seeds come from `derive_seed`, which chains:
derive_seed(derive_seed(s, *a), *b) == derive_seed(s, *a, *b), so a fit's
seed depends on its coordinates, not on the call that made it.

Caveat: alpha is selected on the same meta-data its error is measured on
(no nested validation), so the reported alpha-error curve is optimistically
biased as a generalization estimate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import combiners
# granular_intervals is not called here but stays a name of this module:
# bench/tracer.py wraps it by this name.
from .combiners import DEFAULT_H, Granule, granular_intervals  # noqa: F401
from .learners import (
    STATE_KEYS,
    Dataset,
    FittedClassifier,
    LearnerSpec,
    fit,
    fit_folds,
)
from .metadata import ClassCatalog, MetaMatrix

__all__ = [
    "AlphaGrid",
    "FoldPlan",
    "TrainedEnsemble",
    "PredictionDetail",
    "TrainingError",
    "default_alpha_grid",
    "derive_seed",
    "make_fold_plan",
    "fit_complements",
    "stack_profiles",
    "generate_meta_cv",
    "cross_validated_meta",
    "error_for_alpha",
    "select_alpha",
    "train",
    "predict",
    "predict_batch",
    "save_ensemble",
    "load_ensemble",
]

ENSEMBLE_FORMAT_VERSION = 1


class TrainingError(ValueError):
    pass


def derive_seed(master: int, *parts: int) -> int:
    """Derive an independent child seed from a master seed and a tuple of
    integer coordinates, splitmix64-style, so parallel schedules cannot
    change which seed a task receives."""
    z = master & 0xFFFFFFFFFFFFFFFF
    for part in parts:
        z = (z + 0x9E3779B97F4A7C15 + part) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        z = z ^ (z >> 31)
    return z


@dataclass(frozen=True)
class AlphaGrid:
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise TrainingError("empty alpha grid")
        if any(v < 0 or not np.isfinite(v) for v in vals):
            raise TrainingError("alpha grid values must be finite and >= 0")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise TrainingError("alpha grid must be strictly increasing")
        object.__setattr__(self, "values", vals)


def default_alpha_grid() -> AlphaGrid:
    """The 41-point grid {0, 0.1, ..., 4}."""
    return AlphaGrid(tuple(round(0.1 * i, 1) for i in range(41)))


@dataclass(frozen=True)
class FoldPlan:
    assignments: np.ndarray  # (N,) fold index per observation
    n_folds: int

    def __post_init__(self) -> None:
        a = np.asarray(self.assignments, dtype=np.int64)
        a.setflags(write=False)
        object.__setattr__(self, "assignments", a)

    def fold_indices(self, t: int) -> np.ndarray:
        return np.nonzero(self.assignments == t)[0]

    def complement_indices(self, t: int) -> np.ndarray:
        return np.nonzero(self.assignments != t)[0]


def make_fold_plan(labels: np.ndarray, n_folds: int, seed: int) -> FoldPlan:
    """Stratified fold assignment: per-class and overall fold sizes each
    differ by at most one."""
    labels = np.asarray(labels, dtype=np.int64)
    if n_folds < 2:
        raise TrainingError("need at least 2 folds")
    rng = np.random.default_rng(seed)
    assignments = np.empty(len(labels), dtype=np.int64)
    cursor = 0  # global round-robin pointer keeps overall sizes balanced
    for c in np.unique(labels):
        idx = np.nonzero(labels == c)[0]
        rng.shuffle(idx)
        for i in idx:
            assignments[i] = cursor % n_folds
            cursor += 1
    return FoldPlan(assignments, n_folds)


def fit_complements(
    data: Dataset, specs: Sequence[LearnerSpec], plan: FoldPlan, seed: int
) -> list[list[FittedClassifier]]:
    """models[t][j] is learner j fitted on the complement of fold t with seed
    derive_seed(seed, t, j).  Each learner fits all T complements in one
    `fit_folds` call: one batched kernel call for logistic-linear."""
    folds = range(plan.n_folds)
    rests = [plan.complement_indices(t) for t in folds]
    for t, rest in enumerate(rests):
        absent = np.bincount(data.labels[rest], minlength=data.catalog.size) == 0
        if absent.any():
            label = data.catalog.labels[int(np.argmax(absent))]
            raise TrainingError(
                f"class {label!r} absent from the training complement of fold {t}"
            )
    per_learner = [
        fit_folds(spec, data, rests, [derive_seed(seed, t, j) for t in folds])
        for j, spec in enumerate(specs)
    ]
    return [list(models) for models in zip(*per_learner)]


def stack_profiles(models: Sequence[FittedClassifier], x: np.ndarray) -> np.ndarray:
    """(n, K, M) posterior profiles of the rows of x, one column per model."""
    return np.stack([model.predict_proba_batch(x) for model in models], axis=1)


def generate_meta_cv(
    data: Dataset, specs: Sequence[LearnerSpec], plan: FoldPlan, seed: int
) -> MetaMatrix:
    """Meta-data of the training set: the profile of each observation in
    fold t comes from the models `fit_complements` fits on all other
    folds."""
    scores = np.empty((data.n_observations, len(specs), data.catalog.size))
    for t, models in enumerate(fit_complements(data, specs, plan, seed)):
        held = plan.fold_indices(t)
        scores[held] = stack_profiles(models, data.features[held])
    return MetaMatrix(scores, data.catalog, tuple(s.name for s in specs))


def cross_validated_meta(
    data: Dataset, specs: Sequence[LearnerSpec], n_folds: int, seed: int
) -> MetaMatrix:
    """The meta-data `train` searches alpha over: every class needs at
    least n_folds rows, and the stratified plan is seeded by
    derive_seed(seed, 0xF01D)."""
    counts = np.bincount(data.labels, minlength=data.catalog.size)
    short = [lab for lab, n in zip(data.catalog.labels, counts) if n < n_folds]
    if short:
        raise TrainingError(
            f"classes with fewer observations than folds: {short}"
        )
    plan = make_fold_plan(data.labels, n_folds, derive_seed(seed, 0xF01D))
    return generate_meta_cv(data, specs, plan, seed)


def _alpha_errors(
    meta: MetaMatrix, labels: np.ndarray, alphas: Sequence[float], h: str
) -> list[float]:
    """Meta-level error of the granular combiner at each alpha.  The class
    columns are sorted and counted once; only the bound pick runs per
    alpha."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape[0] != meta.n_observations:
        raise TrainingError("labels length does not match meta matrix")
    return [
        float(np.mean(np.argmax(values, axis=1) != labels))
        for values in combiners.granular_ncm_sweep(meta.scores, alphas, h)
    ]


def error_for_alpha(
    meta: MetaMatrix, labels: np.ndarray, alpha: float, h: str = DEFAULT_H
) -> float:
    """Fraction of observations the granular combiner misclassifies."""
    return _alpha_errors(meta, labels, (alpha,), h)[0]


def select_alpha(
    meta: MetaMatrix,
    labels: np.ndarray,
    grid: AlphaGrid,
    h: str = DEFAULT_H,
) -> tuple[float, list[tuple[float, float]]]:
    """Grid value with the lowest meta-level error; ties go to the smallest
    alpha. Returns (alpha, full error curve)."""
    curve = list(zip(grid.values, _alpha_errors(meta, labels, grid.values, h)))
    best_alpha, _ = min(curve, key=lambda pair: (pair[1], pair[0]))
    return best_alpha, curve


@dataclass(frozen=True)
class TrainedEnsemble:
    classifiers: tuple[FittedClassifier, ...]
    alpha: float
    h: str
    catalog: ClassCatalog
    alpha_error_curve: tuple[tuple[float, float], ...] = field(default=())

    @property
    def classifier_ids(self) -> tuple[str, ...]:
        return tuple(c.spec.name for c in self.classifiers)


def train(
    data: Dataset,
    specs: Sequence[LearnerSpec],
    seed: int,
    grid: AlphaGrid | None = None,
    fixed_alpha: float | None = None,
    h: str = DEFAULT_H,
    n_folds: int = 10,
) -> TrainedEnsemble:
    """Full training pass.

    Grid mode (grid given): meta-data by n_folds-fold CV, alpha by grid
    search. Fixed mode (fixed_alpha given): no CV and no search; the
    combiner behaves as a fixed combining rule.
    """
    if (grid is None) == (fixed_alpha is None):
        raise TrainingError("provide exactly one of grid or fixed_alpha")
    if len(specs) < 2:
        raise TrainingError("need at least two base learners")
    if h not in combiners.H_KINDS:
        raise TrainingError(f"unknown h function {h!r}")

    if grid is not None:
        meta = cross_validated_meta(data, specs, n_folds, seed)
        alpha, curve = select_alpha(meta, data.labels, grid, h)
    else:
        alpha = float(fixed_alpha)
        if alpha < 0 or not np.isfinite(alpha):
            raise TrainingError("fixed alpha must be finite and >= 0")
        curve = []

    models = tuple(
        fit(spec, data, derive_seed(seed, 0xF111, j))
        for j, spec in enumerate(specs)
    )
    return TrainedEnsemble(
        classifiers=models,
        alpha=alpha,
        h=h,
        catalog=data.catalog,
        alpha_error_curve=tuple(curve),
    )


@dataclass(frozen=True)
class PredictionDetail:
    """All stages of one granular prediction, for inspection.  profile is
    the read-only (K, M) posterior array, one row per classifier in
    TrainedEnsemble.classifier_ids order."""

    profile: np.ndarray = field(compare=False)
    intervals: tuple[Granule, ...]
    memberships: tuple[float, ...]
    decision: int


def ensemble_profiles(ensemble: TrainedEnsemble, x: np.ndarray) -> np.ndarray:
    """(n, K, M) posterior profiles from the refitted base classifiers."""
    return stack_profiles(ensemble.classifiers, x)


def predict(ensemble: TrainedEnsemble, x: Sequence[float]) -> PredictionDetail:
    return predict_batch(ensemble, np.asarray(x, dtype=np.float64)[None, :])[0]


def predict_batch(
    ensemble: TrainedEnsemble, x: np.ndarray
) -> list[PredictionDetail]:
    """One PredictionDetail per row of x.  All rows go through the batch
    granule kernel together; each detail holds its row's bounds,
    memberships and argmax, so a row decides as `evaluate` decides on the
    same profile."""
    profiles = MetaMatrix(
        ensemble_profiles(ensemble, x), ensemble.catalog, ensemble.classifier_ids
    ).scores
    bounds = combiners.granular_bounds_batch(profiles, ensemble.alpha)
    values = combiners.memberships_from_bounds(bounds, ensemble.h)
    decisions = np.argmax(values, axis=1)
    alpha = float(ensemble.alpha)
    return [
        PredictionDetail(
            profile=profile,
            intervals=tuple(Granule(lo, hi, alpha) for lo, hi in bounds[i].tolist()),
            memberships=tuple(values[i].tolist()),
            decision=int(decisions[i]),
        )
        for i, profile in enumerate(profiles)
    ]


def save_ensemble(path, ensemble: TrainedEnsemble) -> None:
    payload = {
        "format_version": ENSEMBLE_FORMAT_VERSION,
        "alpha": ensemble.alpha,
        "h": ensemble.h,
        "catalog": list(ensemble.catalog.labels),
        "alpha_error_curve": [list(p) for p in ensemble.alpha_error_curve],
        "classifiers": [c.to_state() for c in ensemble.classifiers],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)


_ENSEMBLE_KEYS = ("alpha", "h", "catalog", "alpha_error_curve", "classifiers")
_CLASSIFIER_KEYS = ("kind", "params", "catalog", "state")


def _require_keys(obj, keys, what: str) -> None:
    if not isinstance(obj, dict):
        raise TrainingError(f"{what} must be a JSON object")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise TrainingError(f"{what} lacks key(s) {', '.join(missing)}")


def _finite_real(v) -> bool:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        return False


def _check_ensemble(payload) -> None:
    """Raise TrainingError unless payload is a model that loads and
    predicts: every value the loader and the predictors read is there and
    has the type they need."""
    if not isinstance(payload, dict):
        raise TrainingError("model file must hold a JSON object")
    version = payload.get("format_version")
    if version != ENSEMBLE_FORMAT_VERSION:
        raise TrainingError(f"unsupported ensemble format version {version!r}")
    _require_keys(payload, _ENSEMBLE_KEYS, "model")
    alpha = payload["alpha"]
    if not (_finite_real(alpha) and alpha >= 0):
        raise TrainingError(
            f"model alpha must be a finite number >= 0, got {alpha!r}"
        )
    if payload["h"] not in combiners.H_KINDS:
        raise TrainingError(f"model h must be one of {combiners.H_KINDS}")
    if not isinstance(payload["catalog"], list):
        raise TrainingError("model 'catalog' must be a list")
    curve = payload["alpha_error_curve"]
    if not isinstance(curve, list) or not all(
        isinstance(e, list) and len(e) == 2 and all(map(_finite_real, e))
        for e in curve
    ):
        raise TrainingError(
            "model 'alpha_error_curve' must be a list of [alpha, error] pairs"
        )
    classifiers = payload["classifiers"]
    if not isinstance(classifiers, list):
        raise TrainingError("model 'classifiers' must be a list")
    if not classifiers:
        raise TrainingError("model has no classifiers")
    if len(classifiers) < 2:
        raise TrainingError("model needs at least two classifiers, it has 1")
    n_features = None
    for i, c in enumerate(classifiers):
        what = f"model classifier {i}"
        _require_keys(c, _CLASSIFIER_KEYS, what)
        if c["kind"] not in STATE_KEYS:
            raise TrainingError(f"{what} has unknown kind {c['kind']!r}")
        if not isinstance(c["params"], dict):
            raise TrainingError(f"{what} params must be a JSON object")
        _require_keys(c["state"], STATE_KEYS[c["kind"]], f"{what} state")
        if c["catalog"] != payload["catalog"]:
            raise TrainingError(f"{what} catalog differs from the model's")
        d = c["state"]["n_features"]
        if not isinstance(d, int) or isinstance(d, bool):
            raise TrainingError(f"{what} n_features must be an integer")
        if n_features is not None and d != n_features:
            raise TrainingError(
                f"{what} takes {d} features, classifier 0 takes {n_features}"
            )
        n_features = d


def load_ensemble(path) -> TrainedEnsemble:
    with open(path) as fh:
        payload = json.load(fh)
    _check_ensemble(payload)
    return TrainedEnsemble(
        classifiers=tuple(
            FittedClassifier.from_state(c) for c in payload["classifiers"]
        ),
        alpha=float(payload["alpha"]),
        h=payload["h"],
        catalog=ClassCatalog(tuple(payload["catalog"])),
        alpha_error_curve=tuple(
            (float(a), float(e)) for a, e in payload["alpha_error_curve"]
        ),
    )
