"""Training and prediction for the granular ensemble.

Training: generate meta-data of the training set by stratified T-fold
cross-validation, grid-search the specificity weight alpha against the
training-set error of the granular combiner, then refit all base
classifiers on the full training set.  Prediction stacks the (n, K, M)
posterior profiles of the refitted classifiers, builds per-class
intervals, and decides by maximum numerical class membership.
`load_ensemble` reads a model file and checks its payload in one pass: the
format version, then every top-level key against `MODEL_TYPES`, then
`FittedClassifier.from_state` on each classifier record; the learners must
make a roster `train` accepts (`check_roster`), and every training set must
be named by a record.  `save_ensemble` runs the same check on the payload
it writes before it opens the file, so it writes only what load accepts.

Every fold fit of the package goes through `part_profiles`, one
`fit_folds` call per learner, over parts that `fold_parts` lists: the
meta-CV of `train` and `alpha-curve` through `generate_meta_cv`, and each
protocol repeat, `evaluation._repeat_runs`, whose outer and inner training
parts go in one call.  `fold_parts` is the one place a part's seed is derived,
and `meta_from_folds` assembles the meta-data of both.  Seeds come from
`derive_seed`, which chains:
derive_seed(derive_seed(s, *a), *b) == derive_seed(s, *a, *b), so a fit's
seed depends on its coordinates, not on the call that made it.

Caveat: alpha is selected on the same meta-data its error is measured on
(no nested validation), so the reported alpha-error curve is optimistically
biased as a generalization estimate.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import combiners
# granular_intervals is not called here but stays a name of this module:
# bench/tracer.py wraps it by this name.
from .combiners import DEFAULT_H, Granule, granular_intervals  # noqa: F401
from .learners import (
    Dataset,
    FittedClassifier,
    LearnerError,
    LearnerSpec,
    _unnamed_training_sets,
    check_roster,
    fit,
    fit_folds,
    predict_proba_models,
)
from .metadata import (ClassCatalog, MetadataError, MetaMatrix, _check_object,
                       _is_int, _is_number, _read_json)

__all__ = [
    "AlphaGrid",
    "FoldPlan",
    "TrainedEnsemble",
    "PredictionDetail",
    "PredictionBatch",
    "TrainingError",
    "default_alpha_grid",
    "derive_seed",
    "make_fold_plan",
    "fold_parts",
    "part_profiles",
    "stack_profiles",
    "meta_from_folds",
    "generate_meta_cv",
    "cross_validated_meta",
    "error_for_alpha",
    "error_curves",
    "select_alpha",
    "train",
    "predict",
    "predict_batch",
    "save_ensemble",
    "load_ensemble",
]

ENSEMBLE_FORMAT_VERSION = 3  # 3: each fact once, knn training rows too


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
        if self.n_folds < 2:
            raise TrainingError(f"need at least 2 folds, got {self.n_folds}")
        a = np.array(self.assignments)
        if (a.dtype.kind not in "iu" or a.ndim != 1
                or ((a < 0) | (a >= self.n_folds)).any()):
            raise TrainingError(f"fold assignments must be a list of integer "
                                f"folds in [0, {self.n_folds})")
        a = a.astype(np.int64, copy=False)
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
        assignments[idx] = (cursor + np.arange(len(idx))) % n_folds
        cursor += len(idx)
    return FoldPlan(assignments, n_folds)


def fold_parts(
    plan: FoldPlan, seed: int, rows: np.ndarray
) -> tuple[list[np.ndarray], list[int], list[list[np.ndarray]]]:
    """The parts of the cross-validation plan over the data rows `rows`
    (increasing indices into the data), as `part_profiles` reads them:
    part t trains on rows[plan.complement_indices(t)], increasing, has
    seed derive_seed(seed, t) and is queried on rows[plan.fold_indices(t)]."""
    folds = range(plan.n_folds)
    return ([rows[plan.complement_indices(t)] for t in folds],
            [derive_seed(seed, t) for t in folds],
            [[rows[plan.fold_indices(t)]] for t in folds])


def part_profiles(
    data: Dataset,
    specs: Sequence[LearnerSpec],
    rests: Sequence[np.ndarray],
    seeds: Sequence[int],
    queries: Sequence[Sequence[np.ndarray]],
) -> list[list[np.ndarray]]:
    """out[t][i] is the (len(q), K, M) profile stack of the rows
    q = queries[t][i] of data from the models fitted on its rows rests[t],
    learner j with seed derive_seed(seeds[t], j).  Each learner fits every
    part in one `fit_folds` call: one batched kernel call for
    logistic-linear, and batched groups for the trees, when the parts are
    increasing index arrays with the same classes present.  The models are
    read part by part, so a part's models are dropped once its profiles are
    stacked, and its knn models share one neighbour search."""
    fitted = [fit_folds(spec, data, rests, [derive_seed(s, j) for s in seeds])
              for j, spec in enumerate(specs)]
    return [[stack_profiles(models, data.features[q]) for q in qs]
            for models, qs in zip(zip(*fitted), queries)]


def stack_profiles(models: Sequence[FittedClassifier], x: np.ndarray) -> np.ndarray:
    """(n, K, M) posterior profiles of the rows of x, one column per model.
    The knn models of one training set share one neighbour search."""
    return np.stack(predict_proba_models(models, x), axis=1)


def meta_from_folds(
    catalog: ClassCatalog,
    plan: FoldPlan,
    held_profiles: Sequence[np.ndarray],
    names: Sequence[str],
) -> MetaMatrix:
    """Meta-data over catalog of the len(plan.assignments) rows that plan
    splits, one column per name: the rows of fold t take held_profiles[t],
    their profiles from the models fitted on all other folds."""
    scores = np.empty((len(plan.assignments), len(names), catalog.size))
    for t, profiles in enumerate(held_profiles):
        scores[plan.fold_indices(t)] = profiles
    return MetaMatrix(scores, catalog, tuple(names))


def generate_meta_cv(
    data: Dataset, specs: Sequence[LearnerSpec], plan: FoldPlan, seed: int
) -> MetaMatrix:
    """Meta-data of the training set: each fold's profiles come from the
    models `part_profiles` fits on the parts `fold_parts` lists, learner j
    of fold t with seed derive_seed(seed, t, j).  Raises TrainingError when
    a class is absent from a complement or the plan does not split the
    data's rows."""
    if len(plan.assignments) != data.n_observations:
        raise TrainingError(f"the fold plan splits {len(plan.assignments)} "
                            f"rows, the data has {data.n_observations}")
    rests, seeds, queries = fold_parts(plan, seed, np.arange(data.n_observations))
    for t, rest in enumerate(rests):
        absent = np.bincount(data.labels[rest], minlength=data.catalog.size) == 0
        if absent.any():
            label = data.catalog.labels[int(np.argmax(absent))]
            raise TrainingError(
                f"class {label!r} absent from the training complement of fold {t}"
            )
    held = [h[0] for h in part_profiles(data, specs, rests, seeds, queries)]
    return meta_from_folds(data.catalog, plan, held, [s.name for s in specs])


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


def error_curves(
    meta: MetaMatrix, labels: np.ndarray, alphas: Sequence[float], hs: Sequence[str]
) -> dict[str, list[tuple[float, float]]]:
    """The (alpha, meta-level error) curve of the granular combiner over
    the alphas, for each h function in hs.  The class columns are sorted
    and counted once, the bounds are picked once per alpha for every h,
    and each picked block of alphas is de-granulated once per h."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape[0] != meta.n_observations:
        raise TrainingError("labels length does not match meta matrix")
    if meta.n_observations == 0:
        raise TrainingError("meta matrix has no observations to score alpha on")
    errors: dict[str, list[float]] = {h: [] for h in hs}
    for bounds in combiners.granular_bounds_sweep(meta.scores, alphas):
        for h, curve in errors.items():
            decisions = np.argmax(combiners.memberships_from_bounds(bounds, h), axis=2)
            curve.extend(np.mean(decisions != labels, axis=1).tolist())
    return {h: list(zip(alphas, curve)) for h, curve in errors.items()}


def error_for_alpha(
    meta: MetaMatrix, labels: np.ndarray, alpha: float, h: str = DEFAULT_H
) -> float:
    """Fraction of observations the granular combiner misclassifies."""
    return error_curves(meta, labels, (alpha,), (h,))[h][0][1]


def select_alpha(
    meta: MetaMatrix,
    labels: np.ndarray,
    grid: AlphaGrid,
    h: str = DEFAULT_H,
) -> tuple[float, list[tuple[float, float]]]:
    """Grid value with the lowest meta-level error; ties go to the smallest
    alpha. Returns (alpha, full error curve)."""
    curve = error_curves(meta, labels, grid.values, (h,))[h]
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
    specs = check_roster(specs, TrainingError)
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


@dataclass(frozen=True, eq=False)
class PredictionBatch(Sequence):
    """The predictions of n rows as arrays: the read-only (n, K, M)
    profiles, the (n, M, 2) [lower, upper] granule bounds, the (n, M)
    memberships and the (n,) decisions.  As a sequence its items are the
    rows' PredictionDetail, each built when it is read; a slice is the
    batch of those rows."""

    profiles: np.ndarray
    bounds: np.ndarray
    memberships: np.ndarray
    decisions: np.ndarray
    alpha: float

    def __len__(self) -> int:
        return len(self.decisions)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return PredictionBatch(self.profiles[i], self.bounds[i],
                                   self.memberships[i], self.decisions[i],
                                   self.alpha)
        i = range(len(self))[i]  # a list's IndexError and TypeError
        return PredictionDetail(
            profile=self.profiles[i],
            intervals=tuple(Granule(lo, hi, self.alpha)
                            for lo, hi in self.bounds[i].tolist()),
            memberships=tuple(self.memberships[i].tolist()),
            decision=int(self.decisions[i]),
        )


def predict(ensemble: TrainedEnsemble, x: Sequence[float]) -> PredictionDetail:
    return predict_batch(ensemble, np.asarray(x, dtype=np.float64)[None, :])[0]


def predict_batch(ensemble: TrainedEnsemble, x: np.ndarray) -> PredictionBatch:
    """The predictions of the rows of x.  All rows go through the batch
    granule kernel together; each row's decision is the argmax of its
    memberships, so a row decides as `evaluate` decides on the same
    profile."""
    # Rows that from_state and _to_catalog let through are posteriors.
    profiles = ensemble_profiles(ensemble, x)
    profiles.setflags(write=False)
    bounds = combiners.granular_bounds_batch(profiles, ensemble.alpha)
    values = combiners.memberships_from_bounds(bounds, ensemble.h)
    return PredictionBatch(profiles, bounds, values, np.argmax(values, axis=1),
                           float(ensemble.alpha))


def save_ensemble(path, ensemble: TrainedEnsemble) -> None:
    """Write ensemble to the model file at path.  The payload, as
    load_ensemble reads it back, gets load_ensemble's check first: a model
    it would refuse, such as one whose fit overflowed to a non-finite
    state, raises TrainingError naming the classifier, and no file is
    written."""
    training_sets: dict[bytes, dict] = {}
    classifiers = [c.to_state(training_sets) for c in ensemble.classifiers]
    payload = {
        "format_version": ENSEMBLE_FORMAT_VERSION,
        "alpha": ensemble.alpha,
        "h": ensemble.h,
        "catalog": list(ensemble.catalog.labels),
        "n_features": ensemble.classifiers[0].n_features,
        "alpha_error_curve": [list(p) for p in ensemble.alpha_error_curve],
        "training_sets": list(training_sets.values()),
        "classifiers": classifiers,
    }
    text = json.dumps(payload, indent=1)
    try:
        _checked_ensemble(json.loads(text))
    except TrainingError as exc:
        raise TrainingError(f"{path} not written: {exc}") from None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _is_list(value) -> bool:
    return isinstance(value, list)


# Every top-level key of a model file: (what its value must be, check).
# load_ensemble checks the format version before the others.
MODEL_TYPES = {
    "format_version": None,
    "alpha": ("a finite number >= 0", lambda v: _is_number(v) and v >= 0),
    "h": (f"one of {combiners.H_KINDS}", lambda v: v in combiners.H_KINDS),
    "catalog": ("a list of class names",
                lambda v: _is_list(v) and all(isinstance(c, str) for c in v)),
    "n_features": ("an integer >= 1", lambda v: _is_int(v) and v >= 1),
    "alpha_error_curve": (
        "a list of [alpha, error] pairs",
        lambda v: _is_list(v) and all(
            _is_list(e) and len(e) == 2 and all(map(_is_number, e)) for e in v)),
    "training_sets": ("a list", _is_list),
    "classifiers": ("a list", _is_list),
}


def load_ensemble(path) -> TrainedEnsemble:
    return _checked_ensemble(_read_json(path, "model file", TrainingError))


def _checked_ensemble(payload) -> TrainedEnsemble:
    """The ensemble of a model file's JSON payload; raises TrainingError on
    any payload that load_ensemble must refuse."""
    if isinstance(payload, dict):  # a file of another version fails on that alone
        version = payload.get("format_version")
        if not (_is_int(version) and version == ENSEMBLE_FORMAT_VERSION):
            raise TrainingError(f"unsupported ensemble format version {version!r}")
    _check_object(payload, MODEL_TYPES, "model", TrainingError,
                  required=MODEL_TYPES)
    try:
        catalog = ClassCatalog(tuple(payload["catalog"]))
    except MetadataError as exc:
        raise TrainingError(f"model {exc}") from None
    classifiers: list[FittedClassifier] = []
    for j, c in enumerate(payload["classifiers"]):
        try:
            classifiers.append(FittedClassifier.from_state(
                c, catalog, payload["n_features"], payload["training_sets"]))
        except LearnerError as exc:
            raise TrainingError(f"model classifier {j}: {exc}") from None
    check_roster((c.spec for c in classifiers), TrainingError)
    unnamed = _unnamed_training_sets(payload["training_sets"])
    if unnamed:
        raise TrainingError(
            f"model training set {unnamed[0]} is named by no classifier")
    return TrainedEnsemble(
        classifiers=tuple(classifiers),
        alpha=float(payload["alpha"]),
        h=payload["h"],
        catalog=catalog,
        alpha_error_curve=tuple(
            (float(a), float(e)) for a, e in payload["alpha_error_curve"]
        ),
    )
