"""Training and prediction for the granular ensemble.

Training: generate meta-data of the training set by stratified T-fold
cross-validation, grid-search the specificity weight alpha against the
training-set error of the granular combiner, and refit all base
classifiers on the full training set; in grid mode the refit is one more
part of the meta-CV's fit, as below.  `train` checks its arguments before
any fit: a grid that is not an `AlphaGrid`, a fixed_alpha that is not a
finite number >= 0 (a bool is none) and an n_folds that is not an integer
>= 2 each raise TrainingError.  A fixed-alpha `train` has no meta-CV and
fits its K models with `fit` in this process: a lone part would fork for
less work than the fork costs.  Finite training features too large for a
learner's sums (a column scaled by 1e154) fail naming the first
classifier whose posteriors come out non-finite.

Prediction stacks the (n, K, M) posterior profiles of the refitted
classifiers, builds per-class intervals, and decides by maximum numerical
class membership.  `predict_batch` returns a `PredictionBatch` of arrays,
a sequence of the rows' PredictionDetail built as they are read, and
`predict` is the first item of a one-row batch.

The model file.  Format 3 holds each fact once: the catalog and the
feature count at the top, each knn training set once in `training_sets`,
and the classifier records of `FittedClassifier.to_state`.
`load_ensemble` reads a model file and checks its payload in one pass: the
format version, which must be the JSON integer 3 (3.0 or true is refused),
then every top-level key against `MODEL_TYPES`, then
`FittedClassifier.from_state` on each classifier record; the learners must
make a roster `train` accepts (`check_roster`), and every training set must
be named by a record.  There is no loader for older versions: a version-2
file (each record with its own catalog, feature count, training rows and
dtype-tagged arrays) and a version-1 file (trees as nested dicts) fail
with `unsupported ensemble format version N`.  `save_ensemble` runs the
same check on the payload it writes before it opens the file, so it
writes only what load accepts: a fixed-alpha `train` predicts nothing
before it saves, so there the save refuses a non-finite state (`model
classifier 0: state 'inv_cov' holds a non-finite value`) and writes no
file.  A refused classifier record is named by its place and, where its
kind and params are valid, by its learner: "model classifier 0 (lda): ...".

Every fold fit of the package goes through `part_profiles`, one rest
check and one `fit_folds` call per learner, over parts that `fold_parts`
lists (training rows, seed, query rows): the meta-CV of `alpha-curve`
through `generate_meta_cv`, the meta-CV of `train` with its full-data
refit as one more part, and each protocol repeat, `evaluation._repeat_runs`,
whose outer and inner training parts go in one call.  A part with no query
gives its K fitted models, in roster order, not profiles: that is how
`train` reads its refit, which so shares the folds' logistic-linear kernel
call, tree growth and task queue.  The meta-CV's checks, a class with
fewer rows than folds and a class absent from a fold complement, run
before any fit in `_cv_plan` and `_meta_cv`, which `cross_validated_meta`,
`generate_meta_cv` and `train` share.  A `FoldPlan` needs at least 2 folds
and an integer fold in [0, n_folds) for every row, and `generate_meta_cv`
refuses a plan that does not split exactly the data's rows, so no
meta-data row is left unfilled or dropped.  `fold_parts` is the one place
a fold's seed is derived, and `meta_from_folds` assembles the meta-data of
both.  Seeds come from `derive_seed`, which chains:
derive_seed(derive_seed(s, *a), *b) == derive_seed(s, *a, *b), so a fit's
seed depends on its coordinates, not on the call that made it; the refit
part's seed derive_seed(seed, 0xF111) gives learner j the seed
derive_seed(seed, 0xF111, j) of a lone `fit`.

`error_curves` is the alpha sweep: given the alphas and the h functions,
it picks the bounds once per alpha and de-granulates each picked block
once per h, so `alpha-curve`'s three h columns share one search;
`error_for_alpha` is its one-alpha view and `select_alpha` its one-h view.
`alpha-curve` runs it on `cross_validated_meta`, the meta-data `train`
searches.  Its work is chunks of meta rows, each sized so that its whole
alpha grid is one pick block (GRANULE_BLOCK_CELLS // (A * M * w) rows); a
chunk counts the rows it misclassifies per h and alpha, and an error is
the summed count over n, bitwise the mean of a one-pass sweep.

`part_profiles` and `error_curves` list their work as tasks that
`tasks.run` drains, on this process and one forked child where it can.
`error_curves` forks only for a sweep of at least SWEEP_FORK_SCORES = 2^21
scores (2 * n * M * w * A), as below that a fork costs more than the half
of the sweep it takes over.  On either path a failing learner raises the
error of the first part, query and learner whose model fails
(`_raise_first_error`).

Caveat: alpha is selected on the same meta-data its error is measured on
(no nested validation), so the reported alpha-error curve is optimistically
biased as a generalization estimate.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import combiners, tasks
# granular_intervals is not called here but stays a name of this module:
# bench/tracer.py wraps it by this name.
from .combiners import DEFAULT_H, Granule, granular_intervals  # noqa: F401
from .granule import GRANULE_BLOCK_CELLS, _checked_alphas
from .learners import (
    _KINDS,
    Dataset,
    FittedClassifier,
    LearnerError,
    LearnerSpec,
    _unnamed_training_sets,
    check_roster,
    check_rests,
    fit,
    fit_folds,
    predict_proba_models,
)
from .metadata import (ClassCatalog, MetadataError, MetaMatrix, _check_object,
                       _class_labels, _is_int, _is_number, _read_json)

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

# error_curves forks its child for a sweep of this many scores or more,
# 2 * n * M * w * A.  A fork and the page faults it causes cost ~6-8 ms on
# a 2-vCPU Xeon VM: select_alpha (default grid, h3) on a K = 12, M = 3 meta
# took 4.3 ms serial and 10.6 ms forked at 300 rows (0.5M scores), 11.1 and
# 14.5 ms at 800 rows, about even at 1,200-1,400 rows (2.1-2.4M), and 38.3
# and 30.7 ms at 2,500 rows (4.3M; medians of 40-80 alternating calls).
SWEEP_FORK_SCORES = 1 << 21


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
    queries: Sequence[Sequence[np.ndarray] | None],
) -> list[list[np.ndarray] | list[FittedClassifier]]:
    """out[t][i] is the (len(q), K, M) profile stack of the rows
    q = queries[t][i] of data from the models fitted on its rows rests[t],
    learner j with seed derive_seed(seeds[t], j).  A part whose queries are
    None has no query: out[t] is its K fitted models themselves, in roster
    order, as `train` reads its full-data refit.  The rests are checked
    once, and each learner gets one `fit_folds` call over every part.

    The work is a list of tasks, each computing some (part, learner)
    columns (`_task_columns`): first one task per learner whose kind fits
    the parts together (one batched kernel call for logistic-linear,
    batched groups for the trees, when the parts are increasing index
    arrays with the same classes present), which reads its models part by
    part; then one task per part for the learners whose kind fits each part
    on its own (`_each_part`), so a part's knn models share one neighbour
    search.  A model is dropped once its columns are made, except those of
    a part with no query, which are kept as its cells.  `tasks.run` drains
    the tasks; where a task raises, the error raised is that of the first
    part, query and learner, in that order, whose model fails
    (`_raise_first_error`), whichever task failed first."""
    rests = check_rests(data, rests)
    fitted = [fit_folds(spec, data, rests, [derive_seed(s, j) for s in seeds])
              for j, spec in enumerate(specs)]
    each = [j for j, spec in enumerate(specs) if _KINDS[spec.kind].each_part]
    task_list = [([j], None) for j in range(len(specs)) if j not in each]
    if each:
        task_list += [(each, t) for t in range(len(rests))]

    def run(learners, part):
        return _task_columns(data, fitted, queries, learners, part)

    try:
        cells = tasks.run(task_list, run)
    except Exception:
        _raise_first_error(data, fitted, queries)
        raise
    roster = range(len(specs))
    return [[cells[t, j] for j in roster] if qs is None else
            [np.stack([cells[t, j][i] for j in roster], axis=1)
             for i in range(len(qs))] for t, qs in enumerate(queries)]


def _task_columns(data, fitted, queries, learners, part):
    """The columns of one task as {(t, j): learner j's posterior columns on
    the rows of each query of part t}, from the learners' fitted models
    (one sequence per learner); for a part t with no query (queries[t] is
    None), (t, j) holds learner j's model instead.  A task of part None
    reads every part's model of its one learner in order, from one fitter
    call; a task of part t reads its learners' models of part t, predicted
    together."""
    if part is None:
        (j,) = learners
        models = enumerate([m] for m in fitted[j])
    else:
        models = [(part, [fitted[j][part] for j in learners])]
    cells = {}
    for t, ms in models:
        if queries[t] is None:
            cells.update(((t, j), m) for j, m in zip(learners, ms))
            continue
        columns = [predict_proba_models(ms, data.features[q]) for q in queries[t]]
        for k, j in enumerate(learners):
            cells[t, j] = [c[k] for c in columns]
    return cells


def _raise_first_error(data, fitted, queries):
    """Raise the error of the first part, query and learner, in that order,
    whose model fails to fit or predict, each model predicted on its own:
    the error does not depend on the order the tasks ran in.  A part with
    no query fails only where a model fails to fit."""
    for t, qs in enumerate(queries):
        models = [fits[t] for fits in fitted]
        for q in qs or ():
            for model in models:
                model.predict_proba_batch(data.features[q])


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
    return _meta_cv(data, specs, plan, seed)[0]


def cross_validated_meta(
    data: Dataset, specs: Sequence[LearnerSpec], n_folds: int, seed: int
) -> MetaMatrix:
    """The meta-data `train` searches alpha over: every class needs at
    least n_folds rows, and the stratified plan is seeded by
    derive_seed(seed, 0xF01D)."""
    return generate_meta_cv(data, specs, _cv_plan(data, n_folds, seed), seed)


def _cv_plan(data: Dataset, n_folds: int, seed: int) -> FoldPlan:
    """The fold plan of `cross_validated_meta` and `train`; raises
    TrainingError when a class has fewer than n_folds rows."""
    counts = np.bincount(data.labels, minlength=data.catalog.size)
    short = [lab for lab, n in zip(data.catalog.labels, counts) if n < n_folds]
    if short:
        raise TrainingError(
            f"classes with fewer observations than folds: {short}"
        )
    return make_fold_plan(data.labels, n_folds, derive_seed(seed, 0xF01D))


def _meta_cv(data, specs, plan, seed, refit=None):
    """(meta, models): the meta-data of `generate_meta_cv` and, where refit
    is a seed, the K models of one more part in the same `part_profiles`
    call, on every row with seed refit and no query, learner j's bitwise
    fit(specs[j], data, derive_seed(refit, j)); models is None otherwise.
    Every check of the meta-CV runs here, before any fit."""
    if len(plan.assignments) != data.n_observations:
        raise TrainingError(f"the fold plan splits {len(plan.assignments)} "
                            f"rows, the data has {data.n_observations}")
    rows = np.arange(data.n_observations)
    rests, seeds, queries = fold_parts(plan, seed, rows)
    for t, rest in enumerate(rests):
        absent = np.bincount(data.labels[rest], minlength=data.catalog.size) == 0
        if absent.any():
            label = data.catalog.labels[int(np.argmax(absent))]
            raise TrainingError(
                f"class {label!r} absent from the training complement of fold {t}"
            )
    if refit is not None:
        rests.append(rows)
        seeds.append(refit)
        queries.append(None)
    out = part_profiles(data, specs, rests, seeds, queries)
    held = [h[0] for h in out[:plan.n_folds]]
    meta = meta_from_folds(data.catalog, plan, held, [s.name for s in specs])
    return meta, (tuple(out[-1]) if refit is not None else None)


def error_curves(
    meta: MetaMatrix, labels: np.ndarray, alphas: Sequence[float], hs: Sequence[str]
) -> dict[str, list[tuple[float, float]]]:
    """The (alpha, meta-level error) curve of the granular combiner over
    the alphas, for each h function in hs.  The labels, the h functions and
    the alphas are checked before any work: a label that is not an integer
    class of the meta-data's catalog, or an unknown h, raises
    TrainingError, an alpha that is not finite and >= 0 GranuleError.

    The work is a list of tasks, one per chunk of CHUNK rows, CHUNK =
    GRANULE_BLOCK_CELLS // (A * M * w) for A alphas, M classes and w = K //
    2 + 1 candidates per side, so that a chunk picks its whole grid in one
    block (`_chunk_errors`): each prepares the class columns of its rows,
    picks the bounds at every alpha and de-granulates them once per h, and
    counts the rows it misclassifies.  An error is the count summed over
    the chunks, over n: bitwise np.mean of the decisions that differ from
    the labels, as sums of 0s and 1s are exact.  `tasks.run` drains the
    tasks, with its fork only for a sweep of at least SWEEP_FORK_SCORES
    scores, 2 * n * M * w * A."""
    n, k, m = meta.scores.shape
    labels = _class_labels(labels, n, m, TrainingError)
    if n == 0:
        raise TrainingError("meta matrix has no observations to score alpha on")
    hs = list(dict.fromkeys(hs))
    for h in hs:
        if h not in combiners.H_KINDS:
            raise TrainingError(f"unknown h function {h!r}")
    checked = _checked_alphas(alphas)
    per_row = m * (k // 2 + 1) * len(checked)  # scores per side of one row
    chunk = max(1, GRANULE_BLOCK_CELLS // max(1, per_row))
    task_list = [(slice(start, start + chunk),) for start in range(0, n, chunk)]

    def run(rows):
        return _chunk_errors(meta.scores, labels, checked, hs, rows)

    fork = 2 * n * per_row >= SWEEP_FORK_SCORES
    wrong = sum(tasks.run(task_list, run, fork=fork).values())
    return {h: list(zip(alphas, curve.tolist())) for h, curve in zip(hs, wrong / n)}


def _chunk_errors(scores, labels, alphas, hs, rows):
    """{rows.start: W}, W[i, a] the number of the meta rows `rows` (a
    slice) that the granular combiner misclassifies with h function hs[i]
    at alphas[a], as int64."""
    wrong = np.empty((len(hs), len(alphas)), dtype=np.int64)
    done = 0
    for bounds in combiners.granular_bounds_sweep(scores[rows], alphas):
        for i, h in enumerate(hs):
            decisions = np.argmax(combiners.memberships_from_bounds(bounds, h), axis=2)
            wrong[i, done:done + len(bounds)] = np.count_nonzero(
                decisions != labels[rows], axis=1)
        done += len(bounds)
    return {rows.start: wrong}


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
    """Full training pass.  Learner j's model is fit(specs[j], data,
    derive_seed(seed, 0xF111, j)), bitwise, in either mode.

    Grid mode (grid given): meta-data by n_folds-fold CV, alpha by grid
    search.  The full-data refit is one more part of the meta-CV's
    `part_profiles` call, seeded derive_seed(seed, 0xF111) with no query,
    so its fits share the folds' batched calls and task queue.  Fixed mode
    (fixed_alpha given): no CV and no search, and the combiner behaves as
    a fixed combining rule; its refit is a loop of `fit` calls in this
    process, as one part alone through the task queue would fork for less
    than the fork costs.

    The arguments are checked before any fit: the roster, h, a grid that
    is not an AlphaGrid, a fixed_alpha that is not a finite number >= 0 (a
    bool is none), an n_folds that is not an integer >= 2, a class with
    fewer than n_folds rows and a class absent from a fold complement each
    raise TrainingError.
    """
    if (grid is None) == (fixed_alpha is None):
        raise TrainingError("provide exactly one of grid or fixed_alpha")
    specs = check_roster(specs, TrainingError)
    if h not in combiners.H_KINDS:
        raise TrainingError(f"unknown h function {h!r}")
    if grid is not None and not isinstance(grid, AlphaGrid):
        raise TrainingError(f"grid must be an AlphaGrid, got {type(grid).__name__}")
    if fixed_alpha is not None and not (_is_number(fixed_alpha) and fixed_alpha >= 0):
        raise TrainingError("fixed alpha must be finite and >= 0")
    if not (_is_int(n_folds) and n_folds >= 2):
        raise TrainingError(f"need at least 2 folds, got {n_folds!r}")

    refit = derive_seed(seed, 0xF111)
    if grid is not None:
        meta, models = _meta_cv(data, specs, _cv_plan(data, n_folds, seed), seed,
                                refit)
        alpha, curve = select_alpha(meta, data.labels, grid, h)
    else:
        models = tuple(fit(spec, data, derive_seed(refit, j))
                       for j, spec in enumerate(specs))
        alpha, curve = float(fixed_alpha), []
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
    """(n, K, M) posterior profiles from the refitted base classifiers; the
    knn models of one training set share one neighbour search."""
    return np.stack(predict_proba_models(ensemble.classifiers, x), axis=1)


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


def _learner_label(record) -> str:
    """The learner's name in parentheses, after a space, for a classifier
    record whose kind and params are valid; else the empty string."""
    if isinstance(record, dict) and isinstance(record.get("params"), dict):
        try:
            return f" ({LearnerSpec(record.get('kind'), record['params']).name})"
        except LearnerError:
            pass
    return ""


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
            raise TrainingError(
                f"model classifier {j}{_learner_label(c)}: {exc}") from None
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
