"""Base learning algorithms emitting per-class posterior probabilities.

Every learner is implemented from scratch on numpy so that fitting and
prediction are deterministic given (spec, data, seed).  Posterior recipes:

  knn                  vote fractions of the k nearest training rows by
                       squared distance, ties to the lower training index
                       (exact-distance matches take the whole vote)
  gaussian-naive-bayes Gaussian likelihoods x smoothed priors, scaled to sum 1
  lda                  shared-covariance Gaussian discriminants, scaled to sum 1
  fisher               logistic squashing of one-vs-rest Fisher scores
  logistic-linear      multinomial softmax regression
  decision-tree/stump  leaf class proportions of a CART tree (Gini)
  nearest-mean         softmin of distances to class means
  perceptron           logistic squashing of one-vs-rest perceptron scores;
                       it steps row by row through a fresh permutation each
                       epoch, and an epoch after one with at most n/4
                       updates scores its remaining rows as one product and
                       compares each margin with one rounding bound on the
                       step's own dot product: a margin above it makes no
                       update, one below its negative makes one, and only a
                       margin between them takes the step.  It rescores
                       after each update, so the weights are bitwise those
                       of the row loop

Classes absent from the fitted data always receive posterior 0.

Each kind is one entry of `_KINDS`: fitter, predictor, the layout (dtype
and shape of each array, in p present classes, d features, and the
training rows or tree nodes that the first array sets) of the state the
predictor reads, and the defaults of every parameter the fitter or the
predictor reads: knn k = 5; decision-tree max_depth = 12, min_leaf = 2;
logistic-linear iterations = 500, rate = 0.1; perceptron iterations = 100,
rate = 0.1; the other kinds take none.  A state is exactly its layout's
arrays: a knn's is its training set (x, y), and its k is in the spec's
params.  The present classes and the feature count are the model's own
attributes.  `LearnerSpec` rejects other parameters and types each by its
default: an int >= 1, or a finite real > 0; a model file holding another
does not load.  A roster entry `knn` takes the default k, and `knn<k>`
writes k plainly (knn25, not knn025, knn+25 or knn2.5).

A fitted tree is one node table, numbered level by level from the root:
`feature` (-1 at a leaf), `threshold`, `children` (a split's left and
right child, a leaf's own index twice) and `proportions` (each node's
class proportions).  All query rows descend it together, one level per
step, until every row is at a leaf.

A kind has one fitter, over parts: given the features, the compact labels
of every row and a list of row subsets (rests) with their seeds, it returns
one state per rest.  `fit_folds` fits one learner on several rests of a
data set, as cross-validation does: `check_rests` checks the rests and
compacts the labels once, and the models it returns fit every rest in one
fitter call when iterated, or rest i alone when indexed; `fit` is its
one-rest call.  `check_rests` makes one pass over all rests (one count of
the (rest, label) pairs, and one comparison of each index with the next
over the rests laid end to end, the step from one rest to the next
skipped): a rest that is not an integer array of rows of the data set or
holds fewer than two classes raises LearnerError before any fit, and the
pass finds whether all rests are increasing with the same classes.  A
caller fitting several learners on the same rests checks them once.  Fits
run with floating-point warnings off, as predictions do: a state that
overflows fails as non-finite posteriors, naming its classifier, when it
predicts.

A rest's state never depends on the other rests of the call.  Two kinds
fit the rests together, bitwise equal to separate fits: logistic-linear
steps the weights of all rests in one kernel call, made when the first
state is read, and decision-tree and decision-stump grow the trees of all
rests level by level from one stable sort per feature, in groups of at
most TREE_BLOCK_CELLS = 2^16 rest rows x (features + classes), so the 110
rests of a protocol repeat on 150 rows take one or two groups.  A level
scores every cut of a feature on class-major cumulative counts, one
contiguous slab per class, and adds the squared class fractions slab by
slab in numpy's pairwise order, so each Gini impurity is bitwise the sum
over its own row.  The other kinds fit each rest on its own rows
(`_each_part`, which `_Kind.each_part` tells): `training.part_profiles`
fits those part by part and the other kinds over every part in one call.

A kind has one predictor, over models: it returns one raw posterior array
per model, over the model's present classes.  knn predicts its models
from one neighbour search, the other kinds each model on its own
(`_each_model`).  `predict_proba_models` is the one path from models to
catalog posteriors, and `predict_proba_batch` is its one-model call.  One
call converts and checks the query once and turns floating-point
warnings off once.  It sends the models of one `shared_key` (knn models
on one training set) to one predictor call and each other model to its
own, and writes each raw array into its model's present-class columns of
one zeroed (n, K, M) stack.  One test of every row sum of the stack
precedes one division in place; only when the test fails is each model
mapped on its own, to raise or to mend its zero-sum rows.  Every element
gets the arithmetic of a separate one-model call, so the stack is
bitwise the models' own `predict_proba_batch` results.
The knn search takes, per block of query rows, one distance block and one
partition of the distances at the largest k, k_max: the training rows
within each row's k_max-th distance are the candidates, and one stable
sort orders them by (distance, training index), so each k takes a prefix
of the same sorted candidates.  A row with a tie across its k_max-th
distance is sorted whole.  A block holds at most KNN_BLOCK_CELLS = 2^18
query rows x training rows x features terms: on the serve benchmark's
inputs (600 training rows, d = 4) the search takes no page faults per call
at that size, where 2^20-term blocks took about 5,400.  Beyond one block,
memory grows with the rows only by the query matrix, the (n, K, M)
posterior stack and the output table.  A row's output depends neither on
its block nor on which models share its search.

A model file's classifier record is what `FittedClassifier.to_state`
writes: `kind`, `params` and `state`.  A saved state holds `present` and
its layout's arrays as plain nested lists, typed and shaped by the layout
alone, with no dtype tags; a knn's holds `present` and the index of its
training set in the file's `training_sets`, where each distinct (x, y) is
one entry however many knn models fit it.  `FittedClassifier.from_state`
alone reads a record back, given the file's catalog, feature count and
training sets; the first record naming a training set types its arrays in
place, so the knn models naming one entry share one x and y and one
neighbour search.  It raises LearnerError on any fault: a record, state
or training set that is not an object, lacks a key or holds a key that
`to_state` never writes; an array of the wrong type (text, an object, or
a bool anywhere, even among numbers, as in a present of [0, true, 2]) or
shape; a non-finite number; a present that is not at least two strictly
increasing class indices; a training set index that is not an integer in
the table; training labels outside the present classes; a tree feature
outside [-1, d); a split child at or before its node or past the table; a
leaf child other than itself; a negative proportion; an LDA inv_cov
that is not symmetric to SYMMETRY_TOLERANCE (1e-9) of its largest entry or
not positive definite.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .metadata import ClassCatalog, _check_object, _is_int, _is_number

__all__ = [
    "Dataset",
    "LearnerSpec",
    "FittedClassifier",
    "LearnerError",
    "fit",
    "fit_folds",
    "check_rests",
    "predict_proba_models",
    "check_roster",
    "default_roster",
    "extended_roster",
    "spec_from_name",
]

RIDGE_FACTOR = 1e-6     # scatter-matrix regularization, scaled by trace/d
VARIANCE_FLOOR = 1e-9   # per-feature variance floor in naive Bayes
KNN_BLOCK_CELLS = 1 << 18  # query rows x training rows x features per knn block
# Rest rows x (features + classes) per tree group, the memory bound of one
# level-wise growth: the 110 rests of a protocol repeat on 150 rows take one
# or two groups.
TREE_BLOCK_CELLS = 1 << 16
SYMMETRY_TOLERANCE = 1e-9  # of a loaded LDA inv_cov, relative to its largest entry


# What a parameter must be, by the type of its default: (wording, check).
_PARAM_TYPES = {
    int: ("an integer >= 1", lambda v: _is_int(v) and v >= 1),
    float: ("a finite number > 0", lambda v: _is_number(v) and v > 0),
}


class LearnerError(ValueError):
    pass


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray  # (N, d)
    labels: np.ndarray    # (N,) indices into catalog
    catalog: ClassCatalog
    name: str = ""

    def __post_init__(self) -> None:
        feats = np.array(self.features, dtype=np.float64)
        labels = np.array(self.labels, dtype=np.int64)
        if feats.ndim != 2 or feats.shape[0] != labels.shape[0]:
            raise LearnerError("features must be (N, d) aligned with labels")
        if not np.isfinite(feats).all():
            raise LearnerError("non-finite feature values")
        if labels.min(initial=0) < 0 or (labels >= self.catalog.size).any():
            raise LearnerError("label index out of catalog range")
        feats.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)

    @property
    def n_observations(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(
            self.features[indices], self.labels[indices], self.catalog, self.name
        )


@dataclass(frozen=True)
class LearnerSpec:
    kind: str
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.kind, str) or self.kind not in _KINDS:
            raise LearnerError(
                f"unknown kind {self.kind!r}; the learner kinds are "
                f"{', '.join(_KINDS)}"
            )
        defaults = _KINDS[self.kind].defaults
        p = dict(self.params)
        for key, default in defaults.items():
            p.setdefault(key, default)
        for key, value in p.items():
            if key not in defaults:
                raise LearnerError(
                    f"{self.kind} has no parameter {key!r}; it takes "
                    f"{', '.join(defaults) or 'none'}"
                )
            need, ok = _PARAM_TYPES[type(defaults[key])]
            if not ok(value):
                raise LearnerError(
                    f"{self.kind} parameter {key!r} must be {need}, got {value!r}"
                )
        object.__setattr__(self, "params", p)

    @property
    def name(self) -> str:
        if self.kind == "knn":
            return f"knn{self.params['k']}"
        return self.kind


def spec_from_name(name: str) -> LearnerSpec:
    """Parse roster entries like "knn25" or "decision-tree".  A knn entry is
    "knn" (the default k) or "knn" and k written plainly, so the learner's
    name is the entry."""
    if name.startswith("knn") and name != "knn":
        if re.fullmatch(r"[1-9][0-9]*", name[3:]) is None:
            raise LearnerError(
                f"learner {name!r}: write knn or knn<k>, k an integer >= 1 "
                f"without sign, spaces or leading zeros"
            )
        return LearnerSpec("knn", {"k": int(name[3:])})
    return LearnerSpec(name)


def check_roster(specs: Iterable[LearnerSpec],
                 error: type[Exception] = LearnerError
                 ) -> tuple[LearnerSpec, ...]:
    """The roster as a tuple, if it holds at least two learners, each named
    once; otherwise raise error, the caller's type.  A learner's name
    labels its posterior column, so two learners of one name would make two
    columns that cannot be told apart."""
    specs = tuple(specs)
    names = [s.name for s in specs]
    if len(names) < 2:
        raise error("need at least two base learners")
    for i, name in enumerate(names):
        if name in names[:i]:
            raise error(f"learner {name!r} appears twice in the roster")
    return specs


def default_roster() -> list[LearnerSpec]:
    """Ten heterogeneous learners: LDA, Gaussian NB, KNN(5/25/50), tree,
    stump, Fisher, logistic, nearest-mean."""
    return [
        LearnerSpec("lda"),
        LearnerSpec("gaussian-naive-bayes"),
        LearnerSpec("knn", {"k": 5}),
        LearnerSpec("knn", {"k": 25}),
        LearnerSpec("knn", {"k": 50}),
        LearnerSpec("decision-tree"),
        LearnerSpec("decision-stump"),
        LearnerSpec("fisher"),
        LearnerSpec("logistic-linear"),
        LearnerSpec("nearest-mean"),
    ]


def extended_roster() -> list[LearnerSpec]:
    """Default roster plus perceptron and KNN(75)."""
    return default_roster() + [
        LearnerSpec("perceptron"),
        LearnerSpec("knn", {"k": 75}),
    ]


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _rows_dot(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w with every row rounded as inside a batch.  NumPy hands a
    one-row product to BLAS gemv, which can round differently from the gemm
    a batch gets, so one row is multiplied as two copies of itself."""
    if x.shape[0] == 1:
        return (np.repeat(x, 2, axis=0) @ w)[:1]
    return x @ w


def _scatter_ridge(sw: np.ndarray, d: int) -> np.ndarray:
    return sw + (RIDGE_FACTOR * np.trace(sw) / d + 1e-12) * np.eye(d)


class FittedClassifier:
    """A fitted base classifier: its spec, catalog, present classes
    (catalog indices), feature count and state, its kind's layout arrays."""

    def __init__(self, spec: LearnerSpec, catalog: ClassCatalog,
                 present: np.ndarray, n_features: int,
                 state: dict[str, np.ndarray]) -> None:
        self.spec = spec
        self.catalog = catalog
        self.present = present
        self.n_features = n_features
        self.state = state

    @cached_property
    def shared_key(self) -> bytes | None:
        """For a kind whose layout holds a training set, a digest of the
        kind, the present classes and the training set's arrays: models
        with equal keys (knn models on the same training rows, any k) share
        one predictor call.  None for other kinds.  Taken once per model,
        never saved."""
        if _TRAINING_SET not in _KINDS[self.spec.kind].state.values():
            return None
        h = hashlib.sha256(self.spec.kind.encode())
        for key, value in [("present", self.present),
                           *((k, self.state[k]) for k in _TRAINING_SET)]:
            value = np.ascontiguousarray(value)
            h.update(f";{key}:{value.dtype.str}:{value.shape}:".encode())
            h.update(value)
        return h.digest()

    def predict_proba(self, x: Sequence[float]) -> np.ndarray:
        return self.predict_proba_batch(np.asarray(x, dtype=np.float64)[None, :])[0]

    def predict_proba_batch(self, x: np.ndarray) -> np.ndarray:
        return predict_proba_models([self], x)[0]

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba_batch(x), axis=1)

    def to_state(self, training_sets: dict[bytes, dict]) -> dict[str, Any]:
        """The classifier's JSON record, each state array a nested list.
        Its training set goes into training_sets once per shared_key, and
        the record names it by its place there."""
        state = {"present": self.present.tolist()}
        for key, layout in _KINDS[self.spec.kind].state.items():
            if layout is _TRAINING_SET:
                if self.shared_key not in training_sets:
                    training_sets[self.shared_key] = {
                        k: self.state[k].tolist() for k in layout}
                state[key] = list(training_sets).index(self.shared_key)
            else:
                state[key] = self.state[key].tolist()
        return {"kind": self.spec.kind, "params": self.spec.params, "state": state}

    @classmethod
    def from_state(cls, payload: Any, catalog: ClassCatalog, n_features: int,
                   training_sets: list) -> "FittedClassifier":
        """The classifier to_state wrote, from its JSON record and the
        model file's catalog, feature count and training_sets; the entry
        the record names is typed in place, so the models naming one entry
        share its arrays.  Raises LearnerError on any record the predictor
        cannot use: not an object, a key of to_state's or of the kind's
        state missing or unknown, or a value of the wrong type, range or shape."""
        _check_object(payload, _RECORD, "record", LearnerError, required=_RECORD)
        spec = LearnerSpec(payload["kind"], payload["params"])
        present, state = _decode_state(
            spec, catalog.size, n_features, payload["state"], training_sets)
        return cls(spec, catalog, present, n_features, state)


def predict_proba_models(
    models: Sequence[FittedClassifier], x: np.ndarray
) -> np.ndarray:
    """The catalog posteriors of each of models on the rows of x, as a
    (K, n, M) view of one (n, K, M) stack: item j is
    `models[j].predict_proba_batch(x)`, bitwise, which is the one-model
    call, and `.swapaxes(0, 1)` is the stack.

    The models that share a `shared_key` (the knn models on one training
    set) go to one call of their kind's predictor, one neighbour search,
    and each other model to a call of its own.  Call order is the models
    without a shared_key in order, then each shared group in the order of
    its first model.  x is converted once and checked before any
    predictor runs: its width against each call's feature count in call
    order, and its finiteness once, after the first width; each failure
    is a LearnerError.  Floating-point warnings are off for the whole
    call.  A model's raw posteriors fill its present classes' columns of
    the zeroed stack, and every row is divided by its sum over the
    catalog.  Only when some row sum is not in (0, inf) are the models
    mapped one by one, in call order: a non-finite sum raises LearnerError
    naming the classifier, and a row summing to 0 gets the uniform
    posterior over its model's present classes."""
    calls: list[list[int]] = []
    groups: dict[bytes, list[int]] = {}
    for j, model in enumerate(models):
        if model.shared_key is None:
            calls.append([j])
        else:
            groups.setdefault(model.shared_key, []).append(j)
    calls += groups.values()
    x = np.asarray(x, dtype=np.float64)
    for i, call in enumerate(calls):
        d = models[call[0]].n_features
        if x.ndim != 2 or x.shape[1] != d:
            raise LearnerError(f"expected feature dimension {d}, got {x.shape}")
        if i == 0 and not np.isfinite(x).all():
            raise LearnerError("non-finite query features")
    stack = np.zeros((x.shape[0], len(models), models[0].catalog.size))
    with np.errstate(all="ignore"):
        for call in calls:
            group = [models[j] for j in call]
            for j, model, raw in zip(call, group,
                                     _KINDS[group[0].spec.kind].predict(group, x)):
                stack[:, j, model.present] = raw
        s = stack.sum(axis=2, keepdims=True)
        # Every row sum in (0, inf)?  Two bare reductions cost less than a
        # mask on a one-row call; a NaN sum fails, an empty batch passes.
        if not (0.0 < np.minimum.reduce(s, axis=None, initial=np.inf)
                and np.maximum.reduce(s, axis=None, initial=0.0) < np.inf):
            s = _mend_rows(models, calls, stack, s)
        stack /= s
    return stack.swapaxes(0, 1)


def _mend_rows(models, calls, stack, s) -> np.ndarray:
    """The row sums of stack once each model's rows are mended, in call
    order: a model with a non-finite row sum in s raises LearnerError, and
    its rows summing to 0 become uniform over its present classes."""
    for j in itertools.chain.from_iterable(calls):
        sums = s[:, j, 0]
        if not np.isfinite(sums).all():
            raise LearnerError(
                f"classifier {models[j].spec.name} gives non-finite posteriors")
        bad = sums <= 0
        present = models[j].present
        rows = stack[:, j]
        rows[bad] = 0.0
        rows[np.ix_(bad, present)] = 1.0 / len(present)
    return stack.sum(axis=2, keepdims=True)


def fit(spec: LearnerSpec, data: Dataset, seed: int) -> FittedClassifier:
    """Fit one learner. Deterministic given (spec, data, seed)."""
    return fit_folds(spec, data, [np.arange(data.n_observations)], [seed])[0]


def fit_folds(
    spec: LearnerSpec,
    data: Dataset,
    rests: Sequence[np.ndarray],
    seeds: Sequence[int],
) -> _Fits:
    """The models `fit(spec, data.subset(r), s)` for r, s in zip(rests,
    seeds), bitwise and in order, each fitted when it is read, so a caller
    that reads them one at a time holds one at a time: iterating fits every
    rest in one call of the kind's fitter, and `fits[i]` fits rest i alone.
    A rest that is not an integer array of rows of data, or that holds
    fewer than two classes, raises LearnerError before any fit
    (`check_rests`, which passes rests it has checked as they are).  Fits
    run with floating-point warnings off, as predictions do: a state that
    overflows fails as non-finite posteriors when it predicts."""
    return _Fits(spec, check_rests(data, rests), seeds)


class _Rests(tuple):
    """Rests that `check_rests` passed: a tuple of their index arrays, with
    the data they index.  When they are increasing index arrays with the
    same classes present, as cross-validation complements are, those
    classes are `present` and `compact` holds every row's label compacted
    to their indices; otherwise both are None."""

    def __new__(cls, rests, data, present=None, compact=None):
        self = super().__new__(cls, rests)
        self.data, self.present, self.compact = data, present, compact
        return self


def check_rests(data: Dataset, rests: Sequence[np.ndarray]) -> _Rests:
    """rests checked as fit_folds fits them, in one pass over all of them:
    a rest that is not an integer array of rows of data, or that holds
    fewer than two classes, raises LearnerError.  Rests this returned for
    data are returned as they are, so a caller that fits several learners
    on the same rests checks them once."""
    if isinstance(rests, _Rests) and rests.data is data:
        return rests
    rests = tuple(rests)
    if not rests:
        return _Rests(rests, data)
    # One pass over all rests: their rows in range, the classes each holds,
    # and whether each step within a rest rises (the steps between two
    # rests do not count).
    sizes = [len(r) for r in rests]
    flat = np.concatenate(rests)
    n = data.n_observations
    if flat.dtype.kind not in "iu" or not (
            flat.min(initial=0) >= 0 and flat.max(initial=-1) < n):
        raise LearnerError(f"rests must be integer arrays of rows in [0, {n})")
    c = data.catalog.size
    cells = np.repeat(np.arange(len(rests)) * c, sizes) + data.labels[flat]
    held = np.bincount(cells, minlength=len(rests) * c).reshape(-1, c) > 0
    if (held.sum(axis=1) < 2).any():
        raise LearnerError("need at least two classes present to fit")
    rising = flat[1:] > flat[:-1]
    rising[np.cumsum(sizes[:-1], dtype=np.intp) - 1] = True
    if not ((held == held[0]).all() and rising.all()):
        return _Rests(rests, data)
    present = np.flatnonzero(held[0])
    # Rows outside every rest may hold an absent class; no fit reads their
    # compact label.
    return _Rests(rests, data, present, np.searchsorted(present, data.labels))


class _Fits:
    """The models fit_folds returns over checked rests, each fitted when it
    is read.  On compact rests the kind's fitter reads their rows of data
    itself, with labels compacted to 0..P-1 over the present classes, which
    predict maps back; other rests are fitted each on its own subset."""

    def __init__(self, spec: LearnerSpec, rests: _Rests, seeds: Sequence[int]):
        self.spec, self.rests, self.seeds = spec, rests, list(seeds)
        if rests.present is not None:
            # Built once per fit_folds call: a fitter may fit in its call or
            # as its states are read, and each read is quiet on its own, so
            # no errstate is held while a caller reads a model.
            quiet = np.errstate(all="ignore")
            self._states = quiet(_KINDS[spec.kind].fit)
            self._next = quiet(next)

    def __len__(self) -> int:
        return len(self.rests)

    def __iter__(self) -> Iterator[FittedClassifier]:
        return self._fitted(range(len(self)))

    def __getitem__(self, i: int) -> FittedClassifier:
        """The model of rest i, from a fitter call over that rest alone."""
        return next(self._fitted([range(len(self))[i]]))

    def _fitted(self, at) -> Iterator[FittedClassifier]:
        """The models of the rests at (indices), from one fitter call."""
        spec, rests, seeds = self.spec, self.rests, self.seeds
        data, present = rests.data, rests.present
        if present is None:
            return (fit(spec, data.subset(rests[i]), seeds[i]) for i in at)
        states = iter(self._states(spec, data.features, rests.compact, len(present),
                                   [rests[i] for i in at], [seeds[i] for i in at]))
        step = self._next
        return (FittedClassifier(spec, data.catalog, present, data.n_features,
                                 step(states)) for _ in at)


def _each_part(fit_one):
    """A kind's fitter from its one-part fitter (spec, x, compact labels,
    n present, seed) -> state: each rest fitted on its own rows.  The
    fitter keeps fit_one as an attribute, by which `_Kind.each_part` knows
    it."""
    def fit_parts(spec, x, y, p, rests, seeds):
        return (fit_one(spec, x[r], y[r], p, s) for r, s in zip(rests, seeds))
    fit_parts.fit_one = fit_one
    return fit_parts


def _each_model(predict_one):
    """A kind's predictor from its one-state predictor (state, x) -> raw
    posteriors: each model predicted on its own."""
    def predict_models(models, x):
        return [predict_one(m.state, x) for m in models]
    return predict_models


# --- knn ---------------------------------------------------------------

def _fit_knn(spec, x, y, p, seed):
    return {"x": x, "y": y}


def _predict_knn(models, x):
    """Vote fractions of each model's k nearest training rows, for models
    of one shared_key: one neighbour search per block of query rows
    (_knn_votes) serves every k.  A block holds at most KNN_BLOCK_CELLS
    distance terms, so memory is flat in the number of rows; the budget is
    kept small so that a block's arrays stay near cache size rather than
    being mapped and faulted in afresh on every call.  Each row's votes
    depend on that row alone, so the block size never changes a bit of
    the output."""
    xt, yt, p = models[0].state["x"], models[0].state["y"], len(models[0].present)
    ks = [min(int(m.spec.params["k"]), xt.shape[0]) for m in models]
    rows = max(1, KNN_BLOCK_CELLS // max(1, xt.size))
    counts = np.empty((len(ks), x.shape[0], p), dtype=np.int64)
    for lo in range(0, x.shape[0], rows):
        _knn_votes(xt, yt, ks, x[lo:lo + rows], counts[:, lo:lo + rows])
    return list(counts / counts.sum(axis=2, keepdims=True))


class _SquaredDiffs:
    """The squared differences of query rows and training rows as a
    sequence of (rows, n_train) slabs, one per feature, each computed when
    it is read."""

    def __init__(self, qt: np.ndarray, xtt: np.ndarray) -> None:
        self.qt, self.xtt = qt, xtt  # (d, rows) and (d, n_train)

    def __len__(self) -> int:
        return len(self.qt)

    def __getitem__(self, j):
        if isinstance(j, slice):
            return _SquaredDiffs(self.qt[j], self.xtt[j])
        e = self.qt[j][:, None] - self.xtt[j]
        return np.square(e, out=e)


def _sq_distances(q, xt):
    """(len(q), len(xt)) squared distances, bitwise
    `((q[:, None] - xt[None]) ** 2).sum(axis=2)`: the per-feature slabs
    summed in numpy's order, without holding them all."""
    return _class_sum(_SquaredDiffs(np.ascontiguousarray(q.T),
                                    np.ascontiguousarray(xt.T)))


def _knn_votes(xt, yt, ks, q, counts):
    """Set counts[i] to the (len(q), p) votes of the ks[i] training rows
    nearest each query row, by squared distance, ties to the lower
    training index: the first k of a stable argsort.  One value partition
    gives each row's k_max-th distance, k_max = max(ks), and the training
    rows within it are the row's candidates.  A row with more than k_max
    of them (a tie across its k_max-th distance) keeps the first k_max of
    its whole-row stable argsort instead.  One stable sort of the
    candidates' distances, listed in index order, orders them by
    (distance, index), so every k takes a prefix of them."""
    n, p = counts.shape[1:]
    m, kmax = xt.shape[0], max(ks)
    rows = np.arange(n)[:, None]
    d2 = _sq_distances(q, xt)
    cand = d2 <= np.partition(d2, kmax - 1, axis=1)[:, kmax - 1:kmax]
    if np.count_nonzero(cand) > n * kmax:  # some row is crowded
        crowded = np.flatnonzero(cand.sum(axis=1) > kmax)
        top = np.argsort(d2[crowded], axis=1, kind="stable")[:, :kmax]
        cand[crowded] = False
        cand[crowded[:, None], top] = True
    flat = np.flatnonzero(cand).reshape(n, kmax)
    dist = d2.ravel()[flat]
    near = flat[rows, np.argsort(dist, axis=1, kind="stable")] - rows * m
    labels = yt[near]
    for out, k in zip(counts, ks):
        out[:] = _vote_counts(rows, labels[:, :k], n, p)
    if not dist.all():  # exact matches take the whole vote
        hit = (dist == 0.0).any(axis=1)
        i, j = np.nonzero(d2[hit] == 0.0)
        counts[:, hit] = _vote_counts(i, yt[j], int(hit.sum()), p)


def _vote_counts(rows, labels, n, p):
    """(n, p) number of (row, label) pairs."""
    cells = (rows * p + labels).ravel()
    return np.bincount(cells, minlength=n * p).reshape(n, p)


# --- gaussian naive bayes ------------------------------------------------

def _fit_gnb(spec, x, y, p, seed):
    n, d = x.shape
    theta = np.empty((p, d))
    var = np.empty((p, d))
    counts = np.empty(p)
    for c in range(p):
        xc = x[y == c]
        counts[c] = len(xc)
        theta[c] = xc.mean(axis=0)
        var[c] = np.maximum(xc.var(axis=0), VARIANCE_FLOOR)
    priors = (counts + 1.0) / (n + p)  # add-one smoothing
    return {"theta": theta, "var": var, "log_priors": np.log(priors)}


def _predict_gnb(state, x):
    theta, var, lp = state["theta"], state["var"], state["log_priors"]
    ll = -0.5 * (
        ((x[:, None, :] - theta[None]) ** 2 / var[None]).sum(axis=2)
        + np.log(2 * np.pi * var).sum(axis=1)[None, :]
    )
    return _softmax(ll + lp[None, :])


# --- lda -----------------------------------------------------------------

def _fit_lda(spec, x, y, p, seed):
    n, d = x.shape
    means = np.stack([x[y == c].mean(axis=0) for c in range(p)])
    sw = np.zeros((d, d))
    for c in range(p):
        xc = x[y == c] - means[c]
        sw += xc.T @ xc
    sw /= max(n - p, 1)
    cov = _scatter_ridge(sw, d)
    inv = np.linalg.inv(cov)
    priors = np.bincount(y, minlength=p) / n
    return {"means": means, "inv_cov": inv, "log_priors": np.log(priors)}


def _predict_lda(state, x):
    means, inv, lp = state["means"], state["inv_cov"], state["log_priors"]
    # log N(x; mu_c, Sigma) up to the shared constant
    wm = means @ inv                     # (p, d)
    scores = _rows_dot(x, wm.T) - 0.5 * (wm * means).sum(axis=1)[None, :] + lp[None, :]
    return _softmax(scores)


# --- fisher --------------------------------------------------------------

def _fit_fisher(spec, x, y, p, seed):
    n, d = x.shape
    ws = np.empty((p, d))
    bs = np.empty(p)
    for c in range(p):
        pos = x[y == c]
        neg = x[y != c]
        mu_pos, mu_neg = pos.mean(axis=0), neg.mean(axis=0)
        sw = np.zeros((d, d))
        for part, mu in ((pos, mu_pos), (neg, mu_neg)):
            z = part - mu
            sw += z.T @ z
        sw /= max(n - 2, 1)
        w = np.linalg.solve(_scatter_ridge(sw, d), mu_pos - mu_neg)
        ws[c] = w
        bs[c] = -0.5 * (mu_pos + mu_neg) @ w
    return {"w": ws, "b": bs}


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    e = np.exp(z[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _predict_ovr_logistic(state, x):
    scores = _rows_dot(x, state["w"].T) + state["b"][None, :]
    probs = _sigmoid(scores)
    s = probs.sum(axis=1, keepdims=True)
    s[s == 0] = 1.0
    return probs / s


# --- logistic linear (multinomial) ----------------------------------------

def _class_sum(e) -> np.ndarray:
    """Sum of e over its leading (class) axis, added in numpy's pairwise
    order for a contiguous last-axis reduction, so each entry is bitwise
    what `probs.sum(axis=1)` gives for one fit: sequential below 8 classes,
    eight running partial sums up to 128, halving above.  Whole-slab
    additions replace a reduction over a short trailing axis.  e may be any
    sliceable sequence of equal-shape slabs: each is read when its addition
    needs it and never written, and each partial sum is finished before
    the next starts, so at most five slabs are held at once."""
    m = len(e)
    if m < 8:
        s = e[0] + e[1] if m > 1 else e[0].copy()
        for c in range(2, m):
            s += e[c]
        return s
    if m <= 128:
        end = m - m % 8

        def partial(i):  # e[i] + e[i + 8] + ... below end
            r = e[i] if end == 8 else e[i] + e[i + 8]
            for c in range(i + 16, end, 8):
                r += e[c]
            return r

        s = (((partial(0) + partial(1)) + (partial(2) + partial(3)))
             + ((partial(4) + partial(5)) + (partial(6) + partial(7))))
        for c in range(end, m):
            s += e[c]
        return s
    half = m // 2
    half -= half % 8
    return _class_sum(e[:half]) + _class_sum(e[half:])


def _logistic_weights(spec, x, y, p, masks):
    """Multinomial softmax regression by full-batch gradient descent for T
    fits at once: fit t trains on the rows of x where masks[t] is set, and
    its (d+1, p) weights are bitwise those of a fit on those rows alone.

    The weights are held as (d+1, p, T), so both matrix products have the
    one-fit orientation with a contiguous right operand.  The softmax runs
    on a contiguous (p, N, T) copy of the product so the class max and the
    class sum are slab operations; the product and the residuals
    `(onehot - probs) * keep` share one (N, p, T) buffer.  Rows outside a
    fit get residual +0 or -0 there, which adds exactly nothing to its
    gradient, divided by the fit's own row count; its weights start at +0,
    so no zero's sign reaches them."""
    iterations = int(spec.params["iterations"])
    rate = float(spec.params["rate"])
    t, n = masks.shape
    d = x.shape[1]
    xa = np.hstack([x, np.ones((n, 1))])
    keep = masks.T.astype(np.float64)[:, None, :]          # (N, 1, T)
    onehot = (y[:, None] == np.arange(p)).astype(np.float64)[:, :, None]
    rows = masks.sum(axis=1)
    w = np.zeros((d + 1, p, t))
    resid = np.empty((n, p, t))
    z = np.empty((p, n, t))
    for _ in range(iterations):
        np.matmul(xa, w.reshape(d + 1, p * t), out=resid.reshape(n, p * t))
        np.copyto(z, resid.transpose(1, 0, 2))
        z -= z.max(axis=0)
        np.exp(z, out=z)
        z /= _class_sum(z)
        np.subtract(onehot, z.transpose(1, 0, 2), out=resid)
        resid *= keep
        grad = (xa.T @ resid.reshape(n, p * t)).reshape(d + 1, p, t)
        w += rate * grad / rows
    return [np.ascontiguousarray(w[:, :, i]) for i in range(t)]


def _fit_logistic(spec, x, y, p, rests, seeds):
    """Every rest in one kernel call, made when the first state is read;
    the fit draws no random numbers."""
    masks = np.zeros((len(rests), len(y)), dtype=bool)
    for t, r in enumerate(rests):
        masks[t, r] = True
    for w in _logistic_weights(spec, x, y, p, masks):
        yield {"w": w}


def _predict_logistic(state, x):
    xa = np.hstack([x, np.ones((x.shape[0], 1))])
    return _softmax(_rows_dot(xa, state["w"]))


# --- decision tree / stump -------------------------------------------------

def _gini(counts: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Gini impurity of class-major counts: counts[c] holds class c's count
    in each of the sets whose sizes total (> 0) holds.  The squared class
    fractions are added slab by slab (_class_sum), so each impurity is
    bitwise `1 - (f * f).sum(axis=-1)` of the set's row of fractions."""
    f = counts / total
    f *= f
    return 1.0 - _class_sum(f)


def _tree_shape(spec) -> tuple[int, int]:
    """(max_depth, min_leaf) of a tree spec; a stump is one split deep."""
    if spec.kind == "decision-stump":
        return 1, 1
    return int(spec.params["max_depth"]), int(spec.params["min_leaf"])


def _grow_trees(x, y, p, rests, max_depth, min_leaf):
    """Yield the CART tree of the rows of x in each rest (an index array),
    as a table of its nodes level by level from the root at 0; a leaf has
    feature -1, threshold 0 and itself as both children.  A node is a leaf
    at max_depth, when it holds one class or fewer than 2 min_leaf rows, or
    when no split lowers its Gini impurity.  Otherwise it splits at the
    midpoint of the cut that minimises the size-weighted child impurity,
    over cuts between distinct values that leave at least min_leaf rows on
    each side; ties go to the first feature, then the first cut.  Rows
    below the threshold go left.

    Each feature is sorted once, stably, into ranks.  A stable filter of a
    stable sort is the stable sort of the subset (the presort of CART,
    Breiman et al. 1984), so each node's rows in rank order are its rows
    sorted as a stable sort of the node alone would sort them.  Rests go in
    groups of at most TREE_BLOCK_CELLS (rest rows x (features + classes)),
    each grown level by level when its first tree is read."""
    n, d = x.shape
    ranks = np.empty((d, n), dtype=np.int64)
    for j in range(d):
        ranks[j, np.argsort(x[:, j], kind="stable")] = np.arange(n)
    group, cells = [], 0
    for rest in rests:
        if group and cells + len(rest) * (d + p) > TREE_BLOCK_CELLS:
            yield from _grow_level_wise(x, y, p, ranks, group, max_depth, min_leaf)
            group, cells = [], 0
        group.append(rest)
        cells += len(rest) * (d + p)
    yield from _grow_level_wise(x, y, p, ranks, group, max_depth, min_leaf)


def _grow_level_wise(x, y, p, ranks, rests, max_depth, min_leaf):
    """The trees of _grow_trees for one group of rests.  A cell is one
    (rest, row) pair; node[c] is the node of this level that cell c is in,
    -1 once its node is a leaf.  For each feature, seqs[j] lists the live
    cells by (node, rank), and one cumulative class count over it, held
    class-major as (p, cells + 1), scores every cut of every node of the
    level: _gini adds the p slabs of squared fractions.  A level lists its
    nodes tree by tree, and a split's children are two consecutive nodes
    of the next level, so each tree's nodes, level by level, are its
    table."""
    n, d = x.shape
    row = np.concatenate(rests)
    node = np.repeat(np.arange(len(rests)), [len(r) for r in rests])
    label = y[row]
    seqs = [np.argsort(node * n + ranks[j, row]) for j in range(d)]
    tree = np.arange(len(rests))  # the tree of each node of the level
    levels = []  # per level: tree, feature, threshold, proportions, child
    depth = 0
    while len(tree):
        m = len(tree)
        live = np.flatnonzero(node >= 0)
        # class-major: totals[c, k] is node k's number of class c rows
        totals = np.bincount(label[live] * m + node[live],
                             minlength=p * m).reshape(p, m)
        sizes = totals.sum(axis=0)
        best_imp = np.full(m, np.inf)
        best_feat = np.full(m, -1)
        best_thr = np.zeros(m)
        growing = ((sizes >= 2 * min_leaf) & ((totals > 0).sum(axis=0) > 1)
                   & (depth < max_depth))
        # growing nodes' first positions in a sequence restricted to them
        start = np.cumsum(sizes * growing) - sizes * growing
        for j in range(d if growing.any() else 0):
            s = seqs[j][growing[node[seqs[j]]]]
            k = node[s]
            xs = x[row[s], j]
            pos = np.arange(len(s)) - start[k]
            # cut i puts the node's first i + 1 rows left
            cut = np.flatnonzero((xs[:-1] != xs[1:]) & (pos[:-1] >= min_leaf - 1)
                                 & (pos[:-1] < sizes[k[:-1]] - min_leaf))
            if cut.size == 0:
                continue
            kc = k[cut]
            # cum[c, i]: the class c rows among the sequence's first i
            cum = np.zeros((p, len(s) + 1))
            cum[label[s], np.arange(1, len(s) + 1)] = 1.0
            np.cumsum(cum, axis=1, out=cum)
            left = cum[:, cut + 1] - cum[:, start[kc]]
            nl = pos[cut] + 1.0
            nn = sizes[kc]
            nr = nn - nl
            imp = (nl * _gini(left, nl) + nr * _gini(totals[:, kc] - left, nr)) / nn
            first = np.flatnonzero(np.concatenate(([True], kc[1:] != kc[:-1])))
            low = np.minimum.reduceat(imp, first)
            ties = imp == np.repeat(low, np.diff(first, append=len(kc)))
            at = np.minimum.reduceat(np.where(ties, np.arange(len(kc)), len(kc)),
                                     first)
            nodes = kc[first]
            better = low < best_imp[nodes]
            nodes, g = nodes[better], cut[at[better]]
            best_imp[nodes] = low[better]
            best_feat[nodes] = j
            best_thr[nodes] = (xs[g] + xs[g + 1]) / 2.0
        split = growing & (best_imp < _gini(totals, sizes))
        child = np.full(m, -1)  # a split's left child in the next level
        child[split] = 2 * np.arange(int(split.sum()))
        levels.append((tree, np.where(split, best_feat, -1),
                       np.where(split, best_thr, 0.0), (totals / sizes).T,
                       child))
        cells = live[split[node[live]]]
        k = node[cells]
        right = ~(x[row[cells], best_feat[k]] < best_thr[k])
        node = np.full(len(row), -1)
        node[cells] = child[k] + right
        if depth + 1 < max_depth:  # the next level splits: regroup by node
            seqs = [s[node[s] >= 0] for s in seqs]
            seqs = [s[np.argsort(node[s], kind="stable")] for s in seqs]
        tree, depth = np.repeat(tree[split], 2), depth + 1
    return _node_tables(levels, len(rests))


def _node_tables(levels, trees):
    """The node table of each of trees from the levels of _grow_level_wise,
    whose nodes are numbered across all trees: a stable sort by tree puts
    each tree's nodes level by level, which is its table's order."""
    tree, feature, threshold, proportions, child = map(np.concatenate, zip(*levels))
    offsets = np.cumsum([0] + [len(level[0]) for level in levels])
    at = np.arange(len(tree))
    # a split's left child, numbered as `at`; a leaf itself
    split = child >= 0
    left = np.where(split, child + np.repeat(offsets[1:], np.diff(offsets)), at)
    order = np.argsort(tree, kind="stable")
    bounds = np.searchsorted(tree[order], np.arange(trees + 1))
    local = np.empty(len(tree), dtype=np.int64)
    local[order] = at - bounds[tree[order]]
    children = np.stack([local[left], local[left + split]], axis=1)
    feature, threshold, children, proportions = (
        a[order] for a in (feature, threshold, children, proportions))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        yield {"feature": feature[lo:hi], "threshold": threshold[lo:hi],
               "children": children[lo:hi], "proportions": proportions[lo:hi]}


def _fit_tree(spec, x, y, p, rests, seeds):
    """The trees of _grow_trees; the fit draws no random numbers."""
    return _grow_trees(x, y, p, rests, *_tree_shape(spec))


def _predict_tree(state, x):
    """The proportions of the leaf each row of x reaches.  All rows descend
    together, a level per step, to the right child where the row's feature
    value is at least the threshold; a row at a leaf stays there."""
    feature, threshold = state["feature"], state["threshold"]
    pairs = state["children"].ravel()  # node k's children at 2k and 2k + 1
    flat = x.ravel()
    start = np.arange(0, flat.size, x.shape[1])  # each row's offset in flat
    node = np.zeros(len(x), dtype=np.int64)
    at = feature[node]
    while np.maximum.reduce(at, initial=-1) >= 0:  # some row is at a split
        node = pairs[node + node + (flat[start + at] >= threshold[node])]
        at = feature[node]
    return state["proportions"][node]


# --- nearest mean ----------------------------------------------------------

def _fit_nearest_mean(spec, x, y, p, seed):
    means = np.stack([x[y == c].mean(axis=0) for c in range(p)])
    return {"means": means}


def _predict_nearest_mean(state, x):
    d = np.sqrt(((x[:, None, :] - state["means"][None]) ** 2).sum(axis=2))
    return _softmax(-d)


# --- perceptron ------------------------------------------------------------

_EPS = np.finfo(np.float64).eps
_NORMAL = np.finfo(np.float64).smallest_normal


def _scores(txo, wa, top):
    """The perceptron scan's margins txo @ wa of the rows (t x_i, t) of txo,
    and the threshold thr that a margin must clear to decide the step
    without it; None when top |wa| > 2^1000, where a margin could overflow.
    _fit_perceptron says why thr is sound."""
    norm = math.hypot(*wa.tolist())  # inf, not a warning, on overflow
    if not top * norm <= 2.0 ** 1000:
        return None
    return txo.dot(wa), 4 * len(wa) * _EPS * top * norm + top * _NORMAL


def _fit_perceptron(spec, x, y, p, seed):
    """One-vs-rest perceptrons, one row step `t * (x_i @ w + b) <= 0` at a
    time in a fresh random order each epoch.  An epoch after one with at
    most n/4 updates begins with a scan: _scores gives the margins of the
    remaining rows at once, a row whose margin clears the threshold is
    decided by it, and the scan rescores only after an update.  The rest of
    the epoch, all of any other epoch, steps row by row.  Every update is
    the row loop's, so the weights are bitwise the same.

    The bound.  With wa = (w, b), a margin (t x_i, t) @ wa and the step
    both sum the d+1 products t x_ij w_j and t b (multiplying by t = +-1 is
    exact).  In any order, such a sum is within gamma_{d+1} S_i of the
    exact value, where S_i, the sum of the products' magnitudes, is
    <= |(x_i, 1)| |wa| <= top |wa| with top the largest |(x_i, 1)|, plus
    half the least subnormal per product that underflows (Higham, Accuracy
    and Stability of Numerical Algorithms, 2.1 and 3.1).  The two sums thus
    differ by less than half of the one threshold
    thr = 4 (d+1) eps top |wa| + top * least normal, which is never below a
    row's own bound; the other half covers the rounding of thr itself.  So
    a margin above thr means a step value above 0, no update, and a margin
    below -thr a step value below 0, an update made without the step; a
    margin within +-thr takes the step.  While top |wa| <= 2^1000 no term
    or partial sum overflows, so every margin is finite; beyond that the
    rest of the epoch goes to the row loop.

    An update adds step[i] = rate * (t_i (x_i, 1)) to wa.  Rounding is
    symmetric in sign, so rate (t_i x_ij) is bitwise the loop's
    (rate t_i) x_ij, and the last entry is its rate t_i for b."""
    iterations = int(spec.params["iterations"])
    rate = float(spec.params["rate"])
    rng = np.random.default_rng(seed)
    n, d = x.shape
    xa = np.hstack([x, np.ones((n, 1))])
    with np.errstate(over="ignore"):
        top = float(np.hypot.reduce(xa, axis=1).max())  # >= 1; inf on overflow
    rows = list(x)  # rows[i].dot(w) is x[i] @ w's BLAS dot, called sooner
    ws = np.zeros((p, d))
    bs = np.zeros(p)
    for c in range(p):
        sign = np.where(y == c, 1.0, -1.0)
        tx = sign[:, None] * xa
        with np.errstate(over="ignore"):  # an inf step, as the loop's
            step = rate * tx
        t = sign.tolist()
        wa = np.zeros(d + 1)
        w, b = wa[:d], 0.0  # b is wa[d]
        updates = n  # the first epoch goes row by row
        for _ in range(iterations):
            order = rng.permutation(n)
            scan = 4 * updates <= n
            updates, j = 0, 0
            if scan:
                txo = tx[order]
            while scan and j < n:
                scored = _scores(txo[j:], wa, top)
                if scored is None:
                    break  # the rest of the epoch goes to the row loop
                margins, thr = scored
                unsure = margins <= thr
                start, j = j, n  # the scan ends unless a row updates
                k = unsure.argmax()
                while unsure[k]:
                    i = order[start + k]
                    if margins[k] < -thr or t[i] * (rows[i].dot(w) + b) <= 0:
                        wa += step[i]
                        b = wa[d]
                        updates += 1
                        j = start + k + 1
                        break
                    unsure[k] = False
                    k = unsure.argmax()
            for i in order[j:].tolist():
                if t[i] * (rows[i].dot(w) + b) <= 0:
                    wa += step[i]
                    b = wa[d]
                    updates += 1
        ws[c], bs[c] = w, b
    return {"w": ws, "b": bs}


# --- the kinds ---------------------------------------------------------------

class _Kind(NamedTuple):
    # (spec, x, compact labels, n present, rests, seeds) -> one state per rest
    fit: Callable
    # (models, x) -> one (n, n present) posterior array per model, for one
    # model or the models of one shared_key
    predict: Callable
    state: dict[str, Any]  # key -> layout, as _decode_state reads it
    defaults: dict[str, int | float]  # every parameter fit or predict reads

    @property
    def each_part(self) -> bool:
        """Whether the fitter fits each rest on its own (`_each_part`): its
        rests share no work in one call, so they may be fitted apart."""
        return hasattr(self.fit, "fit_one")


# State layouts, in p (present classes), d (features), and n (training
# rows) or nodes (tree nodes) as the first array has them: (_F, *shape) a
# finite float64 array, (_POSITIVE, *shape) one of values > 0,
# (_NONNEGATIVE, *shape) one of values >= 0, (_SPD, d, d) a symmetric
# positive definite one; int64 arrays of (_LABEL, n) present
# class indices 0..p-1, (_FEATURE, nodes) feature indices, -1 at a leaf,
# and (_CHILDREN, nodes, 2) child pairs as _check_children wants them;
# and _TRAINING_SET, the index of an entry of the model file's
# training_sets, whose arrays join the state.
_F, _POSITIVE, _NONNEGATIVE, _SPD, _LABEL, _FEATURE, _CHILDREN = (
    "float64", "positive", "nonnegative", "spd", "label", "feature", "children")
_TRAINING_SET = {"x": (_F, "n", "d"), "y": (_LABEL, "n")}
_OVR = {"w": (_F, "p", "d"), "b": (_F, "p")}
_TREE_STATE = {"feature": (_FEATURE, "nodes"), "threshold": (_F, "nodes"),
               "children": (_CHILDREN, "nodes", "2"),
               "proportions": (_NONNEGATIVE, "nodes", "p")}

_KINDS = {
    "knn": _Kind(_each_part(_fit_knn), _predict_knn,
                 {"training_set": _TRAINING_SET}, {"k": 5}),
    "gaussian-naive-bayes": _Kind(
        _each_part(_fit_gnb), _each_model(_predict_gnb),
        {"theta": (_F, "p", "d"), "var": (_POSITIVE, "p", "d"),
         "log_priors": (_F, "p")},
        {}),
    "lda": _Kind(
        _each_part(_fit_lda), _each_model(_predict_lda),
        {"means": (_F, "p", "d"), "inv_cov": (_SPD, "d", "d"),
         "log_priors": (_F, "p")},
        {}),
    "fisher": _Kind(_each_part(_fit_fisher), _each_model(_predict_ovr_logistic),
                    _OVR, {}),
    "logistic-linear": _Kind(
        _fit_logistic, _each_model(_predict_logistic), {"w": (_F, "d+1", "p")},
        {"iterations": 500, "rate": 0.1}),
    "decision-tree": _Kind(
        _fit_tree, _each_model(_predict_tree), _TREE_STATE,
        {"max_depth": 12, "min_leaf": 2}),
    "decision-stump": _Kind(_fit_tree, _each_model(_predict_tree), _TREE_STATE, {}),
    "nearest-mean": _Kind(
        _each_part(_fit_nearest_mean), _each_model(_predict_nearest_mean),
        {"means": (_F, "p", "d")}, {}),
    "perceptron": _Kind(
        _each_part(_fit_perceptron), _each_model(_predict_ovr_logistic), _OVR,
        {"iterations": 100, "rate": 0.1}),
}


# A record's keys: LearnerSpec checks kind and params, _decode_state the state.
_RECORD = {"kind": None, "params": ("a JSON object", lambda v: isinstance(v, dict)),
           "state": None}


def _array(value, dtype: str, what: str) -> np.ndarray:
    """The array a model file writes as the nested list value, for a
    layout of dtype dtype: int64 for indices, finite float64 otherwise.
    numpy reads a bool in a list of numbers as 0 or 1, so the types of the
    list's leaves are read too, each once."""
    try:
        arr = np.asarray(value)
    except (ValueError, TypeError, OverflowError):  # ragged nesting
        arr = None
    stored, kinds = (("int64", "i") if dtype in (_LABEL, _FEATURE, _CHILDREN)
                     else ("float64", "if"))
    if arr is not None and arr.dtype.kind in kinds:
        leaves = [value] if arr.ndim == 0 else value
        for _ in range(arr.ndim - 1):
            leaves = itertools.chain.from_iterable(leaves)
        if bool in set(map(type, leaves)):
            arr = None
    if arr is None or arr.dtype.kind not in kinds:
        raise LearnerError(f"{what} must be a rectangular array of {stored} values")
    arr = arr.astype(stored, copy=False)
    if arr.dtype.kind == "f" and not np.isfinite(arr).all():
        raise LearnerError(f"{what} holds a non-finite value")
    return arr


def _unnamed_training_sets(training_sets: list) -> list[int]:
    """The places in a model file's training_sets of the entries that no
    record read by from_state names.  A record's entry is typed in place,
    so these are the entries whose arrays are not yet numpy arrays."""
    return [i for i, entry in enumerate(training_sets)
            if not (isinstance(entry, dict) and all(
                isinstance(entry.get(k), np.ndarray) for k in _TRAINING_SET))]


def _check_children(children: np.ndarray, feature: np.ndarray, what: str) -> None:
    """Each split's children lie after it and inside the table, and each
    leaf's are itself: every descent step from a split moves to a later
    node, so a descent ends at a leaf."""
    node = np.arange(len(children))[:, None]
    ahead = (children > node) & (children < len(children))
    if not np.where(feature[:, None] >= 0, ahead, children == node).all():
        raise LearnerError(f"{what} must hold two later nodes at a split and "
                           f"the node itself twice at a leaf")


def _check_spd(a: np.ndarray, what: str) -> None:
    """A square finite matrix is symmetric to SYMMETRY_TOLERANCE of its
    largest entry, as a fitted inverse covariance is to rounding, and
    positive definite: its Cholesky factorization exists."""
    with np.errstate(over="ignore"):  # a difference of two huge entries
        skew = np.abs(a - a.T).max()
    if not skew <= SYMMETRY_TOLERANCE * np.abs(a).max():
        raise LearnerError(f"{what} must be a symmetric matrix")
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise LearnerError(f"{what} must be positive definite") from None


def _decode_state(spec: LearnerSpec, n_classes: int, d: int, state,
                  training_sets: list) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """The present classes and the fitted state from their JSON form,
    every value checked against the kind's layout: the predictor can use
    them and their shapes agree."""
    layouts = _KINDS[spec.kind].state
    written = ["present", *layouts]
    _check_object(state, dict.fromkeys(written), "state", LearnerError,
                  required=written)
    present = _array(state["present"], _LABEL, "state 'present'")
    if not (present.ndim == 1 and present.size >= 2 and present[0] >= 0
            and present[-1] < n_classes and (np.diff(present) > 0).all()):
        raise LearnerError(
            f"state 'present' must be at least two strictly increasing class "
            f"indices below {n_classes}"
        )
    p = len(present)
    sizes = {"p": p, "d": d, "d+1": d + 1, "2": 2}
    out: dict[str, np.ndarray] = {}
    for key, layout in layouts.items():
        value, what = state[key], f"state {key!r}"
        if layout is _TRAINING_SET:
            if not (_is_int(value) and 0 <= value < len(training_sets)):
                raise LearnerError(f"{what} must be an index below "
                                   f"{len(training_sets)}, got {value!r}")
            entry, where = training_sets[value], f"training set {value}"
            _check_object(entry, dict.fromkeys(layout), where, LearnerError,
                          required=layout)
            # The first record that names the entry types it in place.
            entry.update({k: _array(entry[k], lay[0], f"{where} {k!r}")
                          for k, lay in layout.items()
                          if not isinstance(entry[k], np.ndarray)})
            arrays = [(k, lay, entry[k], f"{where} {k!r}") for k, lay in layout.items()]
        else:
            arrays = [(key, layout, _array(value, layout[0], what), what)]
        for name, (dtype, *dims), arr, what in arrays:
            if arr.ndim == len(dims):
                for dim, size in zip(dims, arr.shape):
                    sizes.setdefault(dim, size)  # n or nodes: the first array's
            if (arr.ndim != len(dims) or arr.size == 0
                    or arr.shape != tuple(sizes[dim] for dim in dims)):
                raise LearnerError(
                    f"{what} must have shape ({', '.join(dims)}) with p = {p} "
                    f"and d = {d}, got {arr.shape}"
                )
            if dtype == _LABEL and ((arr < 0) | (arr >= p)).any():
                raise LearnerError(f"{what} must hold class indices below {p}")
            if dtype == _FEATURE and ((arr < -1) | (arr >= d)).any():
                raise LearnerError(
                    f"{what} must hold feature indices in [-1, {d}), -1 at a leaf"
                )
            if dtype == _CHILDREN:
                _check_children(arr, out["feature"], what)
            if dtype == _POSITIVE and not (arr > 0).all():
                raise LearnerError(f"{what} must hold values > 0")
            if dtype == _NONNEGATIVE and not (arr >= 0).all():
                raise LearnerError(f"{what} must hold values >= 0")
            if dtype == _SPD:
                _check_spd(arr, what)
            out[name] = arr
    return present, out
