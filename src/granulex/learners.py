"""Base learning algorithms emitting per-class posterior probabilities.

Every learner is implemented from scratch on numpy so that fitting and
prediction are deterministic given (spec, data, seed).  Posterior recipes:

  knn                  neighbor vote fractions (exact-distance matches take
                       the whole vote)
  gaussian-naive-bayes Gaussian likelihoods x smoothed priors, scaled to sum 1
  lda                  shared-covariance Gaussian discriminants, scaled to sum 1
  fisher               logistic squashing of one-vs-rest Fisher scores
  logistic-linear      multinomial softmax regression
  decision-tree/stump  leaf class proportions
  nearest-mean         softmin of distances to class means
  perceptron           logistic squashing of one-vs-rest perceptron scores

Classes absent from the fitted data always receive posterior 0.

`fit_folds` fits one learner on several row subsets of a data set, as
cross-validation does.  For logistic-linear it steps the weights of all
subsets together in one kernel call, bitwise equal to separate `fit` calls;
`fit` itself is the one-subset call of that kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from .metadata import ClassCatalog

__all__ = [
    "Dataset",
    "LearnerSpec",
    "FittedClassifier",
    "LearnerError",
    "STATE_KEYS",
    "fit",
    "fit_folds",
    "default_roster",
    "extended_roster",
    "spec_from_name",
]

RIDGE_FACTOR = 1e-6     # scatter-matrix regularization, scaled by trace/d
VARIANCE_FLOOR = 1e-9   # per-feature variance floor in naive Bayes


class LearnerError(ValueError):
    pass


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray  # (N, d)
    labels: np.ndarray    # (N,) indices into catalog
    catalog: ClassCatalog
    name: str = ""

    def __post_init__(self) -> None:
        feats = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
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
        if self.kind not in KINDS:
            raise LearnerError(f"unknown learner kind {self.kind!r}")
        p = dict(self.params)
        if self.kind == "knn":
            p.setdefault("k", 5)
            if int(p["k"]) < 1:
                raise LearnerError("knn needs k >= 1")
        elif self.kind == "decision-tree":
            p.setdefault("max_depth", 12)
            p.setdefault("min_leaf", 2)
            if int(p["max_depth"]) < 1 or int(p["min_leaf"]) < 1:
                raise LearnerError("tree needs max_depth >= 1 and min_leaf >= 1")
        elif self.kind == "logistic-linear":
            p.setdefault("iterations", 500)
            p.setdefault("rate", 0.1)
        elif self.kind == "perceptron":
            p.setdefault("iterations", 100)
            p.setdefault("rate", 0.1)
        for key in ("iterations",):
            if key in p and int(p[key]) < 1:
                raise LearnerError(f"{key} must be >= 1")
        object.__setattr__(self, "params", p)

    @property
    def name(self) -> str:
        if self.kind == "knn":
            return f"knn{self.params['k']}"
        return self.kind


def spec_from_name(name: str) -> LearnerSpec:
    """Parse roster entries like "knn25" or "decision-tree"."""
    if name.startswith("knn") and name != "knn":
        return LearnerSpec("knn", {"k": int(name[3:])})
    return LearnerSpec(name)


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
    """A fitted base classifier. State is a plain-JSON-serializable dict."""

    def __init__(self, spec: LearnerSpec, catalog: ClassCatalog,
                 state: dict[str, Any]) -> None:
        self.spec = spec
        self.catalog = catalog
        self.state = state

    @property
    def n_features(self) -> int:
        return int(self.state["n_features"])

    def predict_proba(self, x: Sequence[float]) -> np.ndarray:
        return self.predict_proba_batch(np.asarray(x, dtype=np.float64)[None, :])[0]

    def predict_proba_batch(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.n_features:
            raise LearnerError(
                f"expected feature dimension {self.n_features}, got {x.shape}"
            )
        if not np.isfinite(x).all():
            raise LearnerError("non-finite query features")
        raw = _PREDICTORS[self.spec.kind](self.state, x)
        # Map probabilities over present classes back to the full catalog.
        present = np.asarray(self.state["present"], dtype=np.int64)
        out = np.zeros((x.shape[0], self.catalog.size))
        out[:, present] = raw
        s = out.sum(axis=1, keepdims=True)
        bad = (s <= 0).ravel()
        if bad.any():
            out[bad] = 0.0
            out[np.ix_(bad, present)] = 1.0 / len(present)
            s = out.sum(axis=1, keepdims=True)
        return out / s

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba_batch(x), axis=1)

    def to_state(self) -> dict[str, Any]:
        return {
            "kind": self.spec.kind,
            "params": self.spec.params,
            "catalog": list(self.catalog.labels),
            "state": _jsonable(self.state),
        }

    @classmethod
    def from_state(cls, payload: dict[str, Any]) -> "FittedClassifier":
        spec = LearnerSpec(payload["kind"], dict(payload["params"]))
        catalog = ClassCatalog(tuple(payload["catalog"]))
        return cls(spec, catalog, _unjsonable(payload["state"]))


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return {"__nd__": obj.tolist(), "dtype": str(obj.dtype)}
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def _unjsonable(obj):
    if isinstance(obj, dict):
        if "__nd__" in obj:
            return np.asarray(obj["__nd__"], dtype=obj["dtype"])
        return {k: _unjsonable(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_unjsonable(v) for v in obj]
    return obj


def _present(labels: np.ndarray) -> np.ndarray:
    present = np.unique(labels)
    if len(present) < 2:
        raise LearnerError("need at least two classes present to fit")
    return present


def _fitted(spec, data, present, state) -> FittedClassifier:
    state["present"] = present
    state["n_features"] = data.n_features
    return FittedClassifier(spec, data.catalog, state)


def fit(spec: LearnerSpec, data: Dataset, seed: int) -> FittedClassifier:
    """Fit one learner. Deterministic given (spec, data, seed)."""
    present = _present(data.labels)
    # Compact labels to 0..P-1 over present classes; predict maps them back.
    compact = np.searchsorted(present, data.labels)
    state = _FITTERS[spec.kind](spec, data.features, compact, len(present), seed)
    return _fitted(spec, data, present, state)


def fit_folds(
    spec: LearnerSpec,
    data: Dataset,
    rests: Sequence[np.ndarray],
    seeds: Sequence[int],
) -> list[FittedClassifier]:
    """`[fit(spec, data.subset(r), s) for r, s in zip(rests, seeds)]`,
    bitwise.  logistic-linear fits every rest in one batched kernel call
    when the rests are increasing index arrays with the same classes
    present, as cross-validation complements are."""
    if spec.kind == "logistic-linear" and len(rests) > 0:
        presents = [_present(data.labels[r]) for r in rests]
        if all(np.array_equal(q, presents[0]) and (np.diff(r) > 0).all()
               for q, r in zip(presents, rests)):
            return _fit_logistic_folds(spec, data, rests, presents)
    return [fit(spec, data.subset(r), s) for r, s in zip(rests, seeds)]


# --- knn ---------------------------------------------------------------

def _fit_knn(spec, x, y, p, seed):
    return {"x": x.copy(), "y": y.copy(), "k": int(spec.params["k"]), "p": p}


def _predict_knn(state, x):
    xt, yt, p = state["x"], state["y"], int(state["p"])
    k = min(int(state["k"]), xt.shape[0])
    n = x.shape[0]
    d2 = ((x[:, None, :] - xt[None, :, :]) ** 2).sum(axis=2)
    near = np.argsort(d2, axis=1, kind="stable")[:, :k]
    counts = _vote_counts(np.arange(n)[:, None], yt[near], n, p)
    if not d2.all():  # exact matches take the whole vote
        i, j = np.nonzero(d2 == 0.0)
        exact = _vote_counts(i, yt[j], n, p)
        hit = exact.any(axis=1)
        counts[hit] = exact[hit]
    return counts / counts.sum(axis=1, keepdims=True)


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


_predict_fisher = _predict_ovr_logistic


# --- logistic linear (multinomial) ----------------------------------------

def _class_sum(e: np.ndarray) -> np.ndarray:
    """Sum of e over its leading (class) axis, added in numpy's pairwise
    order for a contiguous last-axis reduction, so each entry is bitwise
    what `probs.sum(axis=1)` gives for one fit: sequential below 8 classes,
    eight running partial sums up to 128, halving above.  Whole-slab
    additions replace a reduction over a short trailing axis."""
    m = e.shape[0]
    if m < 8:
        s = e[0].copy()
        for c in range(1, m):
            s += e[c]
        return s
    if m <= 128:
        r = e[:8].copy()
        end = m - m % 8
        for c in range(8, end, 8):
            r += e[c:c + 8]
        s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
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
    one-fit orientation with a contiguous right operand.  Rows outside a
    fit get target 0 and residual 0 there, so they add exact zeros to its
    gradient, which is divided by the fit's own row count.  The softmax
    runs on a contiguous (p, N, T) copy so the class max and the class sum
    are slab operations."""
    iterations = int(spec.params["iterations"])
    rate = float(spec.params["rate"])
    t, n = masks.shape
    d = x.shape[1]
    xa = np.hstack([x, np.ones((n, 1))])
    keep = masks.T.astype(np.float64)                      # (N, T)
    onehot = (y[:, None] == np.arange(p)).astype(np.float64)
    target = onehot[:, :, None] * keep[:, None, :]        # (N, p, T)
    rows = masks.sum(axis=1)
    w = np.zeros((d + 1, p, t))
    resid = np.empty((n, p, t))
    for _ in range(iterations):
        z = (xa @ w.reshape(d + 1, p * t)).reshape(n, p, t)
        z = np.ascontiguousarray(z.transpose(1, 0, 2))    # (p, N, T)
        z -= z.max(axis=0)
        np.exp(z, out=z)
        z /= _class_sum(z)
        np.multiply(z.transpose(1, 0, 2), keep[:, None, :], out=resid)
        np.subtract(target, resid, out=resid)
        grad = (xa.T @ resid.reshape(n, p * t)).reshape(d + 1, p, t)
        w += rate * grad / rows
    return [np.ascontiguousarray(w[:, :, i]) for i in range(t)]


def _fit_logistic(spec, x, y, p, seed):
    everything = np.ones((1, len(y)), dtype=bool)
    return {"w": _logistic_weights(spec, x, y, p, everything)[0]}


def _fit_logistic_folds(spec, data, rests, presents):
    masks = np.zeros((len(rests), data.n_observations), dtype=bool)
    for t, r in enumerate(rests):
        masks[t, r] = True
    # Rows outside every rest may hold an absent class; their compact label
    # is never a target, since no mask keeps them.
    compact = np.searchsorted(presents[0], data.labels)
    weights = _logistic_weights(
        spec, data.features, compact, len(presents[0]), masks
    )
    return [
        _fitted(spec, data, q, {"w": w}) for q, w in zip(presents, weights)
    ]


def _predict_logistic(state, x):
    xa = np.hstack([x, np.ones((x.shape[0], 1))])
    return _softmax(_rows_dot(xa, state["w"]))


# --- decision tree / stump -------------------------------------------------

def _gini(counts: np.ndarray, total) -> np.ndarray:
    """Gini impurity of the class counts on the last axis; total > 0."""
    f = counts / total
    return 1.0 - (f * f).sum(axis=-1)


def _best_split(x, y, p, min_leaf):
    """CART split search: for each feature, the class counts left of every
    sorted split position come from one cumulative sum, so all positions
    are scored at once.  Ties go to the first feature, then the first
    position.  None when no split lowers the parent impurity."""
    n, d = x.shape
    totals = np.bincount(y, minlength=p)
    parent = _gini(totals, n)
    onehot = np.eye(p)[y]
    best = None  # (impurity, feature, threshold)
    for j in range(d):
        order = np.argsort(x[:, j], kind="stable")
        xs = x[order, j]
        # cut i puts sorted rows [0, i] left: it needs distinct values on
        # its two sides and at least min_leaf rows on each
        cut = np.flatnonzero(xs[:-1] != xs[1:])
        cut = cut[(cut >= min_leaf - 1) & (cut < n - min_leaf)]
        if cut.size == 0:
            continue
        left = np.cumsum(onehot[order], axis=0)[cut]
        nl = cut + 1.0
        nr = n - nl
        imp = (nl * _gini(left, nl[:, None])
               + nr * _gini(totals - left, nr[:, None])) / n
        i = int(np.argmin(imp))
        if best is None or imp[i] < best[0]:
            best = (imp[i], j, (xs[cut[i]] + xs[cut[i] + 1]) / 2.0)
    if best is None or best[0] >= parent:
        return None
    return best[1], best[2]


def _grow_tree(x, y, p, depth, max_depth, min_leaf):
    counts = np.bincount(y, minlength=p).astype(float)
    if depth >= max_depth or len(np.unique(y)) == 1 or len(y) < 2 * min_leaf:
        return {"leaf": (counts / counts.sum()).tolist()}
    split = _best_split(x, y, p, min_leaf)
    if split is None:
        return {"leaf": (counts / counts.sum()).tolist()}
    j, thr = split
    mask = x[:, j] < thr
    return {
        "feature": int(j),
        "threshold": float(thr),
        "left": _grow_tree(x[mask], y[mask], p, depth + 1, max_depth, min_leaf),
        "right": _grow_tree(x[~mask], y[~mask], p, depth + 1, max_depth, min_leaf),
    }


def _fit_tree(spec, x, y, p, seed):
    tree = _grow_tree(
        x, y, p, 0, int(spec.params["max_depth"]), int(spec.params["min_leaf"])
    )
    return {"tree": tree, "p": p}


def _fit_stump(spec, x, y, p, seed):
    return {"tree": _grow_tree(x, y, p, 0, 1, 1), "p": p}


def _tree_row(node, row):
    while "leaf" not in node:
        node = node["left"] if row[node["feature"]] < node["threshold"] else node["right"]
    return node["leaf"]


def _predict_tree(state, x):
    return np.asarray([_tree_row(state["tree"], row) for row in x])


# --- nearest mean ----------------------------------------------------------

def _fit_nearest_mean(spec, x, y, p, seed):
    means = np.stack([x[y == c].mean(axis=0) for c in range(p)])
    return {"means": means}


def _predict_nearest_mean(state, x):
    d = np.sqrt(((x[:, None, :] - state["means"][None]) ** 2).sum(axis=2))
    return _softmax(-d)


# --- perceptron ------------------------------------------------------------

def _fit_perceptron(spec, x, y, p, seed):
    iterations = int(spec.params["iterations"])
    rate = float(spec.params["rate"])
    rng = np.random.default_rng(seed)
    n, d = x.shape
    ws = np.zeros((p, d))
    bs = np.zeros(p)
    for c in range(p):
        t = np.where(y == c, 1.0, -1.0)
        w = np.zeros(d)
        b = 0.0
        for _ in range(iterations):
            order = rng.permutation(n)
            for i in order:
                if t[i] * (x[i] @ w + b) <= 0:
                    w += rate * t[i] * x[i]
                    b += rate * t[i]
        ws[c], bs[c] = w, b
    return {"w": ws, "b": bs}


_predict_perceptron = _predict_ovr_logistic


_FITTERS = {
    "knn": _fit_knn,
    "gaussian-naive-bayes": _fit_gnb,
    "lda": _fit_lda,
    "fisher": _fit_fisher,
    "logistic-linear": _fit_logistic,
    "decision-tree": _fit_tree,
    "decision-stump": _fit_stump,
    "nearest-mean": _fit_nearest_mean,
    "perceptron": _fit_perceptron,
}

_PREDICTORS = {
    "knn": _predict_knn,
    "gaussian-naive-bayes": _predict_gnb,
    "lda": _predict_lda,
    "fisher": _predict_fisher,
    "logistic-linear": _predict_logistic,
    "decision-tree": _predict_tree,
    "decision-stump": _predict_tree,
    "nearest-mean": _predict_nearest_mean,
    "perceptron": _predict_perceptron,
}

KINDS = tuple(_FITTERS)

# The state keys each kind's predictor reads, including the two that
# predict_proba_batch reads for every kind.
STATE_KEYS = {
    kind: ("present", "n_features") + keys
    for kind, keys in {
        "knn": ("x", "y", "k", "p"),
        "gaussian-naive-bayes": ("theta", "var", "log_priors"),
        "lda": ("means", "inv_cov", "log_priors"),
        "fisher": ("w", "b"),
        "logistic-linear": ("w",),
        "decision-tree": ("tree",),
        "decision-stump": ("tree",),
        "nearest-mean": ("means",),
        "perceptron": ("w", "b"),
    }.items()
}
