"""The reference implementations the tests hold the package to, each
written once, straight from its definition, with numpy and the standard
library only.  Nothing here imports granulex: an oracle that borrowed a
package function would agree with the package by construction.
test_exports parses this file and fails on any granulex import."""

import itertools
import math

import numpy as np

# --- granules ----------------------------------------------------------------


def midpoint(a, b):
    """Mean of two floats; halves first where their sum overflows."""
    total = a + b
    return total / 2.0 if math.isfinite(total) else a / 2.0 + b / 2.0


def median_of(values):
    """Sample median: the middle order statistic, or the midpoint of the two
    middle order statistics of an even-sized sample."""
    vals = sorted(values)
    if not vals:
        raise ValueError("empty sample")
    mid = len(vals) // 2
    return vals[mid] if len(vals) % 2 else midpoint(vals[mid - 1], vals[mid])


def _score(vals, med, alpha, bound):
    """count x exp(-alpha * |med - bound|), counting the values between the
    median and the bound, both included, with their multiplicity."""
    lo, hi = min(med, bound), max(med, bound)
    count = sum(1 for v in vals if lo <= v <= hi)
    # exp(-0 * dist) is 1, also where the dist overflows to inf.
    return count * (math.exp(-alpha * abs(med - bound)) if alpha else 1.0)


def evidence_score(values, alpha, bound, side):
    """Coverage x specificity score of a candidate bound on one side of the
    median.  For side="upper" it is
        #{x in sample : med <= x <= bound} * exp(-alpha * |med - bound|),
    mirrored for side="lower"."""
    med = median_of(values)
    if (side == "upper" and bound < med) or (side == "lower" and bound > med):
        raise ValueError(f"bound {bound} is not on the {side} side of {med}")
    return _score(values, med, alpha, bound)


def oracle_granule(values, alpha):
    """(lower, upper) by exhaustive search: every sample element on each
    side of the median is scored, and the best one wins, ties going to the
    candidate nearest the median."""
    vals = sorted(values)
    med = median_of(vals)
    upper = max(sorted((v for v in vals if v >= med), key=lambda v: v - med),
                key=lambda v: _score(vals, med, alpha, v))
    lower = max(sorted((v for v in vals if v <= med), key=lambda v: med - v),
                key=lambda v: _score(vals, med, alpha, v))
    return lower, upper


def reference_granules_batch(samples, alpha):
    """The one-shot batch kernel: sort, count and score at a single alpha,
    all in one pass, over every column of the sorted rows.  Fast enough to
    check whole alpha grids, where oracle_granule is not."""
    v = np.sort(np.asarray(samples, dtype=np.float64), axis=1)
    n, k = v.shape
    mid = k // 2
    if k % 2 == 1:
        med = v[:, mid]
    else:
        med = np.array([midpoint(a, b) for a, b in v[:, mid - 1:mid + 1].tolist()])
    medc = med[:, None]
    le = (v[:, None, :] <= v[:, :, None]).sum(axis=2)
    lt = (v[:, None, :] < v[:, :, None]).sum(axis=2)
    below_med = (v < medc).sum(axis=1)[:, None]
    le_med = (v <= medc).sum(axis=1)[:, None]
    with np.errstate(over="ignore"):
        decay = np.exp(-alpha * np.abs(medc - v))
    upper_scores = np.where(v >= medc, (le - below_med) * decay, -1.0)
    upper = v[np.arange(n), np.argmax(upper_scores, axis=1)]
    lower_scores = np.where(v <= medc, (le_med - lt) * decay, -1.0)
    lower = v[np.arange(n), k - 1 - np.argmax(lower_scores[:, ::-1], axis=1)]
    return np.stack([lower, upper], axis=1)


# --- posterior scores ---------------------------------------------------------


def reference_validate_scores(scores, tol=1e-9):
    """The row-by-row definition of validate_scores."""
    violations = []
    for i, row in enumerate(scores):
        if not np.isfinite(row).all():
            violations.append(f"row {i}: non-finite entry")
            continue
        if (row < -tol).any() or (row > 1.0 + tol).any():
            violations.append(f"row {i}: entry outside [0, 1]")
        s = row.sum()
        if abs(s - 1.0) > tol:
            violations.append(f"row {i}: sum {s!r} deviates from 1")
    return violations


def reference_s1(profile, template):
    """The standalone pair formula s1_similarity had before it became
    the one-pair call of s1_similarity_batch."""
    inter = np.minimum(profile, template).sum()
    union = np.maximum(profile, template).sum()
    if union == 0.0:
        return 1.0
    return float(inter / union)


# --- Wilcoxon signed-rank test -------------------------------------------------


def midranks(values):
    """Ranks 1..n by counting: rank_i = #{v < v_i} + (#{v = v_i} + 1) / 2."""
    v = np.asarray(values, dtype=np.float64)
    below = (v[None, :] < v[:, None]).sum(axis=1)
    equal = (v[None, :] == v[:, None]).sum(axis=1)
    return below + (equal + 1) / 2.0


def oracle_wilcoxon_p(diffs):
    """Two-sided exact p by enumerating all 2^n sign assignments."""
    diffs = np.asarray(diffs, dtype=float)
    ranks = midranks(np.abs(diffs))
    w_small = min(ranks[diffs > 0].sum(), ranks[diffs < 0].sum())
    total = ranks.sum()
    hits = 0
    for signs in itertools.product((0, 1), repeat=len(diffs)):
        w = sum(r for r, s in zip(ranks, signs) if s)
        if w <= w_small + 1e-12 or w >= total - w_small - 1e-12:
            hits += 1
    return hits / 2 ** len(diffs)


# --- decision trees ------------------------------------------------------------


def reference_gini(counts):
    total = counts.sum()
    if total == 0:
        return 0.0
    f = counts / total
    return 1.0 - float((f * f).sum())


def reference_best_split(x, y, p, min_leaf):
    """The scalar definition of the split search: one position at a time."""
    n, d = x.shape
    parent = reference_gini(np.bincount(y, minlength=p))
    best = None  # (impurity, feature, threshold)
    for j in range(d):
        order = np.argsort(x[:, j], kind="stable")
        xs, ys = x[order, j], y[order]
        left = np.zeros(p)
        right = np.bincount(ys, minlength=p).astype(float)
        for i in range(n - 1):
            left[ys[i]] += 1
            right[ys[i]] -= 1
            if xs[i] == xs[i + 1]:
                continue
            nl = i + 1
            nr = n - nl
            if nl < min_leaf or nr < min_leaf:
                continue
            imp = (nl * reference_gini(left) + nr * reference_gini(right)) / n
            if best is None or imp < best[0]:
                best = (imp, j, (xs[i] + xs[i + 1]) / 2.0)
    if best is None or best[0] >= parent:
        return None
    return best[1], best[2]


def reference_grow_tree(x, y, p, depth, max_depth, min_leaf):
    """The recursive definition of a CART tree, on the scalar split."""
    counts = np.bincount(y, minlength=p).astype(float)
    if depth >= max_depth or len(np.unique(y)) == 1 or len(y) < 2 * min_leaf:
        return {"leaf": (counts / counts.sum()).tolist()}
    split = reference_best_split(x, y, p, min_leaf)
    if split is None:
        return {"leaf": (counts / counts.sum()).tolist()}
    j, thr = split
    mask = x[:, j] < thr
    return {
        "feature": int(j),
        "threshold": float(thr),
        "left": reference_grow_tree(x[mask], y[mask], p, depth + 1, max_depth,
                                    min_leaf),
        "right": reference_grow_tree(x[~mask], y[~mask], p, depth + 1,
                                     max_depth, min_leaf),
    }


def reference_predict_tree(tree, p, x):
    """The (len(x), p) proportions of the leaf each row of x reaches, each
    row walked alone through the nested dicts of a tree."""
    leaves = []
    for row in x:
        node = tree
        while "leaf" not in node:
            below = row[node["feature"]] < node["threshold"]
            node = node["left"] if below else node["right"]
        leaves.append(node["leaf"])
    return np.array(leaves, dtype=np.float64).reshape(len(x), p)


# --- logistic regression and the perceptron ------------------------------------


def _softmax(z):
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def reference_fit_logistic(spec, x, y, p, seed):
    """The one-fit definition of the logistic learner."""
    iterations = int(spec.params["iterations"])
    rate = float(spec.params["rate"])
    n, d = x.shape
    xa = np.hstack([x, np.ones((n, 1))])
    w = np.zeros((d + 1, p))
    onehot = np.zeros((n, p))
    onehot[np.arange(n), y] = 1.0
    for _ in range(iterations):
        probs = _softmax(xa @ w)
        w += rate * (xa.T @ (onehot - probs)) / n
    return {"w": w}


def reference_fit_perceptron(spec, x, y, p, seed):
    """The row-loop definition of the perceptron learner."""
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


# --- k nearest neighbours ------------------------------------------------------


def reference_predict_knn(model, x):
    """The per-query definition of the KNN vote."""
    xt, yt, p = model.state["x"], model.state["y"], len(model.present)
    k = min(int(model.spec.params["k"]), xt.shape[0])
    out = np.empty((x.shape[0], p))
    d2 = ((x[:, None, :] - xt[None, :, :]) ** 2).sum(axis=2)
    for i in range(x.shape[0]):
        exact = np.nonzero(d2[i] == 0.0)[0]
        if exact.size:
            idx = exact
        else:
            idx = np.argsort(d2[i], kind="stable")[:k]
        counts = np.bincount(yt[idx], minlength=p)
        out[i] = counts / counts.sum()
    return out


# --- fold plans ----------------------------------------------------------------


def reference_fold_assignments(labels, n_folds, seed):
    """The per-row round-robin loop that make_fold_plan vectorizes."""
    rng = np.random.default_rng(seed)
    assignments = np.empty(len(labels), dtype=np.int64)
    cursor = 0
    for c in np.unique(labels):
        idx = np.nonzero(labels == c)[0]
        rng.shuffle(idx)
        for i in idx:
            assignments[i] = cursor % n_folds
            cursor += 1
    return assignments


# --- data generators ----------------------------------------------------------


def reference_two_class(spec):
    """The two-gaussians and twonorm-like draws as two separate
    branches, before they shared one."""
    rng = np.random.default_rng(spec.seed)
    half = spec.n // 2
    sizes = [half, spec.n - half]
    if spec.kind == "two-gaussians":
        offset = np.zeros(spec.d)
        offset[0] = 2.0 * spec.noise
        x = np.vstack([
            rng.normal(size=(sizes[0], spec.d)) * spec.noise + offset,
            rng.normal(size=(sizes[1], spec.d)) * spec.noise - offset,
        ])
        labels = ("pos", "neg")
    else:
        a = 2.0 / np.sqrt(spec.d)
        x = np.vstack([
            rng.normal(size=(sizes[0], spec.d)) * spec.noise + a,
            rng.normal(size=(sizes[1], spec.d)) * spec.noise - a,
        ])
        labels = ("norm1", "norm2")
    y = np.concatenate([np.zeros(sizes[0]), np.ones(sizes[1])])
    order = rng.permutation(spec.n)
    return x[order], y[order].astype(np.int64), labels
