import numpy as np
import pytest

from granulex import learners
from granulex.datasets import BUNDLED_DATASETS, GeneratorSpec, generate, load_bundled
from granulex.learners import (
    Dataset,
    FittedClassifier,
    LearnerError,
    LearnerSpec,
    default_roster,
    extended_roster,
    fit,
    fit_folds,
    spec_from_name,
)
from granulex.metadata import ClassCatalog, validate_scores

CAT2 = ClassCatalog(("A", "B"))


def toy(features, labels, catalog=CAT2):
    return Dataset(np.asarray(features, dtype=float),
                   np.asarray(labels), catalog)


def test_spec_validation():
    with pytest.raises(LearnerError):
        LearnerSpec("knn", {"k": 0})
    with pytest.raises(LearnerError):
        LearnerSpec("no-such-kind")
    assert spec_from_name("knn25").params["k"] == 25
    assert spec_from_name("lda").kind == "lda"


def test_dataset_validation():
    with pytest.raises(LearnerError):
        toy([[1.0, np.nan]], [0])
    with pytest.raises(LearnerError):
        toy([[1.0], [2.0]], [0, 5])


def test_nearest_mean_means():
    data = toy([[0.0, 0.0], [10.0, 10.0]], [0, 1])
    model = fit(LearnerSpec("nearest-mean"), data, 0)
    np.testing.assert_array_equal(
        model.state["means"], [[0.0, 0.0], [10.0, 10.0]]
    )
    probs = model.predict_proba([0.0, 0.0])
    assert np.argmax(probs) == 0


def test_knn1_memorizes():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(20, 3))
    y = rng.integers(0, 2, size=20)
    if len(np.unique(y)) < 2:
        y[0] = 1 - y[0]
    data = toy(x, y)
    model = fit(LearnerSpec("knn", {"k": 1}), data, 0)
    probs = model.predict_proba_batch(x)
    assert np.array_equal(np.argmax(probs, axis=1), y)
    assert probs.max(axis=1).min() == 1.0


def test_knn_vote_fractions():
    data = toy([[0.0], [0.1], [0.2], [5.0]], [0, 0, 1, 1])
    model = fit(LearnerSpec("knn", {"k": 3}), data, 0)
    probs = model.predict_proba([0.05])
    np.testing.assert_allclose(probs, [2 / 3, 1 / 3])


def test_gnb_symmetry():
    x = np.array([[1.0, 0.0], [2.0, 1.0], [-1.0, 0.0], [-2.0, -1.0]])
    y = np.array([0, 0, 1, 1])
    model = fit(LearnerSpec("gaussian-naive-bayes"), toy(x, y), 0)
    probs = model.predict_proba([0.0, 0.0])
    np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-12)


def test_stump_leaf_proportions():
    # 10 points: x0 < 5 holds 9A + 1B -> (0.9, 0.1); x0 >= 5 holds 5B
    x = np.array([[v] for v in [0, 1, 1.5, 2, 2.5, 3, 3.5, 4, 4.5,
                                1.2, 6, 7, 8, 9, 10]])
    y = np.array([0] * 9 + [1] + [1] * 5)
    model = fit(LearnerSpec("decision-stump"), toy(x, y), 0)
    np.testing.assert_allclose(model.predict_proba([1.0]), [0.9, 0.1])
    np.testing.assert_allclose(model.predict_proba([9.0]), [0.0, 1.0])


@pytest.mark.parametrize("spec", extended_roster(), ids=lambda s: s.name)
def test_output_validity(spec):
    rng = np.random.default_rng(1)
    x = rng.normal(size=(40, 3))
    y = rng.integers(0, 3, size=40)
    y[:3] = [0, 1, 2]
    data = toy(x, y, ClassCatalog(("a", "b", "c")))
    model = fit(spec, data, 5)
    probs = model.predict_proba_batch(rng.normal(size=(15, 3)))
    assert validate_scores(probs) == []


@pytest.mark.parametrize("spec", extended_roster(), ids=lambda s: s.name)
def test_determinism_bitwise(spec):
    rng = np.random.default_rng(2)
    x = rng.normal(size=(30, 2))
    y = rng.integers(0, 2, size=30)
    y[:2] = [0, 1]
    data = toy(x, y)
    q = rng.normal(size=(10, 2))
    p1 = fit(spec, data, 9).predict_proba_batch(q)
    p2 = fit(spec, data, 9).predict_proba_batch(q)
    assert np.array_equal(p1, p2)


@pytest.mark.parametrize("spec", extended_roster(), ids=lambda s: s.name)
def test_posteriors_do_not_depend_on_the_chunking(spec):
    # A one-row matrix product goes to BLAS gemv and can round differently
    # from the batch's gemm; every chunking must give the batch's bits.
    data = generate(GeneratorSpec("twonorm-like", n=200, d=8, seed=21))
    q = generate(GeneratorSpec("twonorm-like", n=240, d=8, seed=22)).features
    model = fit(spec, data, 4)
    whole = model.predict_proba_batch(q)
    rng = np.random.default_rng(23)
    cuts = np.sort(rng.choice(np.arange(1, len(q)), size=30, replace=False))
    splits = [np.split(q, np.arange(c, len(q), c)) for c in range(1, 18)]
    for chunks in splits + [np.split(q, cuts)]:
        got = np.concatenate([model.predict_proba_batch(c) for c in chunks])
        assert np.array_equal(got, whole)
    assert all(np.array_equal(model.predict_proba(row), whole[i])
               for i, row in enumerate(q))


@pytest.mark.parametrize("spec", extended_roster(), ids=lambda s: s.name)
def test_fit_set_sanity_separated_gaussians(spec):
    data = generate(GeneratorSpec("two-gaussians", n=400, d=2, seed=17))
    model = fit(spec, data, 3)
    err = float(np.mean(model.predict(data.features) != data.labels))
    assert err <= 0.05, f"{spec.name}: training error {err:.3f}"


def test_dimension_mismatch():
    data = toy([[0.0, 0.0], [1.0, 1.0]], [0, 1])
    model = fit(LearnerSpec("nearest-mean"), data, 0)
    with pytest.raises(LearnerError):
        model.predict_proba([1.0, 2.0, 3.0])


def test_absent_class_gets_zero():
    cat3 = ClassCatalog(("a", "b", "c"))
    data = toy([[0.0], [1.0], [0.1], [0.9]], [0, 2, 0, 2], cat3)
    for spec in default_roster():
        model = fit(spec, data, 0)
        probs = model.predict_proba([0.5])
        assert probs[1] == 0.0
        assert probs.sum() == pytest.approx(1.0)


def test_single_class_refused():
    data = Dataset(np.zeros((3, 1)), np.zeros(3, dtype=int), CAT2)
    with pytest.raises(LearnerError):
        fit(LearnerSpec("lda"), data, 0)


@pytest.mark.parametrize("spec", default_roster(), ids=lambda s: s.name)
def test_state_round_trip(spec):
    rng = np.random.default_rng(4)
    x = rng.normal(size=(25, 2))
    y = rng.integers(0, 2, size=25)
    y[:2] = [0, 1]
    data = toy(x, y)
    model = fit(spec, data, 7)
    clone = FittedClassifier.from_state(model.to_state())
    q = rng.normal(size=(8, 2))
    assert np.array_equal(
        model.predict_proba_batch(q), clone.predict_proba_batch(q)
    )


# --- split search oracle ----------------------------------------------------

def _reference_gini(counts):
    total = counts.sum()
    if total == 0:
        return 0.0
    f = counts / total
    return 1.0 - float((f * f).sum())


def _reference_best_split(x, y, p, min_leaf):
    """The scalar definition of the split search: one position at a time."""
    n, d = x.shape
    parent = _reference_gini(np.bincount(y, minlength=p))
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
            imp = (nl * _reference_gini(left) + nr * _reference_gini(right)) / n
            if best is None or imp < best[0]:
                best = (imp, j, (xs[i] + xs[i + 1]) / 2.0)
    if best is None or best[0] >= parent:
        return None
    return best[1], best[2]


def _random_split_case(rng):
    n = int(rng.integers(2, 301))
    d = int(rng.integers(1, 5))
    p = int(rng.choice([2, 3, 4]))
    x = rng.normal(size=(n, d))
    y = rng.integers(0, p, size=n)
    for j in range(d):
        style = rng.integers(0, 6)
        if style == 1:    # quantized: many ties
            x[:, j] = np.round(x[:, j] * 2.0) / 2.0
        elif style == 2:  # binary
            x[:, j] = rng.integers(0, 2, size=n)
        elif style == 3:  # constant
            x[:, j] = 1.5
        elif style == 4:  # a copy of column 0: equal splits on two features
            x[:, j] = x[:, 0]
        elif style == 5:  # sorted positions, for the mirrored labels below
            x[:, j] = np.arange(n)
    if rng.integers(0, 4) == 0:  # mirrored labels: equal splits at i, n-2-i
        y[n - n // 2:] = y[: n // 2][::-1]
    return x, y, p


def test_best_split_matches_scalar_reference():
    rng = np.random.default_rng(20240917)
    splits = 0
    for _ in range(400):
        x, y, p = _random_split_case(rng)
        for min_leaf in (1, 2, 5):
            expected = _reference_best_split(x, y, p, min_leaf)
            assert learners._best_split(x, y, p, min_leaf) == expected
            splits += expected is not None
    assert splits > 300  # the cases exercise real splits, not only None


@pytest.mark.parametrize("name", BUNDLED_DATASETS)
@pytest.mark.parametrize("spec", [
    LearnerSpec("decision-tree", {"max_depth": 20, "min_leaf": 1}),
    LearnerSpec("decision-stump"),
], ids=lambda s: s.kind)
def test_tree_matches_scalar_reference(name, spec, monkeypatch):
    data = load_bundled(name)
    grown = fit(spec, data, 0).state["tree"]
    monkeypatch.setattr(learners, "_best_split", _reference_best_split)
    assert grown == fit(spec, data, 0).state["tree"]


# --- batched logistic fits oracle -------------------------------------------

def _reference_fit_logistic(spec, x, y, p, seed):
    """The one-fit definition of the logistic learner."""
    iterations = int(spec.params["iterations"])
    rate = float(spec.params["rate"])
    n, d = x.shape
    xa = np.hstack([x, np.ones((n, 1))])
    w = np.zeros((d + 1, p))
    onehot = np.zeros((n, p))
    onehot[np.arange(n), y] = 1.0
    for _ in range(iterations):
        probs = learners._softmax(xa @ w)
        w += rate * (xa.T @ (onehot - probs)) / n
    return {"w": w}


def _random_folds_case(rng):
    m = int(rng.choice([2, 3, 4, 5, 7, 8, 9, 12, 20]))
    t = int(rng.choice([1, 2, 3, 5, 10]))
    n = int(rng.integers(max(20, 2 * m), 501))
    d = int(rng.integers(1, 10))
    x = rng.normal(size=(n, d))
    style = rng.integers(0, 3)
    if style == 1:    # rounded: tied feature values
        x = np.round(x)
    elif style == 2:  # large scale
        x = x * 100.0
    y = rng.integers(0, m, size=n)
    y[: 2 * m] = np.tile(np.arange(m), 2)
    data = Dataset(x, y, ClassCatalog(tuple(f"c{c}" for c in range(m))))
    folds = rng.integers(0, t, size=n)
    folds[:m], folds[m: 2 * m] = 0, t - 1  # every class in every rest
    rests = [np.flatnonzero(folds != f) for f in range(t)] if t > 1 else [
        np.arange(n)]
    return data, rests


def test_fit_folds_logistic_matches_reference_bitwise(monkeypatch):
    rng = np.random.default_rng(20241018)
    cases = [_random_folds_case(rng) for _ in range(30)]
    spec = LearnerSpec("logistic-linear")
    kernel = learners._logistic_weights
    batch_sizes = []

    def spy(spec, x, y, p, masks):
        batch_sizes.append(masks.shape[0])
        return kernel(spec, x, y, p, masks)

    monkeypatch.setattr(learners, "_logistic_weights", spy)
    batched = [fit_folds(spec, data, rests, range(len(rests)))
               for data, rests in cases]
    assert batch_sizes == [len(rests) for _, rests in cases]  # one call each
    monkeypatch.setitem(learners._FITTERS, "logistic-linear",
                        _reference_fit_logistic)
    for (data, rests), models in zip(cases, batched):
        for rest, model in zip(rests, models):
            expected = fit(spec, data.subset(rest), 0).state["w"]
            assert model.state["w"].shape == expected.shape
            assert np.array_equal(model.state["w"], expected)
    # both class-sum regimes and real batches are exercised
    assert {data.catalog.size >= 8 for data, _ in cases} == {False, True}
    assert max(batch_sizes) == 10


def test_fit_logistic_is_the_one_fold_kernel(monkeypatch):
    rng = np.random.default_rng(5)
    data, _ = _random_folds_case(rng)
    spec = LearnerSpec("logistic-linear", {"iterations": 50})
    got = fit(spec, data, 0).state["w"]
    monkeypatch.setitem(learners._FITTERS, "logistic-linear",
                        _reference_fit_logistic)
    assert np.array_equal(got, fit(spec, data, 0).state["w"])


def test_class_sum_follows_numpy_row_sum():
    rng = np.random.default_rng(11)
    for m in list(range(2, 140)) + [255, 256, 257, 1000]:
        e = rng.random((m, 3, 2)) * 10.0 ** rng.integers(-3, 4, size=(m, 1, 1))
        expected = np.ascontiguousarray(e.transpose(1, 2, 0)).sum(axis=-1)
        assert np.array_equal(learners._class_sum(e), expected), m


@pytest.mark.parametrize("spec", extended_roster(), ids=lambda s: s.name)
def test_fit_folds_equals_fit_loop(spec):
    data = load_bundled("rings")
    rng = np.random.default_rng(3)
    rests = [np.sort(rng.choice(150, size=100, replace=False))
             for _ in range(3)]
    rests.append(rests[0][::-1])  # not increasing: the loop's order counts
    models = fit_folds(spec, data, rests, [4, 5, 6, 7])
    for rest, seed, model in zip(rests, [4, 5, 6, 7], models):
        single = fit(spec, data.subset(rest), seed)
        assert (learners._jsonable(model.state)
                == learners._jsonable(single.state))


# --- knn prediction oracle --------------------------------------------------

def _reference_predict_knn(state, x):
    """The per-query definition of the KNN vote."""
    xt, yt, p = state["x"], state["y"], int(state["p"])
    k = min(int(state["k"]), xt.shape[0])
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


def test_predict_knn_matches_reference_bitwise():
    rng = np.random.default_rng(300)
    exact_rows = 0
    for _ in range(300):
        n = int(rng.integers(1, 120))
        d = int(rng.integers(1, 5))
        p = int(rng.integers(2, 6))
        k = int(rng.choice([1, 2, 3, 5, 25, 200]))  # 200 > n: k is capped
        xt = np.round(rng.normal(size=(n, d)) * rng.choice([1.0, 2.0]))
        if rng.integers(0, 2):  # duplicated training rows
            xt[: n // 2] = xt[n - n // 2:][: n // 2]
        state = {"x": xt, "y": rng.integers(0, p, size=n), "k": k, "p": p}
        q = np.vstack([np.round(rng.normal(size=(20, d))), xt[:10]])
        expected = _reference_predict_knn(state, q)
        assert np.array_equal(learners._predict_knn(state, q), expected)
        d2 = ((q[:, None] - xt[None]) ** 2).sum(axis=2)
        exact_rows += int((d2 == 0.0).any(axis=1).sum())
    assert exact_rows > 3000  # exact matches and plain votes both run
