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
