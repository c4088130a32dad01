import copy
import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from granulex import learners, training
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
from granulex.training import make_fold_plan
from oracles import (
    reference_best_split,
    reference_fit_logistic,
    reference_fit_perceptron,
    reference_grow_tree,
    reference_predict_knn,
    reference_predict_tree,
)

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
    assert spec_from_name("knn").name == "knn5"
    assert spec_from_name("knn1000").name == "knn1000"
    assert spec_from_name("lda").kind == "lda"


@pytest.mark.parametrize("name", [
    "knn+5", "knn05", "knn 5", "knn5_0", "knn2.7", "knn0", "knn-3", "knn5 ",
    "knn٥", "knnk",
])
def test_knn_entry_parsed_strictly(name):
    """Each entry here was once read as a knn<k> of another name, or failed
    with a message that did not name the entry."""
    with pytest.raises(LearnerError, match=re.escape(f"learner {name!r}")):
        spec_from_name(name)


# A parameter the kind does not read, and values its default's type rules
# out: each was accepted once, and knn2.7 fitted k = 2.
BAD_PARAMS = [
    ("lda", {"k": 3}, "lda has no parameter 'k'; it takes none"),
    ("knn", {"kk": 3}, "knn has no parameter 'kk'; it takes k"),
    ("knn", {"k": 2.7}, "knn parameter 'k' must be an integer >= 1, got 2.7"),
    ("logistic-linear", {"rate": float("nan")},
     "logistic-linear parameter 'rate' must be a finite number > 0, got nan"),
]


@pytest.mark.parametrize("kind, params, message", BAD_PARAMS + [
    ("knn", {"k": True}, "must be an integer"),
    ("knn", {"k": 0}, "must be an integer"),
    ("decision-tree", {"min_leaf": 2.0}, "must be an integer"),
    ("perceptron", {"iterations": -1}, "must be an integer"),
    ("perceptron", {"rate": 0}, "must be a finite number"),
    ("perceptron", {"rate": float("inf")}, "must be a finite number"),
    ("logistic-linear", {"rate": 10 ** 400}, "must be a finite number"),
    ("logistic-linear", {"rate": "0.1"}, "must be a finite number"),
    ("decision-stump", {"max_depth": 3}, "has no parameter"),
    (["knn"], {}, "unknown kind"),
])
def test_spec_rejects_bad_params(kind, params, message):
    with pytest.raises(LearnerError, match=re.escape(message)):
        LearnerSpec(kind, params)


def test_spec_fills_defaults_after_the_given_params():
    spec = LearnerSpec("decision-tree", {"min_leaf": 3})
    assert list(spec.params.items()) == [("min_leaf", 3), ("max_depth", 12)]
    assert LearnerSpec("perceptron", {"rate": 1}).params == {
        "rate": 1, "iterations": 100}


class _ReadKeys(dict):
    def __init__(self, params):
        super().__init__(params)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("kind", list(learners._KINDS))
def test_fitter_reads_every_default(kind):
    """A fit and one predict read every default, and only the defaults:
    a knn reads its k when it predicts."""
    spec = LearnerSpec(kind)
    recorder = _ReadKeys(spec.params)
    object.__setattr__(spec, "params", recorder)
    data = toy([[0.0], [1.0], [2.0], [3.0]], [0, 0, 1, 1])
    fit(spec, data, 0).predict_proba_batch(data.features)
    assert recorder.read == set(learners._KINDS[kind].defaults)


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


def _saved(model):
    """model's to_state record, and the arguments from_state takes beside
    it, as a model file holds them: catalog, feature count and training
    sets, the record and the sets through JSON text."""
    training_sets: dict = {}
    record = json.loads(json.dumps(model.to_state(training_sets)))
    entries = json.loads(json.dumps(list(training_sets.values())))
    return record, (model.catalog, model.n_features, entries)


@pytest.mark.parametrize("spec", default_roster(), ids=lambda s: s.name)
def test_state_round_trip(spec):
    rng = np.random.default_rng(4)
    x = rng.normal(size=(25, 2))
    y = rng.integers(0, 2, size=25)
    y[:2] = [0, 1]
    data = toy(x, y)
    model = fit(spec, data, 7)
    record, shared = _saved(model)
    clone = FittedClassifier.from_state(record, *shared)
    q = rng.normal(size=(8, 2))
    assert np.array_equal(
        model.predict_proba_batch(q), clone.predict_proba_batch(q)
    )


@pytest.mark.parametrize("spec", extended_roster(), ids=lambda s: s.name)
def test_state_is_exactly_the_layout_arrays(spec):
    """A fitted model's state and its save/load copy's hold the arrays of
    the kind's layout and nothing else: a knn's training set, not its k.
    The present classes and the feature count are attributes."""
    rng = np.random.default_rng(5)
    y = rng.integers(0, 3, size=30)
    y[:3] = [0, 1, 2]
    cat4 = ClassCatalog(("a", "b", "c", "d"))
    model = fit(spec, Dataset(rng.normal(size=(30, 2)), y, cat4), 7)
    record, shared = _saved(model)
    clone = FittedClassifier.from_state(record, *shared)
    arrays = {k for key, layout in learners._KINDS[spec.kind].state.items()
              for k in (layout if layout is learners._TRAINING_SET else [key])}
    for m in (model, clone):
        assert set(m.state) == arrays
        assert all(isinstance(v, np.ndarray) for v in m.state.values())
        assert m.present.tolist() == [0, 1, 2] and m.n_features == 2


@pytest.mark.parametrize("n_features", [0, -1, "2", True])
def test_state_n_features_checked(tmp_path, n_features):
    """The feature count of every state is the model file's one
    n_features, checked once at load."""
    data = toy(np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5], [1.0, 1.0]]),
               np.array([0, 1, 0, 1]))
    path = tmp_path / "m.json"
    training.save_ensemble(path, training.train(
        data, [LearnerSpec("lda"), LearnerSpec("knn")], 0, fixed_alpha=1.0))
    payload = json.loads(path.read_text())
    payload["n_features"] = n_features
    path.write_text(json.dumps(payload))
    with pytest.raises(training.TrainingError,
                       match="model key 'n_features' must be an integer >= 1"):
        training.load_ensemble(path)


def _record(kind):
    """_saved of the extended roster's learner of kind."""
    rng = np.random.default_rng(4)
    y = rng.integers(0, 2, size=25)
    y[:2] = [0, 1]
    spec = {s.kind: s for s in extended_roster()}[kind]
    return _saved(fit(spec, toy(rng.normal(size=(25, 2)), y), 7))


@pytest.mark.parametrize("damage, message", [
    (lambda r: [r], "record must be a JSON object"),
    *[(lambda r, key=key: {k: v for k, v in r.items() if k != key},
       f"record lacks key(s) {key}")
      for key in ("kind", "params", "state")],
    (lambda r: dict(r, params=5), "record key 'params' must be a JSON object"),
    (lambda r: dict(r, state=[1]), "state must be a JSON object"),
], ids=["list", "no-kind", "no-params", "no-state", "params-5", "state-list"])
def test_from_state_rejects_a_damaged_record(damage, message):
    record, shared = _record("knn")
    with pytest.raises(LearnerError, match=re.escape(message)):
        FittedClassifier.from_state(damage(record), *shared)


@pytest.mark.parametrize("kind", learners._KINDS)
def test_from_state_names_each_missing_state_key(kind):
    """Every key to_state writes into a kind's state is one from_state
    needs, and a record without it raises LearnerError naming it."""
    written, shared = _record(kind)
    for key in written["state"]:
        record = copy.deepcopy(written)
        del record["state"][key]
        with pytest.raises(LearnerError, match=rf"^state lacks key\(s\) {key}$"):
            FittedClassifier.from_state(record, *shared)


# --- split search -----------------------------------------------------------

@pytest.mark.parametrize("p", [2, 3, 7, 8, 9, 16, 17, 130])
def test_gini_of_class_slabs_is_the_row_sum_bitwise(p):
    """_gini adds the squared class fractions slab by slab, bitwise as
    `(f * f).sum(axis=-1)` adds each set's row of them: in sequence below
    8 classes, in eight partial sums from 8, in halves above 128."""
    rng = np.random.default_rng(p)
    counts = rng.integers(0, 50, size=(500, p)).astype(np.float64)
    counts[:, 0] += 1  # no set is empty
    total = counts.sum(axis=1)
    f = counts / total[:, None]
    want = 1.0 - (f * f).sum(axis=-1)
    got = learners._gini(np.ascontiguousarray(counts.T), total)
    assert np.array_equal(got, want)
    assert [1.0 - float((row * row).sum()) for row in f] == want.tolist()


def _nested_tree(table, node=0):
    """A node table as the nested split and leaf dicts of
    reference_grow_tree."""
    if table["feature"][node] < 0:
        return {"leaf": table["proportions"][node].tolist()}
    left, right = table["children"][node]
    return {"feature": int(table["feature"][node]),
            "threshold": float(table["threshold"][node]),
            "left": _nested_tree(table, left), "right": _nested_tree(table, right)}


def _random_split_case(rng, p=None, n_max=300, d_max=4):
    n = int(rng.integers(2, n_max + 1))
    d = int(rng.integers(1, d_max + 1))
    p = int(rng.choice([2, 3, 4])) if p is None else p
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
    """A tree one split deep splits the root as the scalar search does:
    the first minimum of each feature, ties to the first feature, and a
    leaf when no split lowers the parent impurity."""
    rng = np.random.default_rng(20240917)
    splits = 0
    for _ in range(400):
        x, y, p = _random_split_case(rng)
        for min_leaf in (1, 2, 5):
            expected = reference_best_split(x, y, p, min_leaf)
            (table,) = learners._grow_trees(x, y, p, [np.arange(len(y))], 1,
                                            min_leaf)
            root = _nested_tree(table)
            got = None if "leaf" in root else (root["feature"], root["threshold"])
            assert got == expected
            splits += expected is not None
    assert splits > 300  # the cases exercise real splits, not only None


@pytest.mark.parametrize("name", BUNDLED_DATASETS)
@pytest.mark.parametrize("spec", [
    LearnerSpec("decision-tree", {"max_depth": 20, "min_leaf": 1}),
    LearnerSpec("decision-stump"),
], ids=lambda s: s.kind)
def test_tree_matches_scalar_reference(name, spec):
    data = load_bundled(name)
    max_depth, min_leaf = learners._tree_shape(spec)
    expected = reference_grow_tree(data.features, data.labels,
                                   data.catalog.size, 0, max_depth, min_leaf)
    assert _nested_tree(fit(spec, data, 0).state) == expected


def _spy_tree_calls(monkeypatch):
    """The number of rests of every _grow_trees call."""
    calls = []
    real = learners._grow_trees

    def spy(x, y, p, rests, *shape):
        calls.append(len(rests))
        return real(x, y, p, rests, *shape)

    monkeypatch.setattr(learners, "_grow_trees", spy)
    return calls


def _spy_tree_groups(monkeypatch):
    """The number of rests of every _grow_level_wise call (tree group)."""
    groups = []
    real = learners._grow_level_wise

    def spy(x, y, p, ranks, group, *rest):
        groups.append(len(group))
        return real(x, y, p, ranks, group, *rest)

    monkeypatch.setattr(learners, "_grow_level_wise", spy)
    return groups


def _tree_parts_case(rng, p, parts, n_max):
    """A data set of p classes and `parts` increasing rests of about 80%
    of its rows, each holding every class."""
    x, y, _ = _random_split_case(rng, p=p, n_max=n_max)
    x = np.vstack([x[:1].repeat(p, axis=0), x])
    y = np.r_[np.arange(p), y]
    data = Dataset(x, y, ClassCatalog(tuple(f"c{c}" for c in range(p))))
    rests = [np.r_[np.arange(p), p + np.flatnonzero(rng.random(len(y) - p) < 0.8)]
             for _ in range(parts)]
    return data, rests


@pytest.mark.parametrize("parts", [1, 2, 10, 110])
def test_fit_folds_trees_match_reference(parts, monkeypatch):
    """One _grow_trees call fits every rest level by level, and each tree
    is the recursive oracle's on the rest alone: p = 2..6, max_depth 1, 2,
    12 and 20, min_leaf 1, 2 and 5, on tie-heavy and mirrored data."""
    rng = np.random.default_rng(7000 + parts)
    calls = _spy_tree_calls(monkeypatch)
    shapes = [(md, ml) for md in (1, 2, 12, 20) for ml in (1, 2, 5)]
    few = parts > 10  # the oracle is slow: fewer and smaller cases
    for i in range(5 if few else len(shapes)):
        max_depth, min_leaf = shapes[(5 * i + parts) % len(shapes)]
        p = 2 + i % 5
        data, rests = _tree_parts_case(rng, p, parts, 40 if few else 120)
        for spec in (LearnerSpec("decision-tree", {"max_depth": max_depth,
                                                   "min_leaf": min_leaf}),
                     LearnerSpec("decision-stump")):
            del calls[:]
            models = list(fit_folds(spec, data, rests, range(parts)))
            assert calls == [parts]
            shape = learners._tree_shape(spec)
            for rest, model in zip(rests, models):
                assert _nested_tree(model.state) == reference_grow_tree(
                    data.features[rest], data.labels[rest], p, 0, *shape)


def test_tree_groups_stay_within_the_cell_budget(monkeypatch):
    """Rests go in groups of at most TREE_BLOCK_CELLS rest rows x (features
    + classes), so the working set does not grow with the number of rests,
    and the grouping changes no tree."""
    data = load_bundled("twonorm")
    rng = np.random.default_rng(4)
    rests = [np.sort(rng.choice(150, size=120, replace=False)) for _ in range(9)]
    spec = LearnerSpec("decision-tree", {"max_depth": 20, "min_leaf": 1})
    whole = list(fit_folds(spec, data, rests, range(9)))
    groups = _spy_tree_groups(monkeypatch)
    monkeypatch.setattr(learners, "TREE_BLOCK_CELLS", 3 * 120 * (6 + 2))
    grouped = list(fit_folds(spec, data, rests, range(9)))
    assert groups == [3, 3, 3]
    assert ([_nested_tree(m.state) for m in grouped]
            == [_nested_tree(m.state) for m in whole])


@pytest.mark.parametrize("fault", ["absent-class", "not-increasing",
                                   "falls-at-first-pair", "repeated-index"])
def test_tree_parts_outside_the_guard_fit_one_by_one(fault, monkeypatch):
    """A rest missing a class, or not increasing, sends every rest to the
    one-rest fit, and each tree is still the oracle's.  The one pass over
    all rests skips only the step from one rest to the next, so a rest
    that falls only at its first pair, right after that step, is caught."""
    data = load_bundled("rings")
    rng = np.random.default_rng(9)
    rests = [np.sort(rng.choice(150, size=100, replace=False)) for _ in range(3)]
    if fault == "absent-class":
        rests.append(np.flatnonzero(data.labels != 0))
    elif fault == "not-increasing":
        rests.append(rests[0][::-1])
    elif fault == "falls-at-first-pair":
        rests.append(rests[0][[1, 0, *range(2, 100)]])
    else:
        rests.append(np.sort(np.r_[rests[0], rests[0][5]]))
    calls = _spy_tree_calls(monkeypatch)
    models = list(fit_folds(LearnerSpec("decision-tree"), data, rests, range(4)))
    assert calls == [1, 1, 1, 1]
    for rest, model in zip(rests, models):
        part = data.subset(rest)
        present = np.unique(part.labels)
        y = np.searchsorted(present, part.labels)
        assert _nested_tree(model.state) == reference_grow_tree(
            part.features, y, len(present), 0, 12, 2)


@pytest.mark.parametrize("p", [8, 9, 17])
def test_trees_of_eight_classes_or_more_match_reference(p, monkeypatch):
    """From 8 classes on, _gini adds the squared fractions in eight
    partial sums, as numpy's pairwise sum does; each tree is still the
    oracle's, whether its rests are grown in one group or in several."""
    rng = np.random.default_rng(8000 + p)
    data, rests = _tree_parts_case(rng, p, 6, 150)
    groups = _spy_tree_groups(monkeypatch)
    cells = sum(len(r) for r in rests) * (data.n_features + p)
    for spec in (LearnerSpec("decision-tree", {"max_depth": 20, "min_leaf": 1}),
                 LearnerSpec("decision-tree"), LearnerSpec("decision-stump")):
        shape = learners._tree_shape(spec)
        expected = [reference_grow_tree(data.features[r], data.labels[r], p, 0,
                                        *shape) for r in rests]
        for budget in (cells, cells // 3):
            monkeypatch.setattr(learners, "TREE_BLOCK_CELLS", budget)
            del groups[:]
            models = list(fit_folds(spec, data, rests, range(len(rests))))
            assert sum(groups) == len(rests)
            assert (len(groups) == 1) == (budget == cells)
            assert [_nested_tree(m.state) for m in models] == expected


# (left class counts, right class counts, two classes of equal totals):
# swapping the two classes' left and right counts leaves the weighted Gini
# of the cut equal as a real number, but not as rounded; the sequential
# and the pairwise sum of the squared fractions order the two differently.
ROUNDING_TIES = {
    8: ([4, 5, 3, 1, 4, 3, 2, 5], [2, 2, 4, 1, 5, 3, 4, 1], (7, 0)),
    9: ([2, 0, 2, 1, 0, 0, 5, 4, 4], [5, 4, 5, 3, 2, 5, 5, 0, 5], (1, 7)),
    17: ([1, 3, 3, 3, 0, 4, 4, 5, 4, 4, 3, 2, 2, 1, 1, 1, 4],
         [3, 0, 5, 0, 4, 0, 4, 1, 0, 4, 3, 4, 5, 5, 2, 2, 0], (0, 5)),
}


@pytest.mark.parametrize("p", ROUNDING_TIES)
def test_trees_settle_rounding_ties_as_the_oracle(p):
    """Two binary features, one cut each: feature 0 puts the left counts
    below its cut, feature 1 the same counts with two classes swapped.
    Which cut is lower rests on the last bit of the impurities, so the tree
    is the oracle's only if its class sum adds in numpy's pairwise order."""
    left, right, (a, b) = (np.array(v) for v in ROUNDING_TIES[p])
    swap = np.arange(p)
    swap[[a, b]] = b, a
    y = np.repeat(np.arange(p), left + right)
    x = np.ones((len(y), 2))
    for c in range(p):
        rows = np.flatnonzero(y == c)
        x[rows[:left[c]], 0] = 0.0
        x[rows[:left[swap[c]]], 1] = 0.0
    data = Dataset(x, y, ClassCatalog(tuple(f"c{c}" for c in range(p))))
    for spec in (LearnerSpec("decision-stump"), LearnerSpec("decision-tree")):
        shape = learners._tree_shape(spec)
        (model,) = fit_folds(spec, data, [np.arange(len(y))], [0])
        assert _nested_tree(model.state) == reference_grow_tree(x, y, p, 0, *shape)


@pytest.mark.parametrize("fault", ["empty", "one-class"])
@pytest.mark.parametrize("at", [0, 2])
def test_a_rest_of_fewer_than_two_classes_fails_before_any_fit(fault, at,
                                                              monkeypatch):
    data = load_bundled("rings")
    rests = [np.arange(0, 150, 2), np.arange(1, 150, 2), np.arange(150)]
    rests[at] = (np.array([], dtype=np.int64) if fault == "empty"
                 else np.flatnonzero(data.labels == 1))
    calls = _spy_tree_calls(monkeypatch)
    with pytest.raises(LearnerError,
                       match="^need at least two classes present to fit$"):
        fit_folds(LearnerSpec("decision-tree"), data, rests, range(3))
    assert calls == []


@pytest.mark.parametrize("rest", [
    np.arange(151),               # holds 150, one past the last row
    np.arange(-1, 150),           # holds -1
    np.arange(150, dtype=float),  # row numbers as floats
], ids=["row-150", "row-minus-1", "float"])
def test_a_rest_outside_the_rows_fails_before_any_fit(rest, monkeypatch):
    data = load_bundled("rings")
    calls = _spy_tree_calls(monkeypatch)
    with pytest.raises(LearnerError,
                       match=r"^rests must be integer arrays of rows in \[0, 150\)$"):
        fit_folds(LearnerSpec("decision-tree"), data, [np.arange(100), rest], [0, 1])
    assert calls == []


def _rows_on_thresholds(tree, x):
    """For each split of tree, the first row of x that reaches it, with the
    split's feature set to its threshold.  The threshold lies between two
    values of rows that reach the split, so the row still reaches it."""
    if "leaf" in tree:
        return []
    row = x[0].copy()
    row[tree["feature"]] = tree["threshold"]
    left = x[:, tree["feature"]] < tree["threshold"]
    return ([row] + _rows_on_thresholds(tree["left"], x[left])
            + _rows_on_thresholds(tree["right"], x[~left]))


@pytest.mark.parametrize("name", BUNDLED_DATASETS)
@pytest.mark.parametrize("spec", [
    LearnerSpec("decision-stump"),
    LearnerSpec("decision-tree"),
    LearnerSpec("decision-tree", {"max_depth": 20, "min_leaf": 1}),
], ids=["depth-1", "depth-12", "depth-20"])
def test_tree_posteriors_are_the_nested_walks(name, spec):
    """The level-wise descent over the node table gives bitwise the
    proportions of the row-by-row nested walk: for no rows, one row and
    many rows, rows exactly on a split's threshold among them."""
    data = load_bundled(name)
    state = fit(spec, data, 0).state
    tree, p = _nested_tree(state), state["proportions"].shape[1]
    on = np.array(_rows_on_thresholds(tree, data.features))
    assert len(on) == (state["feature"] >= 0).sum()
    rng = np.random.default_rng(len(on))
    far = rng.normal(size=(200, data.n_features)) * 3 * data.features.std(axis=0)
    x = np.vstack([on, data.features, far])
    for rows in (x[:0], x[:1], x[-1:], on, x):
        want = reference_predict_tree(tree, p, rows)
        assert np.array_equal(learners._predict_tree(state, rows), want)


def test_tree_of_a_rest_with_repeated_rows_is_the_oracle_on_its_rows():
    """A sorted rest that repeats rows, as a bootstrap draw does, grows the
    oracle's tree on its rows taken with their repeats: repeated cells have
    equal values and labels, and no cut falls between equal values."""
    rng = np.random.default_rng(31)
    for i in range(30):
        x, y, p = _random_split_case(rng, n_max=120)
        rests = [np.sort(rng.integers(0, len(y), size=len(y))) for _ in range(3)]
        rests[0] = np.repeat(np.arange(len(y)), 2)  # every row twice
        shape = [(1, 1), (2, 2), (12, 2), (20, 1), (20, 5)][i % 5]
        for rest, table in zip(rests, learners._grow_trees(x, y, p, rests, *shape)):
            assert (np.diff(rest) == 0).any()
            assert _nested_tree(table) == reference_grow_tree(x[rest], y[rest], p,
                                                              0, *shape)


# --- batched logistic fits --------------------------------------------------

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


def _patch_fitter(monkeypatch, kind, fitter):
    """Make the one-part fitter the kind's fitter, each part fitted alone."""
    entry = learners._KINDS[kind]
    monkeypatch.setitem(learners._KINDS, kind,
                        entry._replace(fit=learners._each_part(fitter)))


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
    # The kernel runs when a call's first model is read: read them all.
    batched = [list(fit_folds(spec, data, rests, range(len(rests))))
               for data, rests in cases]
    assert batch_sizes == [len(rests) for _, rests in cases]  # one call each
    _patch_fitter(monkeypatch, "logistic-linear", reference_fit_logistic)
    for (data, rests), models in zip(cases, batched):
        for rest, model in zip(rests, models):
            expected = fit(spec, data.subset(rest), 0).state["w"]
            assert model.state["w"].shape == expected.shape
            assert model.state["w"].tobytes() == expected.tobytes()
    # both class-sum regimes and real batches are exercised
    assert {data.catalog.size >= 8 for data, _ in cases} == {False, True}
    assert max(batch_sizes) == 10


def test_fit_logistic_is_the_one_fold_kernel(monkeypatch):
    rng = np.random.default_rng(5)
    data, _ = _random_folds_case(rng)
    spec = LearnerSpec("logistic-linear", {"iterations": 50})
    got = fit(spec, data, 0).state["w"]
    _patch_fitter(monkeypatch, "logistic-linear", reference_fit_logistic)
    assert got.tobytes() == fit(spec, data, 0).state["w"].tobytes()


# --- perceptron scan --------------------------------------------------------

def _spy_scans(monkeypatch):
    """What each call of the perceptron scan's _scores returned: the
    margins and threshold of one rescoring, or None where the epoch fell
    to the row loop."""
    scores = []
    real = learners._scores

    def spy(*args):
        scores.append(real(*args))
        return scores[-1]

    monkeypatch.setattr(learners, "_scores", spy)
    return scores


def _check_perceptron(x, y, p, seed=0, **params):
    spec = LearnerSpec("perceptron", {"iterations": 40, **params})
    got = learners._fit_perceptron(spec, x, y, p, seed)
    want = reference_fit_perceptron(spec, x, y, p, seed)
    assert np.array_equal(got["w"], want["w"]), (x.shape, params)
    assert np.array_equal(got["b"], want["b"]), (x.shape, params)


def _skipped_rows(scores):
    """Rows a rescoring settled as no update, summed over the rescorings."""
    return sum(int((m > thr).sum()) for m, thr in scores)


def _fell_to_the_row_loop(scores, epochs):
    """Every scan epoch went to the row loop at its first call, so nothing
    was rescored: at most one call per epoch, each None."""
    return 0 < len(scores) <= epochs and all(s is None for s in scores)


def test_perceptron_scan_matches_row_loop_bitwise(monkeypatch):
    """twonorm-like data makes few mistakes per epoch, so most epochs scan
    and most rows are settled by the array product; a clear mistake, a
    margin below -thr, updates without the step."""
    scores = _spy_scans(monkeypatch)
    for d in range(1, 17):
        data = generate(GeneratorSpec("twonorm-like", n=160, d=d, seed=d))
        _check_perceptron(data.features, data.labels, 2, seed=d)
    assert _skipped_rows(scores) > 0.9 * sum(m.size for m, _ in scores)
    assert sum(int((m < -thr).any()) for m, thr in scores) > 0


@pytest.mark.parametrize("noise", [0.4, 1.0, 2.0])
def test_perceptron_matches_row_loop_as_classes_overlap(noise, monkeypatch):
    """n = 300, d = 20: past the first epoch nearly every epoch scans, with
    a few updates per scan at noise 0.4 and about sixty at 2.0."""
    scores = _spy_scans(monkeypatch)
    data = generate(GeneratorSpec("twonorm-like", n=300, d=20, noise=noise,
                                  seed=23))
    _check_perceptron(data.features, data.labels, 2, seed=5, iterations=100)
    assert _skipped_rows(scores) > 0


def test_fit_folds_perceptron_matches_row_loop_on_ten_parts():
    """Ten cross-validation complements through fit_folds, each bitwise the
    row loop's fit of its rows with its seed."""
    data = generate(GeneratorSpec("twonorm-like", n=200, d=8, noise=1.0, seed=9))
    rests = [np.flatnonzero(np.arange(200) % 10 != f) for f in range(10)]
    spec = LearnerSpec("perceptron")
    models = list(fit_folds(spec, data, rests, range(30, 40)))
    for rest, seed, model in zip(rests, range(30, 40), models):
        want = reference_fit_perceptron(spec, data.features[rest],
                                        data.labels[rest], 2, seed)
        assert model.state["w"].tobytes() == want["w"].tobytes()
        assert model.state["b"].tobytes() == want["b"].tobytes()


def test_perceptron_on_rings_keeps_the_row_loop(monkeypatch):
    """Concentric rings are far from separable: every epoch of every class
    makes more than n/4 mistakes, so no epoch scans."""
    scores = _spy_scans(monkeypatch)
    data = generate(GeneratorSpec("concentric-rings", n=150, d=3, seed=1))
    _check_perceptron(data.features, data.labels, 3)
    assert scores == []


def test_perceptron_scan_decides_zero_margins_as_the_loop(monkeypatch):
    """Margins at and near 0, where the step decides.  Integer features
    with rate 1 keep w and b integers, so many margins are exactly 0, where
    the step's `<= 0` makes an update.  Features off the integers by
    multiples of 2^-48 leave tiny margins within +-thr, positive ones
    making no update.  Features of size 2^53 beside small ones round
    differently in the scan's product and in the step, so a margin the
    product puts above 0 can be <= 0 in the step."""
    scores = _spy_scans(monkeypatch)
    rng, off = np.random.default_rng(8), np.random.default_rng(13)
    for d in (1, 2, 3, 5, 8):
        x = rng.integers(-3, 4, size=(120, d)).astype(float)
        y = (x @ rng.integers(-2, 3, size=d) + rng.integers(-1, 2, size=120)
             > 0).astype(np.int64)
        _check_perceptron(x, y, 2, rate=1.0)
        x_off = x + 2.0 ** -48 * off.integers(-4, 5, size=x.shape)
        _check_perceptron(x_off, y, 2, rate=1.0)
    assert _skipped_rows(scores) > 0
    assert sum(int(((0 < m) & (m <= thr)).sum()) for m, thr in scores) > 0
    for seed in range(12):
        d = int(off.integers(3, 12))
        x = off.integers(-3, 4, size=(60, d)).astype(float)
        x[:, :2] *= 2.0 ** 53
        y = (x[:, 2:] @ off.integers(-2, 3, size=d - 2) > 0).astype(np.int64)
        _check_perceptron(x, y, 2, seed=seed, iterations=30, rate=1.0)


@pytest.mark.parametrize("scale, path", [
    (1e-200, "loop"),  # x @ w underflows and b alone decides: many mistakes
    (1e150, "scan"),
    (1e151, "step"),   # top |(w, b)| above 2^1000: each row takes the step
])
def test_perceptron_scan_at_extreme_scales(scale, path, monkeypatch):
    scores = _spy_scans(monkeypatch)
    data = generate(GeneratorSpec("twonorm-like", n=160, d=8, seed=3))
    _check_perceptron(data.features * scale, data.labels, 2)
    assert {"loop": scores == [],
            "scan": None not in scores and _skipped_rows(scores) > 0,
            "step": _fell_to_the_row_loop(scores, 40 * 2)}[path]


def test_perceptron_scan_margins_of_underflowing_products(monkeypatch):
    """A rate of one or three least subnormals keeps (w, b) subnormal, so
    every product in a margin underflows.  Half-integer features make
    products half-way between subnormals, which the scan's product and the
    step's dot round differently, so the two can differ in sign.  The
    relative part of the threshold underflows too; only its floor, top *
    least normal, covers them: every margin lies within it, and each row
    takes the step."""
    scores = _spy_scans(monkeypatch)
    rng = np.random.default_rng(21)
    for d in (1, 2, 3, 5, 8):
        x = (rng.integers(-6, 7, size=(80, d))
             + 0.5 * rng.integers(0, 2, size=(80, d)))
        y = (x @ rng.integers(-2, 3, size=d) + 0.5 > 0).astype(np.int64)
        for rate in (5e-324, 1.5e-323):
            _check_perceptron(x, y, 2, seed=d, iterations=30, rate=rate)
    assert scores and None not in scores
    assert any((m != 0).any() for m, _ in scores)
    assert all((np.abs(m) <= thr).all() for m, thr in scores)


def test_perceptron_rows_whose_norm_overflows_go_to_the_step(monkeypatch):
    """Row norms above the float range are inf, without a warning, and no
    row is then settled by the product: each scan epoch goes to the row
    loop.  The least rate keeps w and the step's products finite."""
    scores = _spy_scans(monkeypatch)
    data = generate(GeneratorSpec("twonorm-like", n=160, d=16, seed=4))
    x = np.sign(data.features) * (0.5e308 + 0.5e308 * np.abs(np.tanh(data.features)))
    with np.errstate(over="ignore"):
        assert np.isinf(np.hypot.reduce(x, axis=1)).all()
    _check_perceptron(x, data.labels, 2, rate=5e-324)
    assert _fell_to_the_row_loop(scores, 40 * 2)


def test_perceptron_scan_on_tiny_data(monkeypatch):
    """Two rows, and p = 2..5 classes of one row each among a few more."""
    scores = _spy_scans(monkeypatch)
    rng = np.random.default_rng(12)
    _check_perceptron(np.array([[1.0, 2.0], [-1.0, 0.5]]), np.array([0, 1]), 2)
    for p in range(2, 6):
        x = rng.normal(size=(p + 6, 3))
        y = np.concatenate([np.arange(p), np.zeros(6, dtype=np.int64)])
        _check_perceptron(x, y, p, seed=p)
    assert _skipped_rows(scores) > 0


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
        assert model.state.keys() == single.state.keys()
        for key, value in model.state.items():
            a, b = np.asarray(value), np.asarray(single.state[key])
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


@pytest.mark.parametrize("spec", extended_roster(), ids=lambda s: s.name)
def test_fit_folds_model_i_alone_is_the_model_of_the_call(spec):
    """Indexing fits one rest in a fitter call of its own; its model is
    bitwise the one that iterating, a call over every rest, gives, so
    part_profiles may fit the parts in any grouping and process."""
    data = load_bundled("rings")
    rng = np.random.default_rng(4)
    rests = [np.sort(rng.choice(150, size=110, replace=False)) for _ in range(4)]
    models = fit_folds(spec, data, rests, [8, 9, 10, 11])
    assert len(models) == 4
    for i, model in enumerate(models):
        for alone in (models[i], models[i - 4]):
            assert alone.state.keys() == model.state.keys()
            for key, value in model.state.items():
                a, b = np.asarray(value), np.asarray(alone.state[key])
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    with pytest.raises(IndexError):
        models[4]


@pytest.mark.parametrize("kind", list(learners._KINDS))
def test_fit_folds_of_no_rests_yields_nothing(kind):
    assert list(fit_folds(LearnerSpec(kind), load_bundled("rings"), [], [])) == []


# --- knn prediction ---------------------------------------------------------

def _knn_models(xt, y, p, ks):
    """A knn model of each k on the training rows xt, labels y, of p
    present classes: the models of one shared_key."""
    catalog = ClassCatalog(tuple(f"c{c}" for c in range(p)))
    return [FittedClassifier(LearnerSpec("knn", {"k": k}), catalog, np.arange(p),
                             xt.shape[1], {"x": xt, "y": y}) for k in ks]


def test_predict_knn_matches_reference_bitwise(monkeypatch):
    """Quantized data puts ties at the k-th distance, k = 200 exceeds every
    training size, and queries copied from the training rows take the
    exact-match vote.  A cell budget of a few rows' worth puts block edges
    between exact-match and plain rows."""
    rng = np.random.default_rng(300)
    exact_rows = split_ties = mixed_edges = 0
    for case in range(300):
        n = int(rng.integers(1, 120))
        d = int(rng.integers(1, 5))
        p = int(rng.integers(2, 6))
        k = int(rng.choice([1, 2, 3, 5, 25, 200]))  # 200 > n: k is capped
        xt = np.round(rng.normal(size=(n, d)) * rng.choice([1.0, 2.0]))
        if rng.integers(0, 2):  # duplicated training rows
            xt[: n // 2] = xt[n - n // 2:][: n // 2]
        (model,) = _knn_models(xt, rng.integers(0, p, size=n), p, [k])
        q = np.vstack([np.round(rng.normal(size=(20, d))), xt[:10]])
        q = q[rng.permutation(len(q))]
        block = int(rng.integers(1, 8)) if case % 3 else len(q)
        monkeypatch.setattr(learners, "KNN_BLOCK_CELLS", block * xt.size)
        expected = reference_predict_knn(model, q)
        assert np.array_equal(learners._predict_knn([model], q)[0], expected)
        d2 = ((q[:, None] - xt[None]) ** 2).sum(axis=2)
        exact = (d2 == 0.0).any(axis=1)
        exact_rows += int(exact.sum())
        edges = np.arange(block, len(q), block)
        mixed_edges += int((exact[edges - 1] != exact[edges]).sum())
        kk = min(k, n)
        v = np.sort(d2, axis=1)[:, kk - 1:kk]
        split_ties += int(((d2 <= v).sum(axis=1) > kk)[~exact].sum())
    assert exact_rows > 3000  # exact matches and plain votes both run
    assert mixed_edges > 300 and split_ties > 1000


def test_predict_knn_blocks_rows_above_the_cell_budget():
    """At the default budget, 1000 queries against 600 x 4 training rows
    take ten blocks of 109 rows, the last one partial."""
    rng = np.random.default_rng(301)
    xt = np.round(rng.normal(size=(600, 4)) * 2.0)
    (model,) = _knn_models(xt, rng.integers(0, 3, size=600), 3, [25])
    q = np.vstack([np.round(rng.normal(size=(990, 4)) * 2.0), xt[:10]])
    q = q[rng.permutation(len(q))]
    assert 2 * learners.KNN_BLOCK_CELLS < q.shape[0] * xt.size
    assert -(-q.shape[0] // (learners.KNN_BLOCK_CELLS // xt.size)) == 10
    assert np.array_equal(learners._predict_knn([model], q)[0],
                          reference_predict_knn(model, q))


def test_predict_knn_memory_is_flat_in_the_rows():
    """Beyond one block, the rows add only the (n, p) counts and output."""
    rng = np.random.default_rng(302)
    (model,) = _knn_models(rng.normal(size=(600, 4)),
                           rng.integers(0, 3, size=600), 3, [25])
    one_block = learners.KNN_BLOCK_CELLS // model.state["x"].size

    def peak(rows):
        q = rng.normal(size=(rows, 4))
        tracemalloc.start()
        try:
            (out,) = learners._predict_knn([model], q)
            return tracemalloc.get_traced_memory()[1], out.nbytes
        finally:
            tracemalloc.stop()

    small, _ = peak(one_block)
    large, out_bytes = peak(20_000)
    assert large - small <= 3 * out_bytes


# --- shared neighbour search ---------------------------------------------------

# The k values of each roster's knn learners: default, extended, the
# headline protocol's, a repeated k, and k at and beyond every training size.
KNN_ROSTERS = {
    "default": [5, 25, 50],
    "extended": [5, 25, 50, 75],
    "headline": [1, 3, 25],
    "repeated": [5, 5],
    "beyond-n": [3, 120, 400],
}


@pytest.mark.parametrize("roster", list(KNN_ROSTERS))
def test_shared_knn_search_matches_reference_bitwise(roster, monkeypatch):
    """Every k of one search is the per-query definition of its vote, on
    quantized data with d = 1..16, ties at and beyond the k_max-th
    distance, exact matches, and block edges between exact-match rows and
    plain rows."""
    ks = KNN_ROSTERS[roster]
    rng = np.random.default_rng(310 + len(ks))
    exact_rows = crowded_rows = mixed_edges = 0
    for case in range(64):
        n = int(rng.integers(1, 120))
        d = case % 16 + 1
        p = int(rng.integers(2, 6))
        xt = np.round(rng.normal(size=(n, d)) * rng.choice([0.5, 1.0, 2.0]))
        if rng.integers(0, 2):  # duplicated training rows
            xt[: n // 2] = xt[n - n // 2:][: n // 2]
        y = rng.integers(0, p, size=n)
        models = _knn_models(xt, y, p, ks)
        q = np.vstack([np.round(rng.normal(size=(20, d))), xt[:10]])
        q = q[rng.permutation(len(q))]
        block = int(rng.integers(1, 8)) if case % 3 else len(q)
        monkeypatch.setattr(learners, "KNN_BLOCK_CELLS", block * xt.size)
        got = learners._predict_knn(models, q)
        assert len(got) == len(models)
        for model, posteriors in zip(models, got):
            assert np.array_equal(posteriors, reference_predict_knn(model, q))
        d2 = ((q[:, None] - xt[None]) ** 2).sum(axis=2)
        exact = (d2 == 0.0).any(axis=1)
        exact_rows += int(exact.sum())
        edges = np.arange(block, len(q), block)
        mixed_edges += int((exact[edges - 1] != exact[edges]).sum())
        kmax = min(max(ks), n)
        v = np.sort(d2, axis=1)[:, kmax - 1:kmax]
        crowded_rows += int(((d2 <= v).sum(axis=1) > kmax)[~exact].sum())
    assert exact_rows > 400 and mixed_edges > 40
    if max(ks) < 120:  # k_max = n for every training size otherwise
        assert crowded_rows > 20


def _crowded(xt, q, kmax):
    """The query rows with more than kmax training rows within their
    kmax-th distance and no exact match."""
    d2 = ((q[:, None] - xt[None]) ** 2).sum(axis=2)
    kth = np.sort(d2, axis=1)[:, kmax - 1:kmax]
    return ((d2 <= kth).sum(axis=1) > kmax) & (d2 != 0.0).all(axis=1)


@pytest.mark.parametrize("d", [1, 4, 8, 13, 20])
def test_shared_knn_crowded_rows_meet_at_default_block_edges(d):
    """At the default budget, 600 training rows on an integer grid and
    queries halfway between grid points: every row has a tie across its
    k_max-th distance, so crowded rows sit on both sides of the first
    two block edges and before the third, where exact-match rows begin."""
    rng = np.random.default_rng(320 + d)
    xt = rng.integers(-2, 3, size=(600, d)).astype(float)
    y = rng.integers(0, 3, size=600)
    models = _knn_models(xt, y, 3, (5, 25, 50))
    rows = learners.KNN_BLOCK_CELLS // xt.size
    q = np.vstack([rng.integers(-2, 2, size=(3 * rows, d)) + 0.5, xt[:7]])
    got = learners._predict_knn(models, q)
    for model, posteriors in zip(models, got):
        assert np.array_equal(posteriors, reference_predict_knn(model, q))
    crowded = _crowded(xt, q, 50)
    edges = np.arange(rows, len(q), rows)
    assert len(edges) == 3
    assert crowded[edges - 1].all() and crowded[edges[:-1]].all()
    assert not crowded[edges[-1]:].any()


def test_one_row_knn_queries_match_reference_through_predict_proba_models():
    """Each row alone, as a single-row predict sends it: tied rows, exact
    matches and plain rows, with the knn models' search shared and a
    model of another kind in the list."""
    rng = np.random.default_rng(330)
    x = rng.integers(-2, 3, size=(300, 3)).astype(float)
    x[:150] += np.round(rng.normal(size=(150, 3)), 1)
    data = Dataset(x, rng.integers(0, 3, size=300), ClassCatalog(("a", "b", "c")))
    models = [fit(LearnerSpec("knn", {"k": k}), data, 0) for k in (1, 5, 25, 50)]
    models.insert(2, fit(LearnerSpec("lda"), data, 0))
    q = np.vstack([rng.integers(-2, 2, size=(20, 3)) + 0.5, x[:10],
                   rng.normal(size=(10, 3))])
    crowded = 0
    for i in range(len(q)):
        row = q[i:i + 1]
        got = learners.predict_proba_models(models, row)
        for model, posteriors in zip(models, got):
            if model.spec.kind == "knn":
                assert np.array_equal(posteriors,
                                      reference_predict_knn(model, row))
            else:
                assert np.array_equal(posteriors, model.predict_proba_batch(row))
        crowded += int(_crowded(x, row, 50)[0])
    assert crowded >= 5


def test_class_sum_never_writes_its_input():
    rng = np.random.default_rng(313)
    for m in [1, 2, 7, 8, 9, 16, 23, 24, 130, 300]:
        e = rng.random((m, 4, 3))
        e.setflags(write=False)
        expected = np.ascontiguousarray(e.transpose(1, 2, 0)).sum(axis=-1)
        assert np.array_equal(learners._class_sum(e), expected), m


def test_sq_distances_follow_the_broadcast_expression():
    """Bitwise for every d up to 16 and on the halving path above 128."""
    rng = np.random.default_rng(311)
    for d in list(range(1, 17)) + [130, 300]:
        q = rng.normal(size=(7, d)) * 10.0 ** rng.integers(-3, 4, size=d)
        xt = rng.normal(size=(11, d)) * 10.0 ** rng.integers(-3, 4, size=d)
        expected = ((q[:, None, :] - xt[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(learners._sq_distances(q, xt), expected), d


def _count_searches(monkeypatch):
    """Spy on the distance kernel: one (training rows, query rows) entry
    per call."""
    calls = []
    real = learners._sq_distances

    def spy(q, xt):
        calls.append((xt.tobytes(), len(q)))
        return real(q, xt)

    monkeypatch.setattr(learners, "_sq_distances", spy)
    return calls


def _one_by_one(models, x):
    return np.stack([m.predict_proba_batch(x) for m in models], axis=1)


def test_knn_models_of_one_training_set_share_one_search(monkeypatch):
    """The default roster's three knn models take one distance kernel call
    per block, and the stack is bitwise the per-model one."""
    data = generate(GeneratorSpec("concentric-rings", n=200, d=3, seed=5))
    models = [fit(spec, data, j) for j, spec in enumerate(default_roster())]
    q = generate(GeneratorSpec("concentric-rings", n=500, d=3, seed=6)).features
    monkeypatch.setattr(learners, "KNN_BLOCK_CELLS", 120 * data.features.size)
    expected = _one_by_one(models, q)
    calls = _count_searches(monkeypatch)
    got = np.stack(learners.predict_proba_models(models, q), axis=1)
    assert np.array_equal(got, expected)
    assert [rows for _, rows in calls] == [120, 120, 120, 120, 20]
    assert {key for key, _ in calls} == {data.features.tobytes()}


def test_knn_models_of_different_folds_do_not_share_a_search(monkeypatch):
    """A model list mixing the fold complements' models: each training
    set gets its own search, and every column is its own model's."""
    data = load_bundled("rings")
    plan = make_fold_plan(data.labels, 3, seed=1)
    rests = [plan.complement_indices(t) for t in range(3)]
    folds = list(zip(*(fit_folds(spec, data, rests, [2, 2, 2])
                       for spec in default_roster())))
    models = [folds[0][2], folds[1][3], folds[0][4], folds[2][2],
              folds[1][0], folds[2][4], folds[0][3]]
    assert [m.spec.name for m in models][:4] == ["knn5", "knn25", "knn50", "knn5"]
    expected = _one_by_one(models, data.features)
    calls = _count_searches(monkeypatch)
    got = np.stack(learners.predict_proba_models(models, data.features), axis=1)
    assert np.array_equal(got, expected)
    trained_on = {data.features[plan.complement_indices(t)].tobytes()
                  for t in range(3)}
    assert sorted(key for key, _ in calls) == sorted(trained_on)


def test_shared_key_is_kept_off_the_model_file():
    data = load_bundled("rings")
    knn5, knn25 = (fit(LearnerSpec("knn", {"k": k}), data, 0) for k in (5, 25))
    before, shared = _saved(knn5)
    assert knn5.shared_key == knn25.shared_key
    assert _saved(knn5)[0] == before and "shared_key" not in str(before)
    assert fit(LearnerSpec("lda"), data, 0).shared_key is None
    clone = FittedClassifier.from_state(before, *shared)
    assert clone.shared_key == knn5.shared_key
    moved = FittedClassifier.from_state(before, *shared)
    moved.state["x"] = moved.state["x"] + 1.0
    assert moved.shared_key != knn5.shared_key


def test_shared_knn_memory_is_flat_in_the_rows():
    """As for one model: beyond one block, the rows add only the counts
    and the posteriors of each model."""
    rng = np.random.default_rng(312)
    xt, y = rng.normal(size=(600, 4)), rng.integers(0, 3, size=600)
    models = _knn_models(xt, y, 3, (5, 25, 50))
    one_block = learners.KNN_BLOCK_CELLS // xt.size

    def peak(rows):
        q = rng.normal(size=(rows, 4))
        tracemalloc.start()
        try:
            out = learners._predict_knn(models, q)
            return tracemalloc.get_traced_memory()[1], sum(o.nbytes for o in out)
        finally:
            tracemalloc.stop()

    small, _ = peak(one_block)
    large, out_bytes = peak(20_000)
    assert large - small <= 3 * out_bytes


def test_non_finite_scores_raise_naming_the_classifier():
    """An LDA state that overflows its scores fails with a LearnerError,
    not a RuntimeWarning, in every prediction path."""
    data = toy([[0.0, 0.0], [0.2, 0.1], [3.0, 3.0], [3.1, 2.9]], [0, 0, 1, 1])
    model = fit(LearnerSpec("lda"), data, 0)
    model.state["inv_cov"][0, 0] = 1e308
    model.state["means"][0, 0] = 1e200
    q = np.array([[0.0, 0.0], [3.0, 3.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (model.predict_proba_batch,
                     lambda q: learners.predict_proba_models([model], q)):
            with pytest.raises(LearnerError,
                               match="classifier lda gives non-finite"):
                call(q)


def test_posteriors_of_an_empty_batch_are_empty():
    """Every kind's predictor and the row-sum test of the catalog mapping
    pass a zero-row batch, also with a class absent from the fit."""
    cat3 = ClassCatalog(("a", "b", "c"))
    data = toy([[0.0, 0.0], [0.2, 0.1], [3.0, 3.0], [3.1, 2.9]], [0, 0, 2, 2], cat3)
    models = [fit(spec, data, 0) for spec in extended_roster()]
    empty = np.empty((0, 2))
    for model in models:
        assert model.predict_proba_batch(empty).shape == (0, 3), model.spec.name
    assert [a.shape for a in learners.predict_proba_models(models, empty)] == [
        (0, 3)] * len(models)


CAT3 = ClassCatalog(("a", "b", "c"))
FAR = np.array([-1e6, -1e6])


def _all_zero_perceptron(present):
    """A perceptron whose one-vs-rest posteriors are all 0 at FAR: every
    score is about -1e6, and each sigmoid underflows to 0."""
    p = len(present)
    state = {"w": np.eye(p, 2) + 0.5, "b": np.zeros(p)}
    return FittedClassifier(LearnerSpec("perceptron"), CAT3,
                            np.asarray(present), 2, state)


@pytest.mark.parametrize("present, uniform", [
    ([0, 1, 2], [1 / 3, 1 / 3, 1 / 3]),
    ([0, 2], [0.5, 0.0, 0.5]),
], ids=["all-present", "one-absent"])
def test_all_zero_row_is_uniform_over_the_present_classes(present, uniform):
    """A row whose posteriors sum to 0 gets the uniform posterior over the
    model's present classes, bitwise, in every prediction path; the other
    rows of its batch and the other models of its call keep their own."""
    model = _all_zero_perceptron(present)
    uniform = np.array(uniform)
    assert np.array_equal(model.predict_proba(FAR), uniform)

    near = np.array([0.3, -0.2])
    own = model.predict_proba(near)
    assert own.sum() > 0 and not np.array_equal(own, uniform)
    got = model.predict_proba_batch(np.array([near, FAR]))
    assert np.array_equal(got, np.array([own, uniform]))

    data = toy([[0.0, 0.0], [0.2, 0.1], [3.0, 3.0], [3.1, 2.9]], [0, 0, 2, 2], CAT3)
    other = fit(LearnerSpec("nearest-mean"), data, 0)
    q = np.array([FAR, near])
    first, second = learners.predict_proba_models([model, other], q)
    assert np.array_equal(first, np.array([uniform, own]))
    assert np.array_equal(second, other.predict_proba_batch(q))


def _poison(monkeypatch, kind, row):
    """Wrap kind's predictor in _KINDS so each model's raw posteriors hold
    a NaN at row."""
    real = learners._KINDS[kind]

    def predict(models, x):
        raws = [np.array(raw, dtype=np.float64) for raw in real.predict(models, x)]
        for raw in raws:
            raw[row] = np.nan
        return raws

    monkeypatch.setitem(learners._KINDS, kind, real._replace(predict=predict))


@pytest.mark.parametrize("rows, named", [
    # knn is first in the roster and fails on the earliest row, and
    # gaussian-naive-bayes fails before lda by row: lda is named, the first
    # model of the roster order outside the shared knn groups.
    ({"knn": 0, "lda": 2, "gaussian-naive-bayes": 1}, "lda"),
    ({"knn": 0, "gaussian-naive-bayes": 3}, "gaussian-naive-bayes"),
    ({"knn": 3}, "knn5"),
], ids=["lda", "gnb", "knn"])
def test_multi_model_error_names_the_first_model_in_call_order(
        monkeypatch, rows, named):
    """Models without a shared_key are mapped in roster order, then each
    group of shared knn models: the error names the first of that order to
    fail, whichever row it fails on."""
    data = toy([[0.0, 0.0], [0.2, 0.1], [3.0, 3.0], [3.1, 2.9], [1.0, 1.5]],
               [0, 0, 1, 1, 0])
    models = [fit(spec_from_name(name), data, 0)
              for name in ("knn5", "lda", "gaussian-naive-bayes", "knn1")]
    for kind, row in rows.items():
        _poison(monkeypatch, kind, row)
    with pytest.raises(LearnerError,
                       match=f"^classifier {named} gives non-finite posteriors$"):
        learners.predict_proba_models(models, data.features)


@pytest.mark.parametrize("query, message", [
    (np.zeros((3, 3)), "expected feature dimension 2, got (3, 3)"),
    (np.zeros(2), "expected feature dimension 2, got (2,)"),
    (np.array([[0.0, 1.0], [np.nan, 0.0]]), "non-finite query features"),
    (np.array([[0.0, np.inf]]), "non-finite query features"),
], ids=["width", "one-dimensional", "nan", "inf"])
def test_query_checked_before_any_predictor_runs(monkeypatch, query, message):
    data = toy([[0.0, 0.0], [0.2, 0.1], [3.0, 3.0], [3.1, 2.9]], [0, 0, 1, 1])
    models = [fit(spec, data, j) for j, spec in enumerate(default_roster())]
    calls = []
    for kind, entry in list(learners._KINDS.items()):
        def spy(ms, x, kind=kind, real=entry.predict):
            calls.append(kind)
            return real(ms, x)
        monkeypatch.setitem(learners._KINDS, kind, entry._replace(predict=spy))
    for call in (lambda q: learners.predict_proba_models(models, q),
                 models[0].predict_proba_batch):
        with pytest.raises(LearnerError, match=f"^{re.escape(message)}$"):
            call(query)
    assert calls == []
