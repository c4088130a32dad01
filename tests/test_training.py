import dataclasses
import json

import numpy as np
import pytest

import granulex.training as training
from granulex import combiners
from granulex.datasets import BUNDLED_DATASETS, GeneratorSpec, generate, load_bundled
from granulex.evaluation import alpha_error_curves
from granulex.learners import Dataset, LearnerSpec, default_roster, extended_roster
from granulex.metadata import ClassCatalog, MetaMatrix
from granulex.training import (
    AlphaGrid,
    TrainingError,
    default_alpha_grid,
    derive_seed,
    error_for_alpha,
    generate_meta_cv,
    load_ensemble,
    make_fold_plan,
    predict,
    predict_batch,
    save_ensemble,
    select_alpha,
    train,
)

SPECS = [LearnerSpec("nearest-mean"), LearnerSpec("knn", {"k": 3}),
         LearnerSpec("gaussian-naive-bayes")]


def toy_dataset(n=40, seed=0):
    return generate(GeneratorSpec("twonorm-like", n=n, d=2, seed=seed))


def test_derive_seed_chains():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        master = int(rng.integers(0, 2**63))
        a = [int(v) for v in rng.integers(0, 2**32, size=rng.integers(0, 4))]
        b = [int(v) for v in rng.integers(0, 2**32, size=rng.integers(0, 4))]
        assert derive_seed(derive_seed(master, *a), *b) == derive_seed(master, *a, *b)


class TestAlphaGrid:
    def test_default_is_41_points(self):
        grid = default_alpha_grid()
        assert len(grid.values) == 41
        assert grid.values[0] == 0.0 and grid.values[-1] == 4.0
        assert grid.values[13] == pytest.approx(1.3)

    def test_rejects_bad_grids(self):
        with pytest.raises(TrainingError):
            AlphaGrid(())
        with pytest.raises(TrainingError):
            AlphaGrid((0.0, 0.0))
        with pytest.raises(TrainingError):
            AlphaGrid((-1.0, 2.0))


class TestFoldPlan:
    def test_disjoint_cover_stratified(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 3, size=97)
        for t in (2, 5, 10):
            plan = make_fold_plan(labels, t, seed=4)
            sizes = np.bincount(plan.assignments, minlength=t)
            assert sizes.sum() == len(labels)
            assert sizes.max() - sizes.min() <= 1
            for c in range(3):
                per_class = np.bincount(
                    plan.assignments[labels == c], minlength=t
                )
                assert per_class.max() - per_class.min() <= 1

    def test_seed_changes_assignment(self):
        labels = np.tile([0, 1], 30)
        a = make_fold_plan(labels, 5, seed=1).assignments
        b = make_fold_plan(labels, 5, seed=2).assignments
        assert not np.array_equal(a, b)


class TestGenerateMetaCV:
    def test_shape_contract(self):
        data = Dataset(
            np.array([[0.0], [1.0], [2.0], [3.0]]),
            np.array([0, 1, 0, 1]),
            ClassCatalog(("a", "b")),
        )
        plan = make_fold_plan(data.labels, 2, seed=0)
        specs = SPECS[:2]
        meta = generate_meta_cv(data, specs, plan, seed=0)
        assert meta.scores.shape == (4, 2, 2)
        assert meta.scores.reshape(4, -1).shape == (4, 4)

    def test_no_self_matching_for_knn1(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(40, 2))
        y = rng.integers(0, 2, size=40)
        y[:2] = [0, 1]
        data = Dataset(x, y, ClassCatalog(("a", "b")))
        plan = make_fold_plan(y, 5, seed=1)
        meta = generate_meta_cv(data, [LearnerSpec("knn", {"k": 1}),
                                       LearnerSpec("nearest-mean")], plan, 0)
        # held-out knn1 rows reflect out-of-fold neighbors, so the
        # meta-level error cannot be the 0 produced by memorization
        err = error_for_alpha(meta, y, 0.0, "h1")
        assert err > 0.0

    def test_determinism(self):
        data = toy_dataset()
        plan = make_fold_plan(data.labels, 4, seed=9)
        m1 = generate_meta_cv(data, SPECS, plan, seed=3)
        m2 = generate_meta_cv(data, SPECS, plan, seed=3)
        assert np.array_equal(m1.scores, m2.scores)

    def test_absent_class_named_error(self):
        data = Dataset(
            np.arange(6, dtype=float).reshape(-1, 1),
            np.array([0, 0, 0, 0, 0, 1]),
            ClassCatalog(("a", "b")),
        )
        # fold holding the only "b" observation leaves its complement without b
        plan = make_fold_plan(data.labels, 2, seed=0)
        with pytest.raises(TrainingError, match="'b'.*fold"):
            generate_meta_cv(data, SPECS[:2], plan, 0)


class TestAlphaSelection:
    def make_meta(self, scores, labels):
        cat = ClassCatalog(tuple(f"y{i}" for i in range(scores.shape[2])))
        return MetaMatrix(scores, cat), np.asarray(labels)

    def test_error_counting(self):
        # identical columns everywhere -> tie-break picks class 0 always
        scores = np.full((10, 3, 2), 0.5)
        labels = np.array([0] * 7 + [1] * 3)
        meta, labels = self.make_meta(scores, labels)
        assert error_for_alpha(meta, labels, 1.0, "h3") == pytest.approx(0.3)

    def test_all_correct(self):
        scores = np.tile(np.array([[0.9, 0.1]]), (6, 3, 1))
        meta, labels = self.make_meta(scores, np.zeros(6, dtype=int))
        assert error_for_alpha(meta, labels, 1.0, "h3") == 0.0

    def test_length_mismatch(self):
        scores = np.full((4, 2, 2), 0.5)
        meta, _ = self.make_meta(scores, np.zeros(4, dtype=int))
        with pytest.raises(TrainingError):
            error_for_alpha(meta, np.zeros(3, dtype=int), 1.0)

    def test_select_alpha_is_linear_scan_argmin(self):
        data = toy_dataset(n=60, seed=3)
        plan = make_fold_plan(data.labels, 5, seed=2)
        meta = generate_meta_cv(data, SPECS, plan, 1)
        grid = default_alpha_grid()
        alpha, curve = select_alpha(meta, data.labels, grid, "h3")
        # independent scan
        errs = [error_for_alpha(meta, data.labels, a, "h3") for a in grid.values]
        best = min(range(len(errs)), key=lambda i: (errs[i], grid.values[i]))
        assert alpha == grid.values[best]
        assert [e for _, e in curve] == errs

    @pytest.mark.parametrize("name", BUNDLED_DATASETS)
    def test_sweep_equals_one_alpha_at_a_time(self, name):
        # The meta-CV alpha_error_curves builds, rebuilt here so that its
        # curves can be checked against one kernel call per alpha.
        data = load_bundled(name)
        specs = extended_roster()
        plan = make_fold_plan(data.labels, 5, derive_seed(3, 0xF01D))
        meta = generate_meta_cv(data, specs, plan, 3)
        grid = default_alpha_grid()
        curves = alpha_error_curves(data, specs, grid, combiners.H_KINDS, 5, 3)
        for h in combiners.H_KINDS:
            one_shot = [
                float(np.mean(
                    combiners.granular_decide_batch(meta.scores, a, h) != data.labels
                ))
                for a in grid.values
            ]
            _, curve = select_alpha(meta, data.labels, grid, h)
            assert [e for _, e in curve] == one_shot
            assert [error_for_alpha(meta, data.labels, a, h)
                    for a in grid.values] == one_shot
            assert curves[h] == curve

    @pytest.mark.parametrize("seed", [0, 1, 3])
    def test_alpha_curve_is_the_curve_train_searches(self, seed):
        data = load_bundled("rings")
        specs = default_roster()
        grid = default_alpha_grid()
        curves = alpha_error_curves(data, specs, grid, ["h3"], 10, seed)
        model = train(data, specs, seed, grid=grid, h="h3", n_folds=10)
        assert curves["h3"] == list(model.alpha_error_curve)

    def test_flat_curve_takes_smallest(self):
        scores = np.tile(np.array([[0.9, 0.1]]), (6, 3, 1))
        meta, labels = self.make_meta(scores, np.zeros(6, dtype=int))
        alpha, _ = select_alpha(meta, labels, AlphaGrid((0.0, 1.0, 2.0)), "h3")
        assert alpha == 0.0

    def test_single_element_grid(self):
        scores = np.tile(np.array([[0.9, 0.1]]), (6, 3, 1))
        meta, labels = self.make_meta(scores, np.zeros(6, dtype=int))
        alpha, curve = select_alpha(meta, labels, AlphaGrid((1.0,)), "h3")
        assert alpha == 1.0 and len(curve) == 1


class TestTrain:
    def test_fixed_mode_skips_cv(self):
        data = toy_dataset()
        ensemble = train(data, SPECS, seed=1, fixed_alpha=1.0)
        assert ensemble.alpha == 1.0
        assert ensemble.alpha_error_curve == ()

    def test_grid_mode_contract(self):
        data = toy_dataset(n=60)
        grid = AlphaGrid((0.0, 1.0, 2.0))
        ensemble = train(data, SPECS, seed=1, grid=grid, n_folds=3)
        assert ensemble.alpha in grid.values
        errs = dict(ensemble.alpha_error_curve)
        assert errs[ensemble.alpha] == min(errs.values())

    def test_requires_exactly_one_alpha_mode(self):
        data = toy_dataset()
        with pytest.raises(TrainingError):
            train(data, SPECS, seed=0)
        with pytest.raises(TrainingError):
            train(data, SPECS, seed=0, grid=AlphaGrid((1.0,)), fixed_alpha=1.0)

    def test_class_counts_must_cover_folds(self):
        data = Dataset(
            np.arange(8, dtype=float).reshape(-1, 1),
            np.array([0, 0, 0, 0, 0, 0, 1, 1]),
            ClassCatalog(("a", "b")),
        )
        with pytest.raises(TrainingError, match="fewer observations"):
            train(data, SPECS[:2], seed=0, grid=AlphaGrid((1.0,)), n_folds=3)

    def test_refit_uses_full_data(self):
        # deterministic learners: final classifiers do not depend on the seed
        data = toy_dataset(n=60)
        e1 = train(data, SPECS, seed=1, grid=AlphaGrid((0.0, 1.0)), n_folds=3)
        e2 = train(data, SPECS, seed=2, grid=AlphaGrid((0.0, 1.0)), n_folds=3)
        q = np.array([[0.3, -0.2], [1.5, 0.4]])
        p1 = training.ensemble_profiles(e1, q)
        p2 = training.ensemble_profiles(e2, q)
        assert np.array_equal(p1, p2)

    def test_end_to_end_determinism(self):
        data = toy_dataset(n=60)
        q = np.array([[0.1, 0.2], [-1.0, 0.5], [2.0, -2.0]])
        outs = []
        for _ in range(2):
            e = train(data, SPECS, seed=5, grid=AlphaGrid((0.0, 0.5, 1.0)),
                      n_folds=3)
            outs.append([(d.decision, d.memberships)
                         for d in predict_batch(e, q)])
        assert outs[0] == outs[1]


class TestPredict:
    def test_unanimous_classifiers(self):
        data = Dataset(
            np.array([[0.0], [0.1], [5.0], [5.1]]),
            np.array([0, 0, 1, 1]),
            ClassCatalog(("a", "b")),
        )
        specs = [LearnerSpec("knn", {"k": 1}), LearnerSpec("knn", {"k": 2})]
        e = train(data, specs, seed=0, fixed_alpha=1.0)
        detail = predict(e, [0.05])
        assert all(g.length == 0.0 for g in detail.intervals)
        assert detail.decision == 0

    def test_composition_contract(self):
        data = toy_dataset(n=40)
        e = train(data, SPECS, seed=0, fixed_alpha=0.7, h="h3")
        detail = predict(e, data.features[0])
        cls = combiners.granular_decide_batch(detail.profile[None], 0.7, "h3")[0]
        assert detail.decision == cls

    def test_details_are_the_batch_kernel_outputs(self):
        data = generate(GeneratorSpec("concentric-rings", n=90, d=2, seed=4))
        specs = SPECS + [LearnerSpec("knn", {"k": 7}), LearnerSpec("decision-tree")]
        base = train(data, specs, seed=2, fixed_alpha=1.0)
        q = generate(GeneratorSpec("concentric-rings", n=300, d=2, seed=5)).features
        profiles = training.ensemble_profiles(base, q)
        n, k, m = profiles.shape
        cols = np.transpose(profiles, (0, 2, 1)).reshape(n * m, k)
        for alpha in (0.0, 0.7, 2.3):
            bounds = combiners.construct_granules_batch(cols, alpha).reshape(n, m, 2)
            for h in combiners.H_KINDS:
                e = dataclasses.replace(base, alpha=alpha, h=h)
                values = combiners.granular_ncm_batch(profiles, alpha, h)
                decisions = combiners.granular_decide_batch(profiles, alpha, h)
                details = predict_batch(e, q)
                assert len(details) == n
                for i, d in enumerate(details):
                    assert np.array_equal(d.profile, profiles[i])
                    assert not d.profile.flags.writeable
                    assert [(g.lower, g.upper, g.alpha) for g in d.intervals] == [
                        (lo, hi, alpha) for lo, hi in bounds[i]
                    ]
                    assert d.memberships == tuple(values[i])
                    assert d.decision == decisions[i]

    def test_predict_is_the_batch_row_bitwise(self):
        data = generate(GeneratorSpec("twonorm-like", n=120, d=8, seed=6))
        e = train(data, extended_roster(), seed=4, fixed_alpha=0.9)
        q = generate(GeneratorSpec("twonorm-like", n=150, d=8, seed=7)).features
        for row, want in zip(q, predict_batch(e, q)):
            got = predict(e, row)
            assert np.array_equal(got.profile, want.profile)
            assert got.intervals == want.intervals
            assert got.memberships == want.memberships
            assert got.decision == want.decision

    def test_batch_preserves_order(self):
        data = toy_dataset(n=40)
        e = train(data, SPECS, seed=0, fixed_alpha=1.0)
        q = data.features[:7]
        batch = predict_batch(e, q)
        singles = [predict(e, row) for row in q]
        assert [d.decision for d in batch] == [d.decision for d in singles]


class TestSerialization:
    def test_round_trip(self, tmp_path):
        data = toy_dataset(n=60)
        specs = extended_roster()  # every learner kind, the perceptron too
        assert {s.kind for s in specs} == set(training.STATE_KEYS)
        e = train(data, specs, seed=3, grid=AlphaGrid((0.0, 1.0)), n_folds=3)
        path = tmp_path / "model.json"
        save_ensemble(path, e)
        back = load_ensemble(path)
        assert back.alpha == e.alpha
        assert back.h == e.h
        assert back.catalog == e.catalog
        assert back.alpha_error_curve == e.alpha_error_curve
        q = data.features[:9]
        assert np.array_equal(
            training.ensemble_profiles(e, q), training.ensemble_profiles(back, q)
        )
        # Save -> load -> predict decides bitwise as the saved model does.
        for got, want in zip(predict_batch(back, data.features),
                             predict_batch(e, data.features)):
            assert got.intervals == want.intervals
            assert got.memberships == want.memberships
            assert got.decision == want.decision

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format_version": 99}')
        with pytest.raises(TrainingError, match="version"):
            load_ensemble(path)

    @pytest.mark.parametrize("damage, message", [
        (lambda m: m.pop("classifiers"), "lacks key.*classifiers"),
        (lambda m: m.pop("alpha_error_curve"), "lacks key.*alpha_error_curve"),
        (lambda m: m["classifiers"][1].pop("state"), "classifier 1 lacks.*state"),
        (lambda m: m["classifiers"].__setitem__(0, [1, 2]), "classifier 0 must"),
        (lambda m: m.__setitem__("classifiers", {}), "must be a list"),
        (lambda m: m.__setitem__("classifiers", []), "no classifiers"),
        (lambda m: m.__setitem__("classifiers", m["classifiers"][:1]),
         "at least two classifiers"),
        (lambda m: m.__setitem__("alpha", None), "alpha must be"),
        (lambda m: m.__setitem__("alpha", "1.0"), "alpha must be"),
        (lambda m: m.__setitem__("alpha", True), "alpha must be"),
        (lambda m: m.__setitem__("alpha", -0.5), "alpha must be"),
        (lambda m: m.__setitem__("alpha", float("inf")), "alpha must be"),
        (lambda m: m.__setitem__("alpha", 10 ** 400), "alpha must be"),
        (lambda m: m.__setitem__("h", "h9"), "h must be"),
        (lambda m: m.__setitem__("catalog", "ab"), "catalog' must be a list"),
        (lambda m: m["alpha_error_curve"].append([0.5]), "pairs"),
        (lambda m: m["alpha_error_curve"].append([0.5, None]), "pairs"),
        (lambda m: m.__setitem__("alpha_error_curve", {}), "pairs"),
        (lambda m: m["classifiers"][2].__setitem__("catalog", ["a", "b", "c"]),
         "classifier 2 catalog differs"),
        (lambda m: m["classifiers"][1]["state"].__setitem__("n_features", 3),
         "classifier 1 takes 3 features, classifier 0 takes 2"),
        (lambda m: m["classifiers"][0]["state"].__setitem__("n_features", "2"),
         "n_features must be an integer"),
        (lambda m: m["classifiers"][0]["state"].pop("means"),
         "classifier 0 state lacks key.*means"),
        (lambda m: m["classifiers"][2]["state"].pop("present"),
         "classifier 2 state lacks key.*present"),
        (lambda m: m["classifiers"][1].__setitem__("kind", "svm"),
         "unknown kind 'svm'"),
        (lambda m: m["classifiers"][1].__setitem__("params", 5),
         "classifier 1 params must be"),
    ])
    def test_schema_check(self, tmp_path, damage, message):
        e = train(toy_dataset(n=30), SPECS, seed=1, fixed_alpha=1.0, n_folds=3)
        path = tmp_path / "model.json"
        save_ensemble(path, e)
        payload = json.loads(path.read_text())
        damage(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(TrainingError, match=message):
            load_ensemble(path)

    def test_payload_must_be_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(TrainingError, match="JSON object"):
            load_ensemble(path)


def test_derive_seed_spreads():
    seeds = {derive_seed(7, i, j) for i in range(10) for j in range(10)}
    assert len(seeds) == 100
    assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)
