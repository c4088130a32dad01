import dataclasses
import json
import re

import numpy as np
import pytest

import granulex.training as training
from granulex import combiners, granule, learners
from granulex.combiners import Granule
from granulex.datasets import BUNDLED_DATASETS, GeneratorSpec, generate, load_bundled
from granulex.learners import Dataset, LearnerSpec, default_roster, extended_roster
from granulex.metadata import ClassCatalog, MetaMatrix
from granulex.training import (
    AlphaGrid,
    TrainingError,
    cross_validated_meta,
    default_alpha_grid,
    derive_seed,
    error_curves,
    error_for_alpha,
    fold_parts,
    generate_meta_cv,
    load_ensemble,
    make_fold_plan,
    predict,
    predict_batch,
    save_ensemble,
    select_alpha,
    train,
)
from oracles import reference_fold_assignments

SPECS = [LearnerSpec("nearest-mean"), LearnerSpec("knn", {"k": 3}),
         LearnerSpec("gaussian-naive-bayes")]


def _named(damage, message, name):
    """A schema case on a classifier record whose kind and params are
    valid, so that its error names the learner after the record's place:
    "classifier 1 (knn3): ...".  Its id is its message without the name,
    as every other case's id is its message."""
    named = re.sub(r"classifier \d+",
                   lambda m: m.group() + re.escape(f" ({name})"), message, count=1)
    return pytest.param(damage, named, id=f"<lambda>-{message}")


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

    def test_assignments_are_the_row_loops(self):
        rng = np.random.default_rng(2026)
        for _ in range(300):
            n = int(rng.integers(0, 120))
            labels = rng.integers(0, int(rng.integers(1, 6)), size=n)
            folds = int(rng.integers(2, 12))
            seed = int(rng.integers(1 << 62))
            got = make_fold_plan(labels, folds, seed).assignments
            want = reference_fold_assignments(labels, folds, seed)
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("assignments, n_folds, message", [
        (np.arange(150) % 7, 5, r"fold assignments must be .* in \[0, 5\)"),
        (np.arange(150) % 5 - 1, 5, r"fold assignments must be .* in \[0, 5\)"),
        (np.zeros((150, 1), dtype=int), 5, "fold assignments must be a list"),
        (np.arange(150) % 5 + 0.5, 5, "fold assignments must be a list of integer"),
        (np.zeros(150, dtype=int), 1, "need at least 2 folds, got 1"),
        (np.zeros(150, dtype=int), 0, "need at least 2 folds, got 0"),
    ], ids=["fold-7-of-5", "fold-minus-1", "column", "float", "one-fold",
            "no-fold"])
    def test_a_plan_outside_its_folds_is_refused(self, assignments, n_folds,
                                                 message):
        """Rows of a fold past n_folds would take no profiles from
        meta_from_folds, whose meta-data would keep uninitialized memory."""
        with pytest.raises(TrainingError, match=message):
            training.FoldPlan(assignments, n_folds)


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

    @pytest.mark.parametrize("rows", [100, 300])
    def test_a_plan_of_other_rows_is_refused(self, rows):
        """A plan shorter than the data would drop rows from the meta-data;
        a longer one would index past the data."""
        data = load_bundled("rings")
        plan = make_fold_plan(np.arange(rows) % 3, 5, seed=0)
        with pytest.raises(TrainingError,
                           match=f"^the fold plan splits {rows} rows, the data has 150$"):
            generate_meta_cv(data, SPECS[:2], plan, 0)


class TestFoldParts:
    def test_parts_of_random_plans_over_row_subsets(self):
        """Each rest is increasing, disjoint from its query and with it
        makes up rows; part t has seed derive_seed(seed, t)."""
        rng = np.random.default_rng(15)
        for _ in range(50):
            n = int(rng.integers(10, 200))
            rows = np.sort(rng.choice(n, size=int(rng.integers(4, n + 1)),
                                      replace=False))
            labels = rng.integers(0, int(rng.integers(1, 4)), size=len(rows))
            folds = int(rng.integers(2, min(len(rows), 10) + 1))
            plan = make_fold_plan(labels, folds, seed=int(rng.integers(1 << 30)))
            seed = int(rng.integers(0, 2**63))
            rests, seeds, queries = fold_parts(plan, seed, rows)
            assert len(rests) == len(seeds) == len(queries) == folds
            assert seeds == [derive_seed(seed, t) for t in range(folds)]
            for t, (rest, query) in enumerate(zip(rests, queries)):
                (q,) = query
                assert (np.diff(rest) > 0).all()
                assert not set(rest.tolist()) & set(q.tolist())
                assert np.array_equal(np.sort(np.r_[rest, q]), rows)
                assert np.array_equal(q, rows[plan.assignments == t])


def test_part_profiles_share_one_search_per_part_across_the_roster(monkeypatch):
    """The knn models of a part share one neighbour search per query
    block even when other learners sit between them in the roster, and
    every profile is bitwise that of the part's own fit."""
    data = generate(GeneratorSpec("concentric-rings", n=120, d=3, seed=21))
    specs = [learners.spec_from_name(name)
             for name in ("knn5", "lda", "knn25", "nearest-mean", "knn50")]
    rows = np.flatnonzero(np.arange(data.n_observations) % 5 != 0)
    plan = make_fold_plan(data.labels[rows], 4, seed=3)
    rests, seeds, queries = fold_parts(plan, 11, rows)
    for qs, rest in zip(queries, rests):
        qs.append(rest)
    monkeypatch.setattr(learners, "KNN_BLOCK_CELLS", 40 * len(rests[0]) * 3)
    calls = []
    real = learners._sq_distances
    monkeypatch.setattr(learners, "_sq_distances",
                        lambda q, xt: calls.append((xt.tobytes(), len(q)))
                        or real(q, xt))
    out = training.part_profiles(data, specs, rests, seeds, queries)
    expected_calls = []
    for rest, qs in zip(rests, queries):
        block = learners.KNN_BLOCK_CELLS // data.features[rest].size
        for q in qs:
            expected_calls += [(data.features[rest].tobytes(), min(block, len(q) - lo))
                               for lo in range(0, len(q), block)]
    assert calls == expected_calls
    monkeypatch.undo()
    for rest, seed, qs, got in zip(rests, seeds, queries, out):
        part = data.subset(rest)
        models = [learners.fit(spec, part, derive_seed(seed, j))
                  for j, spec in enumerate(specs)]
        for q, stack in zip(qs, got):
            expected = np.stack([m.predict_proba_batch(data.features[q])
                                 for m in models], axis=1)
            assert stack.shape == expected.shape
            assert stack.tobytes() == expected.tobytes()


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

    def test_no_observations_rejected(self):
        """Scored on no rows, every alpha's error would be NaN."""
        meta, labels = self.make_meta(np.empty((0, 3, 2)), np.zeros(0, dtype=int))
        message = "meta matrix has no observations"
        with pytest.raises(TrainingError, match=message):
            select_alpha(meta, labels, default_alpha_grid(), "h3")
        with pytest.raises(TrainingError, match=message):
            error_for_alpha(meta, labels, 1.0)

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

    @pytest.mark.parametrize("per_block", [1, 12, None])
    def test_error_for_alpha_equals_every_curve_entry(self, monkeypatch, per_block):
        # Whether the grid is picked one alpha at a time, in blocks of 12
        # (41 = 12 + 12 + 12 + 5) or in the default blocks, every curve entry
        # is the error of that alpha picked alone, and every h's curve from
        # one shared pick is the curve select_alpha finds for that h.
        data = toy_dataset(n=60, seed=5)
        meta = generate_meta_cv(data, SPECS, make_fold_plan(data.labels, 5, seed=4), 2)
        if per_block is not None:
            columns = meta.n_observations * meta.catalog.size
            window = len(SPECS) // 2 + 1
            monkeypatch.setattr(granule, "GRANULE_BLOCK_CELLS", per_block * columns * window)
        grid = default_alpha_grid()
        curves = error_curves(meta, data.labels, grid.values, combiners.H_KINDS)
        for h in combiners.H_KINDS:
            _, curve = select_alpha(meta, data.labels, grid, h)
            assert curves[h] == curve
            assert [a for a, _ in curve] == list(grid.values)
            for a, error in curve:
                assert error_for_alpha(meta, data.labels, a, h) == error

    @pytest.mark.parametrize("name", BUNDLED_DATASETS)
    def test_sweep_equals_one_alpha_at_a_time(self, name):
        # The meta-CV cross_validated_meta builds, rebuilt here so that the
        # curves error_curves finds on it can be checked against one kernel
        # call per alpha.
        data = load_bundled(name)
        specs = extended_roster()
        plan = make_fold_plan(data.labels, 5, derive_seed(3, 0xF01D))
        meta = generate_meta_cv(data, specs, plan, 3)
        grid = default_alpha_grid()
        curves = error_curves(
            cross_validated_meta(data, specs, 5, 3), data.labels, grid.values,
            combiners.H_KINDS,
        )
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
        meta = cross_validated_meta(data, specs, 10, seed)
        curves = error_curves(meta, data.labels, grid.values, ["h3"])
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

    @pytest.mark.parametrize("specs, message", [
        (SPECS[:1], "need at least two base learners"),
        ([LearnerSpec("lda"), LearnerSpec("lda")],
         "learner 'lda' appears twice in the roster"),
        ([LearnerSpec("logistic-linear"), LearnerSpec("lda"),
          LearnerSpec("logistic-linear", {"rate": 0.5})],
         "learner 'logistic-linear' appears twice in the roster"),
    ], ids=["one-learner", "dup-learner", "dup-name-other-params"])
    def test_roster_checked_before_the_first_fit(self, monkeypatch, specs,
                                                 message):
        """A repeated name would give two posterior columns of one name,
        even when the two learners' parameters differ."""
        fits = []
        monkeypatch.setattr(training, "fit_folds", lambda *a: fits.append(a))
        monkeypatch.setattr(training, "fit", lambda *a: fits.append(a))
        for mode in (dict(grid=AlphaGrid((0.0, 1.0)), n_folds=3),
                     dict(fixed_alpha=1.0)):
            with pytest.raises(TrainingError, match=message):
                train(toy_dataset(), specs, seed=0, **mode)
        assert fits == []

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
                values = combiners.memberships_from_bounds(bounds, h)
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


def _reference_details(ensemble, x):
    """The reference for predict_batch's items: one PredictionDetail per
    row, all built at once from the batch kernels."""
    profiles = MetaMatrix(
        training.ensemble_profiles(ensemble, x), ensemble.catalog,
        ensemble.classifier_ids,
    ).scores
    bounds = combiners.granular_bounds_batch(profiles, ensemble.alpha)
    values = combiners.memberships_from_bounds(bounds, ensemble.h)
    decisions = np.argmax(values, axis=1)
    alpha = float(ensemble.alpha)
    return [
        training.PredictionDetail(
            profile=profile,
            intervals=tuple(Granule(lo, hi, alpha) for lo, hi in bounds[i].tolist()),
            memberships=tuple(values[i].tolist()),
            decision=int(decisions[i]),
        )
        for i, profile in enumerate(profiles)
    ]


def _same_details(got, want):
    got, want = list(got), list(want)
    assert got == want
    for g, w in zip(got, want):
        assert np.array_equal(g.profile, w.profile)
        assert not g.profile.flags.writeable


class TestPredictionBatch:
    @pytest.fixture(scope="class")
    def case(self):
        data = generate(GeneratorSpec("concentric-rings", n=120, d=3, seed=8))
        e = train(data, default_roster(), seed=1, fixed_alpha=0.8)
        q = generate(GeneratorSpec("concentric-rings", n=40, d=3, seed=9)).features
        return predict_batch(e, q), _reference_details(e, q)

    def test_arrays_are_the_details(self, case):
        batch, ref = case
        n, k, m = batch.profiles.shape
        assert (len(ref), m) == batch.memberships.shape
        assert batch.bounds.shape == (n, m, 2) and batch.decisions.shape == (n,)
        assert [d.decision for d in ref] == batch.decisions.tolist()

    def test_len_index_and_iteration(self, case):
        batch, ref = case
        assert len(batch) == len(ref) == 40
        _same_details(batch, ref)
        for i in range(-len(ref), len(ref)):
            _same_details([batch[i]], [ref[i]])
        _same_details([batch[np.int64(3)]], [ref[3]])
        for bad in (40, -41):
            with pytest.raises(IndexError):
                batch[bad]
        with pytest.raises(TypeError):
            batch[1.0]

    @pytest.mark.parametrize("cut", [slice(None), slice(3, 9), slice(-5, None),
                                     slice(None, None, -3), slice(7, 2),
                                     slice(1, 30, 4)])
    def test_slices(self, case, cut):
        batch, ref = case
        part = batch[cut]
        assert isinstance(part, training.PredictionBatch)
        assert len(part) == len(ref[cut])
        _same_details(part, ref[cut])


def test_predict_batch_of_no_rows_is_empty():
    """A zero-row query gives an empty batch, tree learners included."""
    data = generate(GeneratorSpec("concentric-rings", n=60, d=3, seed=8))
    e = train(data, extended_roster(), seed=1, fixed_alpha=0.8)
    batch = predict_batch(e, np.empty((0, 3)))
    assert len(batch) == 0 and list(batch) == []
    assert batch.profiles.shape == (0, 12, 3) and batch.bounds.shape == (0, 3, 2)
    assert batch.memberships.shape == (0, 3) and batch.decisions.shape == (0,)


def test_hand_edited_knn_training_rows_get_their_own_search(tmp_path, monkeypatch):
    """A model file whose knn25 training rows differ from its knn5 and
    knn50 ones: that model searches alone, on its own rows."""
    data = generate(GeneratorSpec("concentric-rings", n=150, d=3, seed=10))
    e = train(data, default_roster(), seed=2, fixed_alpha=1.0)
    assert [c.spec.name for c in e.classifiers[2:5]] == ["knn5", "knn25", "knn50"]
    path = tmp_path / "m.json"
    save_ensemble(path, e)
    model = json.loads(path.read_text())
    edited = json.loads(json.dumps(model["training_sets"][0]))
    edited["x"][0][0] += 0.5
    model["training_sets"].append(edited)
    model["classifiers"][3]["state"]["training_set"] = 1
    path.write_text(json.dumps(model))
    edited = load_ensemble(path)
    q = generate(GeneratorSpec("concentric-rings", n=60, d=3, seed=11)).features
    calls = []
    real = learners._sq_distances
    monkeypatch.setattr(learners, "_sq_distances",
                        lambda q, xt: calls.append(xt.tobytes()) or real(q, xt))
    profiles = training.ensemble_profiles(edited, q)
    edited_rows = edited.classifiers[3].state["x"].tobytes()
    assert sorted(calls) == sorted([data.features.tobytes(), edited_rows])
    for j, c in enumerate(edited.classifiers):
        assert np.array_equal(profiles[:, j], c.predict_proba_batch(q)), j


@pytest.mark.parametrize("name, roster", [("rings", default_roster),
                                          ("twonorm", extended_roster)])
def test_model_file_holds_one_training_set(tmp_path, name, roster):
    """Every knn learner fits the one training set, which the model file
    holds once; after load the knn models share its arrays."""
    e = train(load_bundled(name), roster(), seed=1, fixed_alpha=1.0)
    path = tmp_path / "m.json"
    save_ensemble(path, e)
    payload = json.loads(path.read_text())
    assert len(payload["training_sets"]) == 1
    assert all(set(c) == {"kind", "params", "state"} for c in payload["classifiers"])
    knn = [c for c in payload["classifiers"] if c["kind"] == "knn"]
    assert len(knn) >= 3 and all(c["state"] == {
        "present": list(range(e.catalog.size)), "training_set": 0} for c in knn)
    assert "__nd__" not in path.read_text()
    loaded = [c for c in load_ensemble(path).classifiers if c.spec.kind == "knn"]
    assert all(c.state["x"] is loaded[0].state["x"]
               and c.state["y"] is loaded[0].state["y"] for c in loaded)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        data = toy_dataset(n=60)
        specs = extended_roster()  # every learner kind, the perceptron too
        assert {s.kind for s in specs} == set(learners._KINDS)
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
        # Every kind's posteriors, bitwise.
        for c, c_back in zip(e.classifiers, back.classifiers):
            assert (c.predict_proba_batch(data.features).tobytes()
                    == c_back.predict_proba_batch(data.features).tobytes()), c.spec.name
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
        _named(lambda m: m["classifiers"][1].pop("state"),
               "classifier 1: record lacks key.*state", "knn3"),
        (lambda m: m["classifiers"].__setitem__(0, [1, 2]),
         "classifier 0: record must be a JSON object"),
        (lambda m: m.__setitem__("classifiers", {}), "must be a list"),
        (lambda m: m.__setitem__("classifiers", []),
         "^need at least two base learners$"),
        (lambda m: m.__setitem__("classifiers", m["classifiers"][:1]),
         "need at least two base learners"),
        # The roster check of train, and every training set named.
        (lambda m: m["classifiers"].__setitem__(2, m["classifiers"][0]),
         r"^learner 'nearest-mean' appears twice in the roster$"),
        (lambda m: m["training_sets"].append({"x": "junk"}),
         r"^model training set 1 is named by no classifier$"),
        (lambda m: m["training_sets"].insert(0, m["training_sets"][0]),
         "training set 1 is named by no classifier"),
        (lambda m: m.__setitem__("alpha", None), "model key 'alpha' must be"),
        (lambda m: m.__setitem__("alpha", "1.0"), "model key 'alpha' must be"),
        (lambda m: m.__setitem__("alpha", True), "model key 'alpha' must be"),
        (lambda m: m.__setitem__("alpha", -0.5), "model key 'alpha' must be"),
        (lambda m: m.__setitem__("alpha", float("inf")),
         "model key 'alpha' must be"),
        (lambda m: m.__setitem__("alpha", 10 ** 400), "model key 'alpha' must be"),
        (lambda m: m.__setitem__("h", "h9"), "model key 'h' must be one of"),
        (lambda m: m.__setitem__("catalog", "ab"), "catalog' must be a list"),
        (lambda m: m.__setitem__("catalog", [1, True]),
         r"model key 'catalog' must be a list of class names, got \[1, True\]"),
        (lambda m: m["alpha_error_curve"].append([0.5]), "pairs"),
        (lambda m: m["alpha_error_curve"].append([0.5, None]), "pairs"),
        (lambda m: m.__setitem__("alpha_error_curve", {}), "pairs"),
        (lambda m: m.__setitem__("catalog", ["a"]),
         "model catalog needs at least two classes"),
        (lambda m: m.__setitem__("catalog", ["a", "a"]),
         "model duplicate class labels"),
        _named(lambda m: m["training_sets"][0]["x"][0].append(0.0),
               r"classifier 1: training set 0 'x' must be a rectangular array of "
               r"float64", "knn3"),
        _named(lambda m: [row.append(0.0) for row in m["training_sets"][0]["x"]],
               r"classifier 1: training set 0 'x' must have shape \(n, d\) with "
               r"p = 2 and d = 2, got \(30, 3\)", "knn3"),
        _named(lambda m: m.__setitem__("n_features", 3),
               r"classifier 0: state 'means' must have shape \(p, d\) with p = 2 "
               r"and d = 3", "nearest-mean"),
        (lambda m: m.__setitem__("n_features", "2"),
         "model key 'n_features' must be an integer"),
        (lambda m: m.pop("n_features"), "lacks key.*n_features"),
        (lambda m: m.pop("training_sets"), "lacks key.*training_sets"),
        (lambda m: m.__setitem__("training_sets", {}),
         "'training_sets' must be a list"),
        _named(lambda m: m["training_sets"].__setitem__(0, [1]),
               "classifier 1: training set 0 must be a JSON object", "knn3"),
        _named(lambda m: m["training_sets"][0].pop("y"),
               "classifier 1: training set 0 lacks key.*y", "knn3"),
        _named(lambda m: m["training_sets"][0]["y"].__setitem__(0, 0.5),
               "classifier 1: training set 0 'y' must be a rectangular array of "
               "int64", "knn3"),
        _named(lambda m: m["training_sets"][0]["y"].__setitem__(0, 2),
               "classifier 1: training set 0 'y' must hold class indices below 2", "knn3"),
        (lambda m: m.__setitem__("format_version", 2),
         "unsupported ensemble format version 2$"),
        (lambda m: m.__setitem__("format_version", 3.0),
         "unsupported ensemble format version 3.0"),
        (lambda m: m.__setitem__("format_version", True),
         "unsupported ensemble format version True"),
        (lambda m: m.pop("format_version"),
         "unsupported ensemble format version None"),
        _named(lambda m: m["classifiers"][0]["state"].pop("means"),
               "classifier 0: state lacks key.*means", "nearest-mean"),
        _named(lambda m: m["classifiers"][2]["state"].pop("present"),
               "classifier 2: state lacks key.*present", "gaussian-naive-bayes"),
        (lambda m: m["classifiers"][1].__setitem__("kind", "svm"),
         "unknown kind 'svm'"),
        (lambda m: m["classifiers"][1].__setitem__("kind", ["svm"]),
         r"classifier 1: unknown kind \['svm'\]"),
        (lambda m: m["classifiers"][1].__setitem__("params", 5),
         "classifier 1: record key 'params' must be a JSON object"),
        # Every object of the file refuses a key that save_ensemble does
        # not write, as a config object does.
        (lambda m: m.__setitem__("comment", "x"),
         r"^unknown model keys: \['comment'\]$"),
        _named(lambda m: m["classifiers"][0].__setitem__("name", "lda"),
               r"^model classifier 0: unknown record keys: \['name'\]$", "nearest-mean"),
        _named(lambda m: m["classifiers"][0]["state"].__setitem__("k", 5),
               r"^model classifier 0: unknown state keys: \['k'\]$", "nearest-mean"),
        _named(lambda m: m["training_sets"][0].__setitem__("w", []),
               r"^model classifier 1: unknown training set 0 keys: \['w'\]$", "knn3"),
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


@pytest.mark.parametrize("kind, params, message", [
    ("lda", {"k": 3}, "lda has no parameter 'k'"),
    ("knn", {"kk": 3}, "knn has no parameter 'kk'"),
    ("knn", {"k": 2.7}, "knn parameter 'k' must be an integer >= 1"),
    ("logistic-linear", {"rate": float("nan")},
     "logistic-linear parameter 'rate' must be a finite number > 0"),
], ids=["lda-k", "knn-kk", "knn-k-2.7", "logistic-rate-nan"])
def test_model_file_params_are_checked(tmp_path, kind, params, message):
    specs = [LearnerSpec("lda"), LearnerSpec("knn", {"k": 3}),
             LearnerSpec("logistic-linear", {"iterations": 5})]
    e = train(toy_dataset(n=30), specs, seed=1, fixed_alpha=1.0)
    path = tmp_path / "model.json"
    save_ensemble(path, e)
    payload = json.loads(path.read_text())
    j = [s.kind for s in specs].index(kind)
    payload["classifiers"][j]["params"] = params
    path.write_text(json.dumps(payload))
    with pytest.raises(TrainingError, match=f"model classifier {j}: {message}"):
        load_ensemble(path)


# (object built from the array, the frozen array it holds, the array)
FROZEN_ARRAYS = {
    "MetaMatrix": (lambda a: MetaMatrix(a, ClassCatalog(("a", "b"))),
                   lambda o: o.scores, np.full((2, 2, 2), 0.5)),
    "Dataset.features": (
        lambda a: Dataset(a, np.array([0, 1]), ClassCatalog(("a", "b"))),
        lambda o: o.features, np.array([[1.0], [2.0]])),
    "Dataset.labels": (
        lambda a: Dataset(np.ones((2, 1)), a, ClassCatalog(("a", "b"))),
        lambda o: o.labels, np.array([0, 1])),
    "FoldPlan": (lambda a: training.FoldPlan(a, 2),
                 lambda o: o.assignments, np.array([0, 1])),
    "DecisionTemplateModel": (combiners.DecisionTemplateModel,
                              lambda o: o.templates, np.full((2, 2, 2), 0.5)),
}


@pytest.mark.parametrize("name", FROZEN_ARRAYS)
def test_freezing_leaves_the_callers_array_alone(name):
    build, held, array = FROZEN_ARRAYS[name]
    obj = build(array)
    before = held(obj).copy()
    assert not held(obj).flags.writeable
    array.flat[0] += 1  # the caller's array stays writable ...
    assert np.array_equal(held(obj), before)  # ... and is not the object's


@pytest.mark.parametrize("scale", [1e154, 1e160])
def test_overflowing_fit_raises_learner_error(scale, tmp_path):
    """A fit that overflows runs with warnings off; the non-finite
    posteriors of its model raise LearnerError, not a RuntimeWarning.  A
    fixed alpha predicts nothing before the save, which refuses the
    non-finite state that load would refuse, and writes no file."""
    data = generate(GeneratorSpec("twonorm-like", n=60, d=3, seed=1))
    x = data.features.copy()
    x[:, 0] *= scale
    big = Dataset(x, data.labels, data.catalog)
    with pytest.raises(learners.LearnerError,
                       match="^classifier lda gives non-finite posteriors$"):
        train(big, default_roster(), 0, grid=training.default_alpha_grid())
    ensemble = train(big, default_roster(), 0, fixed_alpha=1.0)
    path = tmp_path / "m.json"
    with pytest.raises(TrainingError, match=(
            r"not written: model classifier 0 \(lda\): state 'inv_cov' holds "
            r"a non-finite value$")):
        save_ensemble(path, ensemble)
    assert not path.exists()


def test_derive_seed_spreads():
    seeds = {derive_seed(7, i, j) for i in range(10) for j in range(10)}
    assert len(seeds) == 100
    assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)
