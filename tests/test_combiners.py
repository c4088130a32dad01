import math

import numpy as np
import pytest

from granulex.combiners import (
    FIXED_RULES,
    DecisionTemplateModel,
    dt_classify,
    dt_fit,
    fixed_rule_classify,
    dt_decide_batch,
    granular_classify,
    granular_decide_batch,
    granular_intervals,
    granular_ncm_batch,
    ncm,
    s1_similarity,
)
from granulex.granule import Granule, construct_granule, construct_granules_batch
from granulex.metadata import ClassCatalog, MetaMatrix, MetaProfile, MetadataError

WORKED = MetaProfile(np.array([[0.6, 0.4], [0.7, 0.3], [0.35, 0.65]]))


GRID = tuple(round(0.1 * i, 1) for i in range(41))


def random_profile(rng, k, m):
    raw = rng.random((k, m))
    return MetaProfile(raw / raw.sum(axis=1, keepdims=True))


def quantized_profiles(rng, n, k, m):
    """(n, K, M) posteriors that are multiples of 1/votes, like KNN votes or
    tree leaves: equal values, and so equal interval lengths, are common."""
    votes = rng.choice([1, 2, 3, 5, 7, 25], size=(n, k))
    counts = np.stack([
        np.stack([rng.multinomial(votes[i, j], np.full(m, 1.0 / m))
                  for j in range(k)])
        for i in range(n)
    ])
    return counts / votes[:, :, None]


class TestFixedRules:
    def test_sum(self):
        vec, cls = fixed_rule_classify(WORKED, "sum")
        assert vec.values == pytest.approx((1.65, 1.35))
        assert cls == 0

    def test_product(self):
        vec, cls = fixed_rule_classify(WORKED, "product")
        assert vec.values == pytest.approx((0.147, 0.078))
        assert cls == 0

    def test_max(self):
        vec, cls = fixed_rule_classify(WORKED, "max")
        assert vec.values == pytest.approx((0.7, 0.65))
        assert cls == 0

    def test_min(self):
        vec, cls = fixed_rule_classify(WORKED, "min")
        assert vec.values == pytest.approx((0.35, 0.3))
        assert cls == 0

    def test_median(self):
        vec, cls = fixed_rule_classify(WORKED, "median")
        assert vec.values == pytest.approx((0.6, 0.4))
        assert cls == 0

    def test_majority_vote(self):
        vec, cls = fixed_rule_classify(WORKED, "majority-vote")
        assert vec.values == (2.0, 1.0)
        assert cls == 0

    def test_tie_goes_to_lowest_index(self):
        tied = MetaProfile(np.array([[0.5, 0.5], [0.5, 0.5]]))
        for rule in FIXED_RULES:
            _, cls = fixed_rule_classify(tied, rule)
            assert cls == 0

    def test_decision_is_argmax(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            profile = random_profile(rng, 5, 4)
            for rule in FIXED_RULES:
                vec, cls = fixed_rule_classify(profile, rule)
                assert cls == int(np.argmax(vec.values))


class TestDecisionTemplate:
    def make_meta(self, profiles, labels):
        scores = np.stack([p.scores for p in profiles])
        cat = ClassCatalog(tuple(f"y{i}" for i in range(scores.shape[2])))
        return MetaMatrix(scores, cat), np.asarray(labels)

    def test_single_profile_template(self):
        p = random_profile(np.random.default_rng(0), 3, 2)
        meta, labels = self.make_meta([p, p], [0, 1])
        model = dt_fit(meta, labels)
        np.testing.assert_array_equal(model.templates[0], p.scores)

    def test_midpoint_template(self):
        a = MetaProfile(np.array([[1.0, 0.0], [1.0, 0.0]]))
        b = MetaProfile(np.array([[0.0, 1.0], [0.0, 1.0]]))
        other = MetaProfile(np.array([[0.5, 0.5], [0.5, 0.5]]))
        meta, labels = self.make_meta([a, b, other], [0, 0, 1])
        model = dt_fit(meta, labels)
        np.testing.assert_allclose(model.templates[0],
                                   [[0.5, 0.5], [0.5, 0.5]])

    def test_identical_profiles_template(self):
        p = random_profile(np.random.default_rng(1), 2, 2)
        meta, labels = self.make_meta([p, p, p, p], [0, 0, 0, 1])
        model = dt_fit(meta, labels)
        np.testing.assert_allclose(model.templates[0], p.scores)

    def test_missing_class_errors(self):
        p = random_profile(np.random.default_rng(2), 2, 2)
        meta, labels = self.make_meta([p, p], [0, 0])
        with pytest.raises(MetadataError, match="y1"):
            dt_fit(meta, labels)

    def test_s1_self_similarity(self):
        p = random_profile(np.random.default_rng(4), 3, 2)
        model = DecisionTemplateModel(np.stack([p.scores, p.scores * 0.0]))
        vec, _ = dt_classify(model, p)
        assert vec.values[0] == 1.0

    def test_s1_worked_example(self):
        profile = MetaProfile(np.array([[0.6, 0.4], [0.5, 0.5]]))
        template = np.array([[0.5, 0.5], [0.5, 0.5]])
        model = DecisionTemplateModel(np.stack([template, template]))
        vec, _ = dt_classify(model, profile)
        # elementwise min/max on the first row only differs
        expected = (0.5 + 0.4 + 1.0) / (0.6 + 0.5 + 1.0)
        assert vec.values[0] == pytest.approx(expected, abs=1e-12)

    def test_s1_disjoint_supports(self):
        profile = MetaProfile(np.array([[1.0, 0.0], [1.0, 0.0]]))
        template = np.array([[0.0, 1.0], [0.0, 1.0]])
        model = DecisionTemplateModel(np.stack([template, template]))
        vec, _ = dt_classify(model, profile)
        assert vec.values[0] == 0.0

    def test_zero_union_guard(self):
        from granulex.combiners import s1_similarity

        zero = np.zeros((2, 2))
        assert s1_similarity(zero, zero) == 1.0

    def test_s1_single_row_worked_example(self):
        from granulex.combiners import s1_similarity

        got = s1_similarity(np.array([[0.6, 0.4]]), np.array([[0.5, 0.5]]))
        assert got == pytest.approx(0.9 / 1.1, abs=1e-12)

    def test_classify_is_the_batch_row(self):
        rng = np.random.default_rng(17)
        for k in range(3, 13):
            m = int(rng.integers(2, 6))
            profiles = quantized_profiles(rng, 20, k, m)
            templates = quantized_profiles(rng, m, k, m)
            model = DecisionTemplateModel(templates)
            decisions = dt_decide_batch(model, profiles)
            for i, p in enumerate(profiles):
                vec, cls = dt_classify(model, MetaProfile(p))
                assert vec.values == tuple(s1_similarity(p, t) for t in templates)
                assert cls == decisions[i]

    def test_shape_mismatch(self):
        p = random_profile(np.random.default_rng(5), 4, 2)
        model = DecisionTemplateModel(np.zeros((2, 3, 2)))
        with pytest.raises(MetadataError):
            dt_classify(model, p)


class TestGranularCombiner:
    def test_unanimous_intervals_are_points(self):
        row = np.array([0.2, 0.3, 0.5])
        profile = MetaProfile(np.tile(row, (4, 1)))
        for g in granular_intervals(profile, 1.0):
            assert g.length == 0.0

    def test_intervals_match_granule_module(self):
        grans = granular_intervals(WORKED, 1.0)
        expected0 = construct_granule([0.6, 0.7, 0.35], 1.0)
        expected1 = construct_granule([0.4, 0.3, 0.65], 1.0)
        assert (grans[0].lower, grans[0].upper) == (expected0.lower, expected0.upper)
        assert (grans[1].lower, grans[1].upper) == (expected1.lower, expected1.upper)

    def test_ncm_h1(self):
        assert ncm(Granule(0.4, 0.8, 1.0), "h1") == pytest.approx(0.6)

    def test_ncm_h3(self):
        assert ncm(Granule(0.4, 0.8, 1.0), "h3") == pytest.approx(
            0.6 * math.exp(-0.4)
        )

    def test_ncm_h2(self):
        assert ncm(Granule(0.4, 0.8, 1.0), "h2") == pytest.approx(1.5)

    def test_ncm_h2_zero_length_guard(self):
        assert ncm(Granule(0.7, 0.7, 1.0), "h2") == pytest.approx(0.7 / 1e-12)

    def test_dominant_column_wins(self):
        profile = MetaProfile(
            np.array([[0.8, 0.2], [0.7, 0.3], [0.9, 0.1]])
        )
        for alpha in (0.0, 1.0, 4.0):
            for h in ("h1", "h2", "h3"):
                _, cls = granular_classify(profile, alpha, h)
                assert cls == 0

    def test_identical_columns_tie(self):
        profile = MetaProfile(np.full((3, 2), 0.5))
        _, cls = granular_classify(profile, 1.0, "h3")
        assert cls == 0

    def test_worked_profile_matches_hand_pipeline(self):
        for h in ("h1", "h2", "h3"):
            grans = [
                construct_granule([0.6, 0.7, 0.35], 1.0),
                construct_granule([0.4, 0.3, 0.65], 1.0),
            ]
            expected_vals = [ncm(g, h) for g in grans]
            vec, cls = granular_classify(WORKED, 1.0, h)
            assert vec.values == pytest.approx(tuple(expected_vals))
            assert cls == int(np.argmax(expected_vals))


class TestGranularProperties:
    def test_argmax_consistency(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            profile = random_profile(rng, 5, 3)
            for h in ("h1", "h2", "h3"):
                vec, cls = granular_classify(profile, 1.0, h)
                assert cls == int(np.argmax(vec.values))

    def test_column_permutation_equivariance(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            profile = random_profile(rng, 4, 3)
            perm = rng.permutation(3)
            permuted = MetaProfile(profile.scores[:, perm])
            vec, _ = granular_classify(profile, 1.0, "h3")
            pvec, _ = granular_classify(permuted, 1.0, "h3")
            assert np.asarray(vec.values)[perm] == pytest.approx(pvec.values)
            svec, _ = fixed_rule_classify(profile, "sum")
            spvec, _ = fixed_rule_classify(permuted, "sum")
            assert np.asarray(svec.values)[perm] == pytest.approx(spvec.values)

    def test_median_rule_reduction(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            profile = random_profile(rng, 5, 3)  # odd K: median is an element
            _, g_cls = granular_classify(profile, 1e6, "h1")
            _, m_cls = fixed_rule_classify(profile, "median")
            assert g_cls == m_cls

    def test_alpha_zero_reduction(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            profile = random_profile(rng, 6, 2)
            grans = granular_intervals(profile, 0.0)
            for m, g in enumerate(grans):
                col = profile.scores[:, m]
                assert (g.lower, g.upper) == (col.min(), col.max())
                assert ncm(g, "h1") == pytest.approx((col.min() + col.max()) / 2)

    def test_h_agreement_on_point_intervals(self):
        row = np.array([0.1, 0.3, 0.6])
        profile = MetaProfile(np.tile(row, (3, 1)))
        decisions = {
            h: granular_classify(profile, 1.0, h)[1] for h in ("h1", "h2", "h3")
        }
        assert len(set(decisions.values())) == 1

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(33)
        profiles = rng.random((40, 5, 3))
        profiles /= profiles.sum(axis=2, keepdims=True)
        for h in ("h1", "h2", "h3"):
            batch = granular_decide_batch(profiles, 0.8, h)
            for i in range(profiles.shape[0]):
                _, cls = granular_classify(MetaProfile(profiles[i]), 0.8, h)
                assert batch[i] == cls


class TestScalarIsBatchRow:
    """The one-profile functions are the n=1 case of the batch kernel, so a
    profile gets the same bounds, memberships and decision, to the last
    bit, alone and inside a stack."""

    def test_quantized_profiles_every_alpha_and_h(self):
        rng = np.random.default_rng(2024)
        for k in range(3, 13):
            m = int(rng.integers(2, 6))
            profiles = quantized_profiles(rng, 6, k, m)
            for alpha in GRID:
                cols = np.transpose(profiles, (0, 2, 1)).reshape(-1, k)
                bounds = construct_granules_batch(cols, alpha).reshape(6, m, 2)
                ncm_rows = {h: granular_ncm_batch(profiles, alpha, h)
                            for h in ("h1", "h2", "h3")}
                for i, scores in enumerate(profiles):
                    profile = MetaProfile(scores)
                    grans = granular_intervals(profile, alpha)
                    for j, g in enumerate(grans):
                        assert (g.lower, g.upper) == tuple(bounds[i, j])
                        single = construct_granule(scores[:, j].tolist(), alpha)
                        assert (single.lower, single.upper) == tuple(bounds[i, j])
                    for h, rows in ncm_rows.items():
                        vec, cls = granular_classify(profile, alpha, h)
                        assert vec.values == tuple(rows[i])
                        assert cls == int(np.argmax(rows[i]))
                        assert [ncm(g, h) for g in grans] == list(rows[i])
