import math

import numpy as np
import pytest

from granulex.combiners import (
    FIXED_RULES,
    DecisionTemplateModel,
    dt_decide_batch,
    dt_fit,
    fixed_rule_scores_batch,
    granular_bounds_batch,
    granular_decide_batch,
    granular_intervals,
    memberships_from_bounds,
    s1_similarity,
    s1_similarity_batch,
)
from granulex.granule import construct_granule, construct_granules_batch
from granulex.metadata import ClassCatalog, MetaMatrix, MetadataError
from oracles import reference_s1

WORKED = np.array([[0.6, 0.4], [0.7, 0.3], [0.35, 0.65]])


GRID = tuple(round(0.1 * i, 1) for i in range(41))


def random_profile(rng, k, m):
    raw = rng.random((k, m))
    return raw / raw.sum(axis=1, keepdims=True)


def rule_scores(profile, rule):
    """One (K, M) profile's fixed-rule scores: the batch kernel's only row."""
    return fixed_rule_scores_batch(profile[None], rule)[0]


def granular_memberships(profiles, alpha, h):
    """Numerical class memberships of a (n, K, M) profile stack: its
    bounds, de-granulated."""
    return memberships_from_bounds(granular_bounds_batch(profiles, alpha), h)


def granular_ncm(profile, alpha, h):
    return granular_memberships(profile[None], alpha, h)[0]


def granular_decision(profile, alpha, h):
    return int(granular_decide_batch(profile[None], alpha, h)[0])


def ncm(lower, upper, h):
    """De-granulate one [lower, upper] interval."""
    return float(memberships_from_bounds(np.array([lower, upper]), h))


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
        scores = rule_scores(WORKED, "sum")
        assert tuple(scores) == pytest.approx((1.65, 1.35))
        assert np.argmax(scores) == 0

    def test_product(self):
        scores = rule_scores(WORKED, "product")
        assert tuple(scores) == pytest.approx((0.147, 0.078))
        assert np.argmax(scores) == 0

    def test_max(self):
        scores = rule_scores(WORKED, "max")
        assert tuple(scores) == pytest.approx((0.7, 0.65))
        assert np.argmax(scores) == 0

    def test_min(self):
        scores = rule_scores(WORKED, "min")
        assert tuple(scores) == pytest.approx((0.35, 0.3))
        assert np.argmax(scores) == 0

    def test_median(self):
        scores = rule_scores(WORKED, "median")
        assert tuple(scores) == pytest.approx((0.6, 0.4))
        assert np.argmax(scores) == 0

    def test_majority_vote(self):
        scores = rule_scores(WORKED, "majority-vote")
        assert tuple(scores) == (2.0, 1.0)
        assert np.argmax(scores) == 0

    def test_majority_vote_equals_class_by_class_count(self):
        rng = np.random.default_rng(5)
        profiles = np.stack([random_profile(rng, 6, 4) for _ in range(40)])
        votes = np.argmax(profiles, axis=2)
        expected = np.zeros((40, 4))
        for j in range(4):
            expected[:, j] = (votes == j).sum(axis=1)
        scores = fixed_rule_scores_batch(profiles, "majority-vote")
        assert scores.dtype == np.float64
        assert np.array_equal(scores, expected)

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="unknown fixed rule 'mean'"):
            fixed_rule_scores_batch(WORKED[None], "mean")

    def test_tie_goes_to_lowest_index(self):
        tied = np.array([[0.5, 0.5], [0.5, 0.5]])
        for rule in FIXED_RULES:
            assert np.argmax(rule_scores(tied, rule)) == 0

    def test_decision_is_argmax(self):
        rng = np.random.default_rng(3)
        profiles = np.stack([random_profile(rng, 5, 4) for _ in range(50)])
        for rule in FIXED_RULES:
            batch = fixed_rule_scores_batch(profiles, rule)
            for i in range(len(profiles)):
                scores = fixed_rule_scores_batch(profiles[i:i + 1], rule)[0]
                assert np.array_equal(scores, batch[i])
                assert np.argmax(scores) == np.argmax(batch[i])


class TestDecisionTemplate:
    def make_meta(self, profiles, labels):
        scores = np.stack(profiles)
        cat = ClassCatalog(tuple(f"y{i}" for i in range(scores.shape[2])))
        return MetaMatrix(scores, cat), np.asarray(labels)

    def test_single_profile_template(self):
        p = random_profile(np.random.default_rng(0), 3, 2)
        meta, labels = self.make_meta([p, p], [0, 1])
        model = dt_fit(meta, labels)
        np.testing.assert_array_equal(model.templates[0], p)

    def test_midpoint_template(self):
        a = np.array([[1.0, 0.0], [1.0, 0.0]])
        b = np.array([[0.0, 1.0], [0.0, 1.0]])
        other = np.array([[0.5, 0.5], [0.5, 0.5]])
        meta, labels = self.make_meta([a, b, other], [0, 0, 1])
        model = dt_fit(meta, labels)
        np.testing.assert_allclose(model.templates[0],
                                   [[0.5, 0.5], [0.5, 0.5]])

    def test_identical_profiles_template(self):
        p = random_profile(np.random.default_rng(1), 2, 2)
        meta, labels = self.make_meta([p, p, p, p], [0, 0, 0, 1])
        model = dt_fit(meta, labels)
        np.testing.assert_allclose(model.templates[0], p)

    def test_missing_class_errors(self):
        p = random_profile(np.random.default_rng(2), 2, 2)
        meta, labels = self.make_meta([p, p], [0, 0])
        with pytest.raises(MetadataError, match="y1"):
            dt_fit(meta, labels)

    def test_s1_self_similarity(self):
        p = random_profile(np.random.default_rng(4), 3, 2)
        model = DecisionTemplateModel(np.stack([p, p * 0.0]))
        assert s1_similarity_batch(p[None], model.templates)[0, 0] == 1.0

    def test_s1_worked_example(self):
        profile = np.array([[0.6, 0.4], [0.5, 0.5]])
        template = np.array([[0.5, 0.5], [0.5, 0.5]])
        model = DecisionTemplateModel(np.stack([template, template]))
        sims = s1_similarity_batch(profile[None], model.templates)[0]
        # elementwise min/max on the first row only differs
        expected = (0.5 + 0.4 + 1.0) / (0.6 + 0.5 + 1.0)
        assert sims[0] == pytest.approx(expected, abs=1e-12)

    def test_s1_disjoint_supports(self):
        profile = np.array([[1.0, 0.0], [1.0, 0.0]])
        template = np.array([[0.0, 1.0], [0.0, 1.0]])
        model = DecisionTemplateModel(np.stack([template, template]))
        assert s1_similarity_batch(profile[None], model.templates)[0, 0] == 0.0

    def test_zero_union_guard(self):
        zero = np.zeros((2, 2))
        assert s1_similarity(zero, zero) == 1.0
        assert s1_similarity_batch(zero[None], zero[None])[0, 0] == 1.0

    def test_s1_single_row_worked_example(self):
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
                sims = s1_similarity_batch(profiles[i:i + 1], templates)[0]
                assert tuple(sims) == tuple(s1_similarity(p, t) for t in templates)
                assert dt_decide_batch(model, profiles[i:i + 1])[0] == decisions[i]

    def test_s1_similarity_is_the_one_pair_batch(self):
        """Bitwise the pair formula on random and 1-decimal pairs with
        K * M up to 200, and on the all-zero union."""
        rng = np.random.default_rng(2025)
        for i in range(400):
            k, m = int(rng.integers(1, 21)), int(rng.integers(1, 11))
            a, b = rng.random((k, m)), rng.random((k, m))
            if i % 2:
                a, b = np.round(a, 1), np.round(b, 1)
            got = s1_similarity(a, b)
            assert type(got) is float
            assert got == reference_s1(a, b), (k, m)
        zero = np.zeros((3, 4))
        assert s1_similarity(zero, zero) == reference_s1(zero, zero) == 1.0
        with pytest.raises(MetadataError, match="shape mismatch"):
            s1_similarity(np.zeros((2, 3)), np.zeros((3, 2)))

    def test_shape_mismatch(self):
        p = random_profile(np.random.default_rng(5), 4, 2)
        model = DecisionTemplateModel(np.zeros((2, 3, 2)))
        with pytest.raises(MetadataError):
            dt_decide_batch(model, p[None])


class TestGranularCombiner:
    def test_unanimous_intervals_are_points(self):
        row = np.array([0.2, 0.3, 0.5])
        profile = np.tile(row, (4, 1))
        for g in granular_intervals(profile, 1.0):
            assert g.length == 0.0

    def test_intervals_match_granule_module(self):
        grans = granular_intervals(WORKED, 1.0)
        expected0 = construct_granule([0.6, 0.7, 0.35], 1.0)
        expected1 = construct_granule([0.4, 0.3, 0.65], 1.0)
        assert (grans[0].lower, grans[0].upper) == (expected0.lower, expected0.upper)
        assert (grans[1].lower, grans[1].upper) == (expected1.lower, expected1.upper)

    def test_ncm_h1(self):
        assert ncm(0.4, 0.8, "h1") == pytest.approx(0.6)

    def test_ncm_h3(self):
        assert ncm(0.4, 0.8, "h3") == pytest.approx(0.6 * math.exp(-0.4))

    def test_ncm_h2(self):
        assert ncm(0.4, 0.8, "h2") == pytest.approx(1.5)

    def test_ncm_h2_zero_length_guard(self):
        assert ncm(0.7, 0.7, "h2") == pytest.approx(0.7 / 1e-12)

    def test_dominant_column_wins(self):
        profile = np.array([[0.8, 0.2], [0.7, 0.3], [0.9, 0.1]])
        for alpha in (0.0, 1.0, 4.0):
            for h in ("h1", "h2", "h3"):
                assert granular_decision(profile, alpha, h) == 0

    def test_identical_columns_tie(self):
        profile = np.full((3, 2), 0.5)
        assert granular_decision(profile, 1.0, "h3") == 0

    def test_worked_profile_matches_hand_pipeline(self):
        for h in ("h1", "h2", "h3"):
            grans = [
                construct_granule([0.6, 0.7, 0.35], 1.0),
                construct_granule([0.4, 0.3, 0.65], 1.0),
            ]
            expected_vals = [ncm(g.lower, g.upper, h) for g in grans]
            assert tuple(granular_ncm(WORKED, 1.0, h)) == pytest.approx(
                tuple(expected_vals)
            )
            assert granular_decision(WORKED, 1.0, h) == int(np.argmax(expected_vals))


class TestGranularProperties:
    def test_argmax_consistency(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            profile = random_profile(rng, 5, 3)
            for h in ("h1", "h2", "h3"):
                values = granular_ncm(profile, 1.0, h)
                assert granular_decision(profile, 1.0, h) == int(np.argmax(values))

    def test_column_permutation_equivariance(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            profile = random_profile(rng, 4, 3)
            perm = rng.permutation(3)
            permuted = profile[:, perm]
            values = granular_ncm(profile, 1.0, "h3")
            assert values[perm] == pytest.approx(granular_ncm(permuted, 1.0, "h3"))
            sums = rule_scores(profile, "sum")
            assert sums[perm] == pytest.approx(rule_scores(permuted, "sum"))

    def test_median_rule_reduction(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            profile = random_profile(rng, 5, 3)  # odd K: median is an element
            g_cls = granular_decision(profile, 1e6, "h1")
            assert g_cls == np.argmax(rule_scores(profile, "median"))

    def test_alpha_zero_reduction(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            profile = random_profile(rng, 6, 2)
            grans = granular_intervals(profile, 0.0)
            for m, g in enumerate(grans):
                col = profile[:, m]
                assert (g.lower, g.upper) == (col.min(), col.max())
                assert ncm(g.lower, g.upper, "h1") == pytest.approx(
                    (col.min() + col.max()) / 2
                )

    def test_h_agreement_on_point_intervals(self):
        row = np.array([0.1, 0.3, 0.6])
        profile = np.tile(row, (3, 1))
        decisions = {
            h: granular_decision(profile, 1.0, h) for h in ("h1", "h2", "h3")
        }
        assert len(set(decisions.values())) == 1

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(33)
        profiles = rng.random((40, 5, 3))
        profiles /= profiles.sum(axis=2, keepdims=True)
        for h in ("h1", "h2", "h3"):
            batch = granular_decide_batch(profiles, 0.8, h)
            for i in range(profiles.shape[0]):
                assert batch[i] == granular_decide_batch(profiles[i:i + 1], 0.8, h)[0]


class TestScalarIsBatchRow:
    """A one-row stack gets the same bounds, memberships and decision, to
    the last bit, as the same profile inside a larger stack; the one-column
    granule and granular_intervals agree with both."""

    def test_quantized_profiles_every_alpha_and_h(self):
        rng = np.random.default_rng(2024)
        for k in range(3, 13):
            m = int(rng.integers(2, 6))
            profiles = quantized_profiles(rng, 6, k, m)
            for alpha in GRID:
                cols = np.transpose(profiles, (0, 2, 1)).reshape(-1, k)
                bounds = construct_granules_batch(cols, alpha).reshape(6, m, 2)
                ncm_rows = {h: granular_memberships(profiles, alpha, h)
                            for h in ("h1", "h2", "h3")}
                for i, scores in enumerate(profiles):
                    one = profiles[i:i + 1]
                    assert np.array_equal(granular_bounds_batch(one, alpha)[0], bounds[i])
                    grans = granular_intervals(scores, alpha)
                    for j, g in enumerate(grans):
                        assert (g.lower, g.upper) == tuple(bounds[i, j])
                        single = construct_granule(scores[:, j].tolist(), alpha)
                        assert (single.lower, single.upper) == tuple(bounds[i, j])
                    for h, rows in ncm_rows.items():
                        assert np.array_equal(granular_memberships(one, alpha, h)[0], rows[i])
                        assert granular_decide_batch(one, alpha, h)[0] == np.argmax(rows[i])
                        assert [ncm(g.lower, g.upper, h) for g in grans] == list(rows[i])
