import math

import numpy as np
import pytest

from granulex.granule import (
    Granule,
    GranuleError,
    construct_granule,
    construct_granules_batch,
    evidence_score,
    median_of,
    pick_bounds,
    prepare_samples,
)

GRID = tuple(round(0.1 * i, 1) for i in range(41))


def reference_granules_batch(samples, alpha):
    """The one-shot batch kernel: sort, count and score at a single alpha,
    all in one pass."""
    v = np.sort(np.asarray(samples, dtype=np.float64), axis=1)
    n, k = v.shape
    mid = k // 2
    med = v[:, mid] if k % 2 == 1 else (v[:, mid - 1] + v[:, mid]) / 2.0
    medc = med[:, None]
    le = (v[:, None, :] <= v[:, :, None]).sum(axis=2)
    lt = (v[:, None, :] < v[:, :, None]).sum(axis=2)
    below_med = (v < medc).sum(axis=1)[:, None]
    le_med = (v <= medc).sum(axis=1)[:, None]
    decay = np.exp(-alpha * np.abs(medc - v))
    upper_scores = np.where(v >= medc, (le - below_med) * decay, -1.0)
    upper = v[np.arange(n), np.argmax(upper_scores, axis=1)]
    lower_scores = np.where(v <= medc, (le_med - lt) * decay, -1.0)
    lower = v[np.arange(n), k - 1 - np.argmax(lower_scores[:, ::-1], axis=1)]
    return np.stack([lower, upper], axis=1)


def brute_force_granule(values, alpha):
    """Independent exhaustive search: score every (side, candidate) pair
    straight from the coverage x specificity definition."""
    vals = sorted(values)
    n = len(vals)
    med = vals[n // 2] if n % 2 else (vals[n // 2 - 1] + vals[n // 2]) / 2.0

    def score(bound, lo, hi):
        count = sum(1 for v in vals if lo <= v <= hi)
        return count * math.exp(-alpha * abs(med - bound))

    upper_cands = [v for v in vals if v >= med]
    lower_cands = [v for v in vals if v <= med]
    # tie-break toward the median: sort candidates by distance first
    upper = max(sorted(upper_cands, key=lambda v: v - med),
                key=lambda v: score(v, med, v))
    lower = max(sorted(lower_cands, key=lambda v: med - v),
                key=lambda v: score(v, v, med))
    return lower, upper


class TestMedian:
    def test_odd(self):
        assert median_of([1, 2, 3]) == 2

    def test_even(self):
        assert median_of([0.1, 0.2, 0.5, 0.8]) == pytest.approx(0.35)

    def test_singleton(self):
        assert median_of([0.7]) == 0.7

    def test_empty(self):
        with pytest.raises(GranuleError, match="empty sample"):
            median_of([])


class TestEvidenceScore:
    SAMPLE = [0.1, 0.2, 0.5, 0.8, 0.9]

    def test_upper_far(self):
        got = evidence_score(self.SAMPLE, 1.0, 0.9, "upper")
        assert got == pytest.approx(3 * math.exp(-0.4))

    def test_upper_at_median(self):
        assert evidence_score(self.SAMPLE, 1.0, 0.5, "upper") == 1.0

    def test_alpha_zero_counts(self):
        assert evidence_score(self.SAMPLE, 0.0, 0.8, "upper") == 2.0
        assert evidence_score(self.SAMPLE, 0.0, 0.9, "upper") == 3.0

    def test_lower_side(self):
        got = evidence_score(self.SAMPLE, 1.0, 0.1, "lower")
        assert got == pytest.approx(3 * math.exp(-0.4))

    def test_side_mismatch(self):
        with pytest.raises(GranuleError, match="bound/side mismatch"):
            evidence_score(self.SAMPLE, 1.0, 0.2, "upper")
        with pytest.raises(GranuleError, match="bound/side mismatch"):
            evidence_score(self.SAMPLE, 1.0, 0.8, "lower")

    def test_multiplicity(self):
        assert evidence_score([0.5, 0.7, 0.7, 0.7, 0.5], 0.0, 0.7, "upper") == 3.0


class TestConstructGranule:
    def test_alpha_one_full_spread(self):
        g = construct_granule([0.1, 0.2, 0.5, 0.8, 0.9], 1.0)
        assert (g.lower, g.upper) == (0.1, 0.9)

    def test_alpha_one_tight(self):
        # V(0.55) = 2 exp(-0.05) beats V(1.0) = 3 exp(-0.5); same below
        g = construct_granule([0.0, 0.45, 0.5, 0.55, 1.0], 1.0)
        assert (g.lower, g.upper) == (0.45, 0.55)

    def test_constant_sample(self):
        for alpha in (0.0, 1.0, 100.0):
            g = construct_granule([0.3, 0.3, 0.3], alpha)
            assert (g.lower, g.upper) == (0.3, 0.3)

    def test_alpha_zero_spans_sample(self):
        g = construct_granule([0.1, 0.2, 0.5, 0.8, 0.9], 0.0)
        assert (g.lower, g.upper) == (0.1, 0.9)

    def test_huge_alpha_collapses_to_median(self):
        g = construct_granule([0.1, 0.2, 0.5, 0.8, 0.9], 1e6)
        assert (g.lower, g.upper) == (0.5, 0.5)

    def test_bad_alpha(self):
        with pytest.raises(GranuleError):
            construct_granule([0.1, 0.2, 0.3], -1.0)
        with pytest.raises(GranuleError):
            construct_granule([0.1, 0.2, 0.3], float("nan"))

    def test_invalid_granule_bounds(self):
        with pytest.raises(GranuleError):
            Granule(lower=0.9, upper=0.1, alpha=1.0)


class TestProperties:
    ALPHAS = (0.0, 0.5, 1.0, 2.0, 4.0)

    def test_containment(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            vals = rng.random(rng.integers(1, 30)).tolist()
            med = median_of(vals)
            for alpha in self.ALPHAS:
                g = construct_granule(vals, alpha)
                assert g.lower <= med <= g.upper
                assert g.lower in vals and g.upper in vals

    def test_oracle_equivalence(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            vals = rng.random(rng.integers(3, 51)).tolist()
            for alpha in self.ALPHAS:
                g = construct_granule(vals, alpha)
                lo, hi = brute_force_granule(vals, alpha)
                assert (g.lower, g.upper) == (lo, hi)

    def test_monotone_specificity(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            vals = rng.random(rng.integers(3, 40)).tolist()
            med = median_of(vals)
            prev_up, prev_lo = math.inf, math.inf
            for alpha in self.ALPHAS:
                g = construct_granule(vals, alpha)
                assert g.upper - med <= prev_up
                assert med - g.lower <= prev_lo
                prev_up, prev_lo = g.upper - med, med - g.lower

    def test_alpha_zero_limit(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            vals = rng.random(9).tolist()
            g = construct_granule(vals, 0.0)
            assert (g.lower, g.upper) == (min(vals), max(vals))

    def test_translation_equivariance(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            vals = rng.random(7).tolist()
            shift = float(rng.normal())
            g0 = construct_granule(vals, 1.0)
            g1 = construct_granule([v + shift for v in vals], 1.0)
            assert g1.lower == pytest.approx(g0.lower + shift)
            assert g1.upper == pytest.approx(g0.upper + shift)

    def test_duplicates_leave_bounds_unchanged(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            vals = rng.random(7).tolist()
            g0 = construct_granule(vals, 1.5)
            g1 = construct_granule(vals * 2, 1.5)
            assert (g0.lower, g0.upper) == (g1.lower, g1.upper)


class TestBatch:
    def test_matches_scalar(self):
        rng = np.random.default_rng(31)
        for k in (2, 3, 5, 10, 11):
            samples = rng.random((200, k))
            for alpha in (0.0, 0.7, 1.0, 3.0):
                bounds = construct_granules_batch(samples, alpha)
                for row, (lo, hi) in zip(samples, bounds):
                    g = construct_granule(row.tolist(), alpha)
                    assert (g.lower, g.upper) == (lo, hi)

    def test_one_preparation_serves_every_alpha(self):
        # Prepared once, picked at every grid alpha in turn (and back at the
        # first), the bounds equal the one-shot kernel's at each alpha.
        rng = np.random.default_rng(41)
        for k in range(1, 14):
            continuous = rng.random((150, k))
            votes = rng.integers(0, k + 1, size=(150, k)) / k  # many ties
            for samples in (continuous, votes):
                prepared = prepare_samples(samples)
                for alpha in GRID + (0.0, 25.0, 1e6):
                    assert np.array_equal(
                        pick_bounds(prepared, alpha),
                        reference_granules_batch(samples, alpha),
                    )
                    assert np.array_equal(
                        construct_granules_batch(samples, alpha),
                        reference_granules_batch(samples, alpha),
                    )

    def test_pick_rejects_bad_alpha(self):
        prepared = prepare_samples(np.array([[0.1, 0.5, 0.9]]))
        for alpha in (-0.1, float("nan"), float("inf")):
            with pytest.raises(GranuleError):
                pick_bounds(prepared, alpha)

    def test_rejects_bad_input(self):
        with pytest.raises(GranuleError):
            construct_granules_batch(np.empty((2, 0)), 1.0)
        with pytest.raises(GranuleError):
            construct_granules_batch(np.array([0.1, 0.2]), 1.0)
        with pytest.raises(GranuleError):
            construct_granules_batch(np.array([[0.1, np.nan]]), 1.0)
