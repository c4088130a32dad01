import math
import warnings

import numpy as np
import pytest

from granulex import combiners, granule
from granulex.granule import (
    Granule,
    GranuleError,
    construct_granule,
    construct_granules_batch,
    pick_bounds_blocks,
    prepare_samples,
)
from oracles import evidence_score, median_of, oracle_granule, reference_granules_batch

GRID = tuple(round(0.1 * i, 1) for i in range(41))
ALPHAS = GRID + (0.0, 25.0, 1e6)
SIDES = ("lower", "upper")


def kernel_cell(values, bound, side):
    """(count, dist) of candidate `bound` on `side` of one sample, as
    prepare_samples lays it out."""
    prepared = prepare_samples(np.array([values], dtype=np.float64))
    s = SIDES.index(side)
    j = np.flatnonzero(prepared.values[s, 0] == bound)[0]
    return float(prepared.count[s, 0, j]), float(prepared.dist[s, 0, j])


def assert_cell(values, bound, side):
    """The kernel's count and dist of a candidate are the oracle's: its
    evidence_score at alpha = 0, and its distance to median_of.  Returns
    the count."""
    count, dist = kernel_cell(values, bound, side)
    assert count == evidence_score(values, 0.0, bound, side)
    assert dist == abs(median_of(values) - bound)
    return count


def assert_kernel_median(values, med):
    """Every on-side candidate of prepare_samples lies at its distance
    from med, the oracle's median."""
    assert median_of(values) == med
    prepared = prepare_samples(np.array([values], dtype=np.float64))
    on_side = prepared.count >= 0
    assert on_side.any()
    assert np.array_equal(prepared.dist[on_side],
                          np.abs(med - prepared.values[on_side]))


class TestMedian:
    def test_odd(self):
        assert_kernel_median([1, 2, 3], 2)

    def test_even(self):
        med = median_of([0.1, 0.2, 0.5, 0.8])
        assert med == pytest.approx(0.35)
        assert_kernel_median([0.1, 0.2, 0.5, 0.8], med)

    def test_singleton(self):
        assert_kernel_median([0.7], 0.7)

    def test_empty(self):
        with pytest.raises(GranuleError, match="non-empty"):
            construct_granule([], 1.0)

    def test_overflowing_sum(self):
        # (1e308 + 1.5e308) / 2 would be inf, outside the two middle values.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_kernel_median([1e308, 1.5e308], 1.25e308)
            assert_kernel_median([-1.5e308, -1e308], -1.25e308)
        g = construct_granule([1e308, 1.5e308], 1.0)
        assert (g.lower, g.upper) == (1e308, 1.5e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert g.midpoint == 1.25e308
            values = combiners.memberships_from_bounds(np.array([[1e308, 1.5e308]]), "h1")
        assert values.tolist() == [1.25e308]

    def test_overflowing_length(self):
        # upper - lower is inf: h gives its limit, without a warning.
        bounds = np.array([[-1e308, 1e308], [-1e308, 1.7e308]])
        want = {"h1": [0.0, (-1e308 + 1.7e308) / 2], "h2": [0.0, 0.0],
                "h3": [0.0, 0.0]}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for h in combiners.H_KINDS:
                got = combiners.memberships_from_bounds(bounds, h)
                assert got.tolist() == want[h]
            assert Granule(-1e308, 1e308, 1.0).length == math.inf

    def test_numpy_bounds_are_stored_as_floats(self):
        """numpy scalars would make length a numpy subtraction, which warns
        on overflow."""
        g = Granule(np.float64(-1e308), np.float64(1e308), np.float32(1.0))
        assert [type(v) for v in (g.lower, g.upper, g.alpha)] == [float] * 3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert g.length == math.inf
            assert g.midpoint == 0.0
        assert g == Granule(-1e308, 1e308, 1.0)

    def test_finite_sum_is_unchanged(self):
        for a, b in ((0.1, 0.2), (5e-324, 1e-323), (0.0, 5e-324), (-3.0, 7.5)):
            assert_kernel_median([b, a], (a + b) / 2.0)
            assert Granule(a, b, 1.0).midpoint == (a + b) / 2.0


class TestEvidenceScore:
    SAMPLE = [0.1, 0.2, 0.5, 0.8, 0.9]

    def test_upper_far(self):
        assert assert_cell(self.SAMPLE, 0.9, "upper") == 3
        assert kernel_cell(self.SAMPLE, 0.9, "upper")[1] == pytest.approx(0.4)

    def test_upper_at_median(self):
        assert kernel_cell(self.SAMPLE, 0.5, "upper") == (1.0, 0.0)
        assert assert_cell(self.SAMPLE, 0.5, "upper") == 1

    def test_alpha_zero_counts(self):
        assert assert_cell(self.SAMPLE, 0.8, "upper") == 2
        assert assert_cell(self.SAMPLE, 0.9, "upper") == 3

    def test_alpha_zero_counts_past_the_float_range(self):
        # Distances of 2e308 and more overflow to inf, yet exp(-0 * dist) is
        # 1: at alpha = 0 each score is its count, so the granule spans the
        # sample, and no NaN score stops the lower side at -1e308.
        sample = [-1.7e308, -1e308, 1e308, 1e308, 1e308]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert assert_cell(sample, -1.7e308, "lower") == 5
            assert assert_cell(sample, -1e308, "lower") == 4
            assert kernel_cell(sample, -1e308, "lower")[1] == math.inf
            assert evidence_score(sample, 1.0, -1e308, "lower") == 0.0
            g = construct_granule(sample, 0.0)
            assert (g.lower, g.upper) == (-1.7e308, 1e308)
            assert (construct_granule(sample, 1.0).lower) == 1e308

    def test_lower_side(self):
        assert assert_cell(self.SAMPLE, 0.1, "lower") == 3
        assert kernel_cell(self.SAMPLE, 0.1, "lower")[1] == pytest.approx(0.4)

    def test_side_mismatch(self):
        # Of an odd sample, no element across the median is a candidate.
        prepared = prepare_samples(np.array([self.SAMPLE]))
        assert 0.2 not in prepared.values[1] and 0.8 not in prepared.values[0]
        # Of an even one, the window holds the middle value across the
        # median: its count is -1, below every candidate's score, where
        # evidence_score refuses the bound.
        sample = [0.1, 0.2, 0.5, 0.8]
        assert kernel_cell(sample, 0.2, "upper") == (-1.0, 0.0)
        assert kernel_cell(sample, 0.5, "lower") == (-1.0, 0.0)
        with pytest.raises(ValueError, match="not on the upper side"):
            evidence_score(sample, 1.0, 0.2, "upper")
        with pytest.raises(ValueError, match="not on the lower side"):
            evidence_score(sample, 1.0, 0.5, "lower")

    def test_multiplicity(self):
        assert assert_cell([0.5, 0.7, 0.7, 0.7, 0.5], 0.7, "upper") == 3


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

    def test_bad_sample(self):
        # The one-row view raises what the batch kernel raises.
        for values in ([0.1, float("nan")], [float("inf")], [[0.1, 0.2]]):
            with pytest.raises(GranuleError):
                construct_granule(values, 1.0)
        with pytest.raises(ValueError, match="could not convert"):
            construct_granule(["a"], 1.0)

    def test_fields_are_floats(self):
        g = construct_granule(np.array([1, 2, 3]), np.float32(0.5))
        assert [type(v) for v in (g.lower, g.upper, g.alpha)] == [float] * 3
        assert (g.lower, g.upper, g.alpha) == (1.0, 3.0, 0.5)

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
                lo, hi = oracle_granule(vals, alpha)
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


def kernel_cases():
    """(k, samples) for k = 1..13: continuous samples, vote-tied samples,
    samples of values near +-1e308 (each row of one sign, so every distance
    to the median stays finite) and samples of subnormals."""
    rng = np.random.default_rng(41)
    tiny = np.finfo(np.float64).smallest_subnormal
    for k in range(1, 14):
        yield k, rng.random((150, k))
        yield k, rng.integers(0, k + 1, size=(150, k)) / k
        huge = rng.choice([1e308, 1.25e308, 1.5e308, 1.7976931348623157e308], size=(60, k))
        yield k, huge * rng.choice([-1.0, 1.0], size=(60, 1))
        yield k, rng.integers(0, 5, size=(60, k)) * tiny


class TestBatch:
    def test_matches_scalar(self):
        for k, samples in kernel_cases():
            for alpha in (0.0, 0.7, 1.0, 3.0):
                bounds = construct_granules_batch(samples, alpha)
                for row, (lo, hi) in zip(samples, bounds):
                    g = construct_granule(row.tolist(), alpha)
                    assert (g.lower, g.upper) == (lo, hi)

    def test_matches_brute_force_on_ties_and_extremes(self):
        for k, samples in kernel_cases():
            for alpha in (0.0, 1.0, 1e6):
                bounds = construct_granules_batch(samples[:20], alpha)
                for row, (lo, hi) in zip(samples[:20], bounds):
                    assert oracle_granule(row.tolist(), alpha) == (lo, hi), k

    def test_one_preparation_serves_every_alpha(self):
        # Prepared once, picked at every alpha in turn (and back at the
        # first), the bounds equal the one-shot kernel's at each alpha.
        for k, samples in kernel_cases():
            prepared = prepare_samples(samples)
            for alpha in ALPHAS:
                expected = reference_granules_batch(samples, alpha)
                [picked] = next(pick_bounds_blocks(prepared, (alpha,)))
                assert np.array_equal(picked, expected), k
                assert np.array_equal(construct_granules_batch(samples, alpha), expected)

    @pytest.mark.parametrize("per_block", [None, 1, 12])
    def test_alpha_blocks_match_one_alpha_at_a_time(self, monkeypatch, per_block):
        # A block of alphas is scored in one pass; blocks of 1 alpha and of
        # 12 (41 + 3 alphas split 12, 12, 12, 8), and the default, pick the
        # same bounds as the one-shot kernel.
        for k, samples in kernel_cases():
            prepared = prepare_samples(samples)
            n, w = prepared.values.shape[1:]
            if per_block is not None:
                monkeypatch.setattr(granule, "GRANULE_BLOCK_CELLS", per_block * n * w)
            blocks = list(pick_bounds_blocks(prepared, ALPHAS))
            if per_block is not None:
                assert [len(b) for b in blocks] == (
                    [1] * 44 if per_block == 1 else [12, 12, 12, 8]
                )
            picked = np.concatenate(blocks)
            for bounds, alpha in zip(picked, ALPHAS, strict=True):
                assert np.array_equal(bounds, reference_granules_batch(samples, alpha)), k

    def test_block_of_one_cell(self, monkeypatch):
        monkeypatch.setattr(granule, "GRANULE_BLOCK_CELLS", 1)
        samples = np.random.default_rng(3).random((40, 12))
        blocks = list(pick_bounds_blocks(prepare_samples(samples), GRID))
        assert len(blocks) == len(GRID)
        for bounds, alpha in zip(blocks, GRID):
            assert np.array_equal(bounds[0], reference_granules_batch(samples, alpha))

    @pytest.mark.parametrize("per_block", [1, 7, None])
    def test_ncm_sweep_equals_one_alpha_at_a_time(self, monkeypatch, per_block):
        # 30 x 3 class columns of 11 posteriors, 6 candidates per side.
        rng = np.random.default_rng(8)
        profiles = rng.random((30, 11, 3))
        profiles /= profiles.sum(axis=2, keepdims=True)
        if per_block is not None:
            monkeypatch.setattr(granule, "GRANULE_BLOCK_CELLS", per_block * 90 * 6)
        for h in combiners.H_KINDS:
            swept = [
                values
                for bounds in combiners.granular_bounds_sweep(profiles, GRID)
                for values in combiners.memberships_from_bounds(bounds, h)
            ]
            assert len(swept) == len(GRID)
            for values, alpha in zip(swept, GRID):
                bounds = combiners.granular_bounds_batch(profiles, alpha)
                assert np.array_equal(
                    values, combiners.memberships_from_bounds(bounds, h)
                )

    def test_pick_rejects_bad_alpha(self):
        prepared = prepare_samples(np.array([[0.1, 0.5, 0.9]]))
        for alpha in (-0.1, float("nan"), float("inf")):
            with pytest.raises(GranuleError):
                construct_granules_batch(np.array([[0.1, 0.5, 0.9]]), alpha)
            with pytest.raises(GranuleError):
                list(pick_bounds_blocks(prepared, (0.5, alpha)))

    def test_rejects_bad_input(self):
        with pytest.raises(GranuleError):
            construct_granules_batch(np.empty((2, 0)), 1.0)
        with pytest.raises(GranuleError):
            construct_granules_batch(np.array([0.1, 0.2]), 1.0)
        with pytest.raises(GranuleError):
            construct_granules_batch(np.array([[0.1, np.nan]]), 1.0)
