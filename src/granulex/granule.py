"""Interval information granules built from finite numeric samples.

A granule is a closed interval around the sample median chosen to maximize
the product of coverage (how many sample points fall inside) and specificity
(exp(-alpha * length), so shorter intervals score higher).  Both bounds are
always elements of the sample and are optimized independently of each other.

One kernel builds every granule, in two steps: `prepare_samples` does the
work that does not depend on alpha (sort each sample, take its median, count
the coverage of every candidate bound) and `pick_bounds` picks both bounds
at one alpha.  `construct_granules_batch` is the two steps in a row, and
`construct_granule` its one-sample case; a search over many alphas prepares
once and picks once per alpha.  `evidence_score` and `median_of` state the
definitions the kernel implements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "Granule",
    "GranuleError",
    "median_of",
    "evidence_score",
    "PreparedSamples",
    "prepare_samples",
    "pick_bounds",
    "construct_granules_batch",
    "construct_granule",
]


class GranuleError(ValueError):
    """Raised for invalid samples, parameters, or bound/side mismatches."""


@dataclass(frozen=True)
class Granule:
    """Closed interval [lower, upper] with the alpha that generated it."""

    lower: float
    upper: float
    alpha: float

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise GranuleError(f"lower {self.lower} exceeds upper {self.upper}")

    @property
    def length(self) -> float:
        return self.upper - self.lower

    @property
    def midpoint(self) -> float:
        return (self.lower + self.upper) / 2.0


def _check_sample(values: Sequence[float]) -> list[float]:
    vals = [float(v) for v in values]
    if not vals:
        raise GranuleError("empty sample")
    for v in vals:
        if not math.isfinite(v):
            raise GranuleError(f"non-finite sample value {v!r}")
    return vals


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha < 0.0:
        raise GranuleError(f"alpha must be finite and >= 0, got {alpha!r}")
    return alpha


def median_of(values: Sequence[float]) -> float:
    """Sample median: middle order statistic, or the mean of the two middle
    order statistics for even-sized samples."""
    vals = sorted(_check_sample(values))
    n = len(vals)
    mid = n // 2
    if n % 2 == 1:
        return vals[mid]
    return (vals[mid - 1] + vals[mid]) / 2.0


def evidence_score(
    values: Sequence[float], alpha: float, bound: float, side: str
) -> float:
    """Coverage x specificity score of a candidate bound on one side of the
    median.

    For side="upper" the score is
        #{x in sample : med <= x <= bound} * exp(-alpha * |med - bound|),
    mirrored for side="lower".  Counting is inclusive and respects
    multiplicity.
    """
    vals = _check_sample(values)
    alpha = _check_alpha(alpha)
    bound = float(bound)
    med = median_of(vals)
    if side == "upper":
        if bound < med:
            raise GranuleError(f"bound/side mismatch: {bound} < median {med}")
        count = sum(1 for v in vals if med <= v <= bound)
    elif side == "lower":
        if bound > med:
            raise GranuleError(f"bound/side mismatch: {bound} > median {med}")
        count = sum(1 for v in vals if bound <= v <= med)
    else:
        raise GranuleError(f"side must be 'lower' or 'upper', got {side!r}")
    return count * math.exp(-alpha * abs(med - bound))


@dataclass(frozen=True)
class PreparedSamples:
    """The alpha-independent part of granule construction for n samples of
    k values each: every row sorted ascending, each value's distance to its
    row's median, and each candidate bound's coverage count on its side of
    the median.  Only exp(-alpha * dist) depends on alpha, so one
    preparation serves any number of pick_bounds calls."""

    values: np.ndarray       # (n, k), each row ascending
    dist: np.ndarray         # (n, k), |median - value|
    upper_ok: np.ndarray     # (n, k), value >= median
    upper_count: np.ndarray  # (n, k), #{l: median <= v_l <= v_j}
    lower_ok: np.ndarray     # (n, k), value <= median
    lower_count: np.ndarray  # (n, k), #{l: v_j <= v_l <= median}


def prepare_samples(samples: np.ndarray) -> PreparedSamples:
    """Sort, take the median and count the coverage of every candidate
    bound, for an (n, k) array holding one sample per row."""
    v = np.asarray(samples, dtype=np.float64)
    if v.ndim != 2 or v.shape[1] == 0:
        raise GranuleError("samples must be a non-empty 2-d array")
    if not np.isfinite(v).all():
        raise GranuleError("non-finite sample value")
    v = np.sort(v, axis=1)
    k = v.shape[1]
    mid = k // 2
    if k % 2 == 1:
        med = v[:, mid]
    else:
        med = (v[:, mid - 1] + v[:, mid]) / 2.0
    medc = med[:, None]

    # Pairwise comparisons within each row; k is small (one value per
    # classifier), so the (n, k, k) intermediates are cheap.
    le = (v[:, None, :] <= v[:, :, None]).sum(axis=2)  # #{l: v_l <= v_j}
    lt = (v[:, None, :] < v[:, :, None]).sum(axis=2)   # #{l: v_l <  v_j}
    below_med = (v < medc).sum(axis=1)[:, None]         # #{l: v_l <  med}
    le_med = (v <= medc).sum(axis=1)[:, None]           # #{l: v_l <= med}
    return PreparedSamples(
        values=v,
        dist=np.abs(medc - v),
        upper_ok=v >= medc,
        upper_count=(le - below_med).astype(np.float64),
        lower_ok=v <= medc,
        lower_count=(le_med - lt).astype(np.float64),
    )


def pick_bounds(prepared: PreparedSamples, alpha: float) -> np.ndarray:
    """(n, 2) array of [lower, upper] bounds of the prepared samples'
    granules at one alpha: on each side, the candidate maximizing coverage
    x exp(-alpha * dist), ties going to the one nearest the median."""
    alpha = _check_alpha(alpha)
    p = prepared
    n, k = p.values.shape
    rows = np.arange(n)
    decay = np.exp(-alpha * p.dist)

    upper_scores = np.where(p.upper_ok, p.upper_count * decay, -1.0)
    # Columns are ascending, so the first max is nearest the median.
    upper = p.values[rows, np.argmax(upper_scores, axis=1)]

    lower_scores = np.where(p.lower_ok, p.lower_count * decay, -1.0)
    # For the lower side the nearest-median candidate has the LARGEST column
    # index; scan reversed columns so argmax's first-max rule matches.
    rev_idx = np.argmax(lower_scores[:, ::-1], axis=1)
    lower = p.values[rows, k - 1 - rev_idx]

    return np.stack([lower, upper], axis=1)


def construct_granules_batch(samples: np.ndarray, alpha: float) -> np.ndarray:
    """Granules of many same-length samples at one alpha.

    samples: (n, k) array, one sample per row.  Returns an (n, 2) array of
    [lower, upper] bounds; each row maximizes evidence_score on both sides.
    """
    return pick_bounds(prepare_samples(samples), alpha)


def construct_granule(values: Sequence[float], alpha: float) -> Granule:
    """Build the optimal granule for a sample: each bound is the sample
    element maximizing evidence_score on its side of the median.  The
    one-row case of construct_granules_batch."""
    vals = _check_sample(values)
    alpha = _check_alpha(alpha)
    lower, upper = construct_granules_batch(np.asarray([vals]), alpha)[0]
    return Granule(lower=float(lower), upper=float(upper), alpha=alpha)
