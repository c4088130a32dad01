"""Interval information granules built from finite numeric samples.

A granule is a closed interval around the sample median chosen to maximize
the product of coverage (how many sample points fall inside) and specificity
(exp(-alpha * length), so shorter intervals score higher).  Both bounds are
always elements of the sample and are optimized independently of each other.

One kernel builds every granule, in two steps.  `prepare_samples` does the
work that does not depend on alpha: it sorts each sample, takes its median,
and lays out each side's candidate bounds as one contiguous (n, w) block,
w = k // 2 + 1, since no bound can lie on the far side of the median.  The
upper side holds the top w sorted values; the lower side holds the bottom
w, reversed, so that on both sides the first candidate is the one nearest
the median.  Each candidate's coverage count is read off the tie runs of
its sorted row.  The pick then scores a block of alphas at once, as
(alphas, side, n, w) arrays of count x exp(-alpha * dist), with at most
GRANULE_BLOCK_CELLS cells per side: `pick_bounds_blocks` walks any number
of alphas block by block, so an alpha search prepares its samples once.
`construct_granules_batch` is preparation and a one-alpha pick in a row,
and `construct_granule` its one-sample case.  Every median and interval
midpoint of the package is the one guarded mean `_midpoints`, finite
wherever the two ends are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "Granule",
    "GranuleError",
    "PreparedSamples",
    "prepare_samples",
    "pick_bounds_blocks",
    "construct_granules_batch",
    "construct_granule",
]

GRANULE_BLOCK_CELLS = 1 << 17  # alphas x samples x candidates per side, per pick block


class GranuleError(ValueError):
    """Raised for invalid samples or parameters."""


@dataclass(frozen=True)
class Granule:
    """Closed interval [lower, upper] with the alpha that generated it.
    The three fields are stored as Python floats, whatever number type
    they are given as, so `length` is plain float arithmetic."""

    lower: float
    upper: float
    alpha: float

    def __post_init__(self) -> None:
        for name in ("lower", "upper", "alpha"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.lower > self.upper:
            raise GranuleError(f"lower {self.lower} exceeds upper {self.upper}")

    @property
    def length(self) -> float:
        """upper - lower: inf for bounds more than the float range apart."""
        return self.upper - self.lower

    @property
    def midpoint(self) -> float:
        return float(_midpoints(self.lower, self.upper))


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha < 0.0:
        raise GranuleError(f"alpha must be finite and >= 0, got {alpha!r}")
    return alpha


def _checked_alphas(alphas: Iterable[float]) -> np.ndarray:
    """The alphas as a float64 array; raises GranuleError on the first one
    that is not finite and >= 0."""
    return np.array([_check_alpha(a) for a in alphas], dtype=np.float64)


@dataclass(frozen=True)
class PreparedSamples:
    """The alpha-independent part of granule construction for n samples of
    k values each.  Index 0 of the first axis is the lower side, index 1
    the upper side, and each side is one contiguous (n, w) block of
    candidate bounds, w = k // 2 + 1: the upper side holds the sorted
    columns [k - w, k), the lower side the columns [0, w) reversed, so on
    both sides candidate 0 is the one nearest the median.

    No bound lies outside its side's window: a sorted column outside it on
    the median's side is a tie of the window's first candidate, with the
    same value, count and distance.  A window cell on the wrong side of
    the median holds dist 0 and count -1, so its score
    count * exp(-alpha * dist) is -1 at every alpha, below every
    candidate's.  Only exp(-alpha * dist) depends on alpha, so one
    preparation serves any number of alphas."""

    values: np.ndarray  # (2, n, w), candidate bounds, nearest the median first
    dist: np.ndarray    # (2, n, w), |median - value|; 0 off-side
    count: np.ndarray   # (2, n, w), values between median and bound; -1 off-side


def _midpoints(a, b):
    """(a + b) / 2 elementwise, of arrays or floats, or a / 2 + b / 2 where
    the sum overflows: either way the result lies between a and b.  Every
    median and interval midpoint of the package is computed here."""
    with np.errstate(over="ignore"):
        total = a + b
    finite = np.isfinite(total)
    if finite.all():
        return total / 2.0
    return np.where(finite, total / 2.0, a / 2.0 + b / 2.0)


def prepare_samples(samples: np.ndarray) -> PreparedSamples:
    """Sort, take the median and count the coverage of every candidate
    bound, for an (n, k) array holding one sample per row."""
    v = np.asarray(samples, dtype=np.float64)
    if v.ndim != 2 or v.shape[1] == 0:
        raise GranuleError("samples must be a non-empty 2-d array")
    if not np.isfinite(v).all():
        raise GranuleError("non-finite sample value")
    v = np.sort(v, axis=1)
    n, k = v.shape
    mid = k // 2
    med = v[:, mid] if k % 2 == 1 else _midpoints(v[:, mid - 1], v[:, mid])
    medc = med[:, None]

    # Side 0 holds the lower candidates, side 1 the upper ones, each ordered
    # from the median outwards.  As v[mid - 1] <= med <= v[mid], a column
    # left out of a side's window but on that side ties its first candidate.
    w = mid + 1
    values = np.empty((2, n, w))
    values[0] = v[:, w - 1::-1]
    values[1] = v[:, k - w:]
    off_side = np.empty((2, n, w), dtype=bool)
    np.greater(values[0], medc, out=off_side[0])
    np.less(values[1], medc, out=off_side[1])

    # A candidate covers the k values less those strictly across the median
    # and those beyond it.  The values beyond it lie in the window past its
    # tie run's outer end: w - 1 - run_last of them.
    across = np.empty((2, n, k), dtype=bool)
    np.greater(v, medc, out=across[0])
    np.less(v, medc, out=across[1])
    run_end = np.ones((2, n, w), dtype=bool)
    np.not_equal(values[..., 1:], values[..., :-1], out=run_end[..., :-1])
    run_last = np.minimum.accumulate(  # from the outer end, so read reversed
        np.where(run_end, np.arange(w), w)[..., ::-1], axis=2
    )[..., ::-1]
    count = run_last + (k - w + 1) - np.add.reduce(across, axis=2, keepdims=True)
    with np.errstate(over="ignore"):  # a spread past the float range: inf
        dist = np.abs(medc - values)
    dist[off_side] = 0.0
    return PreparedSamples(
        values=values, dist=dist, count=np.where(off_side, -1.0, count)
    )


def _pick(prepared: PreparedSamples, alphas: np.ndarray) -> np.ndarray:
    """(A, n, 2) [lower, upper] bounds at each of A checked alphas: on each
    side, the first candidate maximizing count x exp(-alpha * dist)."""
    p = prepared
    _, n, w = p.values.shape
    # Past the float range -alpha * dist is -inf, and exp gives 0; at
    # alpha = 0 it is 0 whatever the dist, where -0 * inf would be NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        scores = np.multiply.outer(-alphas, p.dist)
    scores[alphas == 0.0] = 0.0
    np.exp(scores, out=scores)
    scores *= p.count
    best = scores.argmax(axis=3)
    best += np.arange(0, 2 * n * w, w).reshape(2, n)
    return np.take(p.values, best.transpose(0, 2, 1))


def pick_bounds_blocks(
    prepared: PreparedSamples, alphas: Iterable[float]
) -> Iterator[np.ndarray]:
    """Bounds at each alpha in turn, as (A, n, 2) arrays over consecutive
    blocks of A alphas, A = GRANULE_BLOCK_CELLS // (n * w): each block
    scores its alphas in one pass."""
    checked = _checked_alphas(alphas)
    _, n, w = prepared.values.shape
    size = max(1, GRANULE_BLOCK_CELLS // max(1, n * w))
    for start in range(0, len(checked), size):
        yield _pick(prepared, checked[start:start + size])


def construct_granules_batch(samples: np.ndarray, alpha: float) -> np.ndarray:
    """Granules of many same-length samples at one alpha.

    samples: (n, k) array, one sample per row.  Returns an (n, 2) array of
    [lower, upper] bounds.  On each side of its row's median, a bound is
    the sample element maximizing count x exp(-alpha * |median - bound|),
    count being the values between the median and the bound, both
    included; ties go to the candidate nearest the median.
    """
    return _pick(prepare_samples(samples), np.array([_check_alpha(alpha)]))[0]


def construct_granule(values: Sequence[float], alpha: float) -> Granule:
    """The granule of one sample: on each side of its median, the sample
    element maximizing count x exp(-alpha * |median - bound|).  The
    one-row view of construct_granules_batch."""
    lower, upper = construct_granules_batch(
        np.asarray([values], dtype=np.float64), alpha
    )[0]
    return Granule(lower=lower, upper=upper, alpha=alpha)
