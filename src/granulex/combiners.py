"""Combining rules that turn a posterior profile into a class decision.

Three families:

  * six fixed rules (sum, product, max, min, median, majority vote),
  * Decision Template with the S1 fuzzy-Jaccard similarity,
  * the granular combiner: per-class interval memberships built by
    justifiable granularity, de-granulated to numerical class memberships.

All argmax decisions break ties toward the lowest class index.  Each
family has one batched implementation over an (n, K, M) profile stack and
no other: one (K, M) profile is the stack profile[None], so a profile
decides the same way alone and inside a batch.  granular_intervals is the
one view kept, and it too runs that kernel on profile[None].

The granular combiner has one entry per question: granular_bounds_batch
(one alpha) and granular_bounds_sweep (many) build the intervals,
memberships_from_bounds de-granulates them, granular_decide_batch decides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

# construct_granule is not called here but stays a name of this module:
# bench/tracer.py wraps it by this name.
from .granule import (
    Granule,
    _midpoints,
    construct_granule,
    construct_granules_batch,
    pick_bounds_blocks,
    prepare_samples,
)
from .metadata import MetaMatrix, MetadataError

__all__ = [
    "FIXED_RULES",
    "H_KINDS",
    "DEFAULT_H",
    "DecisionTemplateModel",
    "fixed_rule_scores_batch",
    "dt_fit",
    "dt_decide_batch",
    "s1_similarity",
    "s1_similarity_batch",
    "granular_intervals",
    "granular_bounds_batch",
    "memberships_from_bounds",
    "granular_bounds_sweep",
    "granular_decide_batch",
]

# Per-class scores of each fixed rule on a (n, K, M) profile stack.
_RULES = {
    "sum": lambda p: p.sum(axis=1),
    "product": lambda p: p.prod(axis=1),
    "max": lambda p: p.max(axis=1),
    "min": lambda p: p.min(axis=1),
    "median": lambda p: np.median(p, axis=1),
    "majority-vote": lambda p: (
        np.argmax(p, axis=2)[:, :, None] == np.arange(p.shape[2])
    ).sum(axis=1, dtype=np.float64),
}
FIXED_RULES = tuple(_RULES)
DEFAULT_H = "h3"
H2_LENGTH_FLOOR = 1e-12  # guard against zero-length intervals in h2

# h(length) of each de-granulation function, on arrays.  Every class
# membership, of one profile or of a stack, is computed through this table.
_H_TABLE = {
    "h1": np.ones_like,
    "h2": lambda length: 1.0 / np.maximum(length, H2_LENGTH_FLOOR),
    "h3": lambda length: np.exp(-length),
}
H_KINDS = tuple(_H_TABLE)


def fixed_rule_scores_batch(profiles: np.ndarray, rule: str) -> np.ndarray:
    """Per-class scores of one fixed rule for a (n, K, M) profile stack."""
    if rule not in _RULES:
        raise ValueError(f"unknown fixed rule {rule!r}")
    return _RULES[rule](profiles)


@dataclass(frozen=True)
class DecisionTemplateModel:
    """One K x M template per class: the mean training profile of the class."""

    templates: np.ndarray  # (M, K, M)

    def __post_init__(self) -> None:
        t = np.array(self.templates, dtype=np.float64)
        t.setflags(write=False)
        object.__setattr__(self, "templates", t)


def dt_fit(meta: MetaMatrix, labels: np.ndarray) -> DecisionTemplateModel:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape[0] != meta.n_observations:
        raise MetadataError("labels length does not match meta matrix")
    m = meta.catalog.size
    templates = np.empty((m, meta.scores.shape[1], m))
    for c in range(m):
        mask = labels == c
        if not mask.any():
            raise MetadataError(
                f"no training profiles for class {meta.catalog.labels[c]!r}"
            )
        templates[c] = meta.scores[mask].mean(axis=0)
    return DecisionTemplateModel(templates)


def s1_similarity(profile: np.ndarray, template: np.ndarray) -> float:
    """Fuzzy Jaccard similarity between two equal-shape matrices: cardinality
    of the elementwise min over the elementwise max. An all-zero union means
    both matrices are all-zero: similarity 1.  The one-pair call of
    s1_similarity_batch."""
    profile = np.asarray(profile, dtype=np.float64)
    template = np.asarray(template, dtype=np.float64)
    if profile.shape != template.shape:
        raise MetadataError("template/profile shape mismatch")
    return float(s1_similarity_batch(profile[None], template[None])[0, 0])


def s1_similarity_batch(profiles: np.ndarray, templates: np.ndarray) -> np.ndarray:
    """s1_similarity of each of n (K, M) profiles to each of T (K, M)
    templates, as an (n, T) array."""
    p = profiles[:, None]   # (n, 1, K, M)
    t = templates[None]     # (1, T, K, M)
    inter = np.minimum(p, t).sum(axis=(2, 3))
    union = np.maximum(p, t).sum(axis=(2, 3))
    return np.where(union == 0.0, 1.0, inter / np.where(union == 0.0, 1.0, union))


def dt_decide_batch(model: DecisionTemplateModel, profiles: np.ndarray) -> np.ndarray:
    if profiles.shape[1:] != model.templates.shape[1:]:
        raise MetadataError("template/profile shape mismatch")
    return np.argmax(s1_similarity_batch(profiles, model.templates), axis=1)


def _columns(profiles: np.ndarray) -> np.ndarray:
    """The (n * M, K) class columns of a (n, K, M) profile stack, observation
    by observation."""
    n, k, m = profiles.shape
    return np.transpose(profiles, (0, 2, 1)).reshape(n * m, k)


def granular_bounds_batch(profiles: np.ndarray, alpha: float) -> np.ndarray:
    """(n, M, 2) [lower, upper] bounds of the class granules of a (n, K, M)
    profile stack: one granule per (observation, class) column."""
    n, k, m = profiles.shape
    return construct_granules_batch(_columns(profiles), alpha).reshape(n, m, 2)


def memberships_from_bounds(bounds: np.ndarray, h: str) -> np.ndarray:
    """De-granulate intervals given as [lower, upper] pairs on the last axis
    to numerical class memberships: midpoint x h(length).  Bounds more than
    the float range apart have length inf and get h's limit there: h1 the
    midpoint, h2 and h3 zero."""
    if h not in _H_TABLE:
        raise ValueError(f"unknown h function {h!r}")
    lower, upper = bounds[..., 0], bounds[..., 1]
    with np.errstate(over="ignore"):
        length = upper - lower
    return _midpoints(lower, upper) * _H_TABLE[h](length)


def granular_intervals(profile: np.ndarray, alpha: float) -> list[Granule]:
    """One granule per class of a (K, M) profile, built over that class's
    posterior column: the one-row case of granular_bounds_batch."""
    bounds = granular_bounds_batch(np.asarray(profile)[None], alpha)[0]
    return [Granule(float(lo), float(hi), float(alpha)) for lo, hi in bounds]


def granular_bounds_sweep(
    profiles: np.ndarray, alphas: Iterable[float]
) -> Iterator[np.ndarray]:
    """granular_bounds_batch(profiles, alpha) for each alpha in turn, as
    (A, n, M, 2) arrays over consecutive blocks of A alphas, from one
    preparation of the class columns: only the bound pick runs per block."""
    n, k, m = profiles.shape
    prepared = prepare_samples(_columns(profiles))
    for bounds in pick_bounds_blocks(prepared, alphas):
        yield bounds.reshape(-1, n, m, 2)


def granular_decide_batch(profiles: np.ndarray, alpha: float, h: str) -> np.ndarray:
    """Granular decisions for a (n, K, M) profile stack: the class of
    largest numerical membership."""
    bounds = granular_bounds_batch(profiles, alpha)
    return np.argmax(memberships_from_bounds(bounds, h), axis=1)
