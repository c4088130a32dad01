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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

# construct_granule is not called here but stays a name of this module:
# bench/tracer.py wraps it by this name.
from .granule import (
    Granule,
    construct_granule,
    construct_granules_batch,
    pick_bounds,
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
    "granular_ncm_batch",
    "granular_ncm_sweep",
    "granular_decide_batch",
]

FIXED_RULES = ("sum", "product", "max", "min", "median", "majority-vote")
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
    if rule == "sum":
        return profiles.sum(axis=1)
    if rule == "product":
        return profiles.prod(axis=1)
    if rule == "max":
        return profiles.max(axis=1)
    if rule == "min":
        return profiles.min(axis=1)
    if rule == "median":
        return np.median(profiles, axis=1)
    if rule == "majority-vote":
        n, k, m = profiles.shape
        votes = np.argmax(profiles, axis=2)  # per-classifier decision
        out = np.zeros((n, m))
        for j in range(m):
            out[:, j] = (votes == j).sum(axis=1)
        return out
    raise ValueError(f"unknown fixed rule {rule!r}")


@dataclass(frozen=True)
class DecisionTemplateModel:
    """One K x M template per class: the mean training profile of the class."""

    templates: np.ndarray  # (M, K, M)

    def __post_init__(self) -> None:
        t = np.asarray(self.templates, dtype=np.float64)
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
    both matrices are all-zero: similarity 1."""
    profile = np.asarray(profile, dtype=np.float64)
    template = np.asarray(template, dtype=np.float64)
    if profile.shape != template.shape:
        raise MetadataError("template/profile shape mismatch")
    inter = np.minimum(profile, template).sum()
    union = np.maximum(profile, template).sum()
    if union == 0.0:
        return 1.0
    return float(inter / union)


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
    to numerical class memberships: midpoint x h(length)."""
    if h not in _H_TABLE:
        raise ValueError(f"unknown h function {h!r}")
    lower, upper = bounds[..., 0], bounds[..., 1]
    return (lower + upper) / 2.0 * _H_TABLE[h](upper - lower)


def granular_intervals(profile: np.ndarray, alpha: float) -> list[Granule]:
    """One granule per class of a (K, M) profile, built over that class's
    posterior column: the one-row case of granular_bounds_batch."""
    bounds = granular_bounds_batch(np.asarray(profile)[None], alpha)[0]
    return [Granule(float(lo), float(hi), float(alpha)) for lo, hi in bounds]


def granular_ncm_batch(profiles: np.ndarray, alpha: float, h: str) -> np.ndarray:
    """Numerical class memberships for a (n, K, M) profile stack."""
    return memberships_from_bounds(granular_bounds_batch(profiles, alpha), h)


def granular_ncm_sweep(
    profiles: np.ndarray, alphas: Iterable[float], h: str
) -> Iterator[np.ndarray]:
    """granular_ncm_batch(profiles, alpha, h) for each alpha in turn, from
    one preparation of the class columns: only the bound pick runs per
    alpha."""
    n, k, m = profiles.shape
    prepared = prepare_samples(_columns(profiles))
    for alpha in alphas:
        yield memberships_from_bounds(pick_bounds(prepared, alpha).reshape(n, m, 2), h)


def granular_decide_batch(profiles: np.ndarray, alpha: float, h: str) -> np.ndarray:
    """Vectorized granular decisions for a (n, K, M) profile stack."""
    return np.argmax(granular_ncm_batch(profiles, alpha, h), axis=1)
