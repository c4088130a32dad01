"""Combining rules that turn a posterior profile into a class decision.

Three families:

  * six fixed rules (sum, product, max, min, median, majority vote),
  * Decision Template with the S1 fuzzy-Jaccard similarity,
  * the granular combiner: per-class interval memberships built by
    justifiable granularity, de-granulated to numerical class memberships.

All argmax decisions break ties toward the lowest class index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .granule import Granule, construct_granule, construct_granules_batch
from .metadata import MetaMatrix, MetaProfile, MetadataError, column_sample

__all__ = [
    "FIXED_RULES",
    "H_KINDS",
    "DEFAULT_H",
    "ClassMembershipVector",
    "DecisionTemplateModel",
    "fixed_rule_classify",
    "fixed_rule_scores_batch",
    "dt_fit",
    "dt_classify",
    "s1_similarity",
    "granular_intervals",
    "ncm",
    "granular_classify",
    "granular_decide_batch",
]

FIXED_RULES = ("sum", "product", "max", "min", "median", "majority-vote")
H_KINDS = ("h1", "h2", "h3")
DEFAULT_H = "h3"
H2_LENGTH_FLOOR = 1e-12  # guard against zero-length intervals in h2


@dataclass(frozen=True)
class ClassMembershipVector:
    values: tuple[float, ...]
    rule: str

    @property
    def decision(self) -> int:
        return int(np.argmax(self.values))


def _decide(values: np.ndarray, rule: str) -> tuple[ClassMembershipVector, int]:
    vec = ClassMembershipVector(tuple(float(v) for v in values), rule)
    return vec, vec.decision


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


def fixed_rule_classify(
    profile: MetaProfile, rule: str
) -> tuple[ClassMembershipVector, int]:
    scores = fixed_rule_scores_batch(profile.scores[None], rule)[0]
    return _decide(scores, rule)


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


def dt_classify(
    model: DecisionTemplateModel, profile: MetaProfile
) -> tuple[ClassMembershipVector, int]:
    if model.templates.shape[1:] != profile.scores.shape:
        raise MetadataError("template/profile shape mismatch")
    sims = np.asarray(
        [s1_similarity(profile.scores, t) for t in model.templates]
    )
    return _decide(sims, "decision-template")


def dt_decide_batch(model: DecisionTemplateModel, profiles: np.ndarray) -> np.ndarray:
    t = model.templates[None]  # (1, M, K, M)
    p = profiles[:, None]      # (n, 1, K, M)
    inter = np.minimum(p, t).sum(axis=(2, 3))
    union = np.maximum(p, t).sum(axis=(2, 3))
    sims = np.where(union == 0.0, 1.0, inter / np.where(union == 0.0, 1.0, union))
    return np.argmax(sims, axis=1)


def granular_intervals(profile: MetaProfile, alpha: float) -> list[Granule]:
    """One granule per class, built over that class's posterior column."""
    return [
        construct_granule(column_sample(profile, j), alpha)
        for j in range(profile.n_classes)
    ]


def _h_value(kind: str, length: float) -> float:
    if kind == "h1":
        return 1.0
    if kind == "h2":
        return 1.0 / max(length, H2_LENGTH_FLOOR)
    if kind == "h3":
        return math.exp(-length)
    raise ValueError(f"unknown h function {kind!r}")


def ncm(interval: Granule, h: str) -> float:
    """De-granulate an interval to a numerical class membership:
    midpoint x h(length)."""
    return interval.midpoint * _h_value(h, interval.length)


def granular_classify(
    profile: MetaProfile, alpha: float, h: str = DEFAULT_H
) -> tuple[ClassMembershipVector, int]:
    grans = granular_intervals(profile, alpha)
    values = np.asarray([ncm(g, h) for g in grans])
    return _decide(values, f"granular(alpha={alpha:g},{h})")


def granular_ncm_batch(profiles: np.ndarray, alpha: float, h: str) -> np.ndarray:
    """Numerical class memberships for a (n, K, M) profile stack."""
    n, k, m = profiles.shape
    # One granule per (observation, class) column, all at once.
    cols = np.transpose(profiles, (0, 2, 1)).reshape(n * m, k)
    bounds = construct_granules_batch(cols, alpha)
    lower = bounds[:, 0].reshape(n, m)
    upper = bounds[:, 1].reshape(n, m)
    mid = (lower + upper) / 2.0
    length = upper - lower
    if h == "h1":
        weight = np.ones_like(length)
    elif h == "h2":
        weight = 1.0 / np.maximum(length, H2_LENGTH_FLOOR)
    elif h == "h3":
        weight = np.exp(-length)
    else:
        raise ValueError(f"unknown h function {h!r}")
    return mid * weight


def granular_decide_batch(profiles: np.ndarray, alpha: float, h: str) -> np.ndarray:
    """Vectorized granular decisions for a (n, K, M) profile stack."""
    return np.argmax(granular_ncm_batch(profiles, alpha, h), axis=1)
