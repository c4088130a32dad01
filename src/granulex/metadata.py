"""Soft-label meta-data containers: per-observation posterior profiles and
the stacked training meta-matrix, with CSV import/export."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "ClassCatalog",
    "MetaProfile",
    "MetaMatrix",
    "MetadataError",
    "validate_scores",
    "column_sample",
    "write_meta_csv",
    "read_meta_csv",
]

ROW_SUM_TOL = 1e-9


class MetadataError(ValueError):
    pass


@dataclass(frozen=True)
class ClassCatalog:
    """Ordered, immutable list of class names."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(str(x) for x in self.labels))
        if len(self.labels) < 2:
            raise MetadataError("catalog needs at least two classes")
        if len(set(self.labels)) != len(self.labels):
            raise MetadataError("duplicate class labels")

    @property
    def size(self) -> int:
        return len(self.labels)

    def index_of(self, label: str) -> int:
        return self.labels.index(label)


def _row_faults(scores: np.ndarray, tol: float):
    """Faults of every posterior row (classes on the last axis), for any
    leading shape: (non-finite, entry outside [0, 1], row sum, sum off 1).
    A non-finite row has no other fault."""
    finite = np.isfinite(scores).all(axis=-1)
    outside = finite & ((scores < -tol) | (scores > 1.0 + tol)).any(axis=-1)
    sums = np.where(finite[..., None], scores, 0.0).sum(axis=-1)
    off = finite & (np.abs(sums - 1.0) > tol)
    return ~finite, outside, sums, off


def validate_scores(scores: np.ndarray, tol: float = ROW_SUM_TOL) -> list[str]:
    """Return a list of violation messages for a K x M posterior matrix.

    A row is flagged when an entry leaves [0, 1] by more than tol or the row
    sum deviates from 1 by more than tol.  An empty list means ok.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        return [f"expected a 2-d matrix, got shape {scores.shape}"]
    nonfinite, outside, sums, off = _row_faults(scores, tol)
    violations: list[str] = []
    for i in np.flatnonzero(nonfinite | outside | off):
        if nonfinite[i]:
            violations.append(f"row {i}: non-finite entry")
            continue
        if outside[i]:
            violations.append(f"row {i}: entry outside [0, 1]")
        if off[i]:
            violations.append(f"row {i}: sum {sums[i]!r} deviates from 1")
    return violations


def _normalize_rows(scores: np.ndarray) -> np.ndarray:
    clipped = np.clip(scores, 0.0, 1.0)
    return clipped / clipped.sum(axis=1, keepdims=True)


class MetaProfile:
    """K x M matrix of per-classifier posterior rows for one observation."""

    __slots__ = ("scores", "classifier_ids")

    def __init__(
        self,
        scores: np.ndarray,
        classifier_ids: Sequence[str] | None = None,
        normalize: bool = False,
    ) -> None:
        scores = np.asarray(scores, dtype=np.float64)
        violations = validate_scores(scores)
        if violations:
            raise MetadataError("; ".join(violations))
        if normalize:
            scores = _normalize_rows(scores)
        if scores.shape[0] < 2:
            raise MetadataError("profile needs at least two classifier rows")
        scores.setflags(write=False)
        self.scores = scores
        if classifier_ids is None:
            classifier_ids = tuple(f"c{i}" for i in range(scores.shape[0]))
        self.classifier_ids = tuple(classifier_ids)
        if len(self.classifier_ids) != scores.shape[0]:
            raise MetadataError("classifier_ids length mismatch")

    @property
    def n_classifiers(self) -> int:
        return self.scores.shape[0]

    @property
    def n_classes(self) -> int:
        return self.scores.shape[1]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MetaProfile)
            and self.classifier_ids == other.classifier_ids
            and np.array_equal(self.scores, other.scores)
        )


def column_sample(profile: MetaProfile, class_index: int) -> list[float]:
    """The K posterior values for one class, in classifier order."""
    if not 0 <= class_index < profile.n_classes:
        raise MetadataError(f"class index {class_index} out of range")
    return [float(v) for v in profile.scores[:, class_index]]


@dataclass(frozen=True)
class MetaMatrix:
    """N stacked profiles (observation order) over a shared catalog."""

    scores: np.ndarray  # (N, K, M)
    catalog: ClassCatalog
    classifier_ids: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        scores = np.asarray(self.scores, dtype=np.float64)
        if scores.ndim != 3:
            raise MetadataError("meta matrix must be (N, K, M)")
        if scores.shape[2] != self.catalog.size:
            raise MetadataError("class dimension does not match catalog")
        ids = self.classifier_ids or tuple(
            f"c{i}" for i in range(scores.shape[1])
        )
        if len(ids) != scores.shape[1]:
            raise MetadataError("classifier_ids length mismatch")
        # The checks of validate_scores on every profile at once; it words
        # the first failure.
        nonfinite, outside, _, off = _row_faults(scores, ROW_SUM_TOL)
        bad = (nonfinite | outside | off).any(axis=1)
        if bad.any():
            n = int(np.argmax(bad))
            raise MetadataError(
                f"observation {n}: " + "; ".join(validate_scores(scores[n]))
            )
        scores.setflags(write=False)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "classifier_ids", tuple(ids))

    @property
    def n_observations(self) -> int:
        return self.scores.shape[0]

    def profile(self, n: int) -> MetaProfile:
        return MetaProfile(self.scores[n], self.classifier_ids)

    def profiles(self) -> Iterable[MetaProfile]:
        for n in range(self.n_observations):
            yield self.profile(n)


def write_meta_csv(path, matrix: MetaMatrix, labels: Sequence[int]) -> None:
    """Write the flattened N x MK layout: one observation per row, columns
    grouped classifier-major (k1_y1 ... k1_yM ... kK_yM), 17 significant
    digits so values round-trip exactly."""
    n, k, m = matrix.scores.shape
    if len(labels) != n:
        raise MetadataError("labels length does not match matrix")
    header = ["obs_id"]
    for ki in range(k):
        for mi in range(m):
            header.append(f"k{ki + 1}_y{mi + 1}")
    header.append("label")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(n):
            flat = matrix.scores[i].reshape(-1)
            row = [str(i)] + [f"{v:.17g}" for v in flat]
            row.append(matrix.catalog.labels[labels[i]])
            writer.writerow(row)


def read_meta_csv(path, catalog: ClassCatalog) -> tuple[MetaMatrix, np.ndarray]:
    """Parse a file written by write_meta_csv. Returns (matrix, labels)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        ncols = len(header) - 2
        m = catalog.size
        if ncols % m != 0:
            raise MetadataError("column count is not a multiple of M")
        k = ncols // m
        rows = []
        labels = []
        for rec in reader:
            rows.append([float(v) for v in rec[1:-1]])
            labels.append(catalog.index_of(rec[-1]))
    scores = np.asarray(rows, dtype=np.float64).reshape(len(rows), k, m)
    return MetaMatrix(scores, catalog), np.asarray(labels, dtype=np.int64)
