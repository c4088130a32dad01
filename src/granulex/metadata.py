"""Soft-label meta-data: the (N, K, M) stack of posterior profiles, one
K x M matrix (K classifiers, M classes) per observation, with its
validation and CSV import/export.  A single profile is a (K, M) array; it
is checked as the one-row stack."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "ClassCatalog",
    "MetaMatrix",
    "MetadataError",
    "validate_scores",
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


def _row_faults(scores: np.ndarray):
    """Faults of every posterior row (classes on the last axis), for any
    leading shape: (non-finite, entry outside [0, 1], row sum, sum off 1).
    A non-finite row has no other fault."""
    tol = ROW_SUM_TOL
    finite = np.isfinite(scores).all(axis=-1)
    outside = finite & ((scores < -tol) | (scores > 1.0 + tol)).any(axis=-1)
    sums = np.where(finite[..., None], scores, 0.0).sum(axis=-1)
    off = finite & (np.abs(sums - 1.0) > tol)
    return ~finite, outside, sums, off


def validate_scores(scores: np.ndarray) -> list[str]:
    """Return a list of violation messages for a K x M posterior matrix.

    A row is flagged when an entry leaves [0, 1] by more than ROW_SUM_TOL or
    the row sum deviates from 1 by more than ROW_SUM_TOL.  An empty list
    means ok.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        return [f"expected a 2-d matrix, got shape {scores.shape}"]
    nonfinite, outside, sums, off = _row_faults(scores)
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


@dataclass(frozen=True)
class MetaMatrix:
    """N stacked profiles (observation order) over a shared catalog, each
    with K >= 2 classifier rows that validate_scores accepts."""

    scores: np.ndarray  # (N, K, M)
    catalog: ClassCatalog
    classifier_ids: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        scores = np.asarray(self.scores, dtype=np.float64)
        if scores.ndim != 3:
            raise MetadataError("meta matrix must be (N, K, M)")
        if scores.shape[1] < 2:
            raise MetadataError("profile needs at least two classifier rows")
        if scores.shape[2] != self.catalog.size:
            raise MetadataError("class dimension does not match catalog")
        ids = self.classifier_ids or tuple(
            f"c{i}" for i in range(scores.shape[1])
        )
        if len(ids) != scores.shape[1]:
            raise MetadataError("classifier_ids length mismatch")
        # The checks of validate_scores on every profile at once; it words
        # the first failure.
        nonfinite, outside, _, off = _row_faults(scores)
        bad = nonfinite | outside | off
        if bad.any():
            n = int(np.argmax(bad.any(axis=1)))
            raise MetadataError(
                f"observation {n}: " + "; ".join(validate_scores(scores[n]))
            )
        scores.setflags(write=False)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "classifier_ids", tuple(ids))

    @property
    def n_observations(self) -> int:
        return self.scores.shape[0]


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
    """Parse a file written by write_meta_csv. Returns (matrix, labels).

    A missing header, a row of the wrong length, a non-numeric posterior or
    a label outside the catalog raises MetadataError naming the line."""
    label_index = {label: i for i, label in enumerate(catalog.labels)}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise MetadataError(f"{path}, line 1: empty file, expected a header")
        ncols = len(header) - 2
        m = catalog.size
        if ncols % m != 0:
            raise MetadataError("column count is not a multiple of M")
        k = ncols // m
        rows = []
        labels = []

        def fault(message: str) -> MetadataError:
            return MetadataError(f"{path}, line {reader.line_num}: {message}")

        for rec in reader:
            if len(rec) != len(header):
                raise fault(f"{len(rec)} cells, the header has {len(header)}")
            try:
                rows.append([float(v) for v in rec[1:-1]])
            except ValueError:
                raise fault("non-numeric posterior cell") from None
            if rec[-1] not in label_index:
                raise fault(f"label {rec[-1]!r} is not in the catalog")
            labels.append(label_index[rec[-1]])
    scores = np.asarray(rows, dtype=np.float64).reshape(len(rows), k, m)
    return MetaMatrix(scores, catalog), np.asarray(labels, dtype=np.int64)
