"""Dataset ingestion and synthetic generators for the experiment CLI."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from importlib import resources
from numbers import Integral, Real

import numpy as np

from .learners import Dataset
from .metadata import ClassCatalog

__all__ = [
    "BUNDLED_DATASETS",
    "DatasetError",
    "GeneratorSpec",
    "bundled_path",
    "generate",
    "load_bundled",
    "load_csv",
    "load_features",
]

GENERATOR_KINDS = ("two-gaussians", "twonorm-like", "concentric-rings")

BUNDLED_DATASETS = ("clusters", "twonorm", "rings")


class DatasetError(ValueError):
    pass


def bundled_path(filename: str):
    """Filesystem path of a file shipped in the package's data directory."""
    path = resources.files("granulex").joinpath("data", filename)
    if not path.is_file():
        raise DatasetError(f"no bundled file named {filename!r}")
    return path


def load_bundled(name: str) -> Dataset:
    """Load one of the bundled example datasets by short name."""
    if name not in BUNDLED_DATASETS:
        raise DatasetError(
            f"unknown bundled dataset {name!r}; choose from {BUNDLED_DATASETS}"
        )
    return load_csv(bundled_path(f"{name}.csv"), name=name)


def _read_rows(
    path, header: bool
) -> tuple[list[str] | None, list[tuple[int, list[str]]]]:
    """The header (None without one) and the non-blank data rows of a CSV,
    each with its 1-based line number in the file."""
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, row) for row in reader if row]
    if not rows:
        raise DatasetError(f"{path} is empty")
    columns = rows.pop(0)[1] if header else None
    if not rows:
        raise DatasetError(f"{path} has no data rows")
    return columns, rows


def _feature_rows(
    path, rows: list[tuple[int, list[str]]], label_idx: int | None = None
) -> list[list[float]]:
    """The float cells of every row but column label_idx.  Every row whose
    width differs from the first's, or with a non-numeric or non-finite
    feature cell, aborts with all such line numbers."""
    width = len(rows[0][1])
    features = []
    bad: list[int] = []
    for lineno, row in rows:
        try:
            feats = [float(cell) for i, cell in enumerate(row) if i != label_idx]
            ok = len(row) == width and all(map(math.isfinite, feats))
        except ValueError:
            ok = False
        if ok:
            features.append(feats)
        else:
            bad.append(lineno)
    if bad:
        raise DatasetError(
            f"{path}: non-numeric or malformed feature cells in rows {bad}"
        )
    return features


def load_csv(
    path,
    label_column: int | str = -1,
    header: bool = True,
    name: str = "",
) -> Dataset:
    """Read a numeric-feature CSV with one label column.

    Classes are cataloged in first-appearance order.  Any row with a
    non-numeric or missing feature cell aborts the load, reporting every
    offending line number of the file.
    """
    columns, rows = _read_rows(path, header)
    width = len(rows[0][1])
    if isinstance(label_column, str):
        if columns is None or label_column not in columns:
            raise DatasetError(f"label column {label_column!r} not found")
        label_idx = columns.index(label_column)
    else:
        label_idx = label_column % width

    features = _feature_rows(path, rows, label_idx)
    raw_labels = [row[label_idx] for _, row in rows]
    seen: dict[str, int] = {}
    for lab in raw_labels:
        if lab not in seen:
            seen[lab] = len(seen)
    if len(seen) < 2:
        raise DatasetError(f"{path}: needs at least two classes")
    catalog = ClassCatalog(tuple(seen))
    labels = np.asarray([seen[lab] for lab in raw_labels], dtype=np.int64)
    return Dataset(np.asarray(features), labels, catalog, name or str(path))


def load_features(path, header: bool = True) -> np.ndarray:
    """Read an all-numeric feature CSV, such as the query rows of `granulex
    predict`, with the row checks of `load_csv`."""
    _, rows = _read_rows(path, header)
    return np.asarray(_feature_rows(path, rows))


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    n: int = 200
    d: int = 2
    noise: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in GENERATOR_KINDS:
            raise DatasetError(f"unknown generator kind {self.kind!r}")
        for key, kind, expected in (("n", Integral, "an integer"),
                                    ("d", Integral, "an integer"),
                                    ("noise", Real, "a number"),
                                    ("seed", Integral, "an integer")):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise DatasetError(f"generator {key} must be {expected}, got {value!r}")
        if self.n < 4 or self.d < 1 or self.noise <= 0:
            raise DatasetError("generator needs n >= 4, d >= 1, noise > 0")
        if self.kind == "concentric-rings" and self.d < 2:
            raise DatasetError("concentric-rings needs d >= 2")


def generate(spec: GeneratorSpec) -> Dataset:
    """Synthesize a labeled dataset. Deterministic under spec.seed.

    two-gaussians:   two classes, means 4*noise apart along the first axis,
                     isotropic noise; near-separable.
    twonorm-like:    two classes, means at +/- 2/sqrt(d) on every axis,
                     isotropic noise; heavily overlapping.
    concentric-rings: three classes on rings of radius 1, 2, 3 in the first
                     two axes with radial noise; not linearly separable.
    """
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "two-gaussians":
        half = spec.n // 2
        sizes = [half, spec.n - half]
        offset = np.zeros(spec.d)
        offset[0] = 2.0 * spec.noise
        x = np.vstack([
            rng.normal(size=(sizes[0], spec.d)) * spec.noise + offset,
            rng.normal(size=(sizes[1], spec.d)) * spec.noise - offset,
        ])
        y = np.concatenate([np.zeros(sizes[0]), np.ones(sizes[1])])
        catalog = ClassCatalog(("pos", "neg"))
    elif spec.kind == "twonorm-like":
        half = spec.n // 2
        sizes = [half, spec.n - half]
        a = 2.0 / np.sqrt(spec.d)
        x = np.vstack([
            rng.normal(size=(sizes[0], spec.d)) * spec.noise + a,
            rng.normal(size=(sizes[1], spec.d)) * spec.noise - a,
        ])
        y = np.concatenate([np.zeros(sizes[0]), np.ones(sizes[1])])
        catalog = ClassCatalog(("norm1", "norm2"))
    else:  # concentric-rings
        third = spec.n // 3
        sizes = [third, third, spec.n - 2 * third]
        blocks = []
        for ring, size in enumerate(sizes):
            theta = rng.uniform(0.0, 2 * np.pi, size)
            radius = (ring + 1.0) + rng.normal(size=size) * spec.noise
            block = rng.normal(size=(size, spec.d)) * spec.noise * 0.1
            block[:, 0] = radius * np.cos(theta)
            block[:, 1] = radius * np.sin(theta)
            blocks.append(block)
        x = np.vstack(blocks)
        y = np.concatenate([
            np.full(size, ring) for ring, size in enumerate(sizes)
        ])
        catalog = ClassCatalog(("inner", "middle", "outer"))

    order = rng.permutation(spec.n)
    return Dataset(
        x[order], y[order].astype(np.int64), catalog,
        name=f"{spec.kind}(n={spec.n},d={spec.d},seed={spec.seed})",
    )
