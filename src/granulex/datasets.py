"""Dataset ingestion and synthetic generators for the experiment CLI.

`load_csv` and `load_features` read a file through the row reader and
number parser of `metadata`, which find and name every bad row; they add
only the label column and the class catalog."""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

import numpy as np

from .learners import Dataset
from .metadata import ClassCatalog, _is_int, _is_number, _number_rows, _read_rows

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

# Largest n * d a generator may draw (800 MB of float64), checked before allocating.
MAX_GENERATED_VALUES = 10**8


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


def load_csv(
    path,
    label_column: int | str = -1,
    header: bool = True,
    name: str = "",
) -> Dataset:
    """Read a numeric-feature CSV with one label column.

    Classes are cataloged in first-appearance order.  Any row that
    `metadata._read_rows` or `metadata._number_rows` rejects (a line the
    csv module cannot read, a width other than the header's, a non-numeric
    or non-finite feature cell) aborts the load, naming the first offending
    line numbers of the file and their count.
    """
    columns, _, width, rows = _read_rows(path, header, DatasetError)
    if width < 2:
        raise DatasetError(f"{path}: one column, the label; no feature column")
    if isinstance(label_column, str):
        if columns is None or label_column not in columns:
            raise DatasetError(f"{path}: label column {label_column!r} not found")
        label_idx = columns.index(label_column)
    elif -width <= label_column < width:
        label_idx = label_column % width
    else:
        raise DatasetError(
            f"{path}: label column {label_column} is out of range for "
            f"{width} columns (use -{width} to {width - 1})"
        )

    features, _, raw_labels = _number_rows(
        path, rows, [i for i in range(width) if i != label_idx], label_idx,
        DatasetError)
    seen: dict[str, int] = {}
    for lab in raw_labels:
        if lab not in seen:
            seen[lab] = len(seen)
    if len(seen) < 2:
        raise DatasetError(f"{path}: needs at least two classes")
    catalog = ClassCatalog(tuple(seen))
    labels = np.asarray([seen[lab] for lab in raw_labels], dtype=np.int64)
    return Dataset(features, labels, catalog, name or str(path))


def load_features(path, header: bool = True) -> np.ndarray:
    """Read an all-numeric feature CSV, such as the query rows of `granulex
    predict`, with the row checks of `load_csv`."""
    _, _, width, rows = _read_rows(path, header, DatasetError)
    return _number_rows(path, rows, range(width), None, DatasetError)[0]


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
        for key, ok, expected in (("n", _is_int, "an integer"),
                                  ("d", _is_int, "an integer"),
                                  ("noise", _is_number, "a finite number"),
                                  ("seed", _is_int, "an integer")):
            value = getattr(self, key)
            if not ok(value):
                raise DatasetError(f"generator {key} must be {expected}, got {value!r}")
        if self.n < 4 or self.d < 1 or self.noise <= 0:
            raise DatasetError("generator needs n >= 4, d >= 1, noise > 0")
        if self.n * self.d > MAX_GENERATED_VALUES:
            raise DatasetError(f"generator n * d must be at most "
                               f"{MAX_GENERATED_VALUES}, got {self.n} * {self.d}")
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
    if spec.kind in ("two-gaussians", "twonorm-like"):
        half = spec.n // 2
        sizes = [half, spec.n - half]
        if spec.kind == "two-gaussians":
            offset = np.zeros(spec.d)
            offset[0] = 2.0 * spec.noise
            catalog = ClassCatalog(("pos", "neg"))
        else:
            offset = np.full(spec.d, 2.0 / np.sqrt(spec.d))
            catalog = ClassCatalog(("norm1", "norm2"))
        x = np.vstack([
            rng.normal(size=(sizes[0], spec.d)) * spec.noise + offset,
            rng.normal(size=(sizes[1], spec.d)) * spec.noise - offset,
        ])
        y = np.concatenate([np.zeros(sizes[0]), np.ones(sizes[1])])
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
