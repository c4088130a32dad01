"""Soft-label meta-data: the (N, K, M) stack of posterior profiles, one
K x M matrix (K >= 2 classifiers, M classes) per observation, with its
validation and CSV import/export.  `MetaMatrix` checks every profile in
one vectorized pass.  A single profile is a (K, M) array; it is checked as
the one-row stack.

This lowest module also holds the package's one CSV row reader and number
parser (`_read_rows`, `_number_rows`), shared by `read_meta_csv`,
`datasets.load_csv` and `datasets.load_features`, each passing its own
error type, the one JSON loader (`_read_json`) of config and model
files, and the one typing of what it loads: a JSON integer (`_is_int`),
a finite JSON number (`_is_number`) and a JSON object's keys and values
(`_check_object`).  Every fault of a CSV row is found and named there.

The CSV rules.  Blank lines are skipped, but line numbers count them.
Every row must be as wide as the header, or as the first row without one.
A row of another width, a line the csv module cannot read (a field over
its 128 KiB limit) and a non-numeric or non-finite number cell are each
named by their line; past _NAMED_ROWS (10) such rows the message names the
first 10 lines and the count (`rows [2, 3, ..., 11] and 140 more, 150 in
all`).  A file that is not UTF-8 is named with the line of its first bad
byte.  A meta CSV words its faults the same way (`non-numeric or malformed
posterior cells in rows [3]`, `labels not in the catalog in rows [3]`),
and names a finite posterior outside [0, 1] by its observation, as
`MetaMatrix` words it.  A CSV with a header but no data row is refused:
scored on no rows, every alpha's meta-level error would be NaN.

The JSON rules.  A JSON integer is an int and never a bool, and a finite
JSON number an int or a float inside the float range, so `true`, `NaN` and
`Infinity` are neither.  Config objects, dataset entries, generator
objects and every object of a model file are checked by `_check_object`
and worded alike (`unknown config keys: [...]`, `generator lacks key(s)
kind`, `config key 'folds' must be an integer, got 1.5`).
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import reprlib
import sys
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Sequence

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
        scores = np.array(self.scores, dtype=np.float64)
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


def _class_labels(labels, n: int, m: int, error: type[Exception]) -> np.ndarray:
    """labels as an array of n integer classes in [0, m), or error.  An
    empty list, which numpy types as float, is no labels."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or (labels.size and (
            labels.dtype.kind not in "iu" or ((labels < 0) | (labels >= m)).any())):
        raise error(f"labels must be a list of integer classes in [0, {m})")
    if labels.shape[0] != n:
        raise error("labels length does not match meta matrix")
    return labels


def write_meta_csv(path, matrix: MetaMatrix, labels: Sequence[int]) -> None:
    """Write the flattened N x MK layout: one observation per row, columns
    grouped classifier-major (k1_y1 ... k1_yM ... kK_yM), 17 significant
    digits so values round-trip exactly.  Labels that are not n integer
    classes in [0, M) raise MetadataError before the file is opened."""
    n, k, m = matrix.scores.shape
    labels = _class_labels(labels, n, m, MetadataError)
    header = ["obs_id"]
    for ki in range(k):
        for mi in range(m):
            header.append(f"k{ki + 1}_y{mi + 1}")
    header.append("label")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(n):
            flat = matrix.scores[i].reshape(-1)
            row = [str(i)] + [f"{v:.17g}" for v in flat]
            row.append(matrix.catalog.labels[labels[i]])
            writer.writerow(row)


# Most bad line numbers a CSV error names; past these it states the count.
_NAMED_ROWS = 10


def _rows_fault(path, fault: str, bad: list[int]) -> str:
    """The message naming the lines of the bad rows, or past _NAMED_ROWS
    of them, the first _NAMED_ROWS and the count."""
    named = f"{bad}" if len(bad) <= _NAMED_ROWS else (
        f"{bad[:_NAMED_ROWS]} and {len(bad) - _NAMED_ROWS} more, "
        f"{len(bad)} in all")
    return f"{path}: {fault} in rows {named}"


def _utf8_fault(path) -> str:
    """The message naming the line of the first byte of the file at path
    that is not UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        return (f"{path}, line {line}: not UTF-8 text (byte "
                f"{data[exc.start]:#04x}: {exc.reason})")
    return f"{path}: not UTF-8 text"  # the file changed since it failed


def _csv_lines(path, error: type[Exception]):
    """Yield the (line number, cells) of every non-blank line of a CSV file
    as it reads it; cells is None where the csv module rejects the line (a
    field over its size limit, say).  An unreadable or non-UTF-8 file
    raises error."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            while True:  # the reader goes on past a line it rejects
                try:
                    for row in reader:
                        if row:
                            yield reader.line_num, row
                    return
                except csv.Error:
                    yield reader.line_num, None
    except OSError as exc:
        raise error(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError:
        raise error(_utf8_fault(path)) from None


def _read_rows(path, header: bool, error: type[Exception]):
    """The header (None without one), the line number of the first
    non-blank line, which holds the header if there is one, the width and
    an iterator over the data rows of a CSV file, each row with its line
    number in the file.  The width is the header's, or the first row's
    without a header; a row's cells are None where _csv_lines rejects the
    line or the row's width differs, and _number_rows names such lines.  A
    file with no data row or an unreadable first line raises error."""
    lines = _csv_lines(path, error)
    first = next(lines, None)
    if first is None:
        raise error(f"{path} is empty")
    lineno, columns = first
    if columns is None:
        raise error(f"{path}, line {lineno}: the csv module cannot read it")
    width = len(columns)
    if header and (first := next(lines, None)) is None:
        raise error(f"{path} has no data rows")
    return columns if header else None, lineno, width, (
        (n, row if row and len(row) == width else None)
        for n, row in itertools.chain([first], lines))


def _number_rows(path, rows, columns: Sequence[int], label: int | None,
                 error: type[Exception], what: str = "feature"):
    """The float64 table of the given columns (at least one) of _read_rows'
    rows, each cell read by float(), the rows' line numbers and their label
    cells in column label (none when label is None).  The rows that
    _read_rows rejected and those with a non-numeric or non-finite cell in
    these columns raise error, naming all their lines in file order."""
    columns = list(columns)
    lo, hi = columns[0], columns[-1] + 1
    # A slice where the columns are contiguous: itemgetter of one index
    # would return the bare cell, and float() would map over its digits.
    gather = (itemgetter(slice(lo, hi)) if columns == list(range(lo, hi))
              else itemgetter(*columns))
    blank = [math.nan] * len(columns)  # a rejected row reads as non-finite
    values: list[float] = []
    lines: list[int] = []
    labels: list[str] = []
    for lineno, cells in rows:
        lines.append(lineno)
        end = len(values)
        if cells is not None:
            try:
                values += map(float, gather(cells))
                if label is not None:
                    labels.append(cells[label])
                continue
            except ValueError:
                del values[end:]
        values += blank
    table = np.array(values, dtype=np.float64).reshape(len(lines), len(columns))
    bad = ~np.isfinite(table).all(axis=1)
    if bad.any():
        raise error(_rows_fault(path, f"non-numeric or malformed {what} cells",
                                [lines[i] for i in np.flatnonzero(bad)]))
    return table, lines, labels


def _read_json(path, what: str, error: type[Exception]):
    """The JSON value in the file at path.  Text that is not JSON or not
    UTF-8, or nests too deeply for the parser, raises error naming what
    the file is and its path."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise error(f"{what} {path} nests JSON too deeply") from None
        except json.JSONDecodeError as exc:
            raise error(f"{what} {path} is not valid JSON: {exc}") from None
        except UnicodeDecodeError:
            raise error(f"{what} {_utf8_fault(path)}") from None


def _is_int(value) -> bool:
    """A JSON integer: an int, never a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A finite JSON number: an int or a float, never a bool, inside the
    float range."""
    return ((_is_int(value) or isinstance(value, float))
            and abs(value) <= sys.float_info.max)


def _check_object(value, types: dict, what: str, error: type[Exception],
                  required: Iterable[str] = ()) -> None:
    """Raise error unless value is a JSON object whose keys all lie in
    types and include every key of required, and whose values pass their
    checks.  types maps a key to (what its value must be, check), or to
    None where the value's reader checks it."""
    if not isinstance(value, dict):
        raise error(f"{what} must be a JSON object, got {reprlib.repr(value)}")
    unknown = set(value) - set(types)
    if unknown:
        raise error(f"unknown {what} keys: {sorted(unknown)}")
    missing = [key for key in required if key not in value]
    if missing:
        raise error(f"{what} lacks key(s) {', '.join(missing)}")
    for key, item in value.items():
        if types[key] is not None and not types[key][1](item):
            raise error(f"{what} key {key!r} must be {types[key][0]}, "
                        f"got {reprlib.repr(item)}")


def read_meta_csv(path, catalog: ClassCatalog) -> tuple[MetaMatrix, np.ndarray]:
    """Parse a file written by write_meta_csv. Returns (matrix, labels).

    A missing header or one with fewer than two classifier rows raises
    MetadataError naming the header's line.  The rows get _read_rows' and
    _number_rows' checks, as a data CSV does, and then every label outside
    the catalog is named by its line in one MetadataError."""
    _, line, width, rows = _read_rows(path, True, MetadataError)
    ncols = width - 2
    m = catalog.size
    if ncols > 0 and ncols % m != 0:
        raise MetadataError(f"{path}, line {line}: {ncols} posterior columns, "
                            f"not a multiple of the {m} classes")
    if ncols < 2 * m:
        raise MetadataError(
            f"{path}, line {line}: {max(ncols, 0)} posterior columns; a profile "
            f"needs at least two classifier rows of {m} columns each"
        )
    scores, lines, cells = _number_rows(
        path, rows, range(1, ncols + 1), -1, MetadataError, "posterior")
    label_index = {label: i for i, label in enumerate(catalog.labels)}
    labels = [label_index.get(cell, -1) for cell in cells]
    if -1 in labels:
        raise MetadataError(_rows_fault(path, "labels not in the catalog", [
            n for n, lab in zip(lines, labels) if lab == -1]))
    return (MetaMatrix(scores.reshape(len(lines), ncols // m, m), catalog),
            np.asarray(labels, dtype=np.int64))
