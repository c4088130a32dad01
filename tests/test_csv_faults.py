"""One table of CSV faults, run through every reader of the shared row
reader: `load_csv`, `load_features` and `read_meta_csv`, and the `train`,
`evaluate` and `predict` commands on top of them.  A malformed file fails
with one typed error naming the file and its bad lines (exit 1 and one
`error:` line from the CLI, never a traceback); a well-formed variant
loads."""

import re

import numpy as np
import pytest

from granulex.cli import main
from granulex.datasets import DatasetError, load_csv, load_features
from granulex.metadata import ClassCatalog, MetadataError, read_meta_csv

CATALOG = ClassCatalog(("a", "b"))
N_ROWS = 8  # on lines 2 to 9 of every base file


def _base(layout):
    """The header and rows of a well-formed file of each layout; column 1
    holds a number in all three, with several digits on each side of the
    point.  The data layout's labels are numbers too, so a row that a
    wrong label column leaves whole still parses."""
    labels = ["a", "b"] * (N_ROWS // 2)
    first = [f"{1000 * i + 12.625!r}" for i in range(N_ROWS)]
    second = [f"{-37.5 * i - 105.25!r}" for i in range(N_ROWS)]
    if layout == "data":
        return ["f0", "f1", "label"], [
            [x0, x1, str(i % 2)] for i, (x0, x1) in enumerate(zip(first, second))]
    if layout == "features":
        return ["f0", "f1"], [list(r) for r in zip(first, second)]
    return (["obs_id", "k1_y1", "k1_y2", "k2_y1", "k2_y2", "label"],
            [[str(i), "0.25", "0.75", "0.5", "0.5", lab]
             for i, lab in enumerate(labels)])


def _render(header, rows) -> bytes:
    """The file: one line per row, [] a blank line; a lone surrogate
    \\udcXX in a cell is written as the raw byte 0xXX."""
    lines = [header] + rows
    return ("\n".join(",".join(cells) for cells in lines) + "\n").encode(
        "utf-8", "surrogateescape")


def _long_field(header, rows):
    rows[1][1] = "x" * (128 * 1024 + 1)  # over the csv module's field limit


def _bad_byte(header, rows):
    rows[2][1] += "\udcff"


def _wide_header(header, rows):
    header[-1:-1] = ["x1", "x2"]


def _narrow_header(header, rows):
    del header[-2]


def _ragged_row(header, rows):
    rows[2].pop()


def _na_and_inf(header, rows):
    rows[1][1] = "NA"
    rows[3][1] = "inf"


def _blank_lines(header, rows):
    rows[4:4] = [[], []]
    rows.insert(0, [])


def _many_bad_rows(header, rows):
    rows.extend([list(r) for r in rows])
    for row in rows:
        row[1] = "NA"


def _one_feature(header, rows):
    for cells in [header] + rows:
        del cells[1]


ALL_ROWS = r"rows \[2, 3, 4, 5, 6, 7, 8, 9\]"

# (case, edit of the base file, label column of the data layout, the error
# message's pattern (one, or one per layout), None where the file loads).
CASES = [
    ("long-field", _long_field, -1, r"rows \[3\]"),
    ("0xff-byte", _bad_byte, -1, "line 4: not UTF-8 text"),
    ("wide-header-named-label", _wide_header, "label", ALL_ROWS),
    ("narrow-header", _narrow_header, -1,
     {"data": ALL_ROWS, "features": ALL_ROWS,
      "meta": "line 1: 3 posterior columns, not a multiple of the 2 classes"}),
    ("ragged-row", _ragged_row, -1, r"rows \[4\]"),
    ("na-and-inf", _na_and_inf, -1, r"rows \[3, 5\]"),
    ("blank-lines", _blank_lines, -1, None),
    ("many-bad-rows", _many_bad_rows, -1,
     r"rows \[2, 3, 4, 5, 6, 7, 8, 9, 10, 11\] and 6 more, 16 in all"),
    ("one-feature", _one_feature, -1, None),
]

READERS = {
    "load_csv": ("data", DatasetError,
                 lambda path, label: load_csv(path, label_column=label)),
    "load_features": ("features", DatasetError,
                      lambda path, label: load_features(path)),
    "read_meta_csv": ("meta", MetadataError,
                      lambda path, label: read_meta_csv(path, CATALOG)),
}


def _write(tmp_path, layout, edit=None):
    header, rows = _base(layout)
    if edit is not None:
        edit(header, rows)
    path = tmp_path / f"{layout}.csv"
    path.write_bytes(_render(header, rows))
    return path


def _expected(expect, layout):
    return expect[layout] if isinstance(expect, dict) else expect


# Every case through every reader, but a one-feature meta CSV: a meta CSV
# holds at least two classifiers' columns.
READER_CASES = [(reader, *case) for case in CASES for reader in READERS
                if (case[0], reader) != ("one-feature", "read_meta_csv")]


@pytest.mark.parametrize("reader, case, edit, label, expect", READER_CASES,
                         ids=[f"{c[1]}-{c[0]}" for c in READER_CASES])
def test_reader_faults(tmp_path, reader, case, edit, label, expect):
    layout, error, read = READERS[reader]
    path = _write(tmp_path, layout, edit)
    if expect is not None:
        with pytest.raises(error, match=_expected(expect, layout)) as info:
            read(path, label)
        assert str(path) in str(info.value)
        return
    got = read(path, label)
    if case == "blank-lines":
        (tmp_path / "base").mkdir()
        want = read(_write(tmp_path / "base", layout), label)
        if layout == "meta":
            assert np.array_equal(got[0].scores, want[0].scores)
            assert np.array_equal(got[1], want[1])
        else:
            x_got, x_want = ((got.features, want.features) if layout == "data"
                             else (got, want))
            assert np.array_equal(x_got, x_want)
    else:  # one-feature: each cell's float, not a float per digit
        _, rows = _base(layout)
        x = got.features if layout == "data" else got
        assert x.shape == (N_ROWS, 1)
        assert x[:, 0].tolist() == [float(r[0]) for r in rows]


@pytest.fixture(scope="module")
def model(tmp_path_factory):
    """A model on the base data file's two features."""
    tmp = tmp_path_factory.mktemp("model")
    path = tmp / "model.json"
    assert main(["train", "--data", str(_write(tmp, "data")), "--alpha", "1",
                 "--learners", "nearest-mean,lda", "--output", str(path)]) == 0
    return path


COMMANDS = {
    "train": ("data", lambda data, out, model: [
        "train", "--data", data, "--alpha", "1",
        "--learners", "nearest-mean,lda", "--output", out]),
    "evaluate": ("data", lambda data, out, model: [
        "evaluate", "--data", data, "--output", out]),
    "predict": ("features", lambda data, out, model: [
        "predict", "--model", str(model), "--data", data, "--output", out]),
}


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("case, edit, label, expect",
                         [c for c in CASES if c[3] is not None],
                         ids=[c[0] for c in CASES if c[3] is not None])
def test_cli_faults_exit_1(tmp_path, capsys, model, command, case, edit,
                           label, expect):
    layout, argv = COMMANDS[command]
    path = _write(tmp_path, layout, edit)
    args = argv(str(path), str(tmp_path / "out"), model)
    if label != -1 and command != "predict":
        args += ["--label-column", label]
    capsys.readouterr()
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("error:") == 1
    last = err.rstrip("\n").splitlines()[-1]
    assert last.startswith("error:") and str(path) in last
    assert re.search(_expected(expect, layout), last)


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_label_only_csv_exits_1(tmp_path, capsys, command):
    """A CSV of labels alone has no feature to fit; the default roster once
    divided by its zero features."""
    path = tmp_path / "labels.csv"
    path.write_text("label\n" + "a\nb\n" * 20)
    with pytest.raises(DatasetError, match="labels.csv: one column, the label"):
        load_csv(path)
    assert main([command, "--data", str(path),
                 "--output", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: one column") and "Traceback" not in err


def test_missing_label_column_names_the_file(tmp_path, capsys):
    path = _write(tmp_path, "data")
    with pytest.raises(DatasetError, match="label column 'y' not found") as info:
        load_csv(path, label_column="y")
    assert str(info.value).startswith(f"{path}: ")
    assert main(["train", "--data", str(path), "--label-column", "y",
                 "--output", str(tmp_path / "model.json")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}: label column 'y' not found\n"


@pytest.mark.parametrize("header, expect", [
    ("obs_id,k1_y1,k1_y2,k2_y1,label",
     "3 posterior columns, not a multiple of the 2 classes"),
    ("obs_id,k1_y1,k1_y2,label",
     "2 posterior columns; a profile needs at least two classifier rows"),
])
def test_meta_header_fault_names_the_header_line(tmp_path, header, expect):
    """Blank lines before the header are skipped, and the header-shape
    faults name the line the header is on."""
    path = tmp_path / "meta.csv"
    row = ",".join(["0.5"] * header.count(",") + ["a"])
    path.write_text(f"\n{header}\n{row}\n")
    with pytest.raises(MetadataError, match=f"meta.csv, line 2: {expect}"):
        read_meta_csv(path, CATALOG)
