import numpy as np
import pytest

from granulex.metadata import (
    ClassCatalog,
    MetaMatrix,
    MetadataError,
    read_meta_csv,
    validate_scores,
    write_meta_csv,
)
from oracles import reference_validate_scores


def test_catalog_rules():
    cat = ClassCatalog(("a", "b", "c"))
    assert cat.size == 3
    assert cat.index_of("b") == 1
    with pytest.raises(MetadataError):
        ClassCatalog(("only",))
    with pytest.raises(MetadataError):
        ClassCatalog(("x", "x"))


def test_crisp_rows_are_legal():
    crisp = np.array([[[1.0, 0.0], [1.0, 0.0]]])
    m = MetaMatrix(crisp, ClassCatalog(("a", "b")))
    assert m.scores[0, :, 0].tolist() == [1.0, 1.0]


def test_validate_ok():
    assert validate_scores(np.array([[0.5, 0.5], [0.2, 0.8]])) == []


def test_validate_matches_row_by_row_definition():
    rng = np.random.default_rng(8)
    flagged = 0
    for _ in range(3000):
        k, m = int(rng.integers(1, 13)), int(rng.integers(1, 20))
        scores = rng.random((k, m))
        scores /= scores.sum(axis=1, keepdims=True)
        for _ in range(int(rng.integers(0, 3))):
            scores[rng.integers(k), rng.integers(m)] = rng.choice(
                [np.nan, np.inf, -np.inf, -0.5, 1.5, 0.3, 1e-10]
            )
        if rng.random() < 0.3:
            scores += rng.choice([1e-10, 2e-9, -3e-9])
        expected = reference_validate_scores(scores)
        assert validate_scores(scores) == expected
        flagged += bool(expected)
    assert 500 < flagged < 2500


def test_validate_bad_sum():
    violations = validate_scores(np.array([[0.7, 0.4]]))
    assert len(violations) == 1 and "row 0" in violations[0]


def test_validate_sub_tolerance_drift():
    row = np.array([[1.0000000001, -0.0000000001]])
    assert validate_scores(row) == []
    m = MetaMatrix(np.vstack([row, [[0.5, 0.5]]])[None], ClassCatalog(("a", "b")))
    assert np.array_equal(m.scores[0, 0], row[0])


def test_profile_rejects_violations():
    cat = ClassCatalog(("a", "b"))
    with pytest.raises(MetadataError):
        MetaMatrix(np.array([[[0.7, 0.4], [0.5, 0.5]]]), cat)
    with pytest.raises(MetadataError, match="at least two classifier rows"):
        MetaMatrix(np.array([[[1.0, 0.0]]]), cat)  # K must be >= 2


def test_read_meta_csv_rejects_one_classifier(tmp_path):
    path = tmp_path / "meta.csv"
    path.write_text("obs_id,k1_y1,k1_y2,label\n0,0.5,0.5,a\n1,0.2,0.8,b\n")
    with pytest.raises(MetadataError, match="at least two classifier rows"):
        read_meta_csv(path, ClassCatalog(("a", "b")))


def test_meta_matrix_shape_checks():
    cat = ClassCatalog(("a", "b"))
    with pytest.raises(MetadataError):
        MetaMatrix(np.zeros((2, 3)), cat)
    with pytest.raises(MetadataError):
        MetaMatrix(np.zeros((2, 3, 5)), cat)


@pytest.mark.parametrize("row, message", [
    ([np.nan, 0.5], "non-finite"),
    ([-0.25, 1.25], "outside"),
    ([0.7, 0.4], "sum"),
])
def test_meta_matrix_rejects_invalid_posteriors(row, message):
    scores = np.full((4, 3, 2), 0.5)
    scores[2, 1] = row
    scores[3, 0] = [2.0, 2.0]  # a later bad observation is not the one named
    with pytest.raises(MetadataError, match=f"observation 2: row 1: .*{message}"):
        MetaMatrix(scores, ClassCatalog(("a", "b")))


def test_meta_matrix_accepts_sub_tolerance_drift():
    scores = np.full((2, 2, 2), 0.5)
    scores[1, 0] = [1.0000000001, -0.0000000001]
    assert MetaMatrix(scores, ClassCatalog(("a", "b"))).n_observations == 2


def test_read_meta_csv_rejects_invalid_row(tmp_path):
    """A non-finite cell is the row reader's fault, named by its line; a
    finite posterior outside [0, 1] is MetaMatrix's, named by its
    observation."""
    path = tmp_path / "meta.csv"
    path.write_text(
        "obs_id,k1_y1,k1_y2,k2_y1,k2_y2,label\n"
        "0,0.5,0.5,0.5,0.5,a\n"
        "1,nan,-3,5,0.2,b\n"
    )
    with pytest.raises(MetadataError, match=r"posterior cells in rows \[3\]"):
        read_meta_csv(path, ClassCatalog(("a", "b")))
    path.write_text(path.read_text().replace("nan", "0.5"))
    with pytest.raises(MetadataError,
                       match="observation 1: row 0: entry outside"):
        read_meta_csv(path, ClassCatalog(("a", "b")))


META_HEADER = "obs_id,k1_y1,k1_y2,k2_y1,k2_y2,label\n"
META_ROW = "0,0.5,0.5,0.5,0.5,a\n"


@pytest.mark.parametrize("text, message", [
    ("", "meta.csv is empty"),
    (META_HEADER + "0,0.5,0.5,0.5,a\n",
     r"meta.csv: non-numeric or malformed posterior cells in rows \[2\]"),
    (META_HEADER + "\n" + "0,0.5,0.5,0.5,a\n", r"rows \[3\]"),  # blank lines count
    (META_HEADER + META_ROW + "1,0.5,0.5,0.5,0.5,c\n",
     r"meta.csv: labels not in the catalog in rows \[3\]"),
    (META_HEADER + "0,0.5,half,0.5,0.5,a\n", r"posterior cells in rows \[2\]"),
    ("obs_id,k1_y1,k1_y2,k2_y1,label\n0,0.5,0.5,0.5,a\n",
     "meta.csv, line 1: 3 posterior columns, not a multiple of the 2 classes"),
    ("obs_id,k1_y1,k1_y2,label\n0,0.5,0.5,a\n",
     "meta.csv, line 1: 2 posterior columns; a profile needs at least two "
     "classifier rows"),
    ("x\n0\n", "meta.csv, line 1: 0 posterior columns; a profile needs at "
     "least two classifier rows"),
])
def test_read_meta_csv_names_the_bad_line(tmp_path, text, message):
    path = tmp_path / "meta.csv"
    path.write_text(text)
    with pytest.raises(MetadataError, match=message):
        read_meta_csv(path, ClassCatalog(("a", "b")))


def test_read_meta_csv_rejects_a_header_without_rows(tmp_path):
    """A 0-row meta matrix would give select_alpha a curve of NaN."""
    path = tmp_path / "meta.csv"
    path.write_text(META_HEADER)
    with pytest.raises(MetadataError, match="meta.csv has no data rows"):
        read_meta_csv(path, ClassCatalog(("a", "b")))


def test_csv_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(42)
    raw = rng.random((6, 4, 3))
    raw /= raw.sum(axis=2, keepdims=True)
    cat = ClassCatalog(("x", "y", "z"))
    matrix = MetaMatrix(raw, cat)
    labels = rng.integers(0, 3, size=6)
    path = tmp_path / "meta.csv"
    write_meta_csv(path, matrix, labels)

    header = path.read_text().splitlines()[0]
    assert header.startswith("obs_id,k1_y1,k1_y2,k1_y3,k2_y1")
    assert header.endswith("label")

    back, back_labels = read_meta_csv(path, cat)
    assert np.array_equal(back.scores, matrix.scores)
    assert np.array_equal(back_labels, labels)
