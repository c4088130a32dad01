import numpy as np
import pytest

from granulex.datasets import (
    BUNDLED_DATASETS,
    MAX_GENERATED_VALUES,
    DatasetError,
    GeneratorSpec,
    bundled_path,
    generate,
    load_bundled,
    load_csv,
)
from granulex.evaluation import error_rate
from granulex.learners import LearnerSpec, default_roster, fit
from granulex.training import generate_meta_cv, make_fold_plan
from oracles import reference_two_class


class TestLoadCsv:
    def write(self, tmp_path, text, name="data.csv"):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_basic(self, tmp_path):
        path = self.write(tmp_path, "f1,f2,label\n1,2,a\n3,4,b\n5,6,a\n")
        data = load_csv(path)
        assert data.n_observations == 3
        assert data.n_features == 2
        assert data.catalog.labels == ("a", "b")
        np.testing.assert_array_equal(data.labels, [0, 1, 0])

    def test_label_column_first(self, tmp_path):
        path = self.write(tmp_path, "label,f1,f2\na,1,2\nb,3,4\na,5,6\n")
        data = load_csv(path, label_column=0)
        np.testing.assert_array_equal(data.features[0], [1.0, 2.0])
        np.testing.assert_array_equal(data.labels, [0, 1, 0])

    def test_negative_label_column_counts_from_the_end(self, tmp_path):
        path = self.write(tmp_path, "label,f1,f2\na,1,2\nb,3,4\na,5,6\n")
        data = load_csv(path, label_column=-3)
        np.testing.assert_array_equal(data.features[0], [1.0, 2.0])
        np.testing.assert_array_equal(data.labels, [0, 1, 0])

    @pytest.mark.parametrize("column", [3, 5, 7, -4])
    def test_label_column_out_of_range_rejected(self, tmp_path, column):
        """Each was once taken modulo the width: 5 and -4 picked column 2,
        7 picked column 1 and failed on its feature cells."""
        path = self.write(tmp_path, "f1,f2,label\n1,2,a\n3,4,b\n")
        with pytest.raises(DatasetError, match=rf"label column {column} is out "
                           rf"of range for 3 columns \(use -3 to 2\)"):
            load_csv(path, label_column=column)

    def test_label_column_by_name(self, tmp_path):
        path = self.write(tmp_path, "y,f1\nup,1\ndown,2\n")
        data = load_csv(path, label_column="y")
        assert data.catalog.labels == ("up", "down")

    def test_na_feature_rejected_with_row_numbers(self, tmp_path):
        path = self.write(tmp_path, "f1,label\n1,a\nNA,b\n2,a\nNA,b\n")
        with pytest.raises(DatasetError, match=r"rows \[3, 5\]"):
            load_csv(path)

    def test_many_bad_rows_named_up_to_ten_with_the_count(self, tmp_path):
        text = "f1,label\n" + "NA,a\n" * 150 + "1,a\n2,b\n"
        path = self.write(tmp_path, text)
        with pytest.raises(DatasetError) as info:
            load_csv(path)
        assert str(info.value) == (
            f"{path}: non-numeric or malformed feature cells in rows "
            "[2, 3, 4, 5, 6, 7, 8, 9, 10, 11] and 140 more, 150 in all"
        )

    def test_single_class_rejected(self, tmp_path):
        path = self.write(tmp_path, "f1,label\n1,a\n2,a\n")
        with pytest.raises(DatasetError, match="two classes"):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="cannot read"):
            load_csv(tmp_path / "nope.csv")

    def test_no_header_mode(self, tmp_path):
        path = self.write(tmp_path, "1,2,a\n3,4,b\n")
        data = load_csv(path, header=False)
        assert data.n_observations == 2


class TestBundled:
    def test_all_load(self):
        for name in BUNDLED_DATASETS:
            data = load_bundled(name)
            assert data.n_observations == 150
            assert data.catalog.size >= 2
            assert data.name == name

    def test_rings_has_three_classes(self):
        assert load_bundled("rings").catalog.size == 3

    def test_unknown_name(self):
        with pytest.raises(DatasetError, match="bundled"):
            load_bundled("nope")
        with pytest.raises(DatasetError, match="bundled"):
            bundled_path("nope.csv")

    def test_toy_config_present(self):
        assert bundled_path("toy_config.json").is_file()


class TestGenerators:
    def test_determinism(self):
        spec = GeneratorSpec("twonorm-like", n=50, d=3, seed=9)
        a = generate(spec)
        b = generate(spec)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_spec_validation(self):
        with pytest.raises(DatasetError):
            GeneratorSpec("nope")
        with pytest.raises(DatasetError):
            GeneratorSpec("two-gaussians", n=2)
        with pytest.raises(DatasetError):
            GeneratorSpec("concentric-rings", d=1)
        with pytest.raises(DatasetError,
                           match=r"generator seed must be an integer >= 0, got -1"):
            GeneratorSpec("twonorm-like", seed=-1)

    def test_size_bound(self):
        GeneratorSpec("twonorm-like", n=MAX_GENERATED_VALUES // 4, d=4)
        with pytest.raises(DatasetError, match=r"n \* d must be at most"):
            GeneratorSpec("twonorm-like", n=MAX_GENERATED_VALUES // 4 + 1, d=4)
        with pytest.raises(DatasetError, match=r"got 1000000000000 \* 2"):
            GeneratorSpec("twonorm-like", n=10**12, d=2)

    @pytest.mark.parametrize("kind", ["two-gaussians", "twonorm-like"])
    def test_two_class_generators_share_one_branch(self, kind):
        for n, d, noise, seed in [(4, 1, 1.0, 0), (7, 3, 0.5, 1),
                                  (50, 2, 2.5, 9), (101, 5, 1.0, 42),
                                  (33, 1, 0.1, 7)]:
            data = generate(GeneratorSpec(kind, n=n, d=d, noise=noise, seed=seed))
            x, y, labels = reference_two_class(
                GeneratorSpec(kind, n=n, d=d, noise=noise, seed=seed))
            assert data.features.tobytes() == x.tobytes()
            assert data.labels.tobytes() == y.tobytes()
            assert data.catalog.labels == labels
            assert data.name == f"{kind}(n={n},d={d},seed={seed})"

    def test_two_gaussians_separable_for_all_learners(self):
        data = generate(GeneratorSpec("two-gaussians", n=300, d=2, seed=1))
        for spec in default_roster():
            model = fit(spec, data, 0)
            err = float(np.mean(model.predict(data.features) != data.labels))
            assert err <= 0.05, spec.name

    def test_rings_has_three_classes(self):
        data = generate(GeneratorSpec("concentric-rings", n=90, d=2,
                                      noise=0.2, seed=2))
        assert data.catalog.size == 3
        assert len(np.unique(data.labels)) == 3

    def test_rings_defeat_linear_but_not_knn(self):
        # cross-validated single-learner comparison: LDA must do worse
        # than KNN5 on the ring geometry
        data = generate(GeneratorSpec("concentric-rings", n=150, d=2,
                                      noise=0.25, seed=4))
        plan = make_fold_plan(data.labels, 5, seed=0)
        meta = generate_meta_cv(
            data, [LearnerSpec("lda"), LearnerSpec("knn", {"k": 5})], plan, 0
        )
        preds = np.argmax(meta.scores, axis=2)  # (N, 2) per-learner argmax
        lda_err = error_rate(preds[:, 0], data.labels)
        knn_err = error_rate(preds[:, 1], data.labels)
        assert lda_err > knn_err
