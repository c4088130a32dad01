import csv
import json

import pytest

from granulex.cli import MAX_GRID_POINTS, CliError, main, parse_grid
from granulex.datasets import GeneratorSpec, generate


def write_dataset_csv(path, n=60, seed=0, kind="twonorm-like", d=2, noise=1.0):
    data = generate(GeneratorSpec(kind, n=n, d=d, noise=noise, seed=seed))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(data.n_features)] + ["label"])
        for row, lab in zip(data.features, data.labels):
            writer.writerow([f"{v:.17g}" for v in row]
                            + [data.catalog.labels[lab]])
    return data


def read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestParseGrid:
    def test_default_style(self):
        grid = parse_grid("0:0.1:4")
        assert len(grid.values) == 41
        assert grid.values[0] == 0.0 and grid.values[-1] == 4.0

    def test_single_point(self):
        assert parse_grid("1:1:1").values == (1.0,)

    def test_malformed(self):
        with pytest.raises(CliError):
            parse_grid("0:0.1")
        with pytest.raises(CliError):
            parse_grid("0:-1:4")
        with pytest.raises(CliError):
            parse_grid("4:0.1:0")


    def test_point_cap(self):
        assert len(parse_grid(f"0:1:{MAX_GRID_POINTS - 1}").values) == MAX_GRID_POINTS
        with pytest.raises(CliError, match="more than"):
            parse_grid(f"0:1:{MAX_GRID_POINTS}")


BAD_GRIDS = [
    ("0:1e-7:4", f"more than {MAX_GRID_POINTS} points"),
    ("-1e308:1e-300:1e308", f"more than {MAX_GRID_POINTS} points"),
    ("0:1:inf", "must be finite"),
    ("0:nan:1", "must be finite"),
    ("-inf:1:0", "must be finite"),
]


class TestTrainPredict:
    def test_round_trip(self, tmp_path, capsys):
        data_csv = tmp_path / "train.csv"
        write_dataset_csv(data_csv, n=60, seed=1)
        model = tmp_path / "model.json"
        code = main(["train", "--data", str(data_csv), "--alpha", "1.0",
                     "--learners", "nearest-mean,knn3,gaussian-naive-bayes",
                     "--output", str(model)])
        assert code == 0
        assert "alpha=1" in capsys.readouterr().out

        query = tmp_path / "query.csv"
        with open(query, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["f0", "f1"])
            writer.writerow(["0.5", "0.5"])
            writer.writerow(["-0.5", "-0.5"])
        out = tmp_path / "pred.csv"
        code = main(["predict", "--model", str(model), "--data", str(query),
                     "--output", str(out), "--emit-intervals"])
        assert code == 0
        rows = read_csv_rows(out)
        header = rows[0]
        labels = tuple(json.loads(model.read_text())["catalog"])
        expected = ["obs_id"]
        for lab in labels:
            expected += [f"{lab}_lower", f"{lab}_upper"]
        expected += [f"{lab}_ncm" for lab in labels] + ["decision"]
        assert header == expected
        assert len(rows) == 3
        for i, row in enumerate(rows[1:]):
            assert row[0] == str(i)
            assert row[-1] in labels
            for j in range(len(labels)):
                lower, upper = float(row[1 + 2 * j]), float(row[2 + 2 * j])
                assert 0.0 <= lower <= upper <= 1.0

    def test_predict_without_intervals(self, tmp_path):
        data_csv = tmp_path / "train.csv"
        write_dataset_csv(data_csv, n=40, seed=2)
        model = tmp_path / "model.json"
        assert main(["train", "--data", str(data_csv), "--alpha", "0.5",
                     "--learners", "nearest-mean,lda",
                     "--output", str(model)]) == 0
        query = tmp_path / "query.csv"
        with open(query, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["f0", "f1"])
            writer.writerow(["1.0", "-1.0"])
        out = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(model), "--data",
                     str(query), "--output", str(out)]) == 0
        labels = tuple(json.loads(model.read_text())["catalog"])
        header = read_csv_rows(out)[0]
        assert header == ["obs_id"] + [f"{lab}_ncm" for lab in labels] + [
            "decision"
        ]

    def test_grid_training(self, tmp_path):
        data_csv = tmp_path / "train.csv"
        write_dataset_csv(data_csv, n=60, seed=3)
        model = tmp_path / "model.json"
        code = main(["train", "--data", str(data_csv), "--grid", "0:1:2",
                     "--folds", "3", "--learners", "nearest-mean,knn3",
                     "--output", str(model)])
        assert code == 0
        state = json.loads(model.read_text())
        assert state["alpha"] in (0.0, 1.0, 2.0)


class TestAlphaCurve:
    def test_41_rows_single_h(self, tmp_path):
        data_csv = tmp_path / "d.csv"
        write_dataset_csv(data_csv, n=60, seed=4)
        out = tmp_path / "curve.csv"
        code = main(["alpha-curve", "--data", str(data_csv),
                     "--grid", "0:0.1:4", "--h", "h3", "--folds", "5",
                     "--learners", "nearest-mean,knn3,gaussian-naive-bayes",
                     "--output", str(out)])
        assert code == 0
        rows = read_csv_rows(out)
        assert rows[0] == ["alpha", "error_h3"]
        assert len(rows) == 42  # header + 41 grid points
        alphas = [float(r[0]) for r in rows[1:]]
        assert alphas == pytest.approx([0.1 * i for i in range(41)])
        for r in rows[1:]:
            assert 0.0 <= float(r[1]) <= 1.0

    def test_all_h_columns(self, tmp_path):
        data_csv = tmp_path / "d.csv"
        write_dataset_csv(data_csv, n=40, seed=5)
        out = tmp_path / "curve.csv"
        code = main(["alpha-curve", "--data", str(data_csv), "--grid",
                     "0:1:2", "--folds", "4",
                     "--learners", "nearest-mean,lda", "--output", str(out)])
        assert code == 0
        rows = read_csv_rows(out)
        assert rows[0] == ["alpha", "error_h1", "error_h2", "error_h3"]
        assert len(rows) == 4


EVAL_CONFIG = {
    "datasets": [
        {"generator": {"kind": "twonorm-like", "n": 40, "d": 2, "seed": 1}}
    ],
    "learners": ["nearest-mean", "knn3", "gaussian-naive-bayes"],
    "methods": ["rule:sum", "rule:median", "granular-fixed"],
    "folds": 2,
    "repeats": 1,
    "seed": 3,
    "fixed_alpha": 1.0,
    "inner_folds": 3,
}


class TestEvaluate:
    def run_eval(self, tmp_path, cfg, outdir="report"):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / outdir
        code = main(["evaluate", "--config", str(cfg_path),
                     "--output", str(out)])
        return code, out

    def test_smoke(self, tmp_path):
        code, out = self.run_eval(tmp_path, EVAL_CONFIG)
        assert code == 0
        assert (out / "report.json").exists()
        assert (out / "per_run.csv").exists()
        assert (out / "report.txt").exists()
        report = json.loads((out / "report.json").read_text())
        assert "results" in report and "config" in report

    def test_config_echo_round_trip(self, tmp_path):
        code, out1 = self.run_eval(tmp_path, EVAL_CONFIG, "r1")
        assert code == 0
        # re-run straight from the emitted report: must be byte-identical
        code = main(["evaluate", "--config", str(out1 / "report.json"),
                     "--output", str(tmp_path / "r2")])
        assert code == 0
        assert (out1 / "report.json").read_bytes() == (
            tmp_path / "r2" / "report.json"
        ).read_bytes()

    def test_threads_env_does_not_change_report(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GRANULEX_THREADS", "1")
        _, out1 = self.run_eval(tmp_path, EVAL_CONFIG, "t1")
        monkeypatch.setenv("GRANULEX_THREADS", "8")
        _, out2 = self.run_eval(tmp_path, EVAL_CONFIG, "t8")
        assert (out1 / "report.json").read_bytes() == (
            out2 / "report.json"
        ).read_bytes()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = dict(EVAL_CONFIG)
        cfg["bogus_knob"] = 1
        code, _ = self.run_eval(tmp_path, cfg)
        assert code == 1
        assert "bogus_knob" in capsys.readouterr().err

    def test_flag_overrides_config(self, tmp_path):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(EVAL_CONFIG))
        out = tmp_path / "r"
        code = main(["evaluate", "--config", str(cfg_path), "--seed", "9",
                     "--output", str(out)])
        assert code == 0
        echo = json.loads((out / "report.json").read_text())["config"]
        assert echo["seed"] == 9

    def test_csv_dataset_entry(self, tmp_path):
        data_csv = tmp_path / "d.csv"
        write_dataset_csv(data_csv, n=40, seed=7)
        cfg = dict(EVAL_CONFIG)
        cfg["datasets"] = [{"path": str(data_csv)}]
        code, out = self.run_eval(tmp_path, cfg)
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["results"]) == 1


class TestErrorPaths:
    def test_invalid_flags_usage_exit_2(self, capsys):
        assert main(["train", "--nope"]) == 2
        assert main([]) == 2
        capsys.readouterr()

    def test_missing_data_file(self, tmp_path, capsys):
        code = main(["train", "--data", str(tmp_path / "nope.csv"),
                     "--alpha", "1.0", "--output", str(tmp_path / "m.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_model_without_classifiers(self, tmp_path, capsys):
        data_csv = tmp_path / "train.csv"
        write_dataset_csv(data_csv, n=40, seed=4)
        model = tmp_path / "m.json"
        assert main(["train", "--data", str(data_csv), "--alpha", "1.0",
                     "--learners", "nearest-mean,lda",
                     "--output", str(model)]) == 0
        payload = json.loads(model.read_text())
        del payload["classifiers"]
        model.write_text(json.dumps(payload))
        capsys.readouterr()
        code = main(["predict", "--model", str(model), "--data",
                     str(data_csv), "--output", str(tmp_path / "p.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "classifiers" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("damage, message", [
        (lambda m: m.__setitem__("alpha", None), "alpha"),
        (lambda m: m["classifiers"][1].__setitem__("catalog", ["x", "y"]),
         "catalog"),
        (lambda m: m["classifiers"][1]["state"].pop("means"), "means"),
        (lambda m: m.__setitem__("classifiers", []), "no classifiers"),
    ])
    def test_damaged_model_exits_1(self, tmp_path, capsys, damage, message):
        data_csv = tmp_path / "train.csv"
        write_dataset_csv(data_csv, n=40, seed=4)
        model = tmp_path / "m.json"
        assert main(["train", "--data", str(data_csv), "--alpha", "1.0",
                     "--learners", "nearest-mean,lda",
                     "--output", str(model)]) == 0
        payload = json.loads(model.read_text())
        damage(payload)
        model.write_text(json.dumps(payload))
        capsys.readouterr()
        code = main(["predict", "--model", str(model), "--data",
                     str(data_csv), "--output", str(tmp_path / "p.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["train", "alpha-curve"])
    def test_zero_folds_exits_1(self, tmp_path, capsys, command):
        data_csv = tmp_path / "train.csv"
        write_dataset_csv(data_csv, n=40, seed=4)  # 20 rows per class
        code = main([command, "--data", str(data_csv), "--folds", "0",
                     "--grid", "0:1:2", "--learners", "nearest-mean,lda",
                     "--output", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "at least 2 folds" in err

    @pytest.mark.parametrize("command", ["train", "alpha-curve"])
    @pytest.mark.parametrize("grid, message", BAD_GRIDS)
    def test_bad_grid_flag_exits_1(self, tmp_path, capsys, command, grid, message):
        data_csv = tmp_path / "train.csv"
        write_dataset_csv(data_csv, n=40, seed=4)
        code = main([command, "--data", str(data_csv), f"--grid={grid}",
                     "--learners", "nearest-mean,lda",
                     "--output", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and message in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["train", "alpha-curve", "evaluate"])
    def test_negative_grid_value_reaches_the_grid_check(
        self, tmp_path, capsys, command
    ):
        data_csv = tmp_path / "train.csv"
        write_dataset_csv(data_csv, n=40, seed=4)
        code = main([command, "--data", str(data_csv), "--grid", "-0.5:0.5:1",
                     "--learners", "nearest-mean,lda",
                     "--output", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: alpha grid values must be finite and >= 0" in err

    @pytest.mark.parametrize("grid, message", BAD_GRIDS)
    def test_bad_config_grid_exits_1(self, tmp_path, capsys, grid, message):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(dict(EVAL_CONFIG, alpha_grid=grid)))
        code = main(["evaluate", "--config", str(cfg_path),
                     "--output", str(tmp_path / "r")])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and message in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["train", "alpha-curve"])
    def test_fewer_rows_than_folds_exits_1(self, tmp_path, capsys, command):
        data_csv = tmp_path / "train.csv"
        write_dataset_csv(data_csv, n=40, seed=4)  # 20 rows per class
        code = main([command, "--data", str(data_csv), "--folds", "25",
                     "--grid", "0:1:2", "--learners", "nearest-mean,lda",
                     "--output", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "fewer observations than folds" in err

    @pytest.mark.parametrize("rows, bad", [
        ([["1", "2"], ["3"]], "rows [3]"),
        ([["1", "2"], ["3", "4", "5"], ["6", "7"]], "rows [3]"),
        ([["1", "x"], ["3", "4"]], "rows [2]"),
        ([["1", "2"], ["nan", "4"], ["5", "inf"]], "rows [3, 4]"),
        ([["1", "2"], [], [], ["3"]], "rows [5]"),  # blank lines count
    ])
    def test_bad_query_row_named(self, tmp_path, capsys, rows, bad):
        data_csv = tmp_path / "train.csv"
        write_dataset_csv(data_csv, n=40, seed=4)
        model = tmp_path / "m.json"
        assert main(["train", "--data", str(data_csv), "--alpha", "1.0",
                     "--learners", "nearest-mean,lda",
                     "--output", str(model)]) == 0
        query = tmp_path / "query.csv"
        with open(query, "w", newline="") as fh:
            csv.writer(fh).writerows([["f0", "f1"]] + rows)
        capsys.readouterr()
        code = main(["predict", "--model", str(model), "--data", str(query),
                     "--output", str(tmp_path / "p.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and bad in err and "Traceback" not in err

    @pytest.mark.parametrize("config, message", [
        (5, "config must be a JSON object, got 5"),
        (dict(EVAL_CONFIG, datasets=5), "config key 'datasets' must be a non-empty"),
        (dict(EVAL_CONFIG, datasets=[]), "config key 'datasets' must be a non-empty"),
        (dict(EVAL_CONFIG, datasets=[5]), "dataset config must be a JSON object"),
        (dict(EVAL_CONFIG, datasets=[{"path": ["d.csv"]}]),
         "dataset config key 'path' must be a string"),
        (dict(EVAL_CONFIG, datasets=[{"generator": {"n": 40}}]),
         "generator needs a 'kind'"),
        (dict(EVAL_CONFIG, datasets=[
            {"generator": {"kind": "twonorm-like", "n": "x"}}]),
         "generator n must be an integer"),
        (dict(EVAL_CONFIG, learners=[5]), "'learners' must be a list of names"),
        (dict(EVAL_CONFIG, methods="rule:sum"), "'methods' must be a list of names"),
        (dict(EVAL_CONFIG, folds=None), "'folds' must be an integer"),
        (dict(EVAL_CONFIG, repeats=1.5), "'repeats' must be an integer"),
        (dict(EVAL_CONFIG, significance="0.05"), "'significance' must be a number"),
        (dict(EVAL_CONFIG, alpha_grid=5), "'alpha_grid' must be"),
        (dict(EVAL_CONFIG, alpha_grid=[0, "1"]), "'alpha_grid' must be"),
    ])
    def test_ill_typed_config_exits_1(self, tmp_path, capsys, config, message):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(config))
        code = main(["evaluate", "--config", str(cfg_path),
                     "--output", str(tmp_path / "r")])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and message in err

    def test_evaluate_without_datasets(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({"folds": 2}))
        code = main(["evaluate", "--config", str(cfg_path),
                     "--output", str(tmp_path / "r")])
        assert code == 1
        assert "no datasets" in capsys.readouterr().err
