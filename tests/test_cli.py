import contextlib
import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import granulex
from granulex import evaluation, training
from granulex.cli import (
    CONFIG_TYPES,
    GENERATOR_KEYS,
    MAX_GRID_POINTS,
    CliError,
    main,
    parse_grid,
)
from granulex.datasets import GeneratorSpec, bundled_path, generate, load_features
from granulex.learners import extended_roster, spec_from_name


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

    @pytest.mark.parametrize("grid", ["0:1:2", "BAD"])
    def test_alpha_with_grid_exits_1(self, tmp_path, capsys, grid):
        """--alpha fixes alpha, so a --grid beside it would search nothing:
        the pair exits 1 before the data is read."""
        model = tmp_path / "model.json"
        code = main(["train", "--data", str(tmp_path / "absent.csv"),
                     "--alpha", "1", "--grid", grid, "--output", str(model)])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: --alpha fixes alpha and --grid searches for it" in err
        assert not model.exists()

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


GENERATOR_ENTRY = {"generator": {"kind": "twonorm-like", "n": 60, "d": 2, "seed": 1}}


def test_every_dataclass_field_is_a_config_key():
    fields = {f.name for f in dataclasses.fields(evaluation.ProtocolConfig)}
    assert fields <= set(CONFIG_TYPES)
    assert {f.name for f in dataclasses.fields(GeneratorSpec)} <= GENERATOR_KEYS


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

    def test_report_is_byte_identical_across_runs(self, tmp_path):
        _, out1 = self.run_eval(tmp_path, EVAL_CONFIG, "t1")
        _, out2 = self.run_eval(tmp_path, EVAL_CONFIG, "t2")
        assert (out1 / "report.json").read_bytes() == (
            out2 / "report.json"
        ).read_bytes()

    def test_every_config_field_reaches_the_protocol(self, tmp_path, monkeypatch):
        """A config that sets every ProtocolConfig field to a value other
        than its default: evaluate runs that protocol, and report.json
        echoes each value."""
        cfg = {
            "datasets": [{"path": str(bundled_path("rings.csv"))}],
            "folds": 3, "repeats": 2, "seed": 4, "significance": 0.1,
            "methods": ["rule:sum", "granular-fixed", "granular-cv"],
            "learners": ["lda", "knn3", "knn5"],
            "alpha_grid": [0.0, 0.5, 1.5], "fixed_alpha": 0.7, "h": "h1",
            "inner_folds": 3,
        }
        seen = []
        run = evaluation.run_protocol
        monkeypatch.setattr(evaluation, "run_protocol",
                            lambda data, config: run(data, seen.append(config) or config))
        code, out = self.run_eval(tmp_path, cfg)
        assert code == 0
        (proto,) = seen
        echo = evaluation.config_echo(proto)
        default = evaluation.config_echo(evaluation.ProtocolConfig())
        assert set(echo) == set(default) == set(cfg) - {"datasets"}
        assert all(echo[key] != default[key] for key in echo)
        assert all(type(echo[key]) is type(default[key]) for key in echo)
        report = json.loads((out / "report.json").read_text())["config"]
        for key in echo:
            want = cfg[key]
            if key == "learners":
                want = [{"kind": s.kind, "params": s.params}
                        for s in map(spec_from_name, want)]
            assert json.loads(json.dumps(echo[key])) == want, key
            assert report[key] == cfg[key], key

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

    @pytest.mark.parametrize("extra, keys", [
        ({"name": "mine"}, "['name']"),
        ({"path": "/nonexistent.csv"}, "['path']"),
        ({"header": False}, "['header']"),
        ({"label_column": 0, "path": "d.csv"}, "['label_column', 'path']"),
    ])
    def test_generator_entry_with_csv_keys_exits_1_before_the_first_fit(
        self, tmp_path, capsys, monkeypatch, extra, keys
    ):
        fits = []
        monkeypatch.setattr(training, "fit_folds", lambda *a: fits.append(a))
        cfg = dict(EVAL_CONFIG, datasets=[dict(GENERATOR_ENTRY, **extra)])
        code, out = self.run_eval(tmp_path, cfg)
        assert code == 1
        assert (f"error: a generator dataset entry takes no {keys}"
                in capsys.readouterr().err)
        assert fits == []
        assert not out.exists()


class TestErrorPaths:
    def test_invalid_flags_usage_exit_2(self, capsys):
        assert main(["train", "--nope"]) == 2
        assert main([]) == 2
        capsys.readouterr()

    def test_predict_has_no_seed_flag(self, tmp_path, capsys):
        code = main(["predict", "--model", str(tmp_path / "m.json"),
                     "--data", str(tmp_path / "q.csv"), "--seed", "1"])
        assert code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    def test_one_learner_roster_exits_1_before_fitting(self, tmp_path, capsys):
        code = main(["evaluate", "--data", str(bundled_path("rings.csv")),
                     "--learners", "lda", "--folds", "3", "--repeats", "1",
                     "--output", str(tmp_path / "r")])
        assert code == 1
        assert "error: need at least two base learners" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_repeated_learner_exits_1_before_fitting(self, tmp_path, capsys,
                                                     monkeypatch):
        """learner:perceptron would read one of two perceptron columns."""
        fits = []
        monkeypatch.setattr(training, "fit_folds", lambda *a: fits.append(a))
        code = main(["evaluate", "--data", str(bundled_path("rings.csv")),
                     "--learners", "perceptron,perceptron,lda",
                     "--methods", "learner:perceptron", "--folds", "3",
                     "--repeats", "1", "--output", str(tmp_path / "r")])
        assert code == 1
        assert ("error: learner 'perceptron' appears twice in the roster"
                in capsys.readouterr().err)
        assert fits == []
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("command", ["train", "alpha-curve"])
    def test_repeated_learner_exits_1_in_train_and_alpha_curve(
        self, tmp_path, capsys, monkeypatch, command
    ):
        """Two LDA learners would make two equal, indistinguishable
        posterior columns."""
        fits = []
        monkeypatch.setattr(training, "fit_folds", lambda *a: fits.append(a))
        monkeypatch.setattr(training, "fit", lambda *a: fits.append(a))
        out = tmp_path / "out"
        code = main([command, "--data", str(bundled_path("rings.csv")),
                     "--learners", "lda,lda", "--output", str(out)])
        assert code == 1
        assert (capsys.readouterr().err
                == "error: learner 'lda' appears twice in the roster\n")
        assert fits == []
        assert not out.exists()

    def test_label_column_out_of_range_exits_1(self, tmp_path, capsys):
        code = main(["train", "--data", str(bundled_path("rings.csv")),
                     "--label-column", "5", "--alpha", "1.0",
                     "--output", str(tmp_path / "m.json")])
        assert code == 1
        assert ("label column 5 is out of range for 4 columns"
                in capsys.readouterr().err)
        assert not (tmp_path / "m.json").exists()

    def test_bad_fixed_alpha_exits_1_before_the_first_fit(
        self, tmp_path, capsys, monkeypatch
    ):
        fits = []
        monkeypatch.setattr(training, "fit_folds", lambda *a: fits.append(a))
        code = main(["evaluate", "--data", str(bundled_path("rings.csv")),
                     "--learners", "lda,knn5", "--folds", "3", "--repeats", "1",
                     "--alpha", "-1", "--output", str(tmp_path / "out")])
        assert code == 1
        assert ("error: fixed_alpha must be finite and >= 0"
                in capsys.readouterr().err)
        assert fits == []
        assert not (tmp_path / "out").exists()

    def test_bad_knn_entry_exits_1(self, tmp_path, capsys):
        code = main(["train", "--data", str(bundled_path("rings.csv")),
                     "--learners", "lda,knn2.7", "--alpha", "1.0",
                     "--output", str(tmp_path / "m.json")])
        assert code == 1
        assert "error: learner 'knn2.7'" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

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
        (lambda m: m.__setitem__("catalog", ["x"]), "catalog"),
        (lambda m: m["classifiers"][1]["state"].pop("means"), "means"),
        (lambda m: m.__setitem__("classifiers", []),
         "need at least two base learners"),
        (lambda m: m["classifiers"].__setitem__(1, m["classifiers"][0]),
         "learner 'nearest-mean' appears twice"),
        (lambda m: m["training_sets"].append({"x": "junk"}),
         "model training set 0 is named by no"),
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

    @pytest.mark.parametrize("j, params, message", [
        (0, {"k": 3}, "lda has no parameter 'k'"),
        (1, {"kk": 3}, "knn has no parameter 'kk'"),
        (1, {"k": 2.7}, "knn parameter 'k' must be an integer >= 1"),
        (2, {"rate": float("nan")},
         "logistic-linear parameter 'rate' must be a finite number > 0"),
    ], ids=["lda-k", "knn-kk", "knn-k-2.7", "logistic-rate-nan"])
    def test_model_with_bad_params_exits_1(self, tmp_path, capsys, j, params,
                                           message):
        data_csv = tmp_path / "train.csv"
        write_dataset_csv(data_csv, n=40, seed=4)
        model = tmp_path / "m.json"
        assert main(["train", "--data", str(data_csv), "--alpha", "1.0",
                     "--learners", "lda,knn3,logistic-linear",
                     "--output", str(model)]) == 0
        payload = json.loads(model.read_text())
        payload["classifiers"][j]["params"] = params
        model.write_text(json.dumps(payload))
        capsys.readouterr()
        code = main(["predict", "--model", str(model), "--data",
                     str(data_csv), "--output", str(tmp_path / "p.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: model classifier {j}: {message}" in err
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
        ([], "has no data rows"),
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
         "generator lacks key(s) kind"),
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
        # rejected before anything is allocated
        (dict(EVAL_CONFIG, datasets=[
            {"generator": {"kind": "twonorm-like", "n": 10**12}}]),
         "generator n * d must be at most"),
        # numpy's own message would name neither the key nor the entry
        (dict(EVAL_CONFIG, datasets=[
            {"generator": {"kind": "twonorm-like", "seed": -1}}]),
         "generator seed must be an integer >= 0, got -1"),
    ])
    def test_ill_typed_config_exits_1(self, tmp_path, capsys, config, message):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(config))
        code = main(["evaluate", "--config", str(cfg_path),
                     "--output", str(tmp_path / "r")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and message in err

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_deeply_nested_json_exits_1(self, tmp_path, capsys, command):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200000 + "]" * 200000)
        data_csv = tmp_path / "d.csv"
        write_dataset_csv(data_csv, n=40, seed=4)
        flag = "--model" if command == "predict" else "--config"
        code = main([command, flag, str(deep), "--data", str(data_csv),
                     "--output", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "nests JSON too deeply" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("content, message", [
        (b'{"datasets": [', " is not valid JSON: Expecting value: line 1 "
                            "column 15 (char 14)"),
        (b'\xff\xfe{\x00}\x00', ", line 1: not UTF-8 text"),
    ], ids=["truncated", "utf-16"])
    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_bad_json_names_the_file(self, tmp_path, capsys, command, content,
                                     message):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        data_csv = tmp_path / "d.csv"
        write_dataset_csv(data_csv, n=40, seed=4)
        flag = "--model" if command == "predict" else "--config"
        what = "model file" if command == "predict" else "config"
        code = main([command, flag, str(bad), "--data", str(data_csv),
                     "--output", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {what} {bad}{message}")
        assert "Traceback" not in err

    def test_evaluate_without_datasets(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({"folds": 2}))
        code = main(["evaluate", "--config", str(cfg_path),
                     "--output", str(tmp_path / "r")])
        assert code == 1
        assert "no datasets" in capsys.readouterr().err


class TestNameLists:
    @pytest.mark.parametrize("command, flag", [
        ("train", "--learners"), ("alpha-curve", "--learners"),
        ("evaluate", "--learners"), ("evaluate", "--methods"),
    ])
    @pytest.mark.parametrize("value", ["lda,,knn5", "lda,knn5,", ""])
    def test_empty_name_entry_exits_1(self, tmp_path, capsys, command, flag,
                                      value):
        code = main([command, "--data", str(bundled_path("rings.csv")),
                     flag, value, "--grid", "0:1:2",
                     "--output", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: {flag} {value!r} has an empty entry" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("methods, message", [
        ("rule:sum,rule:sum,granular-fixed", "method 'rule:sum' appears twice"),
        ("rule:sum,rule:sum", "method 'rule:sum' appears twice"),
        ([], "need at least one method"),
    ], ids=["dup-with-granular", "dup-only", "none"])
    def test_method_list_checked_before_the_first_fit(
        self, tmp_path, capsys, monkeypatch, methods, message
    ):
        fits = []
        monkeypatch.setattr(training, "fit_folds", lambda *a: fits.append(a))
        args = ["evaluate", "--data", str(bundled_path("rings.csv")),
                "--learners", "lda,knn5", "--folds", "3", "--repeats", "1",
                "--output", str(tmp_path / "out")]
        if isinstance(methods, str):
            args += ["--methods", methods]
        else:
            cfg_path = tmp_path / "exp.json"
            cfg_path.write_text(json.dumps({"methods": methods}))
            args += ["--config", str(cfg_path)]
        assert main(args) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert fits == []
        assert not (tmp_path / "out").exists()

    def test_fit_spy_sees_a_valid_method_list(self, tmp_path, monkeypatch):
        """The positive control of the test above: evaluate fits through
        training.fit_folds, one call per learner and repeat."""
        fits = []
        real = training.fit_folds

        def spy(*args):
            fits.append(args[0].name)
            return real(*args)

        monkeypatch.setattr(training, "fit_folds", spy)
        assert main(["evaluate", "--data", str(bundled_path("rings.csv")),
                     "--learners", "lda,knn5", "--folds", "3", "--repeats", "1",
                     "--methods", "rule:sum,granular-fixed",
                     "--output", str(tmp_path / "out")]) == 0
        assert fits == ["lda", "knn5"]


@pytest.fixture(scope="module")
def rings_model(tmp_path_factory):
    """A rings model of lda, knn5, logistic-linear, decision-stump and
    gaussian-naive-bayes (3 classes, 3 features) as JSON, and a query CSV
    of the rings features."""
    tmp = tmp_path_factory.mktemp("rings")
    assert main(["train", "--data", str(bundled_path("rings.csv")),
                 "--learners",
                 "lda,knn5,logistic-linear,decision-stump,gaussian-naive-bayes",
                 "--alpha", "1.0", "--output", str(tmp / "m.json")]) == 0
    rows = read_csv_rows(bundled_path("rings.csv"))
    with open(tmp / "q.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(row[:3] for row in rows)
    return (tmp / "m.json").read_text(), tmp / "q.csv"


def _set(obj, path, value):
    for key in path[:-1]:
        obj = obj[key]
    if value is _DROP:
        del obj[path[-1]]
    else:
        obj[path[-1]] = value


_DROP = object()
_LDA, _KNN, _LOGISTIC, _STUMP, _GNB = (("classifiers", j, "state")
                                       for j in range(5))
_ROWS = ("training_sets", 0)

# (path into the model file, new value, message after "error: model "); the
# classifiers are 0 lda, 1 knn5, 2 logistic-linear, 3 decision-stump and
# 4 gaussian-naive-bayes, and the knn5 names training set 0.  An array is a
# nested list of the type its layout declares: strings, a bool, an object
# (as the tagged arrays of format version 2) or a ragged list are faults.
BAD_STATES = {
    "dtype-bogus": ((*_LDA, "means"), "bogus",
                    "classifier 0 (lda): state 'means' must be a rectangular array "
                    "of float64 values"),
    "dtype-U5": ((*_LDA, "means"), [["bogus"] * 3] * 3,
                 "classifier 0 (lda): state 'means' must be a rectangular array of "
                 "float64 values"),
    "no-dtype": ((*_LDA, "means"), {"__nd__": [[0.0] * 3] * 3},
                 "classifier 0 (lda): state 'means' must be a rectangular array of "
                 "float64 values"),
    "present-bool": ((*_LDA, "present"), True,
                     "classifier 0 (lda): state 'present' must be a rectangular "
                     "array of int64 values"),
    "present-half": ((*_LDA, "present"), [0, 0.5, 2],
                     "classifier 0 (lda): state 'present' must be a rectangular "
                     "array of int64 values"),
    # numpy reads a bool among numbers as 0 or 1
    "present-true": ((*_LDA, "present", 1), True,
                     "classifier 0 (lda): state 'present' must be a rectangular "
                     "array of int64 values"),
    "means-true": ((*_LDA, "means", 1, 2), True,
                   "classifier 0 (lda): state 'means' must be a rectangular array "
                   "of float64 values"),
    "knn-x-false": ((*_ROWS, "x", 0, 0), False,
                    "classifier 1 (knn5): training set 0 'x' must be a rectangular "
                    "array of float64 values"),
    "means-shape": ((*_LDA, "means"), [[0.0] * 5] * 3,
                    "classifier 0 (lda): state 'means' must have shape (p, d) with "
                    "p = 3 and d = 3, got (3, 5)"),
    "means-nan": ((*_LDA, "means", 1, 2), float("nan"),
                  "classifier 0 (lda): state 'means' holds a non-finite value"),
    "means-ragged": ((*_LDA, "means", 1), [0.0],
                     "classifier 0 (lda): state 'means' must be a rectangular array "
                     "of float64 values"),
    "means-text": ((*_LDA, "means", 1, 0), "a",
                   "classifier 0 (lda): state 'means' must be a rectangular array "
                   "of float64 values"),
    "knn-x-1d": ((*_ROWS, "x"), [0.0, 1.0, 2.0],
                 "classifier 1 (knn5): training set 0 'x' must have shape (n, d) "
                 "with p = 3 and d = 3, got (3,)"),
    "knn-y-float": ((*_ROWS, "y", 0), 0.5,
                    "classifier 1 (knn5): training set 0 'y' must be a rectangular "
                    "array of int64 values"),
    "knn-y-range": ((*_ROWS, "y", 0), 3,
                    "classifier 1 (knn5): training set 0 'y' must hold class indices "
                    "below 3"),
    "knn-k": (("classifiers", 1, "params", "k"), 0,
              "classifier 1: knn parameter 'k' must be an integer >= 1, got 0"),
    # two classes present, while the training rows hold labels of three
    "knn-p": ((*_KNN, "present"), [0, 1],
              "classifier 1 (knn5): training set 0 'y' must hold class indices "
              "below 2"),
    **{f"knn-set-{name}": ((*_KNN, "training_set"), value,
                           f"classifier 1 (knn5): state 'training_set' must be an "
                           f"index below 1, got {value!r}")
       for name, value in [("negative", -1), ("true", True), ("float", 0.0),
                           ("past", 1), ("text", "0")]},
    "knn-set-missing": ((*_KNN, "training_set"), _DROP,
                        "classifier 1 (knn5): state lacks key(s) training_set"),
    "present-order": ((*_LOGISTIC, "present"), [1, 0, 2],
                      "classifier 2 (logistic-linear): state 'present' must be at "
                      "least two strictly increasing class indices below 3"),
    "present-range": ((*_LOGISTIC, "present"), [0, 1, 5],
                      "classifier 2 (logistic-linear): state 'present' must be at "
                      "least two strictly increasing class indices below 3"),
    "logistic-inf": ((*_LOGISTIC, "w", 0, 0), float("inf"),
                     "classifier 2 (logistic-linear): state 'w' holds a non-finite "
                     "value"),
    "tree-5": ((*_STUMP, "children"), 5,
               "classifier 3 (decision-stump): state 'children' must have shape "
               "(nodes, 2) with p = 3 and d = 3, got ()"),
    "no-threshold": ((*_STUMP, "threshold"), _DROP,
                     "classifier 3 (decision-stump): state lacks key(s) threshold"),
    "feature-9": ((*_STUMP, "feature", 0), 9,
                  "classifier 3 (decision-stump): state 'feature' must hold feature "
                  "indices in [-1, 3), -1 at a leaf"),
    "threshold-a": ((*_STUMP, "threshold", 0), "a",
                    "classifier 3 (decision-stump): state 'threshold' must be a "
                    "rectangular array of float64 values"),
    "threshold-inf": ((*_STUMP, "threshold", 0), float("inf"),
                      "classifier 3 (decision-stump): state 'threshold' holds a "
                      "non-finite value"),
    # predict_proba_batch would return -1 for it
    "negative-proportion": ((*_STUMP, "proportions", 0), [-1, 2, 0],
                            "classifier 3 (decision-stump): state 'proportions' must "
                            "hold values >= 0"),
    "short-leaf": ((*_STUMP, "proportions"), [[0.5, 0.5]] * 3,
                   "classifier 3 (decision-stump): state 'proportions' must have "
                   "shape (nodes, p) with p = 3 and d = 3, got (3, 2)"),
    # the root's left child is the root itself: a descent would never end
    "child-cycle": ((*_STUMP, "children", 0), [0, 2],
                    "classifier 3 (decision-stump): state 'children' must hold two "
                    "later nodes at a split and the node itself twice at a leaf"),
    "child-past": ((*_STUMP, "children", 0), [1, 3],
                   "classifier 3 (decision-stump): state 'children' must hold two "
                   "later nodes at a split and the node itself twice at a leaf"),
    "zero-variance": ((*_GNB, "var", 0, 0), 0.0,
                      "classifier 4 (gaussian-naive-bayes): state 'var' must hold "
                      "values > 0"),
    "inv-cov-skew": ((*_LDA, "inv_cov", 0, 1), 1234.5,
                     "classifier 0 (lda): state 'inv_cov' must be a symmetric "
                     "matrix"),
    "inv-cov-indefinite": ((*_LDA, "inv_cov", 0, 0), -1.0,
                           "classifier 0 (lda): state 'inv_cov' must be positive "
                           "definite"),
}


def test_undamaged_rings_model_predicts(tmp_path, rings_model):
    text, query = rings_model
    (tmp_path / "m.json").write_text(text)
    assert main(["predict", "--model", str(tmp_path / "m.json"),
                 "--data", str(query), "--output", str(tmp_path / "p.csv")]) == 0
    assert len(read_csv_rows(tmp_path / "p.csv")) == 151


def _predict_fails(tmp_path, capsys, payload, query, message):
    """predict on the model file payload exits 1 with message as its error
    line, without a traceback or an output file."""
    model = tmp_path / "m.json"
    model.write_text(json.dumps(payload))
    code = main(["predict", "--model", str(model), "--data", str(query),
                 "--output", str(tmp_path / "p.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: {message}\n" in err
    assert "Traceback" not in err
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("case", list(BAD_STATES))
def test_bad_model_state_exits_1(tmp_path, capsys, rings_model, case):
    path, value, message = BAD_STATES[case]
    text, query = rings_model
    payload = json.loads(text)
    _set(payload, path, value)
    _predict_fails(tmp_path, capsys, payload, query, f"model {message}")


def test_version_1_model_with_nested_trees_exits_1(tmp_path, capsys, rings_model):
    """A model file of format version 1, whose trees were nested split and
    leaf dicts, is refused by its version before any classifier is read."""
    text, query = rings_model
    payload = json.loads(text)
    payload["format_version"] = 1
    state = payload["classifiers"][3]["state"]
    for key in ("feature", "threshold", "children", "proportions"):
        del state[key]
    state.update(p=3, tree={"feature": 0, "threshold": 0.5,
                            "left": {"leaf": [1.0, 0.0, 0.0]},
                            "right": {"leaf": [0.0, 0.5, 0.5]}})
    _predict_fails(tmp_path, capsys, payload, query,
                   "unsupported ensemble format version 1")


def test_version_2_model_exits_1(tmp_path, capsys, rings_model):
    """A model file of format version 2, whose records each hold the
    catalog, the feature count and their knn training rows, every array
    tagged with its dtype, is refused by its version: such a file must be
    retrained."""
    text, query = rings_model
    payload = json.loads(text)
    payload["format_version"] = 2
    rows = payload.pop("training_sets")[0]
    d = payload.pop("n_features")
    for record in payload["classifiers"]:
        state = record["state"]
        if "training_set" in state:
            del state["training_set"]
            state.update(rows, k=record["params"]["k"], p=len(state["present"]))
        for key, value in state.items():
            if isinstance(value, list):
                indices = key in ("present", "y", "feature", "children")
                state[key] = {"__nd__": value,
                              "dtype": "int64" if indices else "float64"}
        state["n_features"] = d
        record["catalog"] = payload["catalog"]
    _predict_fails(tmp_path, capsys, payload, query,
                   "unsupported ensemble format version 2")


# --- predict output --------------------------------------------------------

def _reference_predict_csv(model, query, emit_intervals):
    """granulex predict's output as its row-by-row writer wrote it."""
    ensemble = training.load_ensemble(model)
    details = training.predict_batch(ensemble, load_features(query))
    labels = ensemble.catalog.labels
    header = ["obs_id"]
    if emit_intervals:
        for lab in labels:
            header += [f"{lab}_lower", f"{lab}_upper"]
    for lab in labels:
        header.append(f"{lab}_ncm")
    header.append("decision")
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(header)
    for i, det in enumerate(details):
        row: list = [i]
        if emit_intervals:
            for g in det.intervals:
                row += [f"{g.lower:.17g}", f"{g.upper:.17g}"]
        row += [f"{v:.17g}" for v in det.memberships]
        row.append(labels[det.decision])
        writer.writerow(row)
    return out.getvalue()


@pytest.fixture(scope="module", params=["plain", "quoted"])
def served_model(request, tmp_path_factory):
    """A model of lda, knn3, knn5 and a decision tree on three classes, and
    a query CSV; the quoted case's labels hold a comma and a quote."""
    tmp = tmp_path_factory.mktemp("serve")
    data = generate(GeneratorSpec("concentric-rings", n=90, d=3, seed=12))
    names = {"plain": ["in", "mid", "out"],
             "quoted": ['a,b', 'say "hi"', "plain"]}[request.param]
    with open(tmp / "train.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["f0", "f1", "f2", "label"])
        for row, lab in zip(data.features, data.labels):
            writer.writerow([repr(float(v)) for v in row] + [names[lab]])
    assert main(["train", "--data", str(tmp / "train.csv"), "--alpha", "0.6",
                 "--learners", "lda,knn3,knn5,decision-tree",
                 "--output", str(tmp / "m.json")]) == 0
    query = generate(GeneratorSpec("concentric-rings", n=70, d=3, seed=13))
    with open(tmp / "q.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["f0", "f1", "f2"])
        writer.writerows([repr(float(v)) for v in row] for row in query.features)
    return tmp / "m.json", tmp / "q.csv"


@pytest.mark.parametrize("emit", [True, False], ids=["intervals", "ncm"])
@pytest.mark.parametrize("dest", ["output", "stdout"])
def test_predict_output_is_the_row_by_row_writers(
    tmp_path, capsys, served_model, emit, dest
):
    model, query = served_model
    capsys.readouterr()
    argv = ["predict", "--model", str(model), "--data", str(query)]
    argv += ["--emit-intervals"] * emit
    if dest == "output":
        argv += ["--output", str(tmp_path / "p.csv")]
    assert main(argv) == 0
    want = _reference_predict_csv(model, query, emit)
    if dest == "output":
        assert (tmp_path / "p.csv").read_bytes() == want.encode()
    else:
        assert capsys.readouterr().out == want
    assert want.count("\r\n") == 71


def test_overflowing_model_state_exits_1(tmp_path, capsys):
    """An lda state whose scores overflow names the classifier and exits 1,
    without a RuntimeWarning or a traceback."""
    model = tmp_path / "m.json"
    assert main(["train", "--data", str(bundled_path("rings.csv")),
                 "--learners", "lda,gaussian-naive-bayes", "--alpha", "1.0",
                 "--output", str(model)]) == 0
    payload = json.loads(model.read_text())
    state = payload["classifiers"][0]["state"]
    state["inv_cov"][0][0] = 1e308
    state["means"][0][0] = 1e200
    model.write_text(json.dumps(payload))
    rows = read_csv_rows(bundled_path("rings.csv"))
    with open(tmp_path / "q.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(row[:3] for row in rows)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["predict", "--model", str(model), "--data",
                     str(tmp_path / "q.csv"), "--output", str(tmp_path / "p.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert "error: classifier lda gives non-finite posteriors" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("learners", [
    None, ",".join(s.name for s in extended_roster())], ids=["default", "extended"])
@pytest.mark.parametrize("scale", [1e154, 1e160])
def test_overflowing_fit_exits_1(tmp_path, capsys, scale, learners):
    """Finite features whose squares overflow: the fits run with warnings
    off, as predictions do, so train prints one error line, naming the
    first classifier whose posteriors are non-finite, and no warning (the
    suite turns a warning into a failure).  With --alpha nothing predicts
    before the save, which names the first classifier whose state a load
    would refuse.  Neither writes a model file."""
    data = generate(GeneratorSpec("twonorm-like", n=60, d=3, seed=1))
    path = tmp_path / "big.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["f0", "f1", "f2", "label"])
        for row, lab in zip(data.features, data.labels):
            writer.writerow([f"{v:.17g}" for v in row * [scale, 1, 1]]
                            + [data.catalog.labels[lab]])
    model = tmp_path / "m.json"
    argv = ["train", "--data", str(path), "--output", str(model)]
    argv += ["--learners", learners] if learners else []
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: classifier lda gives non-finite posteriors\n")
    assert main(argv + ["--alpha", "1"]) == 1
    assert capsys.readouterr().err == (
        f"error: {model} not written: model classifier 0 (lda): state "
        f"'inv_cov' holds a non-finite value\n")
    assert not model.exists()


# --- one reader of the settings ----------------------------------------------

def test_train_alpha_with_folds_exits_1_before_the_first_fit(
    tmp_path, capsys, monkeypatch
):
    """Fixed-alpha training runs no cross-validation, so a --folds beside
    --alpha would set nothing."""
    fits = []
    monkeypatch.setattr(training, "fit_folds", lambda *a: fits.append(a))
    model = tmp_path / "model.json"
    code = main(["train", "--data", str(bundled_path("rings.csv")),
                 "--alpha", "1", "--folds", "1", "--output", str(model)])
    assert code == 1
    assert ("error: --alpha skips the cross-validation that --folds sets"
            in capsys.readouterr().err)
    assert fits == []
    assert not model.exists()


@pytest.mark.parametrize("flags", [
    [],
    ["--seed", "2", "--folds", "4", "--learners", "lda,knn5,nearest-mean",
     "--grid", "0:0.25:3"],
], ids=["defaults", "explicit"])
def test_alpha_curve_prints_the_curve_train_saves(tmp_path, flags):
    """alpha-curve and train read --data, --seed, --folds, --learners and
    --grid with one reader and one set of defaults, so the h3 column is
    bitwise the curve train searches and saves."""
    data = ["--data", str(bundled_path("rings.csv"))]
    model = tmp_path / "m.json"
    assert main(["train", *data, *flags, "--output", str(model)]) == 0
    assert main(["alpha-curve", *data, *flags, "--h", "h3",
                 "--output", str(tmp_path / "c.csv")]) == 0
    saved = json.loads(model.read_text())["alpha_error_curve"]
    rows = read_csv_rows(tmp_path / "c.csv")
    assert rows[0] == ["alpha", "error_h3"]
    assert [[float(a), float(e)] for a, e in rows[1:]] == saved
    assert len(saved) == (41 if not flags else 13)


def test_evaluate_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    """Run in fresh interpreters, evaluate writes the same bytes under two
    string-hash seeds: no output follows a set's iteration order."""
    src = str(Path(granulex.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("0", "1"):
        out = tmp_path / f"r{hash_seed}"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run(
            [sys.executable, "-m", "granulex.cli", "evaluate", "--config",
             str(bundled_path("toy_config.json")), "--output", str(out)],
            env=env, check=True, capture_output=True,
        )
        outputs.append([(out / name).read_bytes()
                        for name in ("report.json", "per_run.csv", "report.txt")])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["train", "alpha-curve", "evaluate"])
def test_empty_grid_flag_exits_1(tmp_path, capsys, command):
    """An empty --grid is read like any other value, not skipped as unset."""
    code = main([command, "--data", str(bundled_path("rings.csv")), "--grid",
                 "", "--output", str(tmp_path / "out")])
    assert code == 1
    assert "error: grid must be lo:step:hi, got ''" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--label-column", "7"], ["--no-header"]])
def test_evaluate_csv_flags_without_data_exit_1(tmp_path, capsys, flags):
    """--label-column and --no-header describe the --data file, so beside
    a config's datasets alone they would set nothing."""
    out = tmp_path / "ev"
    code = main(["evaluate", "--config", str(bundled_path("toy_config.json")),
                 *flags, "--output", str(out)])
    assert code == 1
    assert ("error: --label-column and --no-header describe the --data file"
            in capsys.readouterr().err)
    assert not out.exists()


def c_locale_python(*args):
    """Run the interpreter on args in the C locale with UTF-8 mode and
    locale coercion off, so the locale encoding is ASCII, and with every
    text open() that relies on that default raising EncodingWarning."""
    src = str(Path(granulex.__file__).resolve().parents[1])
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-X", "warn_default_encoding",
         "-W", "error::EncodingWarning", *args],
        env=env, capture_output=True, text=True,
    )


def test_cli_files_are_utf8_whatever_the_locale(tmp_path):
    """train, predict and evaluate read and write UTF-8 in an ASCII locale,
    writing the bytes an in-process run writes."""
    data = generate(GeneratorSpec("twonorm-like", n=60, d=2, seed=1))
    names = ("café", "thé")
    train_csv, query_csv = tmp_path / "train.csv", tmp_path / "query.csv"
    with open(train_csv, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["f0", "f1", "label"])
        for row, lab in zip(data.features, data.labels):
            writer.writerow([f"{v:.17g}" for v in row] + [names[lab]])
    with open(query_csv, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["f0", "f1"])
        writer.writerows([f"{v:.17g}" for v in row] for row in data.features[:9])

    def commands(out):
        return [
            ["train", "--data", str(train_csv), "--folds", "3",
             "--learners", "nearest-mean,knn3,gaussian-naive-bayes",
             "--output", str(out / "model.json")],
            ["predict", "--model", str(out / "model.json"), "--data",
             str(query_csv), "--emit-intervals", "--output",
             str(out / "predictions.csv")],
            ["evaluate", "--data", str(train_csv), "--folds", "3",
             "--repeats", "1", "--inner-folds", "3",
             "--learners", "nearest-mean,knn3,gaussian-naive-bayes",
             "--output", str(out / "report")],
        ]

    written = ("model.json", "predictions.csv", "report/report.json",
               "report/per_run.csv", "report/report.txt")
    outputs = []
    for out, in_process in ((tmp_path / "c", False), (tmp_path / "main", True)):
        out.mkdir()
        for argv in commands(out):
            if in_process:
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(argv) == 0
            else:
                run = c_locale_python("-m", "granulex.cli", *argv)
                assert run.returncode == 0, run.stderr
        outputs.append([(out / name).read_bytes() for name in written])
    assert outputs[0] == outputs[1]
    assert "thé_ncm".encode() in outputs[0][1]


def test_meta_csv_round_trip_in_an_ascii_locale(tmp_path):
    path = tmp_path / "meta.csv"
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from granulex.metadata import ClassCatalog, MetaMatrix, read_meta_csv, "
        "write_meta_csv\n"
        "cat = ClassCatalog(('caf\\u00e9', 'th\\u00e9'))\n"
        "scores = np.array([[[0.25, 0.75], [0.5, 0.5]], "
        "[[1.0, 0.0], [0.125, 0.875]]])\n"
        "write_meta_csv(sys.argv[1], MetaMatrix(scores, cat), [1, 0])\n"
        "meta, labels = read_meta_csv(sys.argv[1], cat)\n"
        "assert np.array_equal(meta.scores, scores)\n"
        "assert labels.tolist() == [1, 0]\n"
    )
    run = c_locale_python("-c", script, str(path))
    assert run.returncode == 0, run.stderr
    assert path.read_text(encoding="utf-8").splitlines()[1:] == [
        "0,0.25,0.75,0.5,0.5,thé", "1,1,0,0.125,0.875,café"]
