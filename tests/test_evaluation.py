import json

import numpy as np
import pytest

from granulex import evaluation, training
from granulex.datasets import GeneratorSpec, generate
from granulex.evaluation import (
    Comparison,
    EvaluationError,
    ProtocolConfig,
    average_ranks,
    bias_variance,
    default_methods,
    error_rate,
    macro_f1,
    midranks,
    run_protocol,
    wilcoxon_signed_rank,
)
from granulex.learners import Dataset, LearnerSpec
from granulex.metadata import ClassCatalog
from oracles import midranks as counted_midranks, oracle_wilcoxon_p


class TestErrorRate:
    def test_all_correct(self):
        assert error_rate([0, 1, 2], [0, 1, 2]) == 0.0

    def test_all_wrong(self):
        assert error_rate([1, 0], [0, 1]) == 1.0

    def test_fraction(self):
        preds = [0] * 75 + [1] * 25
        truth = [0] * 100
        assert error_rate(preds, truth) == 0.25

    def test_length_mismatch(self):
        with pytest.raises(EvaluationError):
            error_rate([0], [0, 1])


class TestMacroF1:
    def test_perfect(self):
        assert macro_f1([0, 1, 0, 1], [0, 1, 0, 1], 2) == 1.0

    def test_worked_binary(self):
        # class 0: TP=2 FP=1 FN=1; class 1: TP=2 FP=1 FN=1 -> macro 2/3
        truth = [0, 0, 0, 1, 1, 1]
        preds = [0, 0, 1, 1, 1, 0]
        assert macro_f1(preds, truth, 2) == pytest.approx(2 / 3)

    def test_degenerate_class(self):
        truth = [0, 0, 1, 1]
        preds = [0, 0, 0, 0]
        f1_class0 = 2 * (2 / 4) * 1.0 / (2 / 4 + 1.0)
        assert macro_f1(preds, truth, 2) == pytest.approx(f1_class0 / 2)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(0)
        truth = rng.integers(0, 3, size=60)
        preds = rng.integers(0, 3, size=60)
        perm = np.array([2, 0, 1])
        assert macro_f1(perm[preds], perm[truth], 3) == pytest.approx(
            macro_f1(preds, truth, 3)
        )
        assert error_rate(perm[preds], perm[truth]) == error_rate(preds, truth)


class TestBiasVariance:
    def test_all_agree(self):
        report = bias_variance([0, 1], [[0, 1], [0, 1]], [0, 1])
        assert report.bias == 0.0 and report.variance == 0.0

    def test_bias_quarter(self):
        report = bias_variance([0, 0, 0, 1], [[0, 0, 0, 1]], [0, 0, 0, 0])
        assert report.bias == 0.25

    def test_variance_quarter(self):
        # |S|=2, K=2, one disagreement among the 4 indicator terms
        report = bias_variance([0, 1], [[0, 1], [0, 0]], [0, 1])
        assert report.variance == 0.25

    def test_matches_enumerated_indicators(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            s = int(rng.integers(1, 7))
            k = int(rng.integers(1, 5))
            final = rng.integers(0, 3, size=s)
            per = rng.integers(0, 3, size=(k, s))
            truth = rng.integers(0, 3, size=s)
            report = bias_variance(final, per, truth)
            bias = sum(int(final[i] != truth[i]) for i in range(s)) / s
            var = sum(
                int(final[i] != per[j, i])
                for i in range(s) for j in range(k)
            ) / (s * k)
            assert report.bias == pytest.approx(bias)
            assert report.variance == pytest.approx(var)


class TestWilcoxon:
    def test_n5_all_positive_is_equal(self):
        a = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        b = a - 1.0
        res = wilcoxon_signed_rank(b, a)  # b smaller everywhere
        assert res.p_value == pytest.approx(2 / 32)
        assert res.outcome == "equal"  # 0.0625 >= 0.05

    def test_identical_inputs_flagged(self):
        a = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        res = wilcoxon_signed_rank(a, a)
        assert res.outcome == "equal" and res.flagged

    def test_n10_all_positive_significant(self):
        a = np.arange(1.0, 11.0)
        res = wilcoxon_signed_rank(a - 0.5, a)
        assert res.p_value == pytest.approx(2 / 1024)
        assert res.outcome == "a-better"

    def test_exact_matches_enumeration_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(5, 13))
            a = rng.normal(size=n)
            b = rng.normal(size=n)
            # occasionally force ties in |d|
            if rng.random() < 0.3:
                b[0] = a[0] - (a[1] - b[1])
            res = wilcoxon_signed_rank(a, b)
            assert res.exact
            assert res.p_value == pytest.approx(oracle_wilcoxon_p(a - b))

    def test_normal_approximation_branch(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=60)
        res = wilcoxon_signed_rank(a - 2.0, a)
        assert not res.exact
        assert res.outcome == "a-better" and res.p_value < 1e-6
        res2 = wilcoxon_signed_rank(a + 2.0, a)
        assert res2.outcome == "b-better"

    def test_symmetric_noise_is_equal(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=40)
        b = a + rng.normal(size=40) * 0.5
        res = wilcoxon_signed_rank(a, b)
        assert res.outcome in ("equal", "a-better", "b-better")
        assert 0.0 <= res.p_value <= 1.0


class TestRanks:
    def test_two_methods(self):
        table = np.array([[0.1, 0.2, 0.1], [0.3, 0.4, 0.2]])
        np.testing.assert_allclose(average_ranks(table), [1.0, 2.0])

    def test_midrank_on_tie(self):
        table = np.array([[0.1, 0.2], [0.1, 0.3]])
        np.testing.assert_allclose(average_ranks(table), [1.25, 1.75])

    def test_three_methods_fixed_order(self):
        table = np.tile(np.array([[0.1], [0.2], [0.3]]), (1, 4))
        np.testing.assert_allclose(average_ranks(table), [1.0, 2.0, 3.0])

    def test_rank_sum_invariant(self):
        rng = np.random.default_rng(9)
        for p in (2, 4, 7):
            table = rng.random((p, 5))
            ranks = average_ranks(table)
            assert ranks.sum() == pytest.approx(p * (p + 1) / 2)

    def test_midranks_are_the_counted_ranks(self):
        rng = np.random.default_rng(12)
        for n in range(13):
            values = rng.integers(0, 4, size=n) / 4
            assert np.array_equal(midranks(values), counted_midranks(values))

    def test_incomplete_table_rejected(self):
        with pytest.raises(EvaluationError):
            average_ranks(np.array([[0.1, np.nan]]))


SMALL_LEARNERS = (
    LearnerSpec("nearest-mean"),
    LearnerSpec("gaussian-naive-bayes"),
    LearnerSpec("knn", {"k": 3}),
)


def spy_fits(monkeypatch):
    """The arguments of every fit through `training.fit_folds`, the one
    fold fitter run_protocol and meta-CV call; each fit still runs."""
    fits = []
    real = training.fit_folds

    def spy(*args):
        fits.append(args)
        return real(*args)

    monkeypatch.setattr(training, "fit_folds", spy)
    return fits


class TestProtocol:
    def small_config(self, **kw):
        base = dict(
            folds=2,
            repeats=1,
            seed=3,
            learners=SMALL_LEARNERS,
            methods=("rule:sum", "rule:median", "learner:knn3",
                     "decision-template", "granular-cv", "granular-fixed"),
            inner_folds=3,
        )
        base.update(kw)
        return ProtocolConfig(**base)

    def test_run_count_shape(self):
        data = generate(GeneratorSpec("twonorm-like", n=40, d=2, seed=1))
        report = run_protocol([data], self.small_config())
        for res in report.results[data.name].values():
            assert len(res.errors) == 2
            assert len(res.f1s) == 2

    def test_hundred_runs_with_full_protocol_shape(self):
        data = generate(GeneratorSpec("two-gaussians", n=60, d=1, seed=2))
        cfg = self.small_config(
            folds=10, repeats=10,
            methods=("rule:sum", "rule:median", "granular-fixed"),
        )
        report = run_protocol([data], cfg)
        for res in report.results[data.name].values():
            assert len(res.errors) == 100

    def test_determinism(self):
        from granulex.report import report_json_bytes

        data = generate(GeneratorSpec("concentric-rings", n=45, d=2,
                                      noise=0.3, seed=5))
        r1 = run_protocol([data], self.small_config())
        r2 = run_protocol([data], self.small_config())
        assert report_json_bytes(r1) == report_json_bytes(r2)

    def test_infeasible_stratification_named(self):
        data = generate(GeneratorSpec("twonorm-like", n=10, d=1, seed=0))
        with pytest.raises(EvaluationError, match="fewer observations"):
            run_protocol([data], self.small_config(folds=8))

    @pytest.mark.parametrize("change, names, message", [
        (dict(learners=SMALL_LEARNERS[:1]), ("a", "b"),
         "at least two base learners"),
        (dict(methods=("rule:sum", "learner:knn5")), ("a", "b"),
         "'learner:knn5' not in the roster"),
        (dict(folds=8), ("a", "b"), "'b': some class has fewer observations"),
        ({}, ("a", "a"), "dataset name 'a' appears twice"),
        (dict(methods=("rule:sum", "rule:sum", "granular-fixed")), ("a", "b"),
         "method 'rule:sum' appears twice"),
        (dict(methods=()), ("a", "b"), "need at least one method"),
        (dict(learners=(LearnerSpec("perceptron"), LearnerSpec("perceptron"),
                        LearnerSpec("lda")),
              methods=("learner:perceptron",)), ("a", "b"),
         "learner 'perceptron' appears twice in the roster"),
    ], ids=["one-learner", "learner-not-in-roster", "short-class", "dup-name",
            "dup-method", "no-methods", "dup-learner"])
    def test_protocol_checked_before_the_first_fit(
        self, monkeypatch, change, names, message
    ):
        fits = spy_fits(monkeypatch)
        datasets = []
        for n, name in zip((40, 10), names):
            d = generate(GeneratorSpec("twonorm-like", n=n, d=2, seed=1))
            datasets.append(Dataset(d.features, d.labels, d.catalog, name))
        with pytest.raises(EvaluationError, match=message):
            run_protocol(datasets, self.small_config(**change))
        assert fits == []

    @pytest.mark.parametrize("alpha", [-1.0, float("nan"), float("inf")])
    def test_fixed_alpha_must_be_finite_and_nonnegative(self, alpha):
        with pytest.raises(EvaluationError,
                           match="fixed_alpha must be finite and >= 0"):
            self.small_config(fixed_alpha=alpha)
        assert self.small_config(fixed_alpha=0.0).fixed_alpha == 0.0

    def test_fit_spy_sees_a_valid_protocol(self, monkeypatch):
        """The positive control of the "checked before the first fit"
        tests: run_protocol fits through training.fit_folds, one call per
        (learner, dataset, repeat), so their spy would see a fit."""
        fits = spy_fits(monkeypatch)
        datasets = []
        for name in ("a", "b"):
            d = generate(GeneratorSpec("twonorm-like", n=40, d=2, seed=1))
            datasets.append(Dataset(d.features, d.labels, d.catalog, name))
        run_protocol(datasets, self.small_config(repeats=2))
        assert [(spec.name, data.name) for spec, data, *_ in fits] == [
            (spec.name, name) for name in ("a", "b") for _ in range(2)
            for spec in SMALL_LEARNERS]

    @staticmethod
    def two_class(n_a, n_b):
        rng = np.random.default_rng(12)
        labels = np.array([0] * n_a + [1] * n_b)
        features = rng.normal(size=(len(labels), 2)) + labels[:, None]
        return Dataset(features, labels, ClassCatalog(("a", "b")), "ab")

    def test_granular_cv_inner_folds_checked_before_the_first_fit(
        self, monkeypatch
    ):
        """With 2 folds, a fold can hold 1 of the 2 b rows, so a training
        part keeps a single b row: too few for inner cross-validation."""
        fits = spy_fits(monkeypatch)
        with pytest.raises(EvaluationError,
                           match="'ab': some class keeps fewer than 2 rows"):
            run_protocol([self.two_class(10, 2)], self.small_config(
                learners=SMALL_LEARNERS[:2], methods=("rule:sum", "granular-cv")))
        assert fits == []

    def test_granular_cv_runs_at_the_inner_fold_bound(self):
        # n_b - ceil(n_b / folds) == 2 for 4 rows in 2 folds and 3 folds
        for folds in (2, 3):
            cfg = self.small_config(learners=SMALL_LEARNERS[:2], folds=folds,
                                    methods=("rule:sum", "granular-cv"))
            report = run_protocol([self.two_class(10, 4)], cfg)
            assert len(report.results["ab"]["granular-cv"].errors) == folds

    def test_inner_fold_check_is_granular_cv_only(self):
        cfg = self.small_config(learners=SMALL_LEARNERS[:2],
                                methods=("rule:sum", "granular-fixed"))
        report = run_protocol([self.two_class(10, 2)], cfg)
        assert len(report.results["ab"]["rule:sum"].errors) == 2

    @pytest.mark.parametrize("inner_folds", [1, 0, -3])
    def test_inner_folds_below_two_rejected(self, inner_folds):
        with pytest.raises(EvaluationError, match="inner_folds >= 2"):
            self.small_config(inner_folds=inner_folds)

    def test_unknown_method_rejected(self):
        with pytest.raises(EvaluationError):
            self.small_config(methods=("rule:sum", "bogus"))

    def test_comparisons_cover_baselines(self):
        data = generate(GeneratorSpec("twonorm-like", n=40, d=2, seed=8))
        cfg = self.small_config(folds=5, repeats=2)
        report = run_protocol([data], cfg)
        g_err = [c for c in report.comparisons
                 if c.method == "granular-cv" and c.metric == "error"]
        assert {c.baseline for c in g_err} == {
            m for m in cfg.methods if m != "granular-cv"
        }
        for c in report.comparisons:
            assert c.outcome in ("win", "equal", "loss")

    def test_comparisons_and_ranks_follow_from_the_results(self):
        """Every Comparison is the Wilcoxon test of the two methods' runs
        (F1 negated, so smaller is better), in the order granular method x
        other method x (error, f1); the rankings are the average ranks of
        the mean error and of the negated mean F1."""
        datasets = [
            generate(GeneratorSpec(kind, n=60, d=2, seed=8))
            for kind in ("twonorm-like", "concentric-rings")
        ]
        cfg = self.small_config(folds=5, repeats=3)
        report = run_protocol(datasets, cfg)
        names = report.dataset_names
        as_win = {"a-better": "win", "b-better": "loss", "equal": "equal"}
        expected = []
        for name in names:
            res = report.results[name]
            for g in ("granular-cv", "granular-fixed"):
                for other in cfg.methods:
                    if other == g:
                        continue
                    for metric, a, b in (
                        ("error", res[g].errors, res[other].errors),
                        ("f1", [-v for v in res[g].f1s],
                         [-v for v in res[other].f1s]),
                    ):
                        w = wilcoxon_signed_rank(a, b, cfg.significance)
                        expected.append(Comparison(
                            name, g, other, metric, as_win[w.outcome], w.p_value
                        ))
        assert list(report.comparisons) == expected
        assert "win" in {c.outcome for c in expected}  # some test decides
        err = [[report.results[n][m].mean_error for n in names]
               for m in cfg.methods]
        f1 = [[-report.results[n][m].mean_f1 for n in names]
              for m in cfg.methods]
        assert report.rankings["error"] == dict(
            zip(cfg.methods, average_ranks(np.array(err)).tolist()))
        assert report.rankings["f1"] == dict(
            zip(cfg.methods, average_ranks(np.array(f1)).tolist()))

    def test_report_files_aggregate_the_runs(self, tmp_path, monkeypatch):
        """report.json's bias/variance is the mean of each method's per-run
        bias_variance values, and report.txt prints those means and the
        win/equal/loss counts of report.comparisons."""
        from granulex.report import write_report_files

        splits = []
        real = evaluation.bias_variance

        def spy(*args):
            splits.append(real(*args))
            return splits[-1]

        monkeypatch.setattr(evaluation, "bias_variance", spy)
        datasets = [generate(GeneratorSpec(kind, n=40, d=2, seed=4))
                    for kind in ("twonorm-like", "concentric-rings")]
        cfg = self.small_config(folds=3, repeats=2, methods=(
            "granular-cv", "rule:sum", "granular-fixed", "decision-template"))
        report = run_protocol(datasets, cfg)
        paths = write_report_files(report, tmp_path)
        with open(paths["json"], encoding="utf-8") as fh:
            written = json.load(fh)["bias_variance"]
        with open(paths["txt"], encoding="utf-8") as fh:
            lines = fh.read().splitlines()

        # One call per (dataset, repeat, fold, method), methods innermost.
        n_methods, width = len(cfg.methods), max(map(len, cfg.methods)) + 2
        per_dataset = cfg.repeats * cfg.folds * n_methods
        assert len(splits) == len(datasets) * per_dataset
        for d, data in enumerate(datasets):
            for i, m in enumerate(cfg.methods):
                runs = splits[d * per_dataset + i:(d + 1) * per_dataset:n_methods]
                bias = float(np.mean([r.bias for r in runs]))
                variance = float(np.mean([r.variance for r in runs]))
                assert written[data.name][m] == {"bias": bias, "variance": variance}
                assert (f"{data.name}  {m:<{width}}bias={bias:.4f}  "
                        f"var={variance:.4f}") in lines

        tallies = {}
        for c in report.comparisons:
            counts = tallies.setdefault((c.method, c.metric), {}).setdefault(
                c.baseline, [0, 0, 0])
            counts[("win", "equal", "loss").index(c.outcome)] += 1
        printed = {}
        for at, line in enumerate(lines):
            if line.endswith("win/equal/loss --"):
                gmethod, rest = line[3:].split(" vs baselines (")
                rows = lines[at + 1:lines.index("", at)]
                printed[(gmethod, rest.split(")")[0])] = {
                    b: [int(w), int(e), int(l)]
                    for b, w, e, l in map(str.split, rows)}
        assert printed == tallies
        assert sorted(printed) == [(g, metric) for g in ("granular-cv",
                                   "granular-fixed") for metric in ("error", "f1")]

    def test_default_methods_include_all_rules(self):
        methods = default_methods()
        assert len([m for m in methods if m.startswith("rule:")]) == 6
        assert "granular-cv" in methods and "decision-template" in methods
