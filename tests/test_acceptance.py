"""Acceptance gate: one test per release criterion.

Each test is numbered and self-contained; the expensive headline-effect
test (09) runs the full 10x10 protocol on the three bundled datasets and
dominates the suite's runtime.
"""

import hashlib
import json
import math
import platform
import time
from pathlib import Path

import numpy as np
import pytest

import granulex.evaluation as evaluation
import granulex.training as training
from granulex import learners, tasks
from granulex.cli import main
from granulex.combiners import (
    FIXED_RULES,
    fixed_rule_scores_batch,
    granular_decide_batch,
    s1_similarity,
)
from granulex.datasets import (
    BUNDLED_DATASETS,
    GeneratorSpec,
    bundled_path,
    generate,
    load_bundled,
)
from granulex.evaluation import (
    ProtocolConfig,
    bias_variance,
    run_protocol,
    wilcoxon_signed_rank,
)
from granulex.granule import construct_granule
from granulex.learners import Dataset, LearnerSpec, extended_roster, fit
from granulex.metadata import ClassCatalog
from granulex.report import report_json_bytes
from granulex.training import default_alpha_grid, generate_meta_cv, make_fold_plan
from oracles import median_of, oracle_granule, oracle_wilcoxon_p

# Ten-learner roster used for the headline comparison: heavy on learners
# with sharp, diverse posteriors, which is where interval fusion differs
# most from averaging rules.
HEADLINE_ROSTER = (
    LearnerSpec("knn", {"k": 1}),
    LearnerSpec("knn", {"k": 3}),
    LearnerSpec("decision-tree", {"max_depth": 20, "min_leaf": 1}),
    LearnerSpec("decision-stump"),
    LearnerSpec("nearest-mean"),
    LearnerSpec("lda"),
    LearnerSpec("gaussian-naive-bayes"),
    LearnerSpec("logistic-linear"),
    LearnerSpec("fisher"),
    LearnerSpec("knn", {"k": 25}),
)

RULE_METHODS = tuple(f"rule:{r}" for r in FIXED_RULES)


def random_profile(rng, k, m):
    raw = rng.random((k, m))
    return raw / raw.sum(axis=1, keepdims=True)


def test_01_granule_matches_enumeration_oracle():
    rng = np.random.default_rng(101)
    alphas = (0.0, 0.5, 1.0, 2.0, 4.0)
    samples = [rng.random(int(rng.integers(3, 51))).tolist()
               for _ in range(1000)]
    start = time.perf_counter()
    granules = [
        construct_granule(vals, alpha) for vals in samples for alpha in alphas
    ]
    assert time.perf_counter() - start < 5.0
    cases = ((vals, alpha) for vals in samples for alpha in alphas)
    for g, (vals, alpha) in zip(granules, cases):
        assert (g.lower, g.upper) == oracle_granule(vals, alpha)


def test_02_granule_limits_and_monotone_specificity():
    rng = np.random.default_rng(102)
    for _ in range(100):
        vals = rng.random(int(rng.integers(3, 40))).tolist()
        g0 = construct_granule(vals, 0.0)
        assert (g0.lower, g0.upper) == (min(vals), max(vals))
        med = median_of(vals)
        prev = math.inf
        for alpha in default_alpha_grid().values:
            g = construct_granule(vals, alpha)
            assert g.length <= prev + 1e-15
            assert g.lower <= med <= g.upper
            prev = g.length
    g = construct_granule([0.1, 0.2, 0.5, 0.8, 0.9], 1e6)
    assert (g.lower, g.upper) == (0.5, 0.5)


def test_03_median_rule_reduction():
    rng = np.random.default_rng(103)
    for _ in range(500):
        profile = random_profile(rng, 5, int(rng.integers(2, 5)))
        granular_cls = granular_decide_batch(profile[None], 1e6, "h1")[0]
        median_scores = fixed_rule_scores_batch(profile[None], "median")[0]
        assert granular_cls == np.argmax(median_scores)


def test_04_fixed_rules_worked_profile():
    profile = np.array([[0.6, 0.4], [0.7, 0.3], [0.35, 0.65]])
    expected = {
        "sum": (1.65, 1.35),
        "product": (0.147, 0.078),
        "max": (0.7, 0.65),
        "min": (0.35, 0.3),
        "median": (0.6, 0.4),
        "majority-vote": (2.0, 1.0),
    }
    for rule, scores in expected.items():
        got = fixed_rule_scores_batch(profile[None], rule)[0]
        assert tuple(got) == pytest.approx(scores)
        assert np.argmax(got) == 0


def test_05_decision_template_s1():
    rng = np.random.default_rng(105)
    profile = rng.random((4, 3))
    assert s1_similarity(profile, profile) == 1.0
    got = s1_similarity(np.array([[0.6, 0.4]]), np.array([[0.5, 0.5]]))
    assert got == pytest.approx(0.9 / 1.1, abs=1e-12)


def test_06_protocol_produces_100_paired_values():
    data = generate(GeneratorSpec("two-gaussians", n=60, d=1, seed=6))
    cfg = ProtocolConfig(
        folds=10, repeats=10, seed=1,
        learners=(LearnerSpec("nearest-mean"), LearnerSpec("knn", {"k": 3}),
                  LearnerSpec("gaussian-naive-bayes")),
        methods=("rule:sum", "rule:median", "granular-fixed"),
        inner_folds=3,
    )
    report = run_protocol([data], cfg)
    for result in report.results[data.name].values():
        assert len(result.errors) == 100
        assert len(result.f1s) == 100


def test_07_wilcoxon_exact_matches_enumeration():
    rng = np.random.default_rng(107)
    for _ in range(200):
        n = int(rng.integers(5, 13))
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        if rng.random() < 0.3:  # force the occasional midrank tie
            b[0] = a[0] - (a[1] - b[1])
        res = wilcoxon_signed_rank(a, b)
        assert res.exact
        assert res.p_value == pytest.approx(oracle_wilcoxon_p(a - b))
    base = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    res = wilcoxon_signed_rank(base - 1.0, base)
    assert res.p_value == pytest.approx(0.0625)
    assert res.outcome == "equal"


def test_08_bias_variance_match_indicator_sums():
    rng = np.random.default_rng(108)
    for _ in range(20):
        s = int(rng.integers(1, 7))
        k = int(rng.integers(1, 5))
        final = rng.integers(0, 3, size=s)
        per = rng.integers(0, 3, size=(k, s))
        truth = rng.integers(0, 3, size=s)
        report = bias_variance(final, per, truth)
        bias = sum(int(final[i] != truth[i]) for i in range(s)) / s
        variance = sum(
            int(final[i] != per[j, i]) for i in range(s) for j in range(k)
        ) / (s * k)
        assert report.bias == pytest.approx(bias)
        assert report.variance == pytest.approx(variance)


@pytest.fixture(scope="module")
def headline():
    """The headline protocol, run once for every test that reads it:
    (datasets, report, wall seconds)."""
    datasets = [load_bundled(name) for name in BUNDLED_DATASETS]
    cfg = ProtocolConfig(folds=10, repeats=10, seed=7,
                         learners=HEADLINE_ROSTER)
    start = time.perf_counter()
    report = run_protocol(datasets, cfg)
    return datasets, report, time.perf_counter() - start


def test_09_headline_effect_on_bundled_datasets(headline):
    datasets, report, seconds = headline
    assert seconds < 600.0

    # (a) granular-cv's mean error is at or below the best fixed rule on
    # at least 2 of the 3 datasets. Per-fold errors are multiples of
    # 1/(n/folds), so 1e-9 only absorbs float-summation noise in exact ties.
    at_or_below = 0
    for data in datasets:
        res = report.results[data.name]
        best_rule = min(res[m].mean_error for m in RULE_METHODS)
        if res["granular-cv"].mean_error <= best_rule + 1e-9:
            at_or_below += 1
    assert at_or_below >= 2

    # (b) granular-cv is never significantly worse than the Sum rule.
    for c in report.comparisons:
        if (c.method == "granular-cv" and c.baseline == "rule:sum"
                and c.metric == "error"):
            assert c.outcome != "loss", c.dataset


@pytest.fixture(scope="module")
def golden():
    """What the headline report and the CLI's files held when
    tests/golden.json was written: per (dataset, method), the misclassified
    test rows of each of the 100 runs; the decision column of
    `predict_files`' predictions; and, with the numpy version and machine
    they were made on, the sha256 of the report's JSON bytes and of each
    file of `predict_files`.  A change that moves them edits the file."""
    return json.loads(Path(__file__).with_name("golden.json").read_text())


def made_here(golden):
    """Skip unless this numpy and machine are those golden's hashes were
    made on: numpy's reduction order decides the bytes."""
    here = {"numpy": np.__version__, "machine": platform.machine()}
    made_on = {key: golden[key] for key in here}
    if here != made_on:
        pytest.skip(f"golden hashes made on {made_on}, not {here}")


# The extended roster in the order the CI smoke step trains it.
EXTENDED_LEARNERS = ("lda,gaussian-naive-bayes,knn5,knn25,knn50,decision-tree,"
                     "decision-stump,fisher,logistic-linear,nearest-mean,"
                     "perceptron,knn75")


@pytest.fixture(scope="module")
def predict_files(tmp_path_factory):
    """The files the CI smoke step writes, made in this process: model.json,
    the default roster trained on the bundled rings with train's defaults;
    predictions.csv, its predict --emit-intervals on the rings features;
    and extended.json, the extended roster, whose perceptron's parts may
    be fitted in either process of part_profiles, on the bundled twonorm."""
    tmp = tmp_path_factory.mktemp("smoke")
    rings = bundled_path("rings.csv")
    assert main(["train", "--data", str(rings), "--output", str(tmp / "model.json")]) == 0
    with open(rings) as fh:
        features = "".join(",".join(line.split(",")[:3]) + "\n"
                           for line in fh.read().splitlines())
    (tmp / "features.csv").write_text(features)
    assert main(["predict", "--model", str(tmp / "model.json"),
                 "--data", str(tmp / "features.csv"), "--emit-intervals",
                 "--output", str(tmp / "predictions.csv")]) == 0
    assert main(["train", "--data", str(bundled_path("twonorm.csv")),
                 "--output", str(tmp / "extended.json"),
                 "--learners", EXTENDED_LEARNERS]) == 0
    return {name: (tmp / name).read_bytes()
            for name in ("model.json", "predictions.csv", "extended.json")}


def misclassified_rows(report):
    """dataset -> method -> the misclassified test rows of each run: its
    error rate times the 15 test rows of each outer fold of a bundled
    dataset's 150."""
    table = {}
    for name, methods in report.results.items():
        table[name] = {}
        for method, result in methods.items():
            rows = [error * 15 for error in result.errors]
            assert all(r.is_integer() for r in rows), (name, method)
            table[name][method] = [int(r) for r in rows]
    return table


def test_09_headline_misclassified_rows_are_golden(headline, golden):
    got, want = misclassified_rows(headline[1]), golden["misclassified"]
    pairs = {(name, method) for table in (got, want)
             for name, methods in table.items() for method in methods}
    moved = sorted((name, method) for name, method in pairs
                   if got.get(name, {}).get(method) != want.get(name, {}).get(method))
    assert moved == [], f"misclassified rows moved on (dataset, method) {moved}"


def test_09_headline_report_hash_is_golden(headline, golden):
    made_here(golden)
    digest = hashlib.sha256(report_json_bytes(headline[1])).hexdigest()
    assert digest == golden["report_sha256"]


def test_predict_decisions_are_golden(predict_files, golden):
    rows = predict_files["predictions.csv"].decode().splitlines()
    assert rows[0].split(",")[-1] == "decision"
    assert [row.split(",")[-1] for row in rows[1:]] == golden["predict_decisions"]


def test_model_and_predict_bytes_are_golden(predict_files, golden):
    made_here(golden)
    digests = {name: hashlib.sha256(blob).hexdigest()
               for name, blob in predict_files.items()}
    assert digests == {"model.json": golden["model_sha256"],
                       "predictions.csv": golden["predictions_sha256"],
                       "extended.json": golden["extended_model_sha256"]}


def test_10_h_function_study():
    data = generate(GeneratorSpec("concentric-rings", n=120, d=2,
                                  noise=0.4, seed=10))
    assert data.catalog.size == 3
    meta = training.cross_validated_meta(
        data,
        [LearnerSpec("nearest-mean"), LearnerSpec("lda"),
         LearnerSpec("knn", {"k": 5}), LearnerSpec("gaussian-naive-bayes"),
         LearnerSpec("decision-stump")],
        n_folds=10,
        seed=0,
    )
    curves = training.error_curves(
        meta, data.labels, default_alpha_grid().values, ["h1", "h2", "h3"]
    )
    minima = {}
    for h, curve in curves.items():
        assert len(curve) == 41
        minima[h] = min(err for _, err in curve)
    assert minima["h2"] >= minima["h1"] - 0.02
    assert minima["h2"] >= minima["h3"] - 0.02


def test_11_evaluate_report_is_byte_identical_across_runs(tmp_path):
    outputs = []
    for sub in ("a", "b", "c"):
        out = tmp_path / sub
        code = main(["evaluate", "--config",
                     str(bundled_path("toy_config.json")),
                     "--output", str(out)])
        assert code == 0
        outputs.append((out / "report.json").read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def _audit_predictions(monkeypatch, audit):
    """Wrap every kind's predictor in learners._KINDS so that each call
    first runs audit(models, x): every posterior of every model goes
    through its kind's predictor."""
    for kind, entry in list(learners._KINDS.items()):
        def predict(models, x, real=entry.predict):
            audit(models, x)
            return real(models, x)
        monkeypatch.setitem(learners._KINDS, kind, entry._replace(predict=predict))


def test_12_no_leakage_in_meta_cv(monkeypatch):
    real_fit_folds = training.fit_folds
    audited = []
    violations = []

    train_rows = {}  # each fitted model -> the rows it was fitted on

    def audited_fit_folds(spec, data, rests, seeds):
        models = list(real_fit_folds(spec, data, rests, seeds))
        train_rows.update((model, {tuple(r) for r in data.features[rest]})
                          for model, rest in zip(models, rests))
        return models

    def audit(models, x):
        for model in models:
            for row in x:
                audited.append(row)
                if tuple(row) in train_rows[model]:
                    violations.append(tuple(row))

    monkeypatch.setattr(training, "fit_folds", audited_fit_folds)
    _audit_predictions(monkeypatch, audit)
    # The audit sees the predictions of this process only: keep every
    # task of part_profiles out of its forked child.
    monkeypatch.setattr(tasks, "_can_fork", lambda: False)
    rng = np.random.default_rng(112)
    specs = [LearnerSpec("nearest-mean"),
             LearnerSpec("logistic-linear", {"iterations": 20})]
    for trial in range(50):
        n = int(rng.integers(20, 41))
        x = rng.normal(size=(n, 2))
        y = rng.integers(0, 2, size=n)
        y[:4] = [0, 0, 1, 1]  # both classes survive any fold complement
        data = Dataset(x, y, ClassCatalog(("a", "b")))
        folds = int(rng.integers(2, 6))
        plan = make_fold_plan(y, folds, seed=trial)
        generate_meta_cv(data, specs, plan, seed=trial)
    assert len(audited) > 0
    assert violations == []


@pytest.mark.parametrize("name", BUNDLED_DATASETS)
def test_13_meta_cv_equals_per_fold_fits(name):
    """generate_meta_cv batches the logistic fits of all folds; its scores
    must be bitwise those of one fit per fold."""
    data = load_bundled(name)
    plan = make_fold_plan(data.labels, 10, seed=5)
    meta = generate_meta_cv(data, HEADLINE_ROSTER, plan, seed=7)
    expected = np.empty_like(meta.scores)
    for t in range(plan.n_folds):
        held = plan.fold_indices(t)
        part = data.subset(plan.complement_indices(t))
        for j, spec in enumerate(HEADLINE_ROSTER):
            model = fit(spec, part, training.derive_seed(7, t, j))
            expected[held, j] = model.predict_proba_batch(data.features[held])
    assert np.array_equal(meta.scores, expected)


def _reference_fold_profiles(datasets, config):
    """Test profiles of every outer fold from one `fit` per (fold, learner),
    the loop run_protocol ran before it fitted whole repeats at once."""
    out = []
    for ds_idx, data in enumerate(datasets):
        for rep in range(config.repeats):
            plan = make_fold_plan(
                data.labels, config.folds,
                training.derive_seed(config.seed, ds_idx, rep),
            )
            for fold in range(config.folds):
                run_seed = training.derive_seed(config.seed, ds_idx, rep, fold)
                part = data.subset(plan.complement_indices(fold))
                test_x = data.features[plan.fold_indices(fold)]
                models = [fit(spec, part, training.derive_seed(run_seed, j))
                          for j, spec in enumerate(config.learners)]
                out.append(np.stack(
                    [m.predict_proba_batch(test_x) for m in models], axis=1
                ))
    return out


def test_headline_repeat_builds_no_dataset(monkeypatch):
    """The 110 training parts of a headline (dataset, repeat) are fitted,
    and each outer fold decided, from the data set's rows and labels: the
    repeat builds no Dataset, neither per outer fold nor per (learner,
    part)."""
    data = load_bundled(BUNDLED_DATASETS[0])
    built = []
    original = Dataset.__post_init__

    def counting(self):
        original(self)
        built.append(self.n_observations)

    monkeypatch.setattr(Dataset, "__post_init__", counting)
    run_protocol([data], ProtocolConfig(folds=10, repeats=1, seed=7,
                                        learners=HEADLINE_ROSTER))
    assert built == []
    data.subset(np.arange(3))  # the spy sees a Dataset built
    assert built == [3]


@pytest.mark.parametrize("roster", ["headline", "extended"])
def test_14_protocol_folds_equal_per_fold_fits(roster, monkeypatch):
    """run_protocol fits its outer folds through part_profiles; every
    fold's test profiles must be bitwise those of one fit per fold, also
    for the seed-dependent perceptron of the extended roster."""
    specs = HEADLINE_ROSTER if roster == "headline" else tuple(extended_roster())
    seen = []
    original = evaluation._method_predictions

    def recording(method, test_profiles, *rest):
        seen.append(test_profiles)
        return original(method, test_profiles, *rest)

    monkeypatch.setattr(evaluation, "_method_predictions", recording)
    datasets = [load_bundled(name) for name in BUNDLED_DATASETS]
    config = ProtocolConfig(folds=10, repeats=2, seed=7, learners=specs,
                            methods=("rule:sum",))
    run_protocol(datasets, config)
    expected = _reference_fold_profiles(datasets, config)
    assert len(seen) == len(expected) == 60
    assert all(np.array_equal(a, b) for a, b in zip(seen, expected))


@pytest.mark.parametrize("case", ["headline", "seeded"])
def test_15_one_fit_per_repeat_equals_meta_cv_per_fold(case, monkeypatch):
    """run_protocol fits each (dataset, repeat)'s outer and inner training
    parts in one fit_folds call per learner.  Each fold's inner meta matrix
    and chosen alpha must be bitwise those of generate_meta_cv on the
    fold's training part with its inner plan and seed, and no inner model
    may train on its outer test fold or on the inner fold it is asked
    about.  The seeded case puts a seed-dependent learner (the perceptron)
    in the roster, so every inner part must get its own seed."""
    if case == "headline":
        datasets = [load_bundled(name) for name in BUNDLED_DATASETS]
        specs, repeats = HEADLINE_ROSTER, 2
    else:
        datasets = [load_bundled("rings")]
        specs = (LearnerSpec("lda"), LearnerSpec("perceptron", {"iterations": 5}))
        repeats = 1
    config = ProtocolConfig(folds=10, repeats=repeats, seed=7, learners=specs,
                            methods=("rule:sum", "granular-cv"))
    calls, metas, alphas = [], [], []

    class Audit:
        def __init__(self, train_rows):
            self.train_rows, self.asked = train_rows, set()

    audits = {}  # each fitted model -> its Audit
    real_fit_folds = training.fit_folds

    def audited_fit_folds(spec, data, rests, seeds):
        models = list(real_fit_folds(spec, data, rests, seeds))
        audits.update((m, Audit({tuple(r) for r in data.features[rest]}))
                      for m, rest in zip(models, rests))
        calls.append((spec.name, data.name, [audits[m] for m in models]))
        return models

    def audit(models, x):
        for model in models:
            audits[model].asked |= {tuple(row) for row in x}

    def recorded(store, fn):
        def spy(*args):
            out = fn(*args)
            store.append(out)
            return out
        return spy

    monkeypatch.setattr(training, "fit_folds", audited_fit_folds)
    _audit_predictions(monkeypatch, audit)
    # The audit sees the predictions of this process only: keep every
    # task of part_profiles out of its forked child.
    monkeypatch.setattr(tasks, "_can_fork", lambda: False)
    monkeypatch.setattr(training, "meta_from_folds",
                        recorded(metas, training.meta_from_folds))
    monkeypatch.setattr(training, "select_alpha",
                        recorded(alphas, training.select_alpha))
    run_protocol(datasets, config)
    monkeypatch.undo()

    derive = training.derive_seed
    runs = [(ds_idx, data, rep) for ds_idx, data in enumerate(datasets)
            for rep in range(repeats)]
    assert len(calls) == len(runs) * len(specs)
    for at, (ds_idx, data, rep) in enumerate(runs):
        run_calls = calls[at * len(specs):(at + 1) * len(specs)]
        assert sorted((name, ds, len(models)) for name, ds, models in run_calls) \
            == sorted((spec.name, data.name, 110) for spec in specs)
        plan = make_fold_plan(data.labels, 10, derive(7, ds_idx, rep))
        rows = [tuple(r) for r in data.features]
        tests = [{rows[i] for i in plan.fold_indices(f)} for f in range(10)]
        for _, _, models in run_calls:
            for model in models:
                assert model.asked and not model.asked & model.train_rows
            owners = []
            for model in models[10:]:  # the inner models
                part = model.train_rows | model.asked
                (fold,) = [f for f in range(10) if part == set(rows) - tests[f]]
                assert not model.train_rows & tests[fold]
                owners.append(fold)
            assert owners == [f for f in range(10) for _ in range(10)]
        for fold in range(10):
            run_seed = derive(7, ds_idx, rep, fold)
            part = data.subset(plan.complement_indices(fold))
            inner = make_fold_plan(part.labels, 10, derive(run_seed, 0x1A))
            meta = generate_meta_cv(part, specs, inner, derive(run_seed, 0x2B))
            alpha, curve = training.select_alpha(
                meta, part.labels, config.alpha_grid, config.h)
            assert np.array_equal(metas[at * 10 + fold].scores, meta.scores)
            assert alphas[at * 10 + fold] == (alpha, curve)
    assert len(metas) == len(alphas) == 10 * len(runs)


@pytest.fixture(scope="module")
def runs_beside_every_method():
    datasets = [load_bundled("rings"), load_bundled("twonorm")]

    def results(methods):
        config = ProtocolConfig(folds=5, repeats=1, seed=7, methods=methods,
                                learners=tuple(extended_roster()))
        return run_protocol(datasets, config).results

    return results, results(evaluation.default_methods() + ("learner:perceptron",))


@pytest.mark.parametrize(
    "method", evaluation.default_methods() + ("learner:perceptron",))
def test_method_runs_do_not_depend_on_the_other_methods(
    runs_beside_every_method, method
):
    """A repeat lists decision-template's own-row queries and granular-cv's
    inner parts beside the outer folds in one set of fit_folds calls; they
    must never move another method's fits.  Each method's runs alone are
    its runs beside every default method, also for the seed-dependent
    perceptron's own column."""
    results, together = runs_beside_every_method
    alone = results((method,))
    for name in ("rings", "twonorm"):
        assert alone[name][method] == together[name][method]
