"""The four user-facing operations the benchmark times, with their inputs and
output checks.

Each operation has a set-up that writes its inputs from the workload seed
(datasets, CSV files, a trained model, a meta CSV) as a list of parts, a
timed `run` of one part that only calls granulex's public API on its inputs,
a `digest` of its outputs, and a `check` that verifies them outside the timed
part.  Sizes come in two scales: `full` for the workload named after the
operation and `probe` for the small instance every other workload runs, so
that each workload reports every end-to-end metric.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import os
import time
from dataclasses import dataclass, field

import numpy as np

from granulex import cli, combiners, datasets, evaluation, learners, metadata, report, training
from granulex.learners import LearnerSpec

# The ten-learner roster of the paper's headline comparison, as in the
# acceptance suite: sharp, diverse posteriors.
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
HEADLINE_SEED = 7

SIZES = {
    # Headline protocol with one repeat: fixed inputs, so its report hash
    # can be compared across commits.
    "protocol": {
        "full": {"bundled": True, "folds": 10, "inner_folds": 10},
        "probe": {"bundled": False, "n": 60, "folds": 3, "inner_folds": 3},
    },
    "train": {
        "full": {"parts": 3, "n": 500, "d": 8, "folds": 10},
        "probe": {"parts": 1, "n": 90, "d": 4, "folds": 3},
    },
    "serve": {
        "full": {"train_n": 600, "folds": 10, "rows": 2500},
        "probe": {"train_n": 90, "folds": 3, "rows": 300},
    },
    "meta": {
        "full": {"train_n": 300, "rows": 2500},
        "probe": {"train_n": 90, "rows": 300},
    },
}

# Rows of the train workload's model that the save/load check predicts.
ROUND_TRIP_ROWS = 1000


class OpError(Exception):
    """An operation returned an error instead of a result."""


@dataclass
class Checked:
    """Outcome of one check: failures found and counters of known defects."""

    failures: list[str] = field(default_factory=list)
    decision_mismatch: int = 0
    single_row_mismatch: int = 0


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


def _child_seed(seed: int, *salt: int) -> int:
    return int(training.derive_seed(seed, *salt) % (2**31))


def _write_dataset_csv(path: str, data) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{j}" for j in range(data.n_features)] + ["label"])
        for row, lab in zip(data.features, data.labels):
            writer.writerow([repr(float(v)) for v in row] + [data.catalog.labels[lab]])


def _write_features_csv(path: str, x: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{j}" for j in range(x.shape[1])])
        for row in x:
            writer.writerow([repr(float(v)) for v in row])


def _cli(argv: list[str]) -> None:
    # train prints a status line; keep it off the benchmark's stdout.
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise OpError(f"granulex {argv[0]} exited with {code}")


# --------------------------------------------------------------------------
# protocol: evaluation.run_protocol on the headline config


def setup_protocol(work: str, seed: int, size: dict) -> list[dict]:
    """One part per dataset, so other operations can run between them."""
    if size["bundled"]:
        data = [datasets.load_bundled(name) for name in datasets.BUNDLED_DATASETS]
        proto_seed = HEADLINE_SEED
    else:
        spec = datasets.GeneratorSpec("two-gaussians", n=size["n"], d=2, seed=_child_seed(seed, 1))
        data = [datasets.generate(spec)]
        proto_seed = _child_seed(seed, 2)
    config = evaluation.ProtocolConfig(
        folds=size["folds"], repeats=1, seed=proto_seed,
        learners=HEADLINE_ROSTER, inner_folds=size["inner_folds"],
    )
    return [{"datasets": [d], "config": config} for d in data]


def run_protocol(inp: dict) -> tuple[dict, dict]:
    start = time.perf_counter()
    result = evaluation.run_protocol(inp["datasets"], inp["config"])
    blob = report.report_json_bytes(result)
    wall = time.perf_counter() - start
    return {"report": result, "json": blob}, {"protocol_s": wall}


def digest_protocol(out: dict) -> str:
    return _sha(out["json"])


def check_protocol(inp: dict, out: dict) -> Checked:
    chk = Checked()
    cfg = inp["config"]
    runs = cfg.folds * cfg.repeats
    for ds, methods in out["report"].results.items():
        if set(methods) != set(cfg.methods):
            chk.failures.append(f"{ds}: methods {sorted(methods)}")
        for method, res in methods.items():
            if len(res.errors) != runs or len(res.f1s) != runs:
                chk.failures.append(f"{ds}/{method}: {len(res.errors)} runs, want {runs}")
            if not all(0.0 <= e <= 1.0 for e in res.errors):
                chk.failures.append(f"{ds}/{method}: error outside [0, 1]")
    return chk


# --------------------------------------------------------------------------
# train: `granulex train` with every learner kind


def setup_train(work: str, seed: int, size: dict) -> list[dict]:
    """One part per training CSV; more data per run evens out how much work
    one random draw makes (tree sizes, perceptron updates)."""
    check_spec = datasets.GeneratorSpec(
        "twonorm-like", n=ROUND_TRIP_ROWS, d=size["d"], seed=_child_seed(seed, 4)
    )
    check_x = datasets.generate(check_spec).features
    names = ",".join(s.name for s in learners.extended_roster())
    parts = []
    for p in range(size["parts"]):
        spec = datasets.GeneratorSpec(
            "twonorm-like", n=size["n"], d=size["d"], seed=_child_seed(seed, 30, p)
        )
        path = os.path.join(work, f"train{p}.csv")
        _write_dataset_csv(path, datasets.generate(spec))
        model = os.path.join(work, f"model{p}.json")
        parts.append({
            "argv": ["train", "--data", path, "--learners", names, "--folds", str(size["folds"]),
                     "--seed", str(_child_seed(seed, 5)), "--output", model],
            "model": model,
            "copy": os.path.join(work, f"model{p}-copy.json"),
            "check_x": check_x,
        })
    return parts


def run_train(inp: dict) -> tuple[dict, dict]:
    start = time.perf_counter()
    _cli(inp["argv"])
    wall = time.perf_counter() - start
    with open(inp["model"], "rb") as fh:
        return {"model": fh.read()}, {"train_s": wall}


def digest_train(out: dict) -> str:
    return _sha(out["model"])


def check_train(inp: dict, out: dict) -> Checked:
    chk = Checked()
    model = training.load_ensemble(inp["model"])
    if model.alpha not in training.default_alpha_grid().values:
        chk.failures.append(f"alpha {model.alpha} not in the grid")
    if len(model.classifiers) != len(learners.extended_roster()):
        chk.failures.append("model lost classifiers")
    training.save_ensemble(inp["copy"], model)
    copy = training.load_ensemble(inp["copy"])
    predicted = [digest_rows(training.predict_batch(m, inp["check_x"])) for m in (model, copy)]
    if predicted[0] != predicted[1]:
        chk.failures.append("load(save(m)) predicts differently from m")
    return chk


# --------------------------------------------------------------------------
# serve: `granulex predict --emit-intervals`, and single-row predict calls


def setup_serve(work: str, seed: int, size: dict) -> list[dict]:
    train_spec = datasets.GeneratorSpec(
        "concentric-rings", n=size["train_n"], d=4, seed=_child_seed(seed, 6)
    )
    model = training.train(
        datasets.generate(train_spec), learners.default_roster(), _child_seed(seed, 7),
        grid=training.default_alpha_grid(), n_folds=size["folds"],
    )
    model_path = os.path.join(work, "serve-model.json")
    training.save_ensemble(model_path, model)
    query_spec = datasets.GeneratorSpec(
        "concentric-rings", n=size["rows"], d=4, seed=_child_seed(seed, 8)
    )
    x = datasets.generate(query_spec).features
    query_path = os.path.join(work, "query.csv")
    _write_features_csv(query_path, x)
    out_path = os.path.join(work, "predictions.csv")
    return [{
        "argv": ["predict", "--model", model_path, "--data", query_path,
                 "--emit-intervals", "--output", out_path],
        "output": out_path,
        "x": x,
        "ensemble": training.load_ensemble(model_path),
    }]


def run_serve(inp: dict) -> tuple[dict, dict]:
    start = time.perf_counter()
    _cli(inp["argv"])
    wall = time.perf_counter() - start
    with open(inp["output"], "rb") as fh:
        return {"csv": fh.read()}, {"rows": len(inp["x"]), "predict_s": wall}


def predict_rows(inp: dict, rows) -> tuple[list, list[float]]:
    """Single-row `training.predict` calls on the given query rows; returns
    their results and latencies in ms."""
    ensemble, x = inp["ensemble"], inp["x"]
    details, latencies = [], []
    for i in rows:
        start = time.perf_counter()
        details.append(training.predict(ensemble, x[i]))
        latencies.append((time.perf_counter() - start) * 1e3)
    return details, latencies


def digest_serve(out: dict) -> str:
    return _sha(out["csv"])


def digest_rows(details) -> str:
    return _sha(repr([
        (d.decision, [v.hex() for v in d.memberships],
         [(g.lower.hex(), g.upper.hex()) for g in d.intervals])
        for d in details
    ]).encode())


def _parse_predictions(inp: dict, out: dict):
    """(bounds (n, M, 2), memberships (n, M), decisions (n,)) as printed."""
    labels = inp["ensemble"].catalog.labels
    m = len(labels)
    body = list(csv.reader(io.StringIO(out["csv"].decode())))[1:]
    table = np.asarray([r[1:-1] for r in body], dtype=np.float64).reshape(len(body), 3 * m)
    decisions = np.asarray([labels.index(r[-1]) for r in body], dtype=np.int64)
    return table[:, : 2 * m].reshape(len(body), m, 2), table[:, 2 * m:], decisions


def check_serve(inp: dict, out: dict) -> Checked:
    chk = Checked()
    ensemble, x = inp["ensemble"], inp["x"]
    bounds, memberships, decisions = _parse_predictions(inp, out)
    if len(decisions) != len(x):
        chk.failures.append(f"{len(decisions)} output rows for {len(x)} queries")
        return chk
    bad = int((np.argmax(memberships, axis=1) != decisions).sum())
    if bad:
        chk.failures.append(f"{bad} decisions are not the argmax of their memberships")

    profiles = training.ensemble_profiles(ensemble, x)
    n, k, m = profiles.shape
    cols = np.transpose(profiles, (0, 2, 1)).reshape(n * m, k)
    expected = combiners.construct_granules_batch(cols, ensemble.alpha).reshape(n, m, 2)
    bad = int((expected != bounds).any(axis=(1, 2)).sum())
    if bad:
        chk.failures.append(f"{bad} rows print bounds other than the batch kernel's")
    batch = combiners.granular_decide_batch(profiles, ensemble.alpha, ensemble.h)
    # Known scalar/batch tie defect: counted, not a failure.
    chk.decision_mismatch = int((batch != decisions).sum())
    return chk


def check_rows(inp: dict, out: dict, rows, details) -> Checked:
    """Each single-row result decides by its argmax and has the batch
    kernel's bounds on its own profile."""
    chk = Checked()
    ensemble, x = inp["ensemble"], inp["x"]
    bounds, _, decisions = _parse_predictions(inp, out)
    for i, d in zip(rows, details):
        own = training.ensemble_profiles(ensemble, x[i:i + 1])[0].T
        row_bounds = np.asarray([[g.lower, g.upper] for g in d.intervals])
        if not np.array_equal(row_bounds, combiners.construct_granules_batch(own, ensemble.alpha)):
            chk.failures.append(f"single-row bounds of row {i} differ from the batch kernel's")
        if d.decision != int(np.argmax(d.memberships)):
            chk.failures.append(f"single-row decision of row {i} is not the argmax")
        # A one-row profile can differ in the last bits from the same row's
        # profile inside a batch (the LDA, Fisher and logistic matrix
        # products round differently for one row); counted as a known
        # defect, not a failure.
        if not (np.array_equal(row_bounds, bounds[i]) and d.decision == decisions[i]):
            chk.single_row_mismatch += 1
    return chk


# --------------------------------------------------------------------------
# meta: combiners on a meta CSV, no learner in the timed part


def setup_meta(work: str, seed: int, size: dict) -> list[dict]:
    def rings(n, salt):
        spec = datasets.GeneratorSpec("concentric-rings", n=n, d=4, seed=_child_seed(seed, salt))
        return datasets.generate(spec)

    train_part, query = rings(size["train_n"], 9), rings(size["rows"], 10)
    specs = learners.extended_roster()
    scores = np.stack([
        learners.fit(spec, train_part, _child_seed(seed, 100 + j))
        .predict_proba_batch(query.features)
        for j, spec in enumerate(specs)
    ], axis=1)
    meta = metadata.MetaMatrix(scores, query.catalog, tuple(s.name for s in specs))
    path = os.path.join(work, "meta.csv")
    metadata.write_meta_csv(path, meta, query.labels)
    return [{"path": path, "catalog": query.catalog}]


def run_meta(inp: dict) -> tuple[dict, dict]:
    start = time.perf_counter()
    meta, labels = metadata.read_meta_csv(inp["path"], inp["catalog"])
    grid = training.default_alpha_grid()
    selected = {h: training.select_alpha(meta, labels, grid, h) for h in combiners.H_KINDS}
    dt_model = combiners.dt_fit(meta, labels)
    dt_decisions = combiners.dt_decide_batch(dt_model, meta.scores)
    rules = {r: combiners.fixed_rule_scores_batch(meta.scores, r) for r in combiners.FIXED_RULES}
    wall = time.perf_counter() - start
    out = {"meta": meta, "labels": labels, "selected": selected, "dt": dt_decisions, "rules": rules}
    return out, {"combine_s": wall}


def digest_meta(out: dict) -> str:
    parts = [repr(out["selected"]).encode(), out["dt"].tobytes()]
    parts += [out["rules"][r].tobytes() for r in combiners.FIXED_RULES]
    return _sha(*parts)


def check_meta(inp: dict, out: dict) -> Checked:
    chk = Checked()
    meta, labels = out["meta"], out["labels"]
    grid = training.default_alpha_grid().values
    for h, (alpha, curve) in out["selected"].items():
        errors = dict(curve)
        if alpha not in grid or len(curve) != len(grid):
            chk.failures.append(f"{h}: alpha {alpha} or curve outside the grid")
            continue
        if errors[alpha] != min(errors.values()):
            chk.failures.append(f"{h}: chosen alpha's error is not the curve minimum")
        if training.error_for_alpha(meta, labels, alpha, h) != errors[alpha]:
            chk.failures.append(f"{h}: recomputed error differs from the curve")
    m = meta.catalog.size
    if out["dt"].shape != labels.shape or not ((out["dt"] >= 0) & (out["dt"] < m)).all():
        chk.failures.append("decision-template decisions out of range")
    for r, scores in out["rules"].items():
        if scores.shape != (len(labels), m) or not np.isfinite(scores).all():
            chk.failures.append(f"rule {r}: bad score matrix")
    return chk


@dataclass(frozen=True)
class Op:
    setup: object
    run: object
    digest: object
    check: object


OPS = {
    "protocol": Op(setup_protocol, run_protocol, digest_protocol, check_protocol),
    "train": Op(setup_train, run_train, digest_train, check_train),
    "serve": Op(setup_serve, run_serve, digest_serve, check_serve),
    "meta": Op(setup_meta, run_meta, digest_meta, check_meta),
}
