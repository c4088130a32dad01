"""Tracing must not change what granulex computes, and must leave no wrapper
behind.  Runs each operation's probe-size instance untraced and traced.

    PYTHONPATH=src python -m pytest -q bench/test_trace.py
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import ops  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from granulex import cli, combiners, evaluation, learners, training  # noqa: E402


def _snapshot():
    return {
        "training.fit": training.fit,
        "evaluation.fit": evaluation.fit,
        "predict_proba_batch": learners.FittedClassifier.__dict__["predict_proba_batch"],
        "training.granular_intervals": training.granular_intervals,
        "combiners.construct_granule": combiners.construct_granule,
        "cli.main": cli.main,
    }


@pytest.mark.parametrize("name", sorted(ops.OPS))
def test_traced_outputs_match_untraced_and_wrappers_are_removed(name, tmp_path):
    op = ops.OPS[name]
    (inp,) = op.setup(str(tmp_path), 3, ops.SIZES[name]["probe"])
    plain, _ = op.run(inp)
    before = _snapshot()

    tracer = tracer_mod.Tracer()
    tracer_mod.install(tracer)
    assert training.fit is not before["training.fit"]
    root = tracer.enter("bench.test")
    try:
        traced, _ = op.run(inp)
    finally:
        tracer.exit(root)
        left = tracer.restore()

    assert left == []
    after = _snapshot()
    assert all(after[k] is before[k] for k in before)
    assert op.digest(traced) == op.digest(plain)
    layers = tracer_mod.layer_metrics(tracer, root)
    assert layers["trace.coverage"] >= 0.8
    assert op.check(inp, plain).failures == []
