"""part_profiles runs the logistic-linear learners in a forked child while
this process predicts the others.  Both paths must give bitwise the same
profiles and reports, the serial path's error on any failure, and no child
process that outlives the call.

The child path is forced by making `training._can_fork` answer True, and
the serial path by making it answer False; a child inherits every patch
made before the fork.
"""

import os
import sys
import threading
import types

import numpy as np
import pytest

import granulex.training as training
from granulex import learners, report
from granulex.datasets import BUNDLED_DATASETS, GeneratorSpec, generate, load_bundled
from granulex.evaluation import ProtocolConfig, run_protocol
from granulex.learners import LearnerError, LearnerSpec, fit_folds, spec_from_name
from granulex.training import fold_parts, make_fold_plan

pytestmark = pytest.mark.skipif(
    sys.platform != "linux" or not hasattr(os, "fork"),
    reason="part_profiles forks its child on Linux only")

# The ten-learner roster of the headline protocol.
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

ROSTERS = {
    "no-logistic": [spec_from_name(n) for n in ("knn5", "lda", "decision-tree")],
    "one-logistic": [spec_from_name(n) for n in
                     ("knn5", "logistic-linear", "lda", "knn25", "decision-stump")],
    "two-logistic": [LearnerSpec("logistic-linear", {"iterations": 40}),
                     spec_from_name("knn5"), spec_from_name("nearest-mean"),
                     LearnerSpec("logistic-linear", {"iterations": 90,
                                                     "rate": 0.3})],
}


@pytest.fixture(autouse=True)
def no_child_left():
    """After every case, this process has no child, running or unreaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _parts(n=120, folds=4):
    """A data set and the parts of a cross-validation over a subset of its
    rows, each part also queried on its own training rows."""
    data = generate(GeneratorSpec("concentric-rings", n=n, d=3, seed=31))
    rows = np.flatnonzero(np.arange(data.n_observations) % 6 != 0)
    plan = make_fold_plan(data.labels[rows], folds, seed=2)
    rests, seeds, queries = fold_parts(plan, 17, rows)
    for qs, rest in zip(queries, rests):
        qs.append(rest)
    return data, rests, seeds, queries


def _profiles(monkeypatch, child, specs, parts):
    monkeypatch.setattr(training, "_can_fork", lambda: child)
    return training.part_profiles(parts[0], specs, *parts[1:])


def _kernel_calls(monkeypatch):
    """The logistic-linear kernel calls this process makes from now on."""
    calls = []
    kernel = learners._logistic_weights

    def spy(spec, x, y, p, masks):
        calls.append(masks.shape[0])
        return kernel(spec, x, y, p, masks)

    monkeypatch.setattr(learners, "_logistic_weights", spy)
    return calls


def _forks(monkeypatch):
    """The forks this process makes from now on."""
    pids = []
    fork = os.fork

    def counting():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return pids


def _failing(monkeypatch, kind, message):
    """Make every prediction of kind raise LearnerError(message)."""
    def predict(models, x):
        raise LearnerError(message)

    entry = learners._KINDS[kind]
    monkeypatch.setitem(learners._KINDS, kind, entry._replace(predict=predict))


def _assert_same(got, expected):
    assert len(got) == len(expected)
    for part, want in zip(got, expected):
        assert len(part) == len(want)
        for a, b in zip(part, want):
            assert a.shape == b.shape and a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("roster", list(ROSTERS))
def test_child_and_serial_profiles_are_bitwise_equal(roster, monkeypatch):
    specs = ROSTERS[roster]
    parts = _parts()
    logistic = sum(s.kind == "logistic-linear" for s in specs)
    calls, forks = _kernel_calls(monkeypatch), _forks(monkeypatch)
    serial = _profiles(monkeypatch, False, specs, parts)
    assert calls == [len(parts[1])] * logistic and forks == []
    del calls[:]
    forked = _profiles(monkeypatch, True, specs, parts)
    # The kernel ran in the one child, if the roster holds a logistic learner.
    assert calls == [] and len(forks) == min(logistic, 1)
    _assert_same(forked, serial)


@pytest.mark.parametrize("name", BUNDLED_DATASETS)
def test_headline_repeat_report_is_equal_on_both_paths(name, monkeypatch):
    data = load_bundled(name)
    config = ProtocolConfig(folds=10, repeats=1, seed=7, learners=HEADLINE_ROSTER)
    blobs = []
    for child in (True, False):
        monkeypatch.setattr(training, "_can_fork", lambda: child)
        blobs.append(report.report_json_bytes(run_protocol([data], config)))
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("failing", [
    ["logistic-linear"], ["lda"], ["logistic-linear", "lda"]],
    ids=["child", "parent", "both"])
def test_learner_error_on_either_side_is_the_serial_error(failing, monkeypatch):
    """In the roster the logistic learner comes first, so when both sides
    fail the parent's own error (lda's) is not the serial path's."""
    specs = [spec_from_name(n) for n in ("logistic-linear", "lda", "knn5")]
    parts = _parts()
    for kind in failing:
        _failing(monkeypatch, kind, f"{kind} fails")
    errors = []
    for child in (False, True):
        with pytest.raises(LearnerError) as info:
            _profiles(monkeypatch, child, specs, parts)
        errors.append(str(info.value))
    assert errors[0] == errors[1] == f"{failing[0]} fails"


def test_child_that_dies_gives_the_serial_result(monkeypatch):
    specs = ROSTERS["one-logistic"]
    parts = _parts()
    serial = _profiles(monkeypatch, False, specs, parts)
    parent = os.getpid()
    entry = learners._KINDS["logistic-linear"]

    def predict(models, x):
        if os.getpid() != parent:
            os._exit(3)
        return entry.predict(models, x)

    monkeypatch.setitem(learners._KINDS, "logistic-linear",
                        entry._replace(predict=predict))
    forks = _forks(monkeypatch)
    _assert_same(_profiles(monkeypatch, True, specs, parts), serial)
    assert len(forks) == 1


def test_interrupt_in_the_parent_kills_and_reaps_the_child(monkeypatch):
    specs = ROSTERS["one-logistic"]

    def predict(models, x):
        raise KeyboardInterrupt

    entry = learners._KINDS["lda"]
    monkeypatch.setitem(learners._KINDS, "lda", entry._replace(predict=predict))
    forks = _forks(monkeypatch)
    with pytest.raises(KeyboardInterrupt):
        _profiles(monkeypatch, True, specs, _parts())
    assert len(forks) == 1


def test_fit_folds_logistic_runs_no_kernel_until_a_model_is_read(monkeypatch):
    data, rests, seeds, _ = _parts()
    calls = _kernel_calls(monkeypatch)
    models = fit_folds(LearnerSpec("logistic-linear", {"iterations": 5}),
                       data, rests, seeds)
    assert calls == []
    next(models)
    assert calls == [len(rests)]
    list(models)
    assert calls == [len(rests)]


@pytest.mark.parametrize("platform, cpus, version, thread, expected", [
    ("linux", {0, 1}, (3, 11), False, True),
    ("linux", {0, 1}, (3, 11), True, True),
    ("linux", {3}, (3, 11), False, False),
    ("darwin", {0, 1}, (3, 11), False, False),
    ("linux", {0, 1}, (3, 12), True, False),
], ids=["two-cpus", "threads-before-3.12", "one-cpu", "not-linux",
        "threads-from-3.12"])
def test_can_fork(platform, cpus, version, thread, expected, monkeypatch):
    """The child runs on Linux with two CPUs or more; from Python 3.12,
    where os.fork warns in a process with other threads, only without
    them."""
    monkeypatch.setattr(training, "sys", types.SimpleNamespace(
        platform=platform, version_info=version))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    if thread:
        other.start()
    try:
        assert training._can_fork() is expected
    finally:
        stop.set()
        if thread:
            other.join()
