"""part_profiles drains one list of tasks in this process and a forked
child together: one task per learner whose kind fits every part in one
call, one per part for the learners fitted part by part.  Both paths must
give bitwise the same profiles and reports, run each task once, give the
serial path's error on any failure, and leave no child process that
outlives the call.

The child path is forced by making `training._can_fork` answer True, and
the serial path by making it answer False; a child inherits every patch
made before the fork.  What a child does is seen through a file it
appends lines to.
"""

import os
import signal
import sys
import threading
import time
import types

import numpy as np
import pytest

import granulex.training as training
from granulex import learners, report
from granulex.datasets import BUNDLED_DATASETS, GeneratorSpec, generate, load_bundled
from granulex.evaluation import ProtocolConfig, run_protocol
from granulex.learners import (LearnerError, LearnerSpec, extended_roster, fit_folds,
                               spec_from_name)
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
    "extended": extended_roster(),
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


def _logged(monkeypatch, owner, name, line, path):
    """Make owner.name append line(*args) to the file at path, with the
    calling process's pid first, on every call, in this process and in
    any child forked after it; the call itself still runs."""
    real = getattr(owner, name)

    def spy(*args):
        with open(path, "a") as fh:
            fh.write(f"{os.getpid()} {line(*args)}\n")
        return real(*args)

    monkeypatch.setattr(owner, name, spy)


def _lines(path):
    """The (pid, rest of line) pairs that _logged wrote to path, then
    empties it."""
    if not path.exists():
        return []
    pairs = [tuple(line.split(" ", 1)) for line in path.read_text().splitlines()]
    path.unlink()
    return [(int(pid), rest) for pid, rest in pairs]


def _kernel_calls(monkeypatch, path):
    """Log each logistic-linear kernel call, with its number of parts."""
    _logged(monkeypatch, learners, "_logistic_weights",
            lambda spec, x, y, p, masks: str(masks.shape[0]), path)


def _tasks(specs, n_parts):
    """The tasks part_profiles drains, as _task_columns' (learners, part)
    arguments would log them: each learner of a kind fitted over every part
    at once, then each part with the learners fitted part by part."""
    each = [j for j, s in enumerate(specs) if learners._KINDS[s.kind].each_part]
    tasks = [f"{[j]} None" for j in range(len(specs)) if j not in each]
    return tasks + [f"{each} {t}" for t in range(n_parts) if each]


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
def test_child_and_serial_profiles_are_bitwise_equal(roster, monkeypatch, tmp_path):
    specs = ROSTERS[roster]
    parts = _parts()
    logistic = sum(s.kind == "logistic-linear" for s in specs)
    kernel, forks = tmp_path / "kernel", _forks(monkeypatch)
    _kernel_calls(monkeypatch, kernel)
    serial = _profiles(monkeypatch, False, specs, parts)
    assert [n for _, n in _lines(kernel)] == [str(len(parts[1]))] * logistic
    assert forks == []
    forked = _profiles(monkeypatch, True, specs, parts)
    # Each logistic learner's kernel ran once, over every part, in
    # whichever process claimed its task.
    assert [n for _, n in _lines(kernel)] == [str(len(parts[1]))] * logistic
    assert len(forks) == 1
    _assert_same(forked, serial)


@pytest.mark.parametrize("roster", list(ROSTERS))
def test_each_task_runs_once_across_both_processes(roster, monkeypatch, tmp_path):
    specs = ROSTERS[roster]
    parts = _parts()
    log, forks = tmp_path / "tasks", _forks(monkeypatch)
    _logged(monkeypatch, training, "_task_columns",
            lambda data, fitted, queries, learners, part: f"{learners} {part}", log)
    _profiles(monkeypatch, True, specs, parts)
    ran = _lines(log)
    assert sorted(task for _, task in ran) == sorted(_tasks(specs, len(parts[1])))
    assert {pid for pid, _ in ran} <= {os.getpid(), *forks} and len(forks) == 1
    _profiles(monkeypatch, False, specs, parts)
    assert _lines(log) == [(os.getpid(), task) for task in _tasks(specs, len(parts[1]))]


def test_shared_counter_gives_each_number_once_under_contention(tmp_path):
    """Four forked children, more processes than this machine has CPUs,
    claim from one counter with this process: a lost update would give a
    number twice or skip one.  Each child writes its claims to its own
    file; a child still running after a minute is killed and fails it."""
    n, pids = 3000, []
    with training._shared_counter() as claim:
        for _ in range(4):
            pid = os.fork()
            if pid == 0:  # the child: it leaves here and nowhere else
                code = 1
                try:
                    got = []
                    while (k := claim()) < n:
                        got.append(k)
                    (tmp_path / f"claims-{os.getpid()}").write_text(
                        " ".join(map(str, got)))
                    code = 0
                finally:
                    os._exit(code)
            pids.append(pid)
        mine = []
        while (k := claim()) < n:
            mine.append(k)
    deadline, statuses = time.monotonic() + 60, []
    for pid in pids:
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
            time.sleep(0.01)
        statuses.append(done[1])
    assert statuses == [0] * len(pids)
    theirs = [int(k) for pid in pids
              for k in (tmp_path / f"claims-{pid}").read_text().split()]
    assert sorted(mine + theirs) == list(range(n))


def test_rests_are_checked_once_per_call(monkeypatch):
    """fit_folds passes the rests part_profiles checked as they are: one
    check per call, not one per learner."""
    built = []

    class Counted(learners._Rests):
        def __new__(cls, *args):
            built.append(len(args[0]))
            return super().__new__(cls, *args)

    monkeypatch.setattr(learners, "_Rests", Counted)
    parts = _parts()
    _profiles(monkeypatch, False, ROSTERS["extended"], parts)
    assert built == [len(parts[1])]


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
    """A failing learner raises in whichever process claims its task: the
    logistic learner's one task over every part, or lda's in every part's
    task.  The serial path runs the logistic task first, so when both fail
    its error is the one raised, whichever side failed first."""
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
    real = training._task_columns

    def task_columns(*args):
        if os.getpid() != parent:  # the child dies in its first task
            os._exit(3)
        return real(*args)

    monkeypatch.setattr(training, "_task_columns", task_columns)
    forks = _forks(monkeypatch)
    _assert_same(_profiles(monkeypatch, True, specs, parts), serial)
    assert len(forks) == 1


def test_interrupt_in_the_parent_kills_and_reaps_the_child(monkeypatch):
    specs = ROSTERS["one-logistic"]
    parent = os.getpid()
    real = training._task_columns

    def task_columns(*args):
        if os.getpid() == parent:  # the parent is interrupted in its first task
            raise KeyboardInterrupt
        return real(*args)

    monkeypatch.setattr(training, "_task_columns", task_columns)
    forks = _forks(monkeypatch)
    with pytest.raises(KeyboardInterrupt):
        _profiles(monkeypatch, True, specs, _parts())
    assert len(forks) == 1


def test_fit_folds_logistic_runs_no_kernel_until_a_model_is_read(
        monkeypatch, tmp_path):
    data, rests, seeds, _ = _parts()
    kernel = tmp_path / "kernel"
    _kernel_calls(monkeypatch, kernel)
    models = iter(fit_folds(LearnerSpec("logistic-linear", {"iterations": 5}),
                            data, rests, seeds))
    assert _lines(kernel) == []
    next(models)
    assert _lines(kernel) == [(os.getpid(), str(len(rests)))]
    list(models)
    assert _lines(kernel) == []


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
