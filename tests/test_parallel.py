"""part_profiles drains one list of tasks in this process and a forked
child together: one task per learner whose kind fits every part in one
call, one per part for the learners fitted part by part.  train's
full-data refit is one more part of its meta-CV's call.  error_curves
drains its chunks of meta rows the same way when its sweep is large.  Both
paths must give bitwise the same profiles, models, reports and curves, run
each task once, give the serial path's error on any failure, and leave no
child process that outlives the call.

The child path is forced by making `tasks._can_fork` answer True, and
the serial path by making it answer False; a child inherits every patch
made before the fork.  What a child does is seen through a file it
appends lines to.
"""

import contextlib
import os
import signal
import sys
import time

import numpy as np
import pytest

import granulex.training as training
from granulex import combiners, learners, report, tasks
from granulex.datasets import BUNDLED_DATASETS, GeneratorSpec, generate, load_bundled
from granulex.evaluation import ProtocolConfig, run_protocol
from granulex.learners import (LearnerError, LearnerSpec, extended_roster, fit_folds,
                               spec_from_name)
from granulex.metadata import ClassCatalog, MetaMatrix
from granulex.training import (default_alpha_grid, derive_seed, fold_parts,
                               make_fold_plan)

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
    monkeypatch.setattr(tasks, "_can_fork", lambda: child)
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
        monkeypatch.setattr(tasks, "_can_fork", lambda: child)
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


def _twonorm():
    """The benchmark's train data: 500 rows of 8 features, two classes."""
    return generate(GeneratorSpec("twonorm-like", n=500, d=8, seed=11))


def _assert_same_model(got, expected):
    assert got.spec == expected.spec and got.catalog == expected.catalog
    assert got.n_features == expected.n_features
    assert got.present.tobytes() == expected.present.tobytes()
    assert list(got.state) == list(expected.state)
    for key, value in expected.state.items():
        assert got.state[key].dtype == value.dtype
        assert got.state[key].shape == value.shape
        assert got.state[key].tobytes() == value.tobytes()


@pytest.mark.parametrize("child", [True, False], ids=["forked", "serial"])
def test_grid_train_refit_is_bitwise_the_full_data_fit(child, monkeypatch):
    """The refit part, fitted in the meta-CV's call by whichever process
    claims its tasks, gives learner j the model of fit(spec, data,
    derive_seed(seed, 0xF111, j)).  The sweep of this meta is below
    SWEEP_FORK_SCORES, so the one fork is part_profiles'."""
    data, specs, seed = _twonorm(), extended_roster(), 23
    monkeypatch.setattr(tasks, "_can_fork", lambda: child)
    forks = _forks(monkeypatch)
    ensemble = training.train(data, specs, seed, grid=default_alpha_grid())
    assert len(forks) == int(child)
    assert len(ensemble.classifiers) == len(specs)
    for j, (spec, model) in enumerate(zip(specs, ensemble.classifiers)):
        _assert_same_model(model, learners.fit(spec, data,
                                               derive_seed(seed, 0xF111, j)))


def test_grid_train_fits_each_learner_in_one_call(monkeypatch, tmp_path):
    """One fit_folds call per learner over the folds and the refit, one
    logistic kernel call over all of them, and no one-part fit, in either
    process."""
    data, specs, folds = _twonorm(), extended_roster(), 10
    log, kernel = tmp_path / "fits", tmp_path / "kernel"
    _logged(monkeypatch, training, "fit_folds",
            lambda spec, data, rests, seeds: f"fit_folds {spec.name} {len(rests)}", log)
    for owner in (training, learners):
        _logged(monkeypatch, owner, "fit", lambda spec, data, seed: "fit", log)
    _kernel_calls(monkeypatch, kernel)
    monkeypatch.setattr(tasks, "_can_fork", lambda: True)
    training.train(data, specs, 3, grid=default_alpha_grid(), n_folds=folds)
    assert _lines(log) == [(os.getpid(), f"fit_folds {s.name} {folds + 1}")
                           for s in specs]
    assert [n for _, n in _lines(kernel)] == [str(folds + 1)]


def _failing_on(monkeypatch, kind, x_failing, message):
    """Make kind's predictions on exactly the rows x_failing raise
    LearnerError(message); its other predictions run as before."""
    entry = learners._KINDS[kind]

    def predict(models, x):
        if x.shape == x_failing.shape and (x == x_failing).all():
            raise LearnerError(message)
        return entry.predict(models, x)

    monkeypatch.setitem(learners._KINDS, kind, entry._replace(predict=predict))


def _steered(monkeypatch, tmp_path, failer_is_child):
    """Steer part_profiles' two processes: the failer claims the first
    task, and runs it only once the other process has run the refit part
    (the part with no query, the last task), so that the other process
    holds the refit.  Each waits at most a minute for the other."""
    parent, claimed, refitted = os.getpid(), tmp_path / "claimed", tmp_path / "refitted"

    def failer():
        return (os.getpid() != parent) == failer_is_child

    def wait_for(path):
        deadline = time.monotonic() + 60
        while not path.exists() and time.monotonic() < deadline:
            time.sleep(0.005)

    real_counter, real_columns = tasks._shared_counter, training._task_columns

    @contextlib.contextmanager
    def counter():
        with real_counter() as claim:
            first = [True]

            def steered():
                if first:
                    first.clear()
                    if failer():
                        k = claim()
                        claimed.touch()
                        return k
                    wait_for(claimed)
                return claim()

            yield steered

    def task_columns(data, fitted, queries, learners, part):
        if failer():
            wait_for(refitted)
        cells = real_columns(data, fitted, queries, learners, part)
        if queries[part] is None:
            refitted.touch()
        return cells

    monkeypatch.setattr(tasks, "_shared_counter", counter)
    monkeypatch.setattr(training, "_task_columns", task_columns)


@pytest.mark.parametrize("holder", ["child", "parent", "serial"])
def test_failing_meta_cv_learner_raises_the_meta_cv_error(holder, monkeypatch,
                                                          tmp_path):
    """lda fails on fold 0's query rows.  Whether the child or this process
    holds the refit part, or one process runs every task, train raises the
    error the meta-CV alone raises."""
    data, seed, folds = load_bundled("rings"), 5, 4
    specs = [spec_from_name(n) for n in ("lda", "knn5", "nearest-mean")]
    fold0 = training._cv_plan(data, folds, seed).fold_indices(0)
    _failing_on(monkeypatch, "lda", data.features[fold0], "lda fails on fold 0")
    with pytest.raises(LearnerError) as meta_cv:
        training.cross_validated_meta(data, specs, folds, seed)
    assert str(meta_cv.value) == "lda fails on fold 0"
    log = tmp_path / "tasks"
    if holder != "serial":
        _steered(monkeypatch, tmp_path, failer_is_child=holder == "parent")
    _logged(monkeypatch, training, "_task_columns",
            lambda data, fitted, queries, learners, part: str(part), log)
    monkeypatch.setattr(tasks, "_can_fork", lambda: holder != "serial")
    forks = _forks(monkeypatch)
    with pytest.raises(LearnerError) as info:
        training.train(data, specs, seed, grid=default_alpha_grid(), n_folds=folds)
    assert str(info.value) == str(meta_cv.value)
    ran = _lines(log)
    refit = [pid for pid, part in ran if part == str(folds)]
    if holder == "serial":
        assert forks == [] and refit == []  # the serial drain stops at fold 0
    else:
        (child,) = forks
        assert refit[0] == (child if holder == "child" else os.getpid())


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


def _tied_meta(n, seed=5):
    """A meta matrix of n rows, K = 12 and M = 3, and its labels: each
    column is the vote share of 5 neighbours, knn-like, so many columns
    hold tied values.  A row's votes lean to its label."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 3, n)
    probs = np.full((n, 3), 0.3)
    probs[np.arange(n), labels] += 0.1
    draws = rng.random((n, 12, 5))[..., None] > np.cumsum(probs, axis=1)[:, None, None]
    votes = (draws.sum(axis=3)[..., None] == np.arange(3)).sum(axis=2) / 5
    return MetaMatrix(votes, ClassCatalog(("a", "b", "c"))), labels


def _sweep_scores(meta, alphas):
    """The scores error_curves counts against SWEEP_FORK_SCORES."""
    n, k, m = meta.scores.shape
    return 2 * n * m * (k // 2 + 1) * len(alphas)


def _curves(monkeypatch, child, meta, labels, alphas=default_alpha_grid().values):
    monkeypatch.setattr(tasks, "_can_fork", lambda: child)
    return training.error_curves(meta, labels, alphas, combiners.H_KINDS)


def test_forked_and_serial_curves_are_bitwise_equal(monkeypatch):
    """Above the threshold the chunks are drained by two processes; both
    paths give, for every h and alpha, the error of that alpha's decisions
    computed alone on every row, to the bit."""
    meta, labels = _tied_meta(1300)
    grid = default_alpha_grid().values
    assert _sweep_scores(meta, grid) >= training.SWEEP_FORK_SCORES
    forks = _forks(monkeypatch)
    serial = _curves(monkeypatch, False, meta, labels)
    assert forks == []
    forked = _curves(monkeypatch, True, meta, labels)
    assert len(forks) == 1
    for h in combiners.H_KINDS:
        alone = [float(np.mean(combiners.granular_decide_batch(meta.scores, a, h)
                               != labels)) for a in grid]
        assert [a for a, _ in forked[h]] == list(grid)
        assert [e.hex() for _, e in forked[h]] == [e.hex() for _, e in serial[h]]
        assert [e.hex() for _, e in serial[h]] == [e.hex() for e in alone]


def test_each_chunk_runs_once_across_both_processes(monkeypatch, tmp_path):
    meta, labels = _tied_meta(1300)
    log, forks = tmp_path / "chunks", _forks(monkeypatch)
    _logged(monkeypatch, training, "_chunk_errors",
            lambda scores, labels, alphas, hs, rows: f"{rows.start} {rows.stop}", log)
    _curves(monkeypatch, True, meta, labels)
    ran = _lines(log)
    assert {pid for pid, _ in ran} == {os.getpid(), *forks} and len(forks) == 1
    chunks = sorted(tuple(map(int, c.split())) for _, c in ran)
    assert chunks[0][0] == 0 and chunks[-1][1] >= 1300 and len(chunks) > 2
    assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))


@pytest.mark.parametrize("above, forks_made", [(0, 1), (1, 0)],
                         ids=["at-threshold", "one-below"])
def test_sweep_forks_from_the_threshold_on(above, forks_made, monkeypatch):
    meta, labels = _tied_meta(400)
    alphas = (0.0, 0.5, 1.0, 2.0)
    monkeypatch.setattr(training, "SWEEP_FORK_SCORES",
                        _sweep_scores(meta, alphas) + above)
    monkeypatch.setattr(training, "GRANULE_BLOCK_CELLS", 1 << 12)  # 3 chunks or more
    forks = _forks(monkeypatch)
    _curves(monkeypatch, True, meta, labels, alphas)
    assert len(forks) == forks_made


def test_small_sweep_runs_in_this_process(monkeypatch):
    """The probe-sized meta of the benchmark's other workloads, 300 rows of
    K = 12 and M = 3 on the default grid, is below the threshold: a fork
    would cost more than the half of the sweep it takes over."""
    meta, labels = _tied_meta(300)
    assert _sweep_scores(meta, default_alpha_grid().values) < training.SWEEP_FORK_SCORES
    forks = _forks(monkeypatch)
    _curves(monkeypatch, True, meta, labels)
    assert forks == []


def test_child_killed_in_its_first_chunk_gives_the_serial_curve(monkeypatch):
    meta, labels = _tied_meta(1300)
    serial = _curves(monkeypatch, False, meta, labels)
    parent = os.getpid()
    real = training._chunk_errors

    def chunk_errors(*args):
        if os.getpid() != parent:  # the child is killed in its first chunk
            os.kill(os.getpid(), signal.SIGKILL)
        return real(*args)

    monkeypatch.setattr(training, "_chunk_errors", chunk_errors)
    forks = _forks(monkeypatch)
    assert _curves(monkeypatch, True, meta, labels) == serial
    assert len(forks) == 1
