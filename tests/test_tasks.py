"""granulex.tasks, the one module that forks: its shared counter, its fork
rule, a call of one task, which never forks, and a fork that fails, which
gives the one-process results and leaves no child or descriptor behind.
The part_profiles and error_curves cases reuse test_parallel's data."""

import os
import signal
import sys
import threading
import time
import types

import pytest

from granulex import tasks
from granulex.learners import spec_from_name
from test_parallel import ROSTERS, _assert_same, _curves, _parts, _profiles, _tied_meta

pytestmark = pytest.mark.skipif(
    sys.platform != "linux" or not hasattr(os, "fork"),
    reason="tasks forks its child on Linux only")


@pytest.fixture(autouse=True)
def no_child_left():
    """After every case, this process has no child, running or unreaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _refused(monkeypatch, name, error):
    """Make os.name raise error on every call; returns the list of calls."""
    calls = []

    def refuse(*args):
        calls.append(args)
        raise error

    monkeypatch.setattr(os, name, refuse)
    return calls


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


def test_shared_counter_gives_each_number_once_under_contention(tmp_path):
    """Four forked children, more processes than this machine has CPUs,
    claim from one counter with this process: a lost update would give a
    number twice or skip one.  Each child writes its claims to its own
    file; a child still running after a minute is killed and fails it."""
    n, pids = 3000, []
    with tasks._shared_counter() as claim:
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
    monkeypatch.setattr(tasks, "sys", types.SimpleNamespace(
        platform=platform, version_info=version))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    if thread:
        other.start()
    try:
        assert tasks._can_fork() is expected
    finally:
        stop.set()
        if thread:
            other.join()


def test_one_task_never_forks(monkeypatch):
    monkeypatch.setattr(tasks, "_can_fork", lambda: True)
    forks = _refused(monkeypatch, "fork", BlockingIOError())
    assert tasks.run([(1,)], lambda k: {k: 2 * k}) == {1: 2}
    data, rests, seeds, queries = _parts()
    specs = [spec_from_name(n) for n in ("knn5", "lda")]
    one_part = (data, rests[:1], seeds[:1], queries[:1])
    forked = _profiles(monkeypatch, True, specs, one_part)
    assert forks == []
    _assert_same(forked, _profiles(monkeypatch, False, specs, one_part))


@pytest.mark.parametrize("name, error", [("fork", BlockingIOError),
                                         ("memfd_create", OSError)])
def test_failed_fork_gives_the_serial_results(name, error, monkeypatch):
    """Where the fork or its shared counter cannot be made, every task runs
    in this process: the profiles and curves are bitwise the serial ones,
    and every descriptor opened for the fork is closed."""
    specs, parts = ROSTERS["one-logistic"], _parts()
    meta, labels = _tied_meta(1300)
    profiles = _profiles(monkeypatch, False, specs, parts)
    curves = _curves(monkeypatch, False, meta, labels)
    fds = _open_fds()
    calls = _refused(monkeypatch, name, error())
    _assert_same(_profiles(monkeypatch, True, specs, parts), profiles)
    assert _curves(monkeypatch, True, meta, labels) == curves
    assert len(calls) == 2
    assert _open_fds() == fds
