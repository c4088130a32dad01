"""One task queue, drained by this process and one forked child.

`run(tasks, work, fork=True)` gives the cells that work(*task) makes of every
task, merged into one dict; `training.part_profiles` and
`training.error_curves` list the tasks and say whether a fork is worth it,
and this module alone forks.  Where fork is true, there are two tasks or
more and `_can_fork` allows it, this process and one forked child claim
the tasks one at a time, in list order, from a counter they share
(`_shared_counter`) until none is left, and the child pickles its cells
back through a pipe (`_forked_cells`).  Otherwise this process runs the
tasks in order.  The child is used only on Linux, with `os.fork` and at
least two CPUs in the process's affinity, and from Python 3.12 only in a
process without other threads, as os.fork warns in one.  numpy's OpenBLAS
starts such a thread when it loads: on a two-CPU machine
`/proc/self/task` lists 2 threads after `import granulex.training`, 1
with OPENBLAS_NUM_THREADS=1, so from 3.12 the one-process path runs unless
the BLAS threads are capped.

A task's cells depend neither on the process that runs it nor on the
other tasks, so both paths give bitwise the same cells, and there is no
option or environment variable to choose between them.  When either side
raises an Exception, or the child leaves without its cells, every task is
run again in this process, which raises the serial error, if any.  The
child is killed unless it has sent its cells, and reaped before `run`
returns or raises: no child outlives the call.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import pickle
import signal
import sys

__all__ = ["run"]


def run(tasks, work, fork=True):
    """The cells that work makes of every task, as the module describes."""
    if fork and len(tasks) > 1 and _can_fork():
        try:
            return _forked_cells(tasks, work)
        except Exception:
            pass  # the serial drain below raises the serial error, if any
    return _drain(tasks, itertools.count().__next__, work)


def _drain(tasks, claim, work):
    """The cells that work makes of the tasks this process claims: claim
    gives the index of the next task, until it gives one past the last."""
    cells = {}
    while (k := claim()) < len(tasks):
        cells.update(work(*tasks[k]))
    return cells


def _can_fork() -> bool:
    """Whether a task list may fork its child: on Linux, with at least
    two CPUs to run on and, from Python 3.12, where os.fork warns in a
    process with other threads, no thread besides this one."""
    if not (sys.platform == "linux" and hasattr(os, "fork")
            and len(os.sched_getaffinity(0)) >= 2):
        return False
    if sys.version_info < (3, 12):
        return True
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


@contextlib.contextmanager
def _shared_counter():
    """A claim function that gives 0, 1, 2, ... to this process and to the
    children it forks while the counter is open, each number once, to
    whichever process asks first, with no limit on how many.  The count
    is kept in an anonymous file and read and advanced under a lockf lock,
    which the kernel releases if its holder dies."""
    import fcntl  # POSIX only, as forking is

    fd = os.memfd_create("granulex-tasks")

    def claim():
        fcntl.lockf(fd, fcntl.LOCK_EX)
        try:
            k = int.from_bytes(os.pread(fd, 8, 0), "little")
            os.pwrite(fd, (k + 1).to_bytes(8, "little"), 0)
        finally:
            fcntl.lockf(fd, fcntl.LOCK_UN)
        return k

    try:
        yield claim
    finally:
        os.close(fd)


def _forked_cells(tasks, work):
    """The cells of every task, drained by this process and one forked
    child together, each claiming from one `_shared_counter` made before
    the fork.  Raises ChildProcessError when the child leaves without its
    cells.  The child is reaped before this returns or raises, and killed
    first unless it has sent them."""
    with _shared_counter() as claim:
        read, write = os.pipe()
        with open(read, "rb") as source, open(write, "wb") as sink:
            pid = os.fork()
            if pid == 0:  # the child: it leaves here and nowhere else
                code = 1
                try:
                    pickle.dump(_drain(tasks, claim, work), sink,
                                pickle.HIGHEST_PROTOCOL)
                    sink.flush()
                    code = 0
                finally:
                    os._exit(code)
            sink.close()
            sent = None
            try:
                cells = _drain(tasks, claim, work)
                sent = source.read()
            finally:
                if sent is None:
                    os.kill(pid, signal.SIGKILL)
                status = os.waitpid(pid, 0)[1]
    if status != 0:
        raise ChildProcessError(f"the child left with wait status {status}")
    cells.update(pickle.loads(sent))
    return cells
