"""Independent tasks dealt round-robin to the calling process and to forked
children, one process per allowed CPU.

`in_shares(task, count)` returns [task(0), ..., task(count - 1)].  With P
processes, share s computes the tasks i with i % P == s: share 0 in the
calling process, every other share in a child made by `os.fork()`.  A child
inherits the task and all it reads without copying or pickling, sends back
only its results through a pipe and leaves through `os._exit`, so it runs
no exit handler and flushes no buffer of the caller's.  The caller gets the
results in task order, so a sum over them is the one a single process
computes, bit for bit.

P is the number of CPUs in `os.sched_getaffinity(0)`, at most `count`.  With
one CPU, without `os.sched_getaffinity` or `os.fork` (macOS, Windows), with
more than one Python thread (fork copies only the calling thread, so a lock
another thread holds would stay held in the child) or when a fork fails,
the shares left run in the calling process through the same loop.

Every child is reaped before `in_shares` returns or raises.  An exception
raised in a child reaches the caller with its type and message, chained to
the child's traceback; one that does not survive pickling arrives as a
RuntimeError naming its type.  A child that ends without a result raises a
RuntimeError naming its exit status.
"""
from __future__ import annotations

import os
import pickle
import signal
import threading
import traceback
from typing import Callable, List


class ChildTraceback(Exception):
    """The formatted traceback of an exception raised in a forked share,
    set as the cause of the exception the caller sees."""


def cpu_count() -> int:
    """The number of CPUs this process may run on; 1 where the system does
    not say (no `os.sched_getaffinity`), so that shares are forked only
    where that is known."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def _portable(exc: BaseException) -> BaseException:
    """exc if it survives a pickle round trip, else a RuntimeError that
    names its type and message."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:  # any failure to pickle or rebuild exc
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _run_child(task: Callable, indices: range, pipe) -> None:
    """Compute task(i) for i in indices and write (True, results) to pipe,
    or (False, exception, traceback text) if one raised; never returns, and
    exits 0 only once the message is written."""
    status = 1
    try:
        try:
            message = (True, [task(i) for i in indices])
        except BaseException as exc:  # forwarded to the caller, who raises
            message = (False, _portable(exc), traceback.format_exc())
        pipe.write(pickle.dumps(message))
        pipe.close()
        status = 0
    finally:
        os._exit(status)


def _fork_share(task: Callable, indices: range):
    """(pid, read end) of a child computing `indices`, or None when no
    child could be made."""
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        os.close(read_fd)
        _run_child(task, indices, os.fdopen(write_fd, "wb"))
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb")


def in_shares(task: Callable[[int], object], count: int) -> List[object]:
    """[task(i) for i in range(count)], computed in round-robin shares by
    the calling process and forked children (see the module docstring)."""
    forkable = hasattr(os, "fork") and threading.active_count() == 1
    nshares = max(1, min(cpu_count(), count)) if forkable else 1
    shares = [range(s, count, nshares) for s in range(nshares)]
    results: List[object] = [None] * count
    children = []  # (pid, read end, share) of the forked children
    try:
        local = [shares[0]]
        for share in shares[1:]:
            child = _fork_share(task, share)
            if child is None:
                local.append(share)
            else:
                children.append((*child, share))
        for share in local:
            for i in share:
                results[i] = task(i)
        while children:
            pid, pipe, share = children[0]
            blob = pipe.read()
            pipe.close()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            code = os.waitstatus_to_exitcode(status)
            if code != 0:  # a child exits 0 only once its result is sent
                raise RuntimeError(
                    f"forked share (pid {pid}) ended without a result: exit "
                    f"status {code}")
            ok, payload, *child_traceback = pickle.loads(blob)
            if not ok:
                raise payload from ChildTraceback(child_traceback[0])
            for i, result in zip(share, payload):
                results[i] = result
    finally:
        # children left here are not needed: stop and reap them
        for pid, pipe, _ in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return results
