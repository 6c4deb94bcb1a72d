"""Tasks in forked shares: results in task order, errors that reach the
caller, and no child left behind."""
import os
import pickle

import pytest

from fiolab import shares


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_results_in_task_order_round_robin(cpus, forks):
    cpus(3)
    got = shares.in_shares(lambda i: (i * i, os.getpid()), 7)
    assert [v for v, _ in got] == [i * i for i in range(7)]
    # task i ran in share i % 3, share 0 in the calling process
    pids = [pid for _, pid in got]
    assert pids[0::3] == [os.getpid()] * 3
    assert len(forks) == 2 and pids[1::3] == [forks[0]] * 2 \
        and pids[2::3] == [forks[1]] * 2
    assert_no_child_left()


def test_no_more_processes_than_tasks(cpus, forks):
    cpus(8)
    assert shares.in_shares(lambda i: i, 3) == [0, 1, 2]
    assert len(forks) == 2
    cpus(1)
    assert shares.in_shares(lambda i: os.getpid(), 3) == [os.getpid()] * 3
    assert len(forks) == 2
    assert shares.in_shares(lambda i: i, 0) == []


def test_failed_fork_runs_the_share_in_process(cpus, monkeypatch):
    cpus(2)

    def no_fork():
        raise OSError("no more processes")
    monkeypatch.setattr(os, "fork", no_fork)
    assert shares.in_shares(lambda i: os.getpid(), 4) == [os.getpid()] * 4


def test_child_exception_reaches_caller(cpus):
    cpus(2)
    parent = os.getpid()

    def task(i):
        if os.getpid() != parent:
            raise FloatingPointError(f"non-finite integrand in task {i}")
        return i
    with pytest.raises(FloatingPointError, match="in task 1") as info:
        shares.in_shares(task, 4)
    assert isinstance(info.value.__cause__, shares.ChildTraceback)
    assert "FloatingPointError" in str(info.value.__cause__)
    assert_no_child_left()


def test_unpicklable_exception_arrives_as_runtime_error(cpus):
    cpus(2)
    parent = os.getpid()

    class Local(ValueError):
        pass

    def task(i):
        if os.getpid() != parent:
            raise Local("cannot be pickled")
        return i
    with pytest.raises(RuntimeError, match="Local: cannot be pickled"):
        shares.in_shares(task, 2)
    with pytest.raises((pickle.PicklingError, AttributeError)):
        pickle.dumps(Local("x"))
    assert_no_child_left()


@pytest.mark.parametrize("how, status", [("exit", "3"), ("kill", "-9")])
def test_child_dying_without_result_raises(cpus, how, status):
    cpus(2)
    parent = os.getpid()

    def task(i):
        if os.getpid() != parent:  # never end the test's own process
            if how == "exit":
                os._exit(3)
            os.kill(os.getpid(), 9)
        return i
    with pytest.raises(RuntimeError,
                       match=rf"without a result: exit status {status}$"):
        shares.in_shares(task, 2)
    assert_no_child_left()


def test_error_in_own_share_stops_and_reaps_children(cpus, forks):
    cpus(2)
    parent = os.getpid()

    def task(i):
        if os.getpid() == parent:
            raise KeyError(i)
        while True:  # the child would never finish on its own
            pass
    with pytest.raises(KeyError):
        shares.in_shares(task, 2)
    assert len(forks) == 1
    assert_no_child_left()
