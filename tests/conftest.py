"""Shared fixtures: canonical generating functions, phases and grids, and
the processes of the forked tile shares."""
import os

import numpy as np
import pytest

from fiolab import shares
from fiolab.grids import GridSpec
from fiolab.phases import GeneratingFunction, special_phase


@pytest.fixture(scope="session")
def S_xt():
    """The identity-case generating function S = x*theta."""
    return GeneratingFunction.from_expr("x*theta", 1)


@pytest.fixture(scope="session")
def S_chirp():
    """The quadratic chirp S = x*theta + theta^2/2."""
    return GeneratingFunction.from_expr("x*theta + theta**2/2", 1)


@pytest.fixture(scope="session")
def phi_xt(S_xt):
    """phi = (x - y)*theta."""
    return special_phase(S_xt)


@pytest.fixture(scope="session")
def grid256():
    return GridSpec(1, 8.0, 256, dft_aligned=True)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def cpus(monkeypatch):
    """Set the number of CPUs `fiolab.shares` deals tasks to."""
    def set_cpus(n):
        monkeypatch.setattr(shares, "cpu_count", lambda: n)
    return set_cpus


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children `os.fork` made during the test."""
    made = []
    real = os.fork

    def counting():
        pid = real()
        if pid:
            made.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", counting)
    return made
