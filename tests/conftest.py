import tracemalloc

import numpy as np
import pytest

import sudap.cli as cli
from sudap import EndmemberMatrix
from sudap.simdata import make_synthetic_library


def random_endmembers(rng, n_bands, m):
    """Gaussian endmember matrix; full column rank with probability 1."""
    return EndmemberMatrix(rng.standard_normal((n_bands, m)))


def traced_peak(call):
    """Run call() under tracemalloc; returns (its value, peak bytes)."""
    tracemalloc.start()
    try:
        value = call()
        return value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def fail_pair_solves(monkeypatch):
    """Make every batched 2 x 2 solve raise, as a singular system does."""
    solve = np.linalg.solve

    def fail_on_pairs(a, b):
        if a.shape[-1] == 2:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", fail_on_pairs)


def unmix_peak(argv):
    """Run `sudap unmix` with the arguments argv under tracemalloc, check
    that it exits 0, and return its peak bytes."""
    rc, peak = traced_peak(lambda: cli.main(["unmix", *argv]))
    assert rc == 0
    return peak


def read_curve(path):
    """A curve CSV's columns by name; an empty cell reads as nan."""
    return np.genfromtxt(path, delimiter=",", names=True, ndmin=1)


@pytest.fixture(scope="session")
def bump_library():
    return make_synthetic_library(n_bands=96, n_signatures=24, seed=3)


@pytest.fixture
def cholesky_calls(monkeypatch):
    """A list that grows by one entry per numpy.linalg.cholesky call."""
    calls = []
    cholesky = np.linalg.cholesky

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return cholesky(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    return calls
