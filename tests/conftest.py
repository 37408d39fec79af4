"""Shared fixtures for the test suite."""

from __future__ import annotations

import multiprocessing
import os

import numpy as np
import pytest

from repro.graphs import generators

# The CI "spawn" job sets REPRO_TEST_START_METHOD=spawn so the whole
# suite runs its pools without fork inheritance — the regime where a
# kernel and its context (the graph included) can reach a worker only
# by pickle.  The method must be pinned at import time, before any pool
# (or the resource tracker) exists.
_START_METHOD = os.environ.get("REPRO_TEST_START_METHOD")
if _START_METHOD:
    multiprocessing.set_start_method(_START_METHOD, force=True)


@pytest.fixture(scope="session", autouse=True)
def _pinned_start_method():
    """Fail loudly if the requested start method did not take effect."""
    if _START_METHOD:
        assert multiprocessing.get_start_method() == _START_METHOD
    yield


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator for stochastic assertions."""
    return np.random.default_rng(12345)


@pytest.fixture
def petersen():
    """The Petersen graph: small, 3-regular, non-bipartite, λ = 2/3."""
    return generators.petersen()


@pytest.fixture
def k5():
    """The complete graph on five vertices."""
    return generators.complete(5)


@pytest.fixture
def c9():
    """An odd (non-bipartite) cycle."""
    return generators.cycle(9)


@pytest.fixture
def small_expander():
    """A connected random 4-regular graph on 64 vertices."""
    return generators.random_regular(64, 4, seed=7)


@pytest.fixture
def medium_expander():
    """A connected random 8-regular graph on 512 vertices."""
    return generators.random_regular(512, 8, seed=11)
