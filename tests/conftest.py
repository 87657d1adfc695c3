import threading

import numpy as np
import pytest

from torpam.covariance import NoiseSpec


@pytest.fixture
def spec_d1():
    return NoiseSpec(d=1, alpha=0.3, rho=1.0, lam=1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that leaves more Python threads alive than it started
    with, such as a solver's noise worker that outlives its march."""
    before = set(threading.enumerate())
    yield
    leaked = [t.name for t in threading.enumerate() if t not in before]
    assert not leaked, f"threads left running: {leaked}"
