"""Fixtures shared by the test modules."""

import pytest

from shmgp import blas, gp
from shmgp.narx import NarxModel, training_data


@pytest.fixture(scope="session")
def fit_narx():
    """A function that fits a NARX model at fixed hyperparameters as a run
    does: an exact GP on the lag regressors and prior mean of
    ``training_data``, held with its config.  Session-scoped, so hypothesis
    tests may take it."""

    def fit(seq, cfg, kernel, noise_var=0.0):
        data, mean = training_data(seq, cfg)
        model = gp.fit_exact(data, kernel, mean=mean, noise_var=noise_var)
        return NarxModel(gp=model, config=cfg, n_channels=seq.u.shape[1])

    return fit


@pytest.fixture
def two_threads():
    """Every OpenBLAS of the process at 2 threads, so a scope that left a
    count at 1 shows; yields how many there are, and puts the counts found
    back afterwards."""
    libraries = blas._openblas()
    if not libraries:
        pytest.skip("numpy and scipy link no OpenBLAS here")
    prior = [get() for get, _ in libraries]
    for _, put in libraries:
        put(2)
    assert [get() for get, _ in libraries] == [2] * len(libraries)
    yield len(libraries)
    for (_, put), count in zip(libraries, prior):
        put(count)
