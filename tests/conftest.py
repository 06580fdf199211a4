"""Fixtures shared by the test modules."""

import pytest

from shmgp import blas


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
