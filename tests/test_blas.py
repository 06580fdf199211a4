"""The one-thread BLAS scope: every OpenBLAS reads 1 inside, its count after;
and the flush scope: subnormals read as zero inside, in its own thread only."""

import sys
import threading

import numpy as np
import pytest

from shmgp import blas


def _counts():
    return [get() for get, _ in blas._openblas()]


def test_scope_runs_every_openblas_on_one_thread(two_threads):
    with blas.single_thread():
        assert _counts() == [1] * two_threads
    assert _counts() == [2] * two_threads


def test_counts_come_back_after_an_exception(two_threads):
    with pytest.raises(ZeroDivisionError):
        with blas.single_thread():
            assert _counts() == [1] * two_threads
            1 / 0
    assert _counts() == [2] * two_threads


def test_nested_scopes_restore_once_the_outer_one_ends(two_threads):
    with blas.single_thread():
        with blas.single_thread():
            pass
        assert _counts() == [1] * two_threads
    assert _counts() == [2] * two_threads


def test_no_openblas_found_changes_nothing(monkeypatch):
    real, before = blas._openblas(), _counts()
    monkeypatch.setattr(blas, "_openblas", lambda: [])
    with blas.single_thread():
        assert [get() for get, _ in real] == before


def test_scopes_in_many_threads_restore_the_count_once_all_end(two_threads):
    # more threads than cores, started together and switching often: each
    # must see 1 inside its scope, and the count must come back once the
    # last scope ends
    inside, errors = [], []
    start = threading.Barrier(8)

    def work():
        try:
            start.wait(timeout=60)
            for _ in range(1000):
                with blas.single_thread():
                    inside.append(_counts())
        except Exception as exc:  # reported below, so the assertion names it
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert len(inside) == 8 * 1000
    assert all(counts == [1] * two_threads for counts in inside)
    assert _counts() == [2] * two_threads


# the flush scope: SSE arithmetic reads and writes subnormals as zero inside,
# in the calling thread only, on Linux x86-64; elsewhere nothing changes
SUBNORMAL = np.array([1e-310])

flushing = pytest.mark.skipif(blas._fenv() is None, reason="the flush is Linux x86-64 only")


def _flushed() -> bool:
    """Whether a subnormal times one comes out as zero, read from its bytes,
    since a flushed comparison would read the subnormal as zero too."""
    return (SUBNORMAL * 1.0).tobytes() == bytes(8)


@flushing
def test_flush_scope_reads_subnormals_as_zero_until_it_ends():
    assert not _flushed()
    with blas.flush_subnormals():
        assert _flushed()
    assert not _flushed()


@flushing
def test_arithmetic_comes_back_after_an_exception():
    with pytest.raises(ZeroDivisionError):
        with blas.flush_subnormals():
            assert _flushed()
            1 / 0
    assert not _flushed()


@flushing
def test_nested_flush_scopes_restore_once_the_outer_one_ends():
    with blas.flush_subnormals():
        with blas.flush_subnormals():
            pass
        assert _flushed()
    assert not _flushed()


@flushing
def test_flush_scope_leaves_other_threads_alone():
    # one thread started before the scope computes while the main thread is
    # inside it; one started inside the scope inherits it
    inside, done, seen = threading.Event(), threading.Event(), {}

    def before():
        inside.wait(timeout=60)
        seen["before"] = _flushed()
        done.set()

    def started_inside():
        seen["inside"] = _flushed()

    other = threading.Thread(target=before)
    other.start()
    with blas.flush_subnormals():
        inside.set()
        assert done.wait(timeout=60)
        assert _flushed()
        child = threading.Thread(target=started_inside)
        child.start()
        child.join(timeout=60)
    other.join(timeout=60)
    assert seen == {"before": False, "inside": True}


def _no_glibc(name):
    raise OSError(f"{name}: cannot open shared object file")


@pytest.mark.parametrize("attribute, replacement", [
    ((blas.platform, "machine"), lambda: "aarch64"), ((blas.ctypes, "CDLL"), _no_glibc),
], ids=["another-machine", "no-glibc"])
def test_flush_scope_on_another_platform_changes_nothing(monkeypatch, attribute, replacement):
    monkeypatch.setattr(*attribute, replacement)
    blas._fenv.cache_clear()
    try:
        with blas.flush_subnormals():
            assert not _flushed()
        assert blas._fenv() is None
    finally:
        blas._fenv.cache_clear()
