"""The one-thread BLAS scope: every OpenBLAS reads 1 inside, its count after."""

import sys
import threading

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
