"""Predictions in blocks of test points against one block holding them all.

``gp.predict`` and ``reduced_rank.predict_reduced`` stream the test points
through blocks of rows.  The blocks change only how BLAS groups each row's
sums, so blocked predictions must match single-block ones to 1e-13 relative,
and a single block must give the bits of the dense formulas.  Small block
budgets make short records span several blocks and end in a partial one.
"""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from shmgp import gp
from shmgp.gp import Dataset, fit_exact, predict
from shmgp.kernels import SquaredExponential, build_gram
from shmgp.means import LinearMean
from shmgp.narx import BlackBox, NarxConfig, SequenceData, predict_osa
from shmgp.physics import SdofKernel
from shmgp.reduced_rank import DomainSpec, fit_reduced, predict_reduced

ONE_BLOCK = 1 << 40
REL_TOL = 1e-13


def _rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def _dense(model, Xs):
    # the single-block formulas, with the whole m x n cross Gram matrix
    Ks = build_gram(model.kernel, Xs, model.X)
    mean = model.mean(Xs) + Ks @ model.alpha
    V = solve_triangular(model.chol, Ks.T, lower=True)
    var = model.kernel.diag(Xs) - np.sum(V * V, axis=0)
    return mean, np.clip(var, 0.0, None)


def _se_ard_model():
    rng = np.random.default_rng(0)
    X = rng.uniform(-2.0, 2.0, (90, 3))
    y = np.sin(X[:, 0]) * np.cos(X[:, 1]) + 0.3 * X[:, 2] + 0.05 * rng.standard_normal(90)
    model = fit_exact(Dataset(X, y), SquaredExponential(1.1, [0.8, 1.3, 2.0]),
                      mean=LinearMean(0.2, [0.1, -0.3, 0.5]), noise_var=1e-3)
    return model, rng.uniform(-2.5, 2.5, (1000, 3))


def _sdof_model():
    rng = np.random.default_rng(1)
    t = np.arange(0.0, 30.0, 0.05)
    y = np.exp(-0.2 * t) * np.cos(6.0 * t) + 0.01 * rng.standard_normal(t.size)
    kernel = SdofKernel(0.05, 6.0, 2.0)
    model = fit_exact(Dataset(t[::5, None], y[::5]), kernel, noise_var=1e-4)
    return model, t[:, None]


@pytest.mark.parametrize("make", [_se_ard_model, _sdof_model], ids=["se_ard", "sdof"])
def test_blocked_matches_single_block(monkeypatch, make):
    model, Xs = make()
    n = model.X.shape[0]
    single = predict(model, Xs)
    dense_mean, dense_var = _dense(model, Xs)
    monkeypatch.setattr(gp, "PREDICT_BLOCK_ENTRIES", ONE_BLOCK)
    one = predict(model, Xs)
    np.testing.assert_array_equal(one.mean, dense_mean)
    np.testing.assert_array_equal(one.var, dense_var)
    for entries in (64 * n, 100 * n, 37 * n):  # 64 rows; 64; 37 rows, partial last block
        monkeypatch.setattr(gp, "PREDICT_BLOCK_ENTRIES", entries)
        rows = gp._predict_rows(n)
        assert rows in (64, 37) and Xs.shape[0] % rows
        blocked = predict(model, Xs)
        assert _rel(blocked.mean, dense_mean) <= REL_TOL
        assert _rel(blocked.var, dense_var) <= REL_TOL
    assert _rel(single.mean, dense_mean) <= REL_TOL
    assert _rel(single.var, dense_var) <= REL_TOL


def test_blocked_mean_only_and_one_row_keep_their_bits(monkeypatch):
    model, Xs = _se_ard_model()
    monkeypatch.setattr(gp, "PREDICT_BLOCK_ENTRIES", 64 * model.X.shape[0])
    full = predict(model, Xs)
    np.testing.assert_array_equal(predict(model, Xs, mean_only=True).mean, full.mean)
    for i in (0, 63, 64, 999):
        row = predict(model, Xs[i : i + 1], mean_only=True).mean
        np.testing.assert_array_equal(row, _dense(model, Xs[i : i + 1])[0])


def test_full_covariance_is_one_block(monkeypatch):
    model, Xs = _se_ard_model()
    monkeypatch.setattr(gp, "PREDICT_BLOCK_ENTRIES", 64 * model.X.shape[0])
    pred = predict(model, Xs[:200], full_cov=True)
    mean, var = _dense(model, Xs[:200])
    np.testing.assert_array_equal(pred.mean, mean)
    np.testing.assert_array_equal(pred.var, var)
    np.testing.assert_allclose(np.diag(pred.cov), var, rtol=1e-8, atol=1e-12)


def test_blocked_narx_one_step_ahead(monkeypatch, fit_narx):
    rng = np.random.default_rng(2)
    T = 700
    U = np.sin(0.3 * np.arange(T)) + 0.1 * rng.standard_normal(T)
    y = np.zeros(T)
    for t in range(2, T):
        y[t] = 0.6 * y[t - 1] - 0.2 * y[t - 2] + U[t] + 0.01 * rng.standard_normal()
    seq = SequenceData(u=U[:, None], y=y, dt=1.0)
    model = fit_narx(SequenceData(u=U[:150, None], y=y[:150], dt=1.0),
                     NarxConfig(1, 2, BlackBox()), SquaredExponential(1.0, 2.0), noise_var=1e-4)
    monkeypatch.setattr(gp, "PREDICT_BLOCK_ENTRIES", ONE_BLOCK)
    single = predict_osa(model, seq)
    monkeypatch.setattr(gp, "PREDICT_BLOCK_ENTRIES", 64 * model.gp.X.shape[0])
    blocked = predict_osa(model, seq)
    assert _rel(blocked[0], single[0]) <= REL_TOL
    assert _rel(blocked[1], single[1]) <= REL_TOL


@pytest.mark.parametrize("boundary", ["dirichlet", "neumann"])
def test_blocked_reduced_rank(monkeypatch, boundary):
    rng = np.random.default_rng(3)
    X = rng.uniform(-0.9, 0.9, (60, 2))
    y = np.sin(3.0 * X[:, 0]) * np.cos(2.0 * X[:, 1])
    model = fit_reduced(Dataset(X, y), DomainSpec([1.0, 1.0], boundary=boundary,
                                                   basis_counts=[8, 6]),
                        SquaredExponential(1.0, 0.5), 1e-3)
    Xs = rng.uniform(-1.0, 1.0, (1000, 2))
    Phi = model.basis.evaluate(Xs)
    dense_mean = Phi @ model.weight_mean
    dense_var = np.clip(np.einsum("ij,ij->i", Phi @ model.weight_cov, Phi), 0.0, None)
    monkeypatch.setattr(gp, "PREDICT_BLOCK_ENTRIES", ONE_BLOCK)
    mean, var = predict_reduced(model, Xs)
    np.testing.assert_array_equal(mean, dense_mean)
    np.testing.assert_array_equal(var, dense_var)
    monkeypatch.setattr(gp, "PREDICT_BLOCK_ENTRIES", 64 * model.basis.size)
    mean, var = predict_reduced(model, Xs)
    assert _rel(mean, dense_mean) <= REL_TOL
    assert _rel(var, dense_var) <= REL_TOL


def test_predict_memory_is_blocks_not_the_cross_gram_matrix():
    # m = 20000 test points against n = 600 training points: the m x n
    # cross Gram matrix alone would be 96 MB
    rng = np.random.default_rng(4)
    n, m = 600, 20000
    X = np.sort(rng.uniform(0.0, 100.0, n))[:, None]
    model = fit_exact(Dataset(X, np.sin(X[:, 0])), SquaredExponential(1.0, 3.0), noise_var=1e-2)
    Xs = np.linspace(0.0, 100.0, m)
    block_bytes = 8 * gp.PREDICT_BLOCK_ENTRIES
    tracemalloc.start()
    try:
        pred = predict(model, Xs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pred.var.shape == (m,)
    assert peak <= 4 * block_bytes + 8 * (8 * m)
    assert peak < 8 * m * n / 10
