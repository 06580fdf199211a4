"""Hyperparameter search wrappers: bounds, profiled means, fixed noise."""

import numpy as np
import pytest

from shmgp.gp import Dataset, fit_exact
from shmgp.kernels import Matern32, SquaredExponential, build_gram
from shmgp.tuning import default_bounds, gls_linear_mean, tune_exact_gp


def _dataset(seed=0, n=40):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, size=(n, 1))
    y = np.sin(2 * X[:, 0]) + 0.05 * rng.standard_normal(n)
    return Dataset(X, y)


def test_default_bounds_sdof_uses_nyquist():
    data = Dataset(np.arange(10).reshape(-1, 1) * 0.5, np.sin(np.arange(10.0)))
    bounds = default_bounds("sdof", data, dt=0.5)
    assert bounds["omega_n"][1] == pytest.approx(np.pi / 0.5)
    assert bounds["zeta"] == (1e-3, 0.5)


def test_fixed_noise_respected():
    result = tune_exact_gp(_dataset(), "matern32", noise_var=0.02,
                           particles=8, iterations=15, seed=0)
    assert result.model.noise_var == 0.02
    assert result.params["noise_var"] == 0.02
    assert isinstance(result.model.kernel, Matern32)


def test_optimised_model_beats_arbitrary_start():
    data = _dataset()
    result = tune_exact_gp(data, "squared_exponential", noise_var=None,
                           particles=12, iterations=30, seed=1)
    arbitrary = fit_exact(data, SquaredExponential(10.0, 10.0), noise_var=1.0)
    assert result.model.lml > arbitrary.lml
    assert np.isfinite(result.pso.trace).all()


def test_iterations_default_to_100():
    # the tuner's own default; the other swarm settings take PsoConfig's
    result = tune_exact_gp(_dataset(n=12), "squared_exponential", noise_var=0.01, particles=2)
    assert len(result.pso.trace) == 100


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        tune_exact_gp(_dataset(), "cubic_spline", particles=4, iterations=4)


def test_gls_mean_ignores_kernel_correlated_deviation():
    # an off-centre smooth bump rides on a line; GLS under a kernel that
    # models the bump recovers the underlying slope much better than OLS,
    # which tilts toward the bump
    rng = np.random.default_rng(5)
    X = np.sort(rng.uniform(0.0, 10.0, 120)).reshape(-1, 1)
    slope, intercept = -0.8, 2.0
    bump = 1.5 * np.exp(-0.5 * ((X[:, 0] - 8.5) / 0.7) ** 2)
    y = intercept + slope * X[:, 0] + bump + 0.02 * rng.standard_normal(120)

    kernel = SquaredExponential(signal_scale=1.5, lengthscales=0.7)
    gls = gls_linear_mean(Dataset(X, y), kernel, noise_var=0.02**2)
    A = np.column_stack([np.ones(120), X])
    ols = np.linalg.lstsq(A, y, rcond=None)[0]
    assert abs(gls.slope[0] - slope) < 0.5 * abs(ols[1] - slope)
    assert gls.slope[0] == pytest.approx(slope, abs=0.05)
