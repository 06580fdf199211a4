"""Exact GP regression against independent dense linear-algebra oracles."""

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from shmgp.errors import NumericalError
from shmgp.gp import (
    JITTER_START,
    Dataset,
    chol_with_jitter,
    fit_exact,
    log_marginal_likelihood,
    predict,
)
from shmgp.kernels import SquaredDiffStack, SquaredExponential, build_gram
from shmgp.means import LinearMean, ZeroMean

SE = SquaredExponential


def _random_problem(seed, n=20, d=2, noise=0.1):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, size=(n, d))
    y = np.sin(X[:, 0]) + 0.5 * rng.standard_normal(n)
    return Dataset(X, y), SE(signal_scale=1.2, lengthscales=0.9), noise


class TestFit:
    def test_single_zero_observation(self):
        model = fit_exact(Dataset([[0.0]], [0.0]), SE(1.0, 1.0), noise_var=0.0)
        np.testing.assert_allclose(model.alpha, [0.0])

    def test_single_observation_scalar_solve(self):
        # K = [1], jitter 1e-10: alpha = 3 / (1 + 1e-10)
        model = fit_exact(Dataset([[0.0]], [3.0]), SE(1.0, 1.0), noise_var=0.0)
        assert model.alpha[0] == pytest.approx(3.0, abs=1e-8)

    def test_alpha_matches_dense_solve(self):
        data, kernel, noise = _random_problem(0)
        model = fit_exact(data, kernel, noise_var=noise)
        K = build_gram(kernel, data.inputs) + (noise + model.jitter) * np.eye(len(data))
        alpha_oracle = np.linalg.solve(K, data.outputs)  # independent LU solve
        np.testing.assert_allclose(model.alpha, alpha_oracle, rtol=1e-9)

    def test_factor_reconstructs_covariance(self):
        data, kernel, noise = _random_problem(1)
        model = fit_exact(data, kernel, noise_var=noise)
        K = build_gram(kernel, data.inputs) + (noise + model.jitter) * np.eye(len(data))
        np.testing.assert_allclose(model.chol @ model.chol.T, K, rtol=1e-8)
        assert np.all(np.diag(model.chol) > 0.0)
        assert np.allclose(model.chol, np.tril(model.chol))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            fit_exact(Dataset(np.zeros((0, 1)), np.zeros(0)), SE(1.0, 1.0))

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            fit_exact(Dataset([[0.0]], [1.0]), SE(1.0, 1.0), noise_var=-1e-3)

    def test_jitter_ladder_fails_on_indefinite_matrix(self):
        with pytest.raises(NumericalError):
            chol_with_jitter(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_jitter_ladder_leaves_matrix_unchanged(self):
        # one eigenvalue of -1e-8: the first rungs fail, a later one succeeds
        Q, _ = np.linalg.qr(np.random.default_rng(2).normal(size=(6, 6)))
        A = (Q * [1.0, 0.8, 0.5, 0.3, 0.1, -1e-8]) @ Q.T
        A = 0.5 * (A + A.T)
        before = A.copy()
        L, jitter = chol_with_jitter(A)
        assert jitter > 10.0 * JITTER_START * np.mean(np.diag(A))
        np.testing.assert_array_equal(A, before)
        np.testing.assert_allclose(L @ L.T, A + jitter * np.eye(6), atol=1e-12)

    def test_nan_entry_raises_value_error(self):
        A = np.eye(3)
        A[2, 0] = np.nan
        with pytest.raises(ValueError):
            chol_with_jitter(A)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("entry", [(1, 1), (2, 0), (0, 2)],
                             ids=["diagonal", "below", "above"])
    def test_nonfinite_entry_raises_value_error_where_it_is_built_and_factored(
            self, value, entry):
        # a fit scans its Gram matrix once; each of the two functions still
        # refuses a non-finite entry when called on its own.  A non-finite
        # input row gives the Gram matrix non-finite entries in that row.
        A = np.eye(3) + 0.1
        A[entry] = value
        with pytest.raises(ValueError):
            chol_with_jitter(A)
        X = np.arange(3.0)
        X[entry[0]] = value
        with np.errstate(all="ignore"), pytest.raises(ValueError):
            build_gram(SE(1.0, 1.0), X)

    def test_fit_leaves_data_unchanged(self):
        data, kernel, noise = _random_problem(4)
        X, y = data.inputs.copy(), data.outputs.copy()
        fit_exact(data, kernel, mean=LinearMean(0.5, [1.0, -1.0]), noise_var=noise)
        np.testing.assert_array_equal(data.inputs, X)
        np.testing.assert_array_equal(data.outputs, y)

    def test_fit_from_stack_matches_plain_fit(self):
        data, kernel, noise = _random_problem(5)
        fit = fit_exact(data, kernel, noise_var=noise, stack=SquaredDiffStack(data.inputs))
        np.testing.assert_allclose(fit.lml, fit_exact(data, kernel, noise_var=noise).lml,
                                   rtol=1e-12)


class TestPredict:
    def test_noise_free_interpolation(self):
        rng = np.random.default_rng(4)
        X = np.sort(rng.uniform(-3, 3, 20)).reshape(-1, 1)
        y = np.sin(X[:, 0]) * 2.0
        model = fit_exact(Dataset(X, y), SE(1.5, 1.0), noise_var=0.0)
        pred = predict(model, X)
        assert np.abs(pred.mean - y).max() <= 1e-6 * np.abs(y).max()
        assert pred.var.max() <= 1e-6

    def test_prior_reversion_far_from_data(self):
        kernel = SE(1.3, 0.5)
        X = np.linspace(0, 1, 10).reshape(-1, 1)
        model = fit_exact(Dataset(X, np.sin(X[:, 0])), kernel, noise_var=0.01)
        far = np.array([[1.0 + 20 * 0.5]])
        pred = predict(model, far)
        assert abs(pred.mean[0]) <= 1e-6
        assert pred.var[0] == pytest.approx(1.3**2, abs=1e-6)

    def test_joint_conditioning_oracle(self):
        # condition the joint Gaussian over (train, test) directly
        rng = np.random.default_rng(9)
        kernel, noise = SE(1.1, 0.8), 0.05
        X = rng.uniform(-1, 1, size=(5, 1))
        Xs = rng.uniform(-1, 1, size=(3, 1))
        y = rng.standard_normal(5)
        model = fit_exact(Dataset(X, y), kernel, noise_var=noise)

        Kxx = build_gram(kernel, X) + (noise + model.jitter) * np.eye(5)
        Kxs = build_gram(kernel, X, Xs)
        Kss = build_gram(kernel, Xs)
        mean_oracle = Kxs.T @ np.linalg.solve(Kxx, y)
        cov_oracle = Kss - Kxs.T @ np.linalg.solve(Kxx, Kxs)

        pred = predict(model, Xs, full_cov=True)
        np.testing.assert_allclose(pred.mean, mean_oracle, rtol=1e-8, atol=1e-12)
        np.testing.assert_allclose(pred.cov, cov_oracle, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(pred.var, np.diag(cov_oracle), rtol=1e-8)

    def test_mean_only_gives_the_same_mean(self):
        data, kernel, noise = _random_problem(6)
        model = fit_exact(data, kernel, mean=LinearMean(0.5, [1.0, -1.0]), noise_var=noise)
        Xs = np.random.default_rng(1).uniform(-2, 2, size=(9, 2))
        pred = predict(model, Xs, mean_only=True)
        np.testing.assert_array_equal(pred.mean, predict(model, Xs).mean)
        assert pred.var is None and pred.cov is None

    def test_variances_clamped_nonnegative(self):
        data, kernel, _ = _random_problem(3, n=25)
        model = fit_exact(data, kernel, noise_var=0.0)
        pred = predict(model, data.inputs)
        assert np.all(pred.var >= 0.0)

    def test_dimension_mismatch(self):
        data, kernel, noise = _random_problem(5)
        model = fit_exact(data, kernel, noise_var=noise)
        with pytest.raises(ValueError):
            predict(model, np.zeros((2, 3)))


class TestLogMarginalLikelihood:
    def test_identity_case(self):
        # n=1, residual 0, K + noise = 1 -> -0.5 log(2 pi)
        model = fit_exact(Dataset([[0.0]], [0.0]), SE(1.0, 1.0), noise_var=0.0)
        assert log_marginal_likelihood(model) == pytest.approx(-0.9189385, abs=2e-7)

    def test_unit_variance_residual_two(self):
        model = fit_exact(Dataset([[0.0]], [2.0]), SE(1.0, 1.0), noise_var=0.0)
        assert log_marginal_likelihood(model) == pytest.approx(
            -2.0 - 0.5 * np.log(2 * np.pi), abs=1e-6
        )

    def test_matches_multivariate_normal_density(self):
        data, kernel, noise = _random_problem(8, n=15)
        model = fit_exact(data, kernel, noise_var=noise)
        K = build_gram(kernel, data.inputs) + (noise + model.jitter) * np.eye(15)
        oracle = multivariate_normal.logpdf(data.outputs, mean=np.zeros(15), cov=K)
        assert model.lml == pytest.approx(oracle, rel=1e-10)
        assert log_marginal_likelihood(model) == model.lml

    def test_invariant_to_row_permutation(self):
        data, kernel, noise = _random_problem(12, n=18)
        model = fit_exact(data, kernel, noise_var=noise)
        perm = np.random.default_rng(1).permutation(18)
        shuffled = Dataset(data.inputs[perm], data.outputs[perm])
        model_p = fit_exact(shuffled, kernel, noise_var=noise)
        assert model_p.lml == pytest.approx(model.lml, rel=1e-10)


class TestMeanFunctions:
    def test_nonzero_mean_equals_residual_fit(self):
        rng = np.random.default_rng(6)
        X = rng.uniform(-2, 2, size=(25, 2))
        y = 3.0 + X @ np.array([1.0, -2.0]) + 0.3 * rng.standard_normal(25)
        mean = LinearMean(intercept=3.0, slope=[1.0, -2.0])
        kernel, noise = SE(1.0, 1.0), 0.05

        with_mean = fit_exact(Dataset(X, y), kernel, mean=mean, noise_var=noise)
        residual_fit = fit_exact(Dataset(X, y - mean(X)), kernel, noise_var=noise)

        Xs = rng.uniform(-2, 2, size=(7, 2))
        a = predict(with_mean, Xs)
        b = predict(residual_fit, Xs)
        np.testing.assert_array_equal(a.mean, mean(Xs) + b.mean)
        np.testing.assert_array_equal(a.var, b.var)

    def test_zero_mean_is_exactly_zero(self):
        assert np.all(ZeroMean()(np.random.normal(size=(4, 3))) == 0.0)

    def test_linear_mean_exact_form(self):
        m = LinearMean(intercept=1.0, slope=[2.0, 0.5])
        np.testing.assert_allclose(m(np.array([[3.0, 2.0]])), [8.0])


class TestDataset:
    def test_row_count_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 1)), np.zeros(4))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Dataset([[np.nan]], [1.0])
        with pytest.raises(ValueError):
            Dataset([[1.0]], [np.inf])
