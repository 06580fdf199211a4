"""Reduced-rank GP on bounded domains: eigenpairs, convergence, duality."""

import numpy as np
import pytest
from scipy.linalg import cho_solve, solve_triangular

from shmgp import gp
from shmgp.errors import DomainError
from shmgp.gp import Dataset
from shmgp.kernels import SquaredExponential, build_gram, kernel_eval
from shmgp.reduced_rank import (
    DomainSpec,
    approx_gram,
    eigenpairs,
    fit_reduced,
    predict_reduced,
    spectral_weights,
)

SE = SquaredExponential


def _basis_1d(boundary="dirichlet", L=1.0, m=12):
    return eigenpairs(DomainSpec(half_widths=[L], boundary=boundary, basis_counts=m))


def _function_space_posterior(basis, spec, data, noise_var, X_star):
    """Posterior mean and variance of an exact GP whose covariance is the
    reduced-rank kernel, from its dense Gram matrices."""
    K = approx_gram(basis, spec, data.inputs) + noise_var * np.eye(len(data))
    L, _ = gp.chol_with_jitter(K)
    Ks = approx_gram(basis, spec, X_star, data.inputs)
    V = solve_triangular(L, Ks.T, lower=True)
    var = np.diag(approx_gram(basis, spec, X_star)) - np.sum(V * V, axis=0)
    return Ks @ cho_solve((L, True), data.outputs), np.clip(var, 0.0, None)


class TestEigenpairs:
    def test_first_dirichlet_eigenvalue_closed_form(self):
        basis = _basis_1d(L=1.0)
        assert basis.eigenvalues[0] == pytest.approx((np.pi / 2) ** 2, rel=1e-14)

    def test_dirichlet_vanishes_on_boundary(self):
        basis = _basis_1d(L=1.5, m=10)
        phi = basis.evaluate(np.array([[-1.5], [1.5]]))
        assert np.abs(phi).max() <= 1e-12

    def test_neumann_derivative_vanishes_on_boundary(self):
        basis = _basis_1d(boundary="neumann", L=2.0, m=8)
        h = 1e-6
        for edge in (-2.0, 2.0):
            inner = edge - np.sign(edge) * h
            d = (basis.evaluate([[edge]]) - basis.evaluate([[inner]])) / h
            assert np.abs(d).max() <= 1e-4  # one-sided difference, O(h) + roundoff

    def test_neumann_includes_constant_mode(self):
        basis = _basis_1d(boundary="neumann", L=2.0, m=5)
        assert basis.eigenvalues[0] == 0.0
        phi = basis.evaluate(np.linspace(-1.9, 1.9, 9).reshape(-1, 1))
        np.testing.assert_allclose(phi[:, 0], phi[0, 0], rtol=1e-14)

    @pytest.mark.parametrize("boundary", ["dirichlet", "neumann"])
    def test_orthonormal_under_quadrature(self, boundary):
        L = 1.3
        basis = _basis_1d(boundary=boundary, L=L, m=8)
        nodes, weights = np.polynomial.legendre.leggauss(1024)
        x = (L * nodes).reshape(-1, 1)
        phi = basis.evaluate(x)
        G = phi.T @ (phi * (L * weights)[:, None])
        np.testing.assert_allclose(G, np.eye(8), atol=1e-6)

    def test_eigenvalues_sorted_ascending(self):
        domain = DomainSpec(half_widths=[1.0, 2.0], basis_counts=[5, 5])
        basis = eigenpairs(domain)
        assert np.all(np.diff(basis.eigenvalues) >= 0.0)
        assert basis.size == 25

    def test_total_cap_keeps_smallest(self):
        domain = DomainSpec(half_widths=[1.0, 1.0], basis_counts=[6, 6], max_total=10)
        basis = eigenpairs(domain)
        full = eigenpairs(DomainSpec(half_widths=[1.0, 1.0], basis_counts=[6, 6]))
        assert basis.size == 10
        np.testing.assert_allclose(basis.eigenvalues, full.eigenvalues[:10])

    def test_invalid_domain(self):
        with pytest.raises(ValueError):
            DomainSpec(half_widths=[0.0])
        with pytest.raises(ValueError):
            DomainSpec(half_widths=[1.0], basis_counts=0)
        with pytest.raises(ValueError):
            DomainSpec(half_widths=[1.0], boundary="robin")


class TestApproxKernel:
    def test_interior_value_close_to_exact(self):
        domain = DomainSpec(half_widths=[3.0], basis_counts=128)
        basis = eigenpairs(domain)
        spec = SE(signal_scale=1.0, lengthscales=0.3)
        val = approx_gram(basis, spec, [0.2])[0, 0]
        assert val == pytest.approx(1.0, rel=0.01)

    def test_dirichlet_boundary_is_zero(self):
        basis = _basis_1d(L=2.0, m=32)
        spec = SE(signal_scale=1.0, lengthscales=0.5)
        assert approx_gram(basis, spec, [2.0], [0.3])[0, 0] == 0.0

    def test_symmetry(self):
        basis = _basis_1d(L=2.0, m=16)
        spec = SE(signal_scale=1.2, lengthscales=0.4)
        a = approx_gram(basis, spec, [0.3], [-0.8])[0, 0]
        b = approx_gram(basis, spec, [-0.8], [0.3])[0, 0]
        assert a == pytest.approx(b, rel=1e-13)

    def test_outside_domain_raises(self):
        basis = _basis_1d(L=1.0, m=4)
        spec = SE(1.0, 0.5)
        with pytest.raises(DomainError):
            approx_gram(basis, spec, [1.1], [0.0])

    def test_error_decreases_as_basis_grows(self):
        # approximation error on an interior grid drops monotonically
        # through M = 16, 32, 64, 128 (lengthscale chosen so the error at
        # M = 128 is still well above roundoff)
        spec = SE(signal_scale=1.0, lengthscales=0.1)
        grid = np.linspace(-1.5, 1.5, 50).reshape(-1, 1)
        exact = build_gram(spec, grid)
        errs = []
        for m in (16, 32, 64, 128):
            basis = eigenpairs(DomainSpec(half_widths=[3.0], basis_counts=m))
            errs.append(np.abs(approx_gram(basis, spec, grid) - exact).max())
        assert all(errs[i + 1] < errs[i] for i in range(3))


class TestFitPredict:
    def _problem(self, seed=0, n=30, noise=1e-3):
        rng = np.random.default_rng(seed)
        X = np.sort(rng.uniform(-1.0, 1.0, n)).reshape(-1, 1)
        y = np.sin(4.0 * X[:, 0]) + noise * rng.standard_normal(n)
        return Dataset(X, y)

    def test_zero_targets_give_zero_weights(self):
        data = Dataset(np.linspace(-0.5, 0.5, 10).reshape(-1, 1), np.zeros(10))
        model = fit_reduced(data, DomainSpec([2.0], basis_counts=16), SE(1.0, 0.4), 0.01)
        np.testing.assert_allclose(model.weight_mean, 0.0, atol=1e-12)

    def test_rank_one_prediction_is_scaled_eigenfunction(self):
        data = self._problem(n=12)
        domain = DomainSpec([2.0], basis_counts=1)
        model = fit_reduced(data, domain, SE(1.0, 0.4), 0.01)
        Xs = np.linspace(-1.0, 1.0, 15).reshape(-1, 1)
        mean, _ = predict_reduced(model, Xs)
        phi = model.basis.evaluate(Xs)[:, 0]
        np.testing.assert_allclose(mean, model.weight_mean[0] * phi, rtol=1e-12)

    def test_matches_full_gp_on_dense_basis(self):
        from shmgp.metrics import nmse

        data = self._problem(noise=0.01)
        spec = SE(signal_scale=1.0, lengthscales=0.1)
        model = fit_reduced(data, DomainSpec([3.0], basis_counts=128), spec, 1e-4)
        full = gp.fit_exact(data, spec, noise_var=1e-4)
        Xs = np.linspace(-0.9, 0.9, 60).reshape(-1, 1)
        truth = np.sin(4.0 * Xs[:, 0])
        mean_r, _ = predict_reduced(model, Xs)
        mean_f = gp.predict(full, Xs).mean
        assert abs(nmse(truth, mean_r) - nmse(truth, mean_f)) <= 1e-3

    def test_duality_with_explicit_basis_kernel(self):
        # weight-space posterior == function-space GP on the approximate kernel
        data = self._problem(seed=3, n=25, noise=0.05)
        domain = DomainSpec([3.0], basis_counts=48)
        spec = SE(signal_scale=1.1, lengthscales=0.35)
        noise = 0.05**2
        model = fit_reduced(data, domain, spec, noise)
        Xs = np.linspace(-1.2, 1.2, 30).reshape(-1, 1)
        mean_w, var_w = predict_reduced(model, Xs)
        mean_f, var_f = _function_space_posterior(model.basis, spec, data, noise, Xs)
        np.testing.assert_allclose(mean_w, mean_f, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(var_w, var_f, rtol=1e-6, atol=1e-10)

    def test_boundary_prediction_pinned_to_zero(self):
        data = self._problem()
        model = fit_reduced(data, DomainSpec([2.0], basis_counts=24), SE(1.0, 0.4), 0.01)
        mean, var = predict_reduced(model, np.array([[2.0], [-2.0]]))
        np.testing.assert_array_equal(mean, [0.0, 0.0])
        np.testing.assert_array_equal(var, [0.0, 0.0])

    def test_prior_reversion_far_from_data(self):
        data = Dataset([[0.0]], [1.0])
        domain = DomainSpec([5.0], basis_counts=64)
        spec = SE(1.0, 0.2)
        model = fit_reduced(data, domain, spec, 0.01)
        x_far = np.array([[3.0]])
        _, var = predict_reduced(model, x_far)
        assert var[0] == pytest.approx(approx_gram(model.basis, spec, [3.0])[0, 0], rel=1e-3)

    def test_training_point_outside_domain_rejected(self):
        data = Dataset([[2.5]], [1.0])
        with pytest.raises(DomainError):
            fit_reduced(data, DomainSpec([2.0], basis_counts=8), SE(1.0, 0.5), 0.01)

    def test_prediction_outside_domain_rejected(self):
        data = self._problem()
        model = fit_reduced(data, DomainSpec([2.0], basis_counts=8), SE(1.0, 0.5), 0.01)
        with pytest.raises(DomainError):
            predict_reduced(model, np.array([[2.01]]))

    def test_weight_covariance_symmetric_psd(self):
        data = self._problem(seed=1)
        model = fit_reduced(data, DomainSpec([2.0], basis_counts=20), SE(1.0, 0.4), 0.01)
        C = model.weight_cov
        np.testing.assert_allclose(C, C.T, atol=1e-12)
        assert np.linalg.eigvalsh(C).min() >= -1e-10


@pytest.mark.parametrize("boundary", ["dirichlet", "neumann"])
def test_predictive_variance_matches_three_operand_quadratic_form(boundary):
    # oracle: diag(Phi W Phi') as one three-operand einsum, never materialised
    rng = np.random.default_rng(5)
    X = rng.uniform(-1.0, 1.0, (80, 2))
    y = np.sin(3.0 * X[:, 0]) * np.cos(2.0 * X[:, 1]) + 0.05 * rng.standard_normal(80)
    domain = DomainSpec([1.5, 1.5], boundary=boundary, basis_counts=[12, 10])
    model = fit_reduced(Dataset(X, y), domain, SE(1.0, [0.4, 0.6]), 0.01)
    Xs = rng.uniform(-1.5, 1.5, (500, 2))
    Phi = model.basis.evaluate(Xs)
    oracle = np.einsum("ij,jk,ik->i", Phi, model.weight_cov, Phi)
    _, var = predict_reduced(model, Xs)
    np.testing.assert_allclose(var, np.clip(oracle, 0.0, None), rtol=1e-12)


def test_zero_noise_variance_matches_exact_gp_with_fewer_points_than_modes():
    # n = 3 < M = 64: the data pin only a 3-D subspace of the coefficients,
    # so the posterior keeps the prior spread elsewhere
    X = np.array([[-1.0], [0.0], [1.0]])
    data = Dataset(X, np.array([0.3, -0.2, 0.5]))
    domain = DomainSpec([3.0], basis_counts=64)
    spec = SE(1.0, 0.5)
    reduced = fit_reduced(data, domain, spec, noise_var=0.0)
    X_star = np.array([[1.5], [-2.2], [0.0]])
    _, var = predict_reduced(reduced, X_star)
    assert var[0] > 0.5
    _, var_f = _function_space_posterior(eigenpairs(domain), spec, data, 0.0, X_star)
    np.testing.assert_allclose(var, var_f, rtol=1e-6, atol=1e-9)


def test_spectral_weights_match_1d_density():
    from shmgp.physics import spectral_density

    basis = _basis_1d(L=2.0, m=10)
    spec = SE(signal_scale=1.3, lengthscales=0.6)
    bound = spectral_weights(basis, spec)
    np.testing.assert_allclose(
        bound.weights, spectral_density(spec, np.sqrt(bound.eigenvalues)), rtol=1e-12
    )


def test_boundary_information_beats_full_gp_on_sparse_grids():
    # bounded-field task: with training confined to the middle of the plate,
    # the constrained model's boundary knowledge wins at the sparsest grids
    from shmgp.generators import generate_bounded_field
    from shmgp.metrics import nmse

    spec = SE(signal_scale=1.0, lengthscales=0.45)
    noise = 0.02**2
    for grid in (3, 5):
        train, test = generate_bounded_field(seed=0, train_grid=grid)
        domain = DomainSpec([1.0, 1.0], boundary="dirichlet", basis_counts=[10, 10])
        reduced = fit_reduced(train, domain, spec, noise)
        mean_r, _ = predict_reduced(reduced, test.inputs)
        full = gp.fit_exact(train, spec, noise_var=noise)
        mean_f = gp.predict(full, test.inputs).mean
        assert nmse(test.outputs, mean_r) <= nmse(test.outputs, mean_f)


def test_2d_approx_kernel_converges_interior():
    spec = SE(signal_scale=1.0, lengthscales=0.5)
    domain = DomainSpec([2.0, 2.0], basis_counts=[24, 24])
    basis = eigenpairs(domain)
    x = np.array([0.3, -0.2])
    xp = np.array([-0.1, 0.4])
    approx = approx_gram(basis, spec, x[None], xp[None])[0, 0]
    assert approx == pytest.approx(kernel_eval(spec, x, xp), rel=1e-3)
