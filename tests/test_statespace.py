"""State-space models: SDE forms, exact discretisation, filtering, smoothing."""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from shmgp import gp, statespace
from shmgp.errors import NumericalError
from shmgp.generators import band_limited_force, simulate_mdof_chain
from shmgp.gp import Dataset
from shmgp.kernels import Kernel, Matern12, Matern32, build_gram
from shmgp.statespace import (
    FilterResult,
    StateSpaceModel,
    StructuralModel,
    augment,
    build_latent_force_model,
    discretize,
    estimate_force,
    kalman_filter,
    kernel_to_ss,
    rts_smoother,
    smooth,
    stationary_covariance,
)


MATERN = {0.5: Matern12, 1.5: Matern32}
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


class TestMaternToSs:
    def test_matern12_scalar_lyapunov(self):
        # nu=1/2, sigma=1, l=2: A=[-0.5], q=1, stationary P solves -2*0.5*P + q = 0
        frag = kernel_to_ss(Matern12(1.0, 2.0))
        np.testing.assert_allclose(frag.A, [[-0.5]])
        assert frag.q == pytest.approx(1.0)
        np.testing.assert_allclose(frag.P0, [[1.0]])

    @pytest.mark.parametrize("nu", [0.5, 1.5])
    def test_drift_is_hurwitz(self, nu):
        frag = kernel_to_ss(MATERN[nu](1.3, 0.7))
        assert np.all(np.linalg.eigvals(frag.A).real < 0.0)

    @pytest.mark.parametrize("nu", [0.5, 1.5])
    def test_stationary_covariance_solves_lyapunov(self, nu):
        frag = kernel_to_ss(MATERN[nu](1.4, 2.2))
        Qc = frag.q * frag.Lc @ frag.Lc.T
        residual = frag.A @ frag.P0 + frag.P0 @ frag.A.T + Qc
        np.testing.assert_allclose(residual, 0.0, atol=1e-12)
        assert frag.P0[0, 0] == pytest.approx(1.4**2, rel=1e-12)
        np.testing.assert_allclose(stationary_covariance(frag), frag.P0, atol=1e-10)

    @pytest.mark.parametrize("nu,kernel", [(0.5, Matern12), (1.5, Matern32)])
    def test_discrete_autocovariance_matches_kernel(self, nu, kernel):
        sigma, ell, dt = 1.2, 0.9, 0.3
        spec = kernel(signal_scale=sigma, lengthscale=ell)
        assert spec.nu == nu
        frag = kernel_to_ss(spec)
        model = discretize(frag, dt)
        P = frag.P0
        for k in range(11):
            lagcov = (np.linalg.matrix_power(model.Ad, k) @ P)[0, 0]
            expected = build_gram(spec, [[0.0]], [[k * dt]])[0, 0]
            assert lagcov == pytest.approx(expected, abs=1e-8)


def _example(family):
    # every key at 0.9 is a valid kernel of every family
    return family.from_values(*[0.9] * len(family.keys))


@pytest.mark.parametrize("name", sorted(Kernel.registry))
def test_family_state_space_contract(name):
    kernel = _example(Kernel.registry[name])
    if type(kernel).state_space is Kernel.state_space:  # the family has no SDE form
        with pytest.raises(ValueError):
            kernel_to_ss(kernel)
        return
    frag = kernel_to_ss(kernel)
    assert np.all(np.linalg.eigvals(frag.A).real < 0.0)
    assert frag.P0[0, 0] == pytest.approx(kernel.diag(np.zeros((1, 1)))[0], rel=1e-12)
    Qc = frag.q * frag.Lc @ frag.Lc.T
    residual = frag.A @ frag.P0 + frag.P0 @ frag.A.T + Qc
    np.testing.assert_allclose(residual, 0.0, atol=1e-12)
    np.testing.assert_allclose(stationary_covariance(frag), frag.P0, atol=1e-10)
    dt = 0.3
    model = discretize(frag, dt)
    for k in range(11):
        lagcov = (np.linalg.matrix_power(model.Ad, k) @ frag.P0)[0, 0]
        expected = build_gram(kernel, [[0.0]], [[k * dt]])[0, 0]
        assert lagcov == pytest.approx(expected, abs=1e-8)


class TestAugment:
    def test_free_particle_companion_form(self):
        structural = StructuralModel(mass=[[1.0]], damping=[[0.0]], stiffness=[[0.0]])
        model = augment(structural, kernel_to_ss(Matern12(1.0, 1.0)))
        np.testing.assert_allclose(model.A[:2, :2], [[0.0, 1.0], [0.0, 0.0]])

    def test_structural_eigenvalues_match_characteristic_polynomial(self):
        m, c, k = 2.0, 0.6, 8.0
        structural = StructuralModel(mass=[[m]], damping=[[c]], stiffness=[[k]])
        model = augment(structural, kernel_to_ss(Matern32(1.0, 1.0)))
        eig = np.linalg.eigvals(model.A[:2, :2])
        for s in eig:
            assert abs(m * s**2 + c * s + k) == pytest.approx(0.0, abs=1e-9)

    def test_force_block_evolves_autonomously(self):
        structural = StructuralModel(
            mass=np.eye(2), damping=0.1 * np.eye(2), stiffness=[[2.0, -1.0], [-1.0, 2.0]]
        )
        model = augment(structural, kernel_to_ss(Matern32(1.0, 1.0)))
        np.testing.assert_array_equal(model.A[4:, :4], 0.0)
        assert model.force_index == 4
        assert model.state_dim == 2 * 2 + 2

    def test_acceleration_observation_row(self):
        m, c, k = 2.0, 0.4, 9.0
        structural = StructuralModel(
            mass=[[m]], damping=[[c]], stiffness=[[k]],
            observed=(("acceleration", 0),),
        )
        frag = kernel_to_ss(Matern12(1.0, 1.0))
        model = augment(structural, frag)
        np.testing.assert_allclose(model.H, [[-k / m, -c / m, 1.0 / m]])

    def test_observation_rows_follow_spec(self):
        structural = StructuralModel(
            mass=np.eye(2), damping=np.zeros((2, 2)), stiffness=np.eye(2),
            observed=(("displacement", 1), ("velocity", 0)),
        )
        model = augment(structural, kernel_to_ss(Matern12(1.0, 1.0)))
        np.testing.assert_array_equal(model.H[0, :4], [0.0, 1.0, 0.0, 0.0])
        np.testing.assert_array_equal(model.H[1, :4], [0.0, 0.0, 1.0, 0.0])

    def test_singular_mass_rejected(self):
        with pytest.raises(ValueError):
            StructuralModel(mass=[[0.0]], damping=[[0.0]], stiffness=[[1.0]])


class TestDiscretize:
    def test_zero_drift_limit(self):
        model = StateSpaceModel(
            A=np.zeros((1, 1)), Lc=np.eye(1), q=2.0, H=np.eye(1), R=np.eye(1),
            m0=np.zeros(1), P0=np.eye(1),
        )
        disc = discretize(model, 0.5)
        np.testing.assert_allclose(disc.Ad, [[1.0]])
        np.testing.assert_allclose(disc.Qd, [[1.0]])

    def test_scalar_exponential(self):
        model = StateSpaceModel(
            A=np.array([[-1.0]]), Lc=np.eye(1), q=1.0, H=np.eye(1), R=np.eye(1),
            m0=np.zeros(1), P0=np.eye(1),
        )
        disc = discretize(model, 1.0)
        assert disc.Ad[0, 0] == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_process_noise_matches_quadrature(self):
        # 128-point Gauss-Legendre quadrature of the noise integral
        frag = kernel_to_ss(Matern32(1.1, 0.8))
        dt = 0.37
        disc = discretize(frag, dt)
        Qc = frag.q * frag.Lc @ frag.Lc.T
        nodes, weights = np.polynomial.legendre.leggauss(128)
        s = 0.5 * dt * (nodes + 1.0)
        w = 0.5 * dt * weights
        Q_quad = sum(
            wi * expm(frag.A * si) @ Qc @ expm(frag.A.T * si) for si, wi in zip(s, w)
        )
        np.testing.assert_allclose(disc.Qd, Q_quad, atol=1e-8)

    def test_transition_matches_power_series(self):
        frag = kernel_to_ss(Matern32(1.0, 0.6))
        dt = 0.2
        disc = discretize(frag, dt)
        series = np.eye(2)
        term = np.eye(2)
        for k in range(1, 30):
            term = term @ (frag.A * dt) / k
            series = series + term
        np.testing.assert_allclose(disc.Ad, series, atol=1e-12)

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            discretize(kernel_to_ss(Matern12(1.0, 1.0)), 0.0)


def _scalar_model(ad=0.8, qd=0.5, r=0.2, p0=1.0):
    model = StateSpaceModel(
        A=np.array([[np.log(ad)]]), Lc=np.eye(1), q=qd, H=np.eye(1),
        R=np.array([[r]]), m0=np.zeros(1), P0=np.array([[p0]]), force_index=0,
    )
    model.dt = 1.0
    model.Ad = np.array([[ad]])
    model.Qd = np.array([[qd]])
    return model


class TestKalmanFilter:
    def test_hand_recursion_two_steps(self):
        # independent scalar recursion with the standard (non-Joseph) update
        ad, qd, r, p0 = 0.8, 0.5, 0.2, 1.0
        ys = [1.0, -0.5]
        m, P, ll = 0.0, p0, 0.0
        track = []
        for i, y in enumerate(ys):
            if i > 0:
                m, P = ad * m, ad * P * ad + qd
            S = P + r
            K = P / S
            v = y - m
            m, P = m + K * v, (1.0 - K) * P
            ll += -0.5 * (v * v / S + np.log(2 * np.pi * S))
            track.append((m, P))

        model = _scalar_model(ad, qd, r, p0)
        result = kalman_filter(model, np.array(ys).reshape(-1, 1))
        np.testing.assert_allclose(result.means[:, 0], [t[0] for t in track], rtol=1e-12)
        np.testing.assert_allclose(result.covs[:, 0, 0], [t[1] for t in track], rtol=1e-12)
        assert result.log_likelihood == pytest.approx(ll, rel=1e-12)

    def test_exact_observation_of_static_state(self):
        model = _scalar_model(ad=1.0, qd=0.0, r=1e-12, p0=1.0)
        ys = np.array([[0.7], [0.7], [0.7]])
        result = kalman_filter(model, ys)
        np.testing.assert_allclose(result.means[:, 0], 0.7, atol=1e-6)

    def test_missing_rows_skip_update(self):
        model = _scalar_model()
        full = kalman_filter(model, np.array([[1.0], [0.5], [0.2]]))
        gappy = kalman_filter(model, np.array([[1.0], [np.nan], [0.2]]))
        # after the gap the filter keeps running; likelihood only counts observed rows
        assert gappy.log_likelihood != pytest.approx(full.log_likelihood)
        np.testing.assert_allclose(gappy.means[1], model.Ad @ full.means[0])

    def test_undiscretized_model_rejected(self):
        frag = kernel_to_ss(Matern12(1.0, 1.0))
        with pytest.raises(ValueError):
            kalman_filter(frag, np.zeros((3, 1)))

    def test_channel_reordering_invariance(self):
        structural = StructuralModel(
            mass=np.eye(2), damping=0.2 * np.eye(2),
            stiffness=[[3.0, -1.0], [-1.0, 2.0]],
            observed=(("displacement", 0), ("displacement", 1)),
        )
        rng = np.random.default_rng(0)
        Y = rng.standard_normal((40, 2))
        base = build_latent_force_model(structural, 0.05, Matern32(), [0.01, 0.02])
        ll = kalman_filter(base, Y).log_likelihood

        swapped = StructuralModel(
            mass=np.eye(2), damping=0.2 * np.eye(2),
            stiffness=[[3.0, -1.0], [-1.0, 2.0]],
            observed=(("displacement", 1), ("displacement", 0)),
        )
        model2 = build_latent_force_model(swapped, 0.05, Matern32(), [0.02, 0.01])
        ll2 = kalman_filter(model2, Y[:, ::-1]).log_likelihood
        assert ll2 == pytest.approx(ll, rel=1e-12)

    def test_row_mixing_nan_and_finite_rejected(self):
        model = build_latent_force_model(
            StructuralModel(mass=np.eye(2), damping=0.2 * np.eye(2), stiffness=2.0 * np.eye(2),
                            observed=(("displacement", 0), ("displacement", 1))),
            0.05, Matern32(), 1e-4)
        Y = np.zeros((30, 2))
        Y[20, 1] = np.nan
        with pytest.raises(ValueError, match="row 20 mixes NaN"):
            kalman_filter(model, Y)


@pytest.fixture(scope="module")
def latent_force_3dof():
    """The shipped 3-dof config's structure, record, noise and swarm box."""
    cfg = json.loads((CONFIGS / "latent_force_3dof.json").read_text())
    params = dict(cfg["data"]["params"])
    force = band_limited_force(dt=params["dt"], **params.pop("force"))
    sim = simulate_mdof_chain(force=force, **params)
    box = cfg["optimizer"]["bounds"]
    return sim, cfg["model"]["noise_var"], np.array([box["sigma"], box["lengthscale"]])


def _force_model(latent_force_3dof, sigma, lengthscale):
    sim, noise_var, _ = latent_force_3dof
    return build_latent_force_model(sim.structure, sim.dt, Matern32(sigma, lengthscale), noise_var)


def _exact(monkeypatch, fn, *args):
    """``fn`` run with the steady-state switch off."""
    with monkeypatch.context() as patch:
        patch.setattr(statespace, "STEADY_RTOL", 0.0)
        return fn(*args)


def _assert_close(steady, exact, tol=1e-9):
    """Within ``tol`` of the exact array's largest magnitude."""
    np.testing.assert_allclose(steady, exact, rtol=0, atol=tol * np.abs(exact).max())


class TestSteadyState:
    """The filter's steady-state switch against the exact recursion."""

    @pytest.mark.parametrize("corner", [*itertools.product((0, 1), repeat=2), "centre"])
    def test_matches_exact_recursion_over_the_tuning_box(self, latent_force_3dof, monkeypatch,
                                                         corner):
        sim, _, box = latent_force_3dof
        if corner == "centre":  # the swarm searches the box in log10 space
            sigma, lengthscale = np.sqrt(box.prod(axis=1))
        else:
            sigma, lengthscale = box[0, corner[0]], box[1, corner[1]]
        model = _force_model(latent_force_3dof, sigma, lengthscale)
        steady = smooth(model, sim.observations)
        exact = _exact(monkeypatch, smooth, model, sim.observations)
        filt = kalman_filter(model, sim.observations)
        if filt.steady:
            assert len(filt.steady) == 1 and filt.steady[0][1] == len(sim.observations)
        else:  # not converged within the record (a long, faint force): the exact recursion
            assert steady.log_likelihood == exact.log_likelihood
        assert steady.log_likelihood == pytest.approx(exact.log_likelihood, rel=1e-9)
        _assert_close(steady.force_mean, exact.force_mean)

    def test_missing_row_resumes_exact_recursion(self, latent_force_3dof, monkeypatch):
        sim, _, _ = latent_force_3dof
        model = _force_model(latent_force_3dof, 4.6, 2.33)
        switch = kalman_filter(model, sim.observations).steady[0][0]
        Y = sim.observations.copy()
        gap = switch + 50
        Y[gap] = np.nan
        filt = kalman_filter(model, Y)
        exact = _exact(monkeypatch, kalman_filter, model, Y)
        assert filt.steady[0] == (switch, gap)
        assert filt.steady[1][0] > gap + 1
        # the gap step itself is the exact prediction from the steady moments
        np.testing.assert_array_equal(filt.covs[gap], filt.pred_covs[gap])
        assert filt.log_likelihood == pytest.approx(exact.log_likelihood, rel=1e-9)
        _assert_close(filt.means, exact.means)
        steady_force = rts_smoother(model, filt).force_mean
        _assert_close(steady_force, _exact(monkeypatch, rts_smoother, model, exact).force_mean)

    @pytest.mark.filterwarnings("error")  # no log of a failed factor's diagonal
    @pytest.mark.parametrize("r", [-5.0, np.nan])
    def test_innovation_covariance_not_positive_definite(self, r):
        with pytest.raises(NumericalError, match="not positive definite at step 0"):
            kalman_filter(_scalar_model(r=r), np.ones((5, 1)))

    def test_covariances_filled_and_symmetric_at_every_step(self, latent_force_3dof,
                                                           monkeypatch):
        sim, _, _ = latent_force_3dof
        model = _force_model(latent_force_3dof, 4.6, 2.33)
        filt = kalman_filter(model, sim.observations)
        exact = _exact(monkeypatch, kalman_filter, model, sim.observations)
        (start, end), = filt.steady
        for covs, reference in ((filt.covs, exact.covs), (filt.pred_covs, exact.pred_covs)):
            np.testing.assert_array_equal(covs, covs.transpose(0, 2, 1))
            assert (covs[start:end] == covs[start - 1]).all()
            _assert_close(covs, reference)


class TestRtsSmoother:
    def test_single_step_equals_filtered(self):
        model = _scalar_model()
        result = smooth(model, np.array([[0.4]]))
        np.testing.assert_array_equal(result.smoothed_means, result.filtered_means)
        np.testing.assert_array_equal(result.smoothed_covs, result.filtered_covs)

    def test_smoothed_variance_never_exceeds_filtered(self):
        rng = np.random.default_rng(3)
        model = discretize(kernel_to_ss(Matern32(1.0, 0.8)).with_noise([[0.05]]), 0.1)
        result = smooth(model, rng.standard_normal((60, 1)))
        filt_diag = np.diagonal(result.filtered_covs, axis1=1, axis2=2)
        smth_diag = np.diagonal(result.smoothed_covs, axis1=1, axis2=2)
        assert np.all(smth_diag <= filt_diag + 1e-9)

    def test_covariances_symmetric(self):
        rng = np.random.default_rng(4)
        model = discretize(kernel_to_ss(Matern32(1.0, 0.5)).with_noise([[0.1]]), 0.2)
        result = smooth(model, rng.standard_normal((30, 1)))
        for P in result.smoothed_covs:
            assert np.abs(P - P.T).max() <= 1e-10

    @pytest.mark.parametrize("nu,kernel", [(0.5, Matern12), (1.5, Matern32)])
    def test_batch_gp_duality(self, nu, kernel):
        # smoothed means and filter likelihood against exact batch regression
        rng = np.random.default_rng(8)
        n, dt, noise = 60, 0.15, 0.05
        t = np.arange(n) * dt
        sigma, ell = 1.3, 0.7
        spec = kernel(signal_scale=sigma, lengthscale=ell)
        assert spec.nu == nu
        K = build_gram(spec, t.reshape(-1, 1)) + noise * np.eye(n)
        y = np.linalg.cholesky(K + 1e-12 * np.eye(n)) @ rng.standard_normal(n)

        batch = gp.fit_exact(Dataset(t.reshape(-1, 1), y), spec, noise_var=noise)
        batch_mean = gp.predict(batch, t.reshape(-1, 1)).mean

        model = discretize(kernel_to_ss(spec).with_noise([[noise]]), dt)
        result = smooth(model, y.reshape(-1, 1))

        scale = np.abs(batch_mean).max()
        np.testing.assert_allclose(result.smoothed_means[:, 0], batch_mean,
                                   rtol=1e-6, atol=1e-6 * scale)
        assert result.log_likelihood == pytest.approx(batch.lml, rel=1e-6)


class TestEstimateForce:
    def test_zero_observations_give_zero_force(self):
        structural = StructuralModel(
            mass=[[1.0]], damping=[[0.4]], stiffness=[[5.0]],
            observed=(("displacement", 0),),
        )
        result = estimate_force(structural, np.zeros((50, 1)), dt=0.05,
                                prior=Matern32(1.0, 0.5), noise_var=1e-4)
        np.testing.assert_allclose(result.force_mean, 0.0, atol=1e-10)

    def test_doubling_noise_never_decreases_force_variance(self):
        rng = np.random.default_rng(11)
        structural = StructuralModel(
            mass=[[1.0]], damping=[[0.3]], stiffness=[[4.0]],
            observed=(("displacement", 0),),
        )
        Y = rng.standard_normal((40, 1)) * 0.1
        low = estimate_force(structural, Y, dt=0.05, noise_var=1e-3)
        high = estimate_force(structural, Y, dt=0.05, noise_var=2e-3)
        assert np.all(high.force_var >= low.force_var - 1e-12)

    def test_records_hyperparameters(self):
        structural = StructuralModel(mass=[[1.0]], damping=[[0.2]], stiffness=[[2.0]])
        result = estimate_force(structural, np.zeros((10, 1)), dt=0.1,
                                prior=Matern32(2.0, 0.8), noise_var=1e-3)
        assert result.hyperparameters["sigma"] == 2.0
        assert result.hyperparameters["lengthscale"] == 0.8

    def test_swarm_keeps_the_prior_family(self, monkeypatch):
        from shmgp import statespace
        from shmgp.pso import PsoConfig

        priors = []
        build = statespace.build_latent_force_model
        monkeypatch.setattr(statespace, "build_latent_force_model",
                            lambda *a: priors.append(a[2]) or build(*a))
        structural = StructuralModel(mass=[[1.0]], damping=[[0.3]], stiffness=[[4.0]])
        pso = PsoConfig(bounds=((0.1, 10.0), (0.1, 2.0)), particles=3, iterations=2, seed=0)
        result = estimate_force(structural, np.zeros((20, 1)), dt=0.05, prior=Matern12(),
                                optimizer=pso)
        assert len(priors) > 1  # the swarm evaluations and the final pass
        assert {type(p) for p in priors} == {Matern12}
        assert result.hyperparameters["nu"] == 0.5

    def test_optimizer_can_include_noise_variance(self):
        from shmgp.pso import PsoConfig

        rng = np.random.default_rng(7)
        structural = StructuralModel(mass=[[1.0]], damping=[[0.3]], stiffness=[[4.0]])
        Y = 0.05 * rng.standard_normal((30, 1))
        pso = PsoConfig(bounds=((0.1, 10.0), (0.1, 2.0), (1e-6, 1.0)),
                        particles=6, iterations=8, seed=0)
        result = estimate_force(structural, Y, dt=0.05, noise_var=1e-4, optimizer=pso)
        tuned = np.asarray(result.hyperparameters["noise_var"])
        assert tuned != 1e-4  # picked from the box, not the fallback
        assert 1e-6 <= float(tuned) <= 1.0

    def test_all_infeasible_swarm_raises(self, monkeypatch):
        from shmgp import statespace
        from shmgp.pso import PsoConfig

        class NanFilter:
            log_likelihood = np.nan

        monkeypatch.setattr(statespace, "kalman_filter", lambda model, Y: NanFilter())
        structural = StructuralModel(mass=[[1.0]], damping=[[0.3]], stiffness=[[4.0]])
        pso = PsoConfig(bounds=((0.1, 10.0), (0.1, 2.0)), particles=4, iterations=3, seed=0)
        with pytest.raises(NumericalError):
            estimate_force(structural, np.zeros((20, 1)), dt=0.05, optimizer=pso)
