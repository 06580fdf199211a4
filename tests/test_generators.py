"""Synthetic generators: physical sanity oracles and reproducibility."""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from shmgp import generators
from shmgp.errors import DataError
from shmgp.generators import (
    _integrate,
    band_limited_force,
    generate_bounded_field,
    generate_trend_series,
    generate_wave_loading,
    simulate_mdof_chain,
    simulate_sdof,
)
from shmgp.gp import Dataset
from shmgp.narx import NarxConfig, SequenceData, build_lag_matrix, coverage_metric
from shmgp.physics import morison_force

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _reference_integrate(M, C, K, k3, force, dt, substeps, zoh, y0, v0):
    """RK4 on numpy arrays for every degree-of-freedom count, stage by stage:
    the bits a one-mass record must keep, and what a chain must stay within
    rounding of."""
    T, p = force.shape
    Minv = np.linalg.inv(M)
    y, v = np.array(y0, dtype=float), np.array(v0, dtype=float)
    k3 = np.broadcast_to(np.asarray(k3, dtype=float), (p,))

    def accel(yy, vv, ff):
        return Minv @ (ff - C @ vv - K @ yy - k3 * yy**3)

    Y, V, A = np.empty((T, p)), np.empty((T, p)), np.empty((T, p))
    Y[0], V[0] = y, v
    A[0] = accel(y, v, force[0])
    h = dt / substeps
    for i in range(T - 1):
        f0, f1 = force[i], force[i if zoh else i + 1]
        for j in range(substeps):
            if zoh:
                fa = fb = fc = f0
            else:
                fa = f0 + (j / substeps) * (f1 - f0)
                fb = f0 + ((j + 0.5) / substeps) * (f1 - f0)
                fc = f0 + ((j + 1.0) / substeps) * (f1 - f0)
            k1v = accel(y, v, fa)
            k1y = v
            k2v = accel(y + 0.5 * h * k1y, v + 0.5 * h * k1v, fb)
            k2y = v + 0.5 * h * k1v
            k3v = accel(y + 0.5 * h * k2y, v + 0.5 * h * k2v, fb)
            k3y = v + 0.5 * h * k2v
            k4v = accel(y + h * k3y, v + h * k3v, fc)
            k4y = v + h * k3v
            y = y + (h / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
            v = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        Y[i + 1], V[i + 1] = y, v
        A[i + 1] = accel(y, v, force[i + 1])
    return Y, V, A


def _assert_same_bits(got, want):
    """Equal to the bit, so a -0.0 for a 0.0 fails too."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestReferenceBits:
    """The generators against :func:`_reference_integrate`, bit for bit.  A
    pinned hash would tie the records to one CPU's floating-point library;
    the reference runs on the same one as the generator."""

    @pytest.mark.parametrize("seed", [7, 3])
    def test_shipped_sdof_record(self, seed):
        params = json.loads((CONFIGS / "sdof_kernel_gp.json").read_text())["data"]["params"]
        params = {**params, "seed": seed, "n_samples": 600}
        assert params["substeps"] == 2 and params["k3"] == 200.0
        seq = simulate_sdof(**params)
        force = params["forcing"] / np.sqrt(params["dt"]) * \
            np.random.default_rng(seed).standard_normal(600)
        Y, _, _ = _reference_integrate(
            np.array([[params["m"]]]), np.array([[params["c"]]]), np.array([[params["k"]]]),
            params["k3"], force[:, None], params["dt"], 2, True, [0.0], [0.0])
        _assert_same_bits(seq.u[:, 0], force)
        _assert_same_bits(seq.y, Y[:, 0])

    # a swing of about 1 cubes over a wide range, where a libm pow differs
    # from numpy's cube at substeps 3
    @pytest.mark.parametrize("substeps", [1, 3])
    def test_supplied_force_from_a_moving_start(self, substeps):
        force = band_limited_force(300, 0.02, seed=5, band=(0.5, 3.0), scale=20.0)
        seq = simulate_sdof(1.3, 0.4, 6.0, k3=50.0, forcing=force, dt=0.02, n_samples=300,
                            substeps=substeps, y0=0.1, v0=-0.2)
        Y, _, _ = _reference_integrate(np.array([[1.3]]), np.array([[0.4]]),
                                       np.array([[6.0]]), 50.0, force[:, None], 0.02,
                                       substeps, False, [0.1], [-0.2])
        _assert_same_bits(seq.y, Y[:, 0])

    @pytest.mark.parametrize("force", [np.zeros(40), -np.zeros(40)], ids=["+0", "-0"])
    def test_one_mass_at_rest_from_a_negative_zero(self, force):
        sim = simulate_mdof_chain([1.0], [0.5], [10.0], force=force, dt=0.01,
                                  y0=[-0.0], v0=[-0.0])
        want = _reference_integrate(np.array([[1.0]]), np.array([[0.5]]), np.array([[10.0]]),
                                    0.0, force[:, None], 0.01, 1, False, [-0.0], [-0.0])
        for got, ref in zip((sim.displacements, sim.velocities, sim.accelerations), want):
            _assert_same_bits(got, ref)

    def test_numpy_step_gives_the_python_float_steps_bytes(self, monkeypatch):
        """The ``Positive`` reader hands ``dt`` on as a numpy float; the
        one-mass loop still steps in Python floats, with the same bytes."""
        steps = []
        rk4 = generators._rk4_sample
        monkeypatch.setattr(generators, "_rk4_sample",
                            lambda *args: steps.append(type(args[5])) or rk4(*args))
        force = band_limited_force(300, 0.02, seed=5, band=(0.5, 3.0), scale=20.0)[:, None]
        system = (np.array([[1.3]]), np.array([[0.4]]), np.array([[6.0]]), 50.0, force)
        records = [np.array(_integrate(*system, dt, 2, False, [0.1], [-0.2]))
                   for dt in (np.float64(0.02), 0.02)]
        assert records[0].tobytes() == records[1].tobytes()
        assert set(steps) == {float}


class TestChainSampleMap:
    """A chain (p > 1) applies one RK4 sample as an exact affine map of the
    state and the force rows, so its records agree with stage-by-stage RK4 to
    rounding: within 1e-13 of the reference's largest value, per quantity."""

    SHIPPED = json.loads((CONFIGS / "latent_force_3dof.json").read_text())["data"]["params"]

    @staticmethod
    def _assert_close_to_reference(sim, substeps, y0, v0):
        s, p = sim.structure, sim.structure.ndof
        F = np.zeros((len(sim.force), p))
        F[:, s.force_dof] = sim.force
        want = _reference_integrate(s.mass, s.damping, s.stiffness, 0.0, F, sim.dt, substeps,
                                    False, y0, v0)
        for got, ref in zip((sim.displacements, sim.velocities, sim.accelerations), want):
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("substeps", [1, 2, 3, 4])
    @pytest.mark.parametrize("start", ["rest", "moving"])
    def test_shipped_three_mass_chain(self, substeps, start):
        params = {k: v for k, v in self.SHIPPED.items() if k != "force"}
        assert params["substeps"] == 4
        force = band_limited_force(dt=params["dt"], **{**self.SHIPPED["force"], "n_samples": 400})
        y0, v0 = ([0.0] * 3, [0.0] * 3) if start == "rest" else ([0.02, -0.01, 0.03],
                                                                  [-0.5, 0.2, 0.1])
        sim = simulate_mdof_chain(force=force, **{**params, "substeps": substeps},
                                  y0=y0, v0=v0)
        self._assert_close_to_reference(sim, substeps, y0, v0)

    def test_two_mass_chain_driven_at_its_tip(self):
        force = band_limited_force(300, 0.05, seed=4)
        sim = simulate_mdof_chain([1.0, 1.0], [0.5, 0.5], [8.0, 6.0], force=force, dt=0.05,
                                  force_dof=1, substeps=2, y0=[0.1, 0.0], v0=[0.0, -0.3])
        self._assert_close_to_reference(sim, 2, [0.1, 0.0], [0.0, -0.3])

    @pytest.mark.parametrize("dt", [1.0, 50.0])
    def test_unstable_step_raises_before_any_overflow(self, dt):
        params = {k: v for k, v in self.SHIPPED.items() if k not in ("force", "dt")}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="^simulation diverged"):
                simulate_mdof_chain(force=np.ones(400), dt=dt, **params)

    def test_a_chain_takes_no_cubic_spring(self):
        with pytest.raises(ValueError, match="^a chain of 2 masses takes k3 = 0, got 1.0$"):
            _integrate(np.eye(2), np.eye(2), np.eye(2), 1.0, np.zeros((5, 2)), 0.1, 1, False)


class TestSimulateSdof:
    def test_zero_forcing_zero_response(self):
        seq = simulate_sdof(1.0, 0.5, 10.0, forcing=np.zeros(200), dt=0.01, n_samples=200)
        np.testing.assert_array_equal(seq.y, 0.0)

    def test_deterministic_per_seed(self):
        a = simulate_sdof(1.0, 0.5, 10.0, forcing=2.0, dt=0.01, n_samples=300, seed=42)
        b = simulate_sdof(1.0, 0.5, 10.0, forcing=2.0, dt=0.01, n_samples=300, seed=42)
        assert np.array_equal(a.y, b.y) and np.array_equal(a.u, b.u)

    def test_stationary_variance_matches_white_noise_theory(self):
        # long linear run: sample variance approaches sigma^2/(4 m^2 zeta wn^3),
        # with sigma^2 the continuous white-noise level (steps draw N(0, sigma^2/dt))
        m, zeta, wn, sigma2 = 1.0, 0.1, 2 * np.pi, 4.0
        c, k = 2 * m * zeta * wn, m * wn**2
        seq = simulate_sdof(m, c, k, forcing=np.sqrt(sigma2), dt=0.02, n_samples=50_000, seed=2)
        target = sigma2 / (4 * m**2 * zeta * wn**3)
        assert np.var(seq.y) == pytest.approx(target, rel=0.10)

    def test_log_decrement_recovers_damping_ratio(self):
        m, zeta, wn = 1.0, 0.05, 2 * np.pi
        c, k = 2 * m * zeta * wn, m * wn**2
        n = 5000
        seq = simulate_sdof(m, c, k, forcing=np.zeros(n), dt=0.002, n_samples=n, y0=1.0)
        y = seq.y
        peaks = [i for i in range(1, n - 1) if y[i] > y[i - 1] and y[i] > y[i + 1] and y[i] > 1e-3]
        ratios = np.array([y[a] / y[b] for a, b in zip(peaks[:-1], peaks[1:])])
        delta = np.log(ratios).mean()
        zeta_est = delta / np.sqrt(4 * np.pi**2 + delta**2)
        assert zeta_est == pytest.approx(zeta, rel=0.02)

    def test_cubic_term_changes_response(self):
        lin = simulate_sdof(1.0, 0.6, 40.0, k3=0.0, forcing=1.0, dt=0.01, n_samples=500, seed=1)
        cub = simulate_sdof(1.0, 0.6, 40.0, k3=400.0, forcing=1.0, dt=0.01, n_samples=500, seed=1)
        assert not np.allclose(lin.y, cub.y)

    def test_unstable_step_raises(self):
        with pytest.raises(DataError):
            simulate_sdof(1.0, 0.0, 1e6, forcing=1.0, dt=0.5, n_samples=2000, seed=0)

    @pytest.mark.parametrize("key, value, message", [
        ("substeps", 0, "substeps takes a positive integer, got 0"),
        ("substeps", -1, "substeps takes a positive integer, got -1"),
        ("substeps", 1.5, "substeps takes a positive integer, got 1.5"),
        ("substeps", True, "substeps takes a positive integer, got True"),
        ("dt", 0.0, "dt takes a positive number, got 0.0"),
        ("dt", -1.0, "dt takes a positive number, got -1.0"),
        ("dt", "x", "dt takes one finite number, got 'x'"),
        ("k3", None, "k3 takes one finite number, got None"),
        ("k3", np.inf, "k3 takes one finite number, got inf"),
        ("m", 0.0, "m takes a positive number, got 0.0"),
        ("c", "x", "c takes one finite number, got 'x'"),
        ("y0", "x", "y0 takes one finite number, got 'x'"),
        ("v0", [1, 2], "v0 takes one finite number, got [1, 2]"),
        ("forcing", "x", "forcing takes one finite number, got 'x'"),
        ("n_samples", "x", "n_samples takes a positive integer, got 'x'"),
        ("n_samples", -1, "n_samples takes a positive integer, got -1"),
        ("n_samples", 0, "n_samples takes a positive integer, got 0"),
        ("seed", "x", "seed takes a non-negative integer, got 'x'"),
    ])
    def test_a_setting_that_cannot_integrate_names_its_key(self, key, value, message):
        args = {"m": 1.0, "c": 0.5, "k": 10.0, "k3": 1.0, "dt": 0.01, "substeps": 2,
                "n_samples": 50}
        with pytest.raises(ValueError) as info:
            simulate_sdof(**{**args, key: value})
        assert str(info.value) == message


class TestSimulateMdofChain:
    def test_zero_force_zero_response(self):
        sim = simulate_mdof_chain([1.0, 1.0], [0.1, 0.1], [5.0, 4.0],
                                  force=np.zeros(100), dt=0.02)
        np.testing.assert_array_equal(sim.displacements, 0.0)

    def test_single_mass_reduces_to_sdof(self):
        force = band_limited_force(400, 0.02, seed=5, band=(0.5, 3.0))
        sim = simulate_mdof_chain([1.3], [0.4], [6.0], force=force, dt=0.02, substeps=2)
        seq = simulate_sdof(1.3, 0.4, 6.0, forcing=force, dt=0.02, n_samples=400, substeps=2)
        np.testing.assert_array_equal(sim.displacements[:, 0], seq.y)

    def test_energy_conserved_in_undamped_free_vibration(self):
        masses = np.array([1.0, 2.0])
        springs = np.array([4.0, 3.0])
        M = np.diag(masses)
        K = np.array([[7.0, -3.0], [-3.0, 3.0]])
        # slowest mode period ~7.1 s; run ten of them
        n = 7200
        sim = simulate_mdof_chain(masses, [0.0, 0.0], springs,
                                  force=np.zeros(n), dt=0.01, y0=[1.0, -0.5])
        E = 0.5 * np.einsum("ti,ij,tj->t", sim.velocities, M, sim.velocities) \
            + 0.5 * np.einsum("ti,ij,tj->t", sim.displacements, K, sim.displacements)
        assert np.abs(E - E[0]).max() / E[0] < 0.005

    def test_observation_channels_follow_spec(self):
        force = band_limited_force(200, 0.02, seed=3)
        sim = simulate_mdof_chain(
            [1.0, 1.0, 1.0], [0.2, 0.2, 0.2], [10.0, 9.0, 8.0], force=force, dt=0.02,
            observed=(("displacement", 2), ("velocity", 0)), noise_std=0.0,
        )
        np.testing.assert_array_equal(sim.observations[:, 0], sim.displacements[:, 2])
        np.testing.assert_array_equal(sim.observations[:, 1], sim.velocities[:, 0])

    @pytest.mark.parametrize("key, value", [("substeps", 0), ("substeps", 2.0), ("dt", -0.02),
                                            ("dt", None)])
    def test_a_step_setting_that_cannot_integrate_names_its_key(self, key, value):
        args = {"dt": 0.02, "substeps": 2, key: value}
        with pytest.raises(ValueError, match=rf"^{key} takes "):
            simulate_mdof_chain([1.0, 1.0], [0.1, 0.1], [5.0, 4.0], force=np.zeros(20), **args)

    def test_noise_applied_per_channel(self):
        force = band_limited_force(300, 0.02, seed=3)
        sim = simulate_mdof_chain([1.0], [0.3], [5.0], force=force, dt=0.02,
                                  observed=(("displacement", 0),), noise_std=0.05, seed=9)
        resid = sim.observations[:, 0] - sim.displacements[:, 0]
        assert 0.03 < resid.std() < 0.07


class TestTrendSeries:
    def test_noise_free_is_exact_affine_function_of_inputs(self):
        data = generate_trend_series(seed=4, noise_std=0.0)
        A = np.column_stack([np.ones(len(data)), data.inputs])
        resid = data.outputs - A @ np.linalg.lstsq(A, data.outputs, rcond=None)[0]
        assert np.abs(resid).max() < 1e-9

    def test_head_training_window_does_not_cover_test(self):
        data = generate_trend_series(seed=0)
        n_train = len(data) // 4
        train = Dataset(data.inputs[:n_train], data.outputs[:n_train])
        test = Dataset(data.inputs[n_train:], data.outputs[n_train:])
        assert coverage_metric(train, test) < 100.0

    def test_temperature_declines(self):
        data = generate_trend_series(seed=1)
        temp = data.inputs[:, 0]
        n = len(temp)
        assert temp[: n // 4].mean() > temp[-n // 4 :].mean() + 5.0

    def test_deterministic(self):
        a = generate_trend_series(seed=7)
        b = generate_trend_series(seed=7)
        assert np.array_equal(a.inputs, b.inputs) and np.array_equal(a.outputs, b.outputs)


class TestWaveLoading:
    def test_channels_are_velocity_and_acceleration(self):
        rec = generate_wave_loading(seed=0)
        U, Udot = rec.seq.u[:, 0], rec.seq.u[:, 1]
        # acceleration channel is the analytic derivative of the velocity channel
        num = np.gradient(U, rec.seq.dt)
        mask = slice(5, 300)
        corr = np.corrcoef(num[mask], Udot[mask])[0, 1]
        assert corr > 0.99

    def test_residual_beyond_morison_is_moderate(self):
        rec = generate_wave_loading(seed=0)
        wb = morison_force(rec.morison, rec.seq.u[:, 0], rec.seq.u[:, 1])
        frac = np.std(rec.seq.y - wb) / np.std(rec.seq.y)
        assert 0.1 < frac < 0.4

    def test_coverage_decreases_across_levels(self):
        rec = generate_wave_loading(seed=0)
        cfg = NarxConfig(exog_lags=4, auto_lags=4)
        seq = rec.seq
        test = SequenceData(u=seq.u[rec.test_window], y=seq.y[rec.test_window], dt=seq.dt)
        Xte, yte = build_lag_matrix(test, cfg)
        covs = []
        for level in (100, 75, 50, 25):
            win = rec.train_windows[level]
            tr = SequenceData(u=seq.u[win], y=seq.y[win], dt=seq.dt)
            Xtr, ytr = build_lag_matrix(tr, cfg)
            covs.append(coverage_metric(Dataset(Xtr, ytr), Dataset(Xte, yte)))
        assert all(a > b for a, b in zip(covs[:-1], covs[1:]))
        assert covs[0] > 90.0 and covs[-1] < 40.0

    def test_deterministic(self):
        a = generate_wave_loading(seed=3)
        b = generate_wave_loading(seed=3)
        assert np.array_equal(a.seq.y, b.seq.y)


class TestBoundedField:
    def test_train_confined_to_middle_test_spans_domain(self):
        train, test = generate_bounded_field(seed=0)
        assert np.abs(train.inputs).max() <= 0.5 + 1e-12
        assert np.abs(test.inputs).max() > 0.9

    def test_field_small_near_boundary(self):
        _, test = generate_bounded_field(seed=0, noise_std=0.0)
        near = np.abs(test.inputs).max(axis=1) > 0.95
        interior = np.abs(test.inputs).max(axis=1) < 0.5
        assert np.abs(test.outputs[near]).mean() < 0.5 * np.abs(test.outputs[interior]).mean()

    def test_deterministic(self):
        a_train, a_test = generate_bounded_field(seed=5)
        b_train, b_test = generate_bounded_field(seed=5)
        assert np.array_equal(a_train.outputs, b_train.outputs)
        assert np.array_equal(a_test.outputs, b_test.outputs)
