"""GP-NARX: lag embedding, grey-box modes, one-step-ahead and free-run."""

import numpy as np
import pytest

from shmgp import gp
from shmgp.gp import Dataset
from shmgp.kernels import SquaredExponential
from shmgp.metrics import nmse
from shmgp.narx import (
    BlackBox,
    InputAugmentation,
    NarxConfig,
    ResidualMean,
    SequenceData,
    build_lag_matrix,
    coverage_metric,
    fit_narx,
    predict_osa,
    simulate_free_run,
)
from shmgp.physics import MorisonParams, morison_force

MORISON = MorisonParams(drag=1.0, inertia=0.5)


def _ar1_sequence(n=60, coef=0.5, y0=8.0):
    y = np.empty(n)
    y[0] = y0
    for t in range(1, n):
        y[t] = coef * y[t - 1]
    return SequenceData(u=np.zeros((n, 0)), y=y, dt=1.0)


def _morison_sequence(seed=0, n=200):
    rng = np.random.default_rng(seed)
    t = np.arange(n) * 0.1
    U = np.sin(0.7 * t) + 0.4 * np.cos(1.9 * t + 1.0) + 0.1 * rng.standard_normal(n)
    Udot = np.gradient(U, 0.1)
    y = morison_force(MORISON, U, Udot)
    return SequenceData(u=np.column_stack([U, Udot]), y=y, dt=0.1)


class TestBuildLagMatrix:
    def test_hand_construction(self):
        seq = SequenceData(u=[1.0, 2.0, 3.0], y=[10.0, 20.0, 30.0], dt=1.0)
        cfg = NarxConfig(exog_lags=1, auto_lags=1)
        X, targets = build_lag_matrix(seq, cfg)
        np.testing.assert_array_equal(X, [[2.0, 1.0, 10.0], [3.0, 2.0, 20.0]])
        np.testing.assert_array_equal(targets, [20.0, 30.0])

    def test_hand_construction_no_exog_lags(self):
        seq = SequenceData(u=[5.0, 6.0], y=[1.0, 2.0], dt=1.0)
        X, targets = build_lag_matrix(seq, NarxConfig(exog_lags=0, auto_lags=1))
        np.testing.assert_array_equal(X, [[6.0, 1.0]])
        np.testing.assert_array_equal(targets, [2.0])

    @pytest.mark.parametrize("lu,ly", [(0, 1), (1, 1), (4, 2), (2, 5)])
    def test_row_count_identity(self, lu, ly):
        seq = _morison_sequence(n=40)
        X, targets = build_lag_matrix(seq, NarxConfig(exog_lags=lu, auto_lags=ly))
        assert X.shape[0] + max(lu, ly) == len(seq)
        assert targets.shape[0] == X.shape[0]

    def test_regressor_dimension(self):
        seq = _morison_sequence(n=30)
        cfg = NarxConfig(exog_lags=2, auto_lags=3)
        X, _ = build_lag_matrix(seq, cfg)
        assert X.shape[1] == (2 + 1) * 2 + 3

    def test_augmented_dimension_one_more_than_blackbox(self):
        seq = _morison_sequence(n=30)
        bb = NarxConfig(exog_lags=2, auto_lags=2, mode=BlackBox())
        ia = NarxConfig(exog_lags=2, auto_lags=2, mode=InputAugmentation(MORISON))
        assert build_lag_matrix(seq, ia)[0].shape[1] == build_lag_matrix(seq, bb)[0].shape[1] + 1

    def test_augmented_column_is_morison_output(self):
        seq = _morison_sequence(n=30)
        cfg = NarxConfig(exog_lags=1, auto_lags=1, mode=InputAugmentation(MORISON))
        X, _ = build_lag_matrix(seq, cfg)
        t = np.arange(1, 30)
        np.testing.assert_allclose(
            X[:, -1], morison_force(MORISON, seq.u[t, 0], seq.u[t, 1]), rtol=1e-14
        )

    def test_series_too_short(self):
        seq = SequenceData(u=np.zeros((3, 1)), y=np.zeros(3), dt=1.0)
        with pytest.raises(ValueError):
            build_lag_matrix(seq, NarxConfig(exog_lags=3, auto_lags=1))

    def test_morison_mode_needs_two_channels(self):
        seq = SequenceData(u=np.zeros((10, 1)), y=np.zeros(10), dt=1.0)
        with pytest.raises(ValueError):
            build_lag_matrix(seq, NarxConfig(mode=ResidualMean(MORISON), exog_lags=1, auto_lags=1))


class TestFitAndPredict:
    def test_residual_mode_zero_residual_gives_zero_alpha(self):
        seq = _morison_sequence()
        seq = SequenceData(u=seq.u, y=morison_force(MORISON, seq.u[:, 0], seq.u[:, 1]), dt=seq.dt)
        cfg = NarxConfig(exog_lags=2, auto_lags=1, mode=ResidualMean(MORISON))
        model = fit_narx(seq, cfg, SquaredExponential(1.0, 1.0), noise_var=0.0)
        np.testing.assert_allclose(model.gp.alpha, 0.0, atol=1e-12)

    def test_blackbox_learns_linear_ar1(self):
        seq = _ar1_sequence()
        cfg = NarxConfig(exog_lags=0, auto_lags=1, mode=BlackBox())
        model = fit_narx(seq, cfg, SquaredExponential(5.0, 4.0), noise_var=1e-8)
        mean, _ = predict_osa(model, seq)
        np.testing.assert_allclose(mean, 0.5 * seq.y[:-1], atol=1e-3)

    def test_osa_interpolates_training_sequence(self):
        seq = _morison_sequence()
        cfg = NarxConfig(exog_lags=2, auto_lags=2)
        model = fit_narx(seq, cfg, SquaredExponential(2.0, 2.0), noise_var=0.0)
        mean, _ = predict_osa(model, seq)
        _, targets = build_lag_matrix(seq, cfg)
        assert nmse(targets, mean) <= 0.1

    def test_residual_mode_with_zero_gp_weight_returns_morison(self):
        seq = _morison_sequence()
        truth = morison_force(MORISON, seq.u[:, 0], seq.u[:, 1])
        exact = SequenceData(u=seq.u, y=truth, dt=seq.dt)
        cfg = NarxConfig(exog_lags=1, auto_lags=1, mode=ResidualMean(MORISON))
        model = fit_narx(exact, cfg, SquaredExponential(1.0, 1.0), noise_var=0.0)
        mean, _ = predict_osa(model, exact)
        np.testing.assert_allclose(mean, truth[1:], atol=1e-10)

    def test_osa_matches_gp_predict_composition(self):
        seq = _morison_sequence(seed=3)
        cfg = NarxConfig(exog_lags=2, auto_lags=2, mode=ResidualMean(MORISON))
        model = fit_narx(seq, cfg, SquaredExponential(1.5, 1.5), noise_var=1e-4)
        mean, var = predict_osa(model, seq)
        X, _ = build_lag_matrix(seq, cfg)
        pred = gp.predict(model.gp, X)
        np.testing.assert_array_equal(mean, pred.mean)
        np.testing.assert_array_equal(var, pred.var)

    def test_residual_mode_equals_manual_residual_fit(self):
        seq = _morison_sequence(seed=5)
        cfg = NarxConfig(exog_lags=1, auto_lags=2, mode=ResidualMean(MORISON))
        kernel = SquaredExponential(1.2, 2.0)
        model = fit_narx(seq, cfg, kernel, noise_var=1e-3)

        X, targets = build_lag_matrix(seq, cfg)
        mor = morison_force(MORISON, X[:, 0], X[:, 1])
        manual = gp.fit_exact(Dataset(X, targets - mor), kernel, noise_var=1e-3)
        mean, var = predict_osa(model, seq)
        manual_pred = gp.predict(manual, X)
        np.testing.assert_array_equal(mean, mor + manual_pred.mean)
        np.testing.assert_array_equal(var, manual_pred.var)


class TestFreeRun:
    def test_geometric_decay_from_seed(self):
        seq = _ar1_sequence()
        cfg = NarxConfig(exog_lags=0, auto_lags=1, mode=BlackBox())
        model = fit_narx(seq, cfg, SquaredExponential(5.0, 4.0), noise_var=1e-8)
        traj = simulate_free_run(model, np.zeros((4, 0)), y_init=[8.0])
        np.testing.assert_allclose(traj, [4.0, 2.0, 1.0, 0.5], atol=1e-2)

    def test_zero_response_model_stays_zero(self):
        seq = SequenceData(u=np.zeros((30, 1)), y=np.zeros(30) + 0.0, dt=1.0)
        cfg = NarxConfig(exog_lags=1, auto_lags=1, mode=BlackBox())
        model = fit_narx(seq, cfg, SquaredExponential(1.0, 1.0), noise_var=0.0)
        traj = simulate_free_run(model, np.zeros((10, 1)), y_init=[0.0])
        np.testing.assert_allclose(traj, 0.0, atol=1e-12)

    def test_free_run_feeds_back_the_posterior_mean(self):
        seq = _morison_sequence(seed=4)
        cfg = NarxConfig(exog_lags=2, auto_lags=2, mode=InputAugmentation(MORISON))
        model = fit_narx(seq, cfg, SquaredExponential(1.5, 1.5), noise_var=1e-4)
        u = seq.u[:25]
        traj = simulate_free_run(model, u, y_init=seq.y[:2])
        history = list(seq.y[:2])
        for t in range(2, 25):
            row = np.concatenate([u[t - 2 : t + 1][::-1].ravel(), history[::-1][:2],
                                  morison_force(MORISON, u[t, :1], u[t, 1:])])
            history.append(gp.predict(model.gp, row[None]).mean[0])
        np.testing.assert_array_equal(traj, history[2:])

    def test_free_run_matches_osa_on_noise_free_linear_system(self):
        seq = _ar1_sequence(n=40)
        cfg = NarxConfig(exog_lags=0, auto_lags=1, mode=BlackBox())
        model = fit_narx(seq, cfg, SquaredExponential(5.0, 4.0), noise_var=1e-8)
        osa_mean, _ = predict_osa(model, seq)
        traj = simulate_free_run(model, np.zeros((21, 0)), y_init=[seq.y[0]])
        np.testing.assert_allclose(traj[:20], osa_mean[:20], atol=1e-2)

    def test_trajectory_length(self):
        seq = _morison_sequence(n=50)
        cfg = NarxConfig(exog_lags=3, auto_lags=2)
        model = fit_narx(seq, cfg, SquaredExponential(1.0, 1.0), noise_var=1e-4)
        traj = simulate_free_run(model, seq.u, y_init=seq.y[1:3])
        assert traj.shape[0] == len(seq) - cfg.exog_lags

    def test_seed_length_mismatch(self):
        seq = _morison_sequence(n=50)
        cfg = NarxConfig(exog_lags=1, auto_lags=3)
        model = fit_narx(seq, cfg, SquaredExponential(1.0, 1.0), noise_var=1e-4)
        with pytest.raises(ValueError):
            simulate_free_run(model, seq.u, y_init=[0.0, 0.0])


class TestCoverage:
    def test_subset_gives_full_coverage(self):
        rng = np.random.default_rng(0)
        train = Dataset(rng.uniform(-1, 1, (50, 2)), np.zeros(50))
        test = Dataset(0.5 * train.inputs[:20], np.zeros(20))
        assert coverage_metric(train, test) == 100.0

    def test_disjoint_gives_zero(self):
        train = Dataset(np.random.default_rng(1).uniform(0, 1, (30, 3)), np.zeros(30))
        test = Dataset(np.full((5, 3), 2.0), np.zeros(5))
        assert coverage_metric(train, test) == 0.0

    def test_hand_count(self):
        train = Dataset(np.array([[0.0], [1.0]]), np.zeros(2))
        test = Dataset(np.array([[0.5], [1.5], [-0.5], [0.2]]), np.zeros(4))
        assert coverage_metric(train, test) == 50.0

    def test_empty_raises(self):
        train = Dataset(np.zeros((1, 1)), np.zeros(1))
        with pytest.raises(ValueError):
            coverage_metric(train, Dataset(np.zeros((0, 1)), np.zeros(0)))


class TestConfigValidation:
    def test_bad_lags(self):
        with pytest.raises(ValueError):
            NarxConfig(exog_lags=-1, auto_lags=1)
        with pytest.raises(ValueError):
            NarxConfig(exog_lags=0, auto_lags=0)

    def test_first_index(self):
        assert NarxConfig(exog_lags=4, auto_lags=2).first_index == 4
