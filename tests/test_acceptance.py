"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
execute.  Every tolerance and runtime budget is pinned here; nothing is
deferred to later calibration.
"""

import time
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import multivariate_normal

from shmgp import gp
from shmgp.experiments import run_experiment
from shmgp.generators import generate_wave_loading
from shmgp.gp import Dataset
from shmgp.kernels import Matern12, Matern32, SquaredExponential, build_gram
from shmgp.means import ZeroMean
from shmgp.metrics import nmse
from shmgp.narx import (
    BlackBox,
    NarxConfig,
    NarxModel,
    ResidualMean,
    SequenceData,
    build_lag_matrix,
    simulate_free_run,
)
from shmgp.physics import (
    SdofKernel,
    sdof_kernel_eval,
    spectral_density,
)
from shmgp.pso import PsoConfig, pso_minimize
from shmgp.reduced_rank import DomainSpec, approx_gram, eigenpairs, fit_reduced, predict_reduced
from shmgp.statespace import discretize, kernel_to_ss, smooth
from shmgp.tuning import tune_exact_gp

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {name} ({detail})")
    assert ok, f"{name}: {detail}"


def _random_gp_problem(rng, n_max=30):
    n = int(rng.integers(5, n_max + 1))
    d = int(rng.integers(1, 3))
    X = rng.uniform(-2.0, 2.0, size=(n, d))
    kernel = SquaredExponential(
        signal_scale=float(rng.uniform(0.5, 2.0)),
        lengthscales=rng.uniform(0.4, 1.5, size=d),
    )
    noise = float(rng.uniform(0.01, 0.3))
    y = rng.standard_normal(n)
    return Dataset(X, y), kernel, noise


def test_acceptance_oracle_equivalence():
    # exact predict vs direct conditioning of the joint Gaussian, 20 problems
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(20):
        data, kernel, noise = _random_gp_problem(rng)
        model = gp.fit_exact(data, kernel, noise_var=noise)
        m = int(rng.integers(2, 8))
        Xs = rng.uniform(-2.0, 2.0, size=(m, data.inputs.shape[1]))

        Kxx = build_gram(kernel, data.inputs) + (noise + model.jitter) * np.eye(len(data))
        Kxs = build_gram(kernel, data.inputs, Xs)
        Kss = build_gram(kernel, Xs)
        mean_oracle = Kxs.T @ np.linalg.solve(Kxx, data.outputs)
        cov_oracle = Kss - Kxs.T @ np.linalg.solve(Kxx, Kxs)

        pred = gp.predict(model, Xs, full_cov=True)
        scale_m = np.abs(mean_oracle).max() + 1e-12
        scale_c = np.abs(cov_oracle).max() + 1e-12
        worst = max(worst, np.abs(pred.mean - mean_oracle).max() / scale_m)
        worst = max(worst, np.abs(pred.cov - cov_oracle).max() / scale_c)
    elapsed = time.perf_counter() - start
    _report(
        "oracle equivalence (predict vs joint conditioning)",
        worst <= 1e-8 and elapsed < 1.0,
        f"max rel err {worst:.2e}, {elapsed:.2f}s",
    )


def test_acceptance_likelihood_identity():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(20):
        data, kernel, noise = _random_gp_problem(rng)
        model = gp.fit_exact(data, kernel, noise_var=noise)
        K = build_gram(kernel, data.inputs) + (noise + model.jitter) * np.eye(len(data))
        oracle = multivariate_normal.logpdf(data.outputs, mean=np.zeros(len(data)), cov=K)
        worst = max(worst, abs(model.lml - oracle) / abs(oracle))
    _report(
        "likelihood identity (lml vs multivariate-normal density)",
        worst <= 1e-8,
        f"max rel err {worst:.2e}",
    )


@pytest.mark.parametrize("nu,kernel_cls", [(0.5, Matern12), (1.5, Matern32),
                                           pytest.param(None, SdofKernel, id="sdof")])
def test_acceptance_batch_state_space_duality(nu, kernel_cls):
    start = time.perf_counter()
    rng = np.random.default_rng(33)
    n, dt, noise = 200, 0.1, 0.1
    sigma, ell = 1.3, 0.7
    t = np.arange(n) * dt
    if nu is None:
        spec = SdofKernel(zeta=0.1, omega_n=3.0, sigma2=1.0)
    else:
        spec = kernel_cls(signal_scale=sigma, lengthscale=ell)
    K = build_gram(spec, t.reshape(-1, 1))
    y = np.linalg.cholesky(K + 1e-10 * np.eye(n)) @ rng.standard_normal(n)
    y += np.sqrt(noise) * rng.standard_normal(n)

    batch = gp.fit_exact(Dataset(t.reshape(-1, 1), y), spec, noise_var=noise)
    batch_mean = gp.predict(batch, t.reshape(-1, 1)).mean

    model = discretize(kernel_to_ss(spec).with_noise([[noise]]), dt)
    result = smooth(model, y.reshape(-1, 1))

    mean_err = np.abs(result.smoothed_means[:, 0] - batch_mean).max() / np.abs(batch_mean).max()
    ll_err = abs(result.log_likelihood - batch.lml) / abs(batch.lml)
    elapsed = time.perf_counter() - start
    _report(
        f"batch/state-space duality ({'SDOF' if nu is None else f'Matern nu={nu}'})",
        mean_err <= 1e-6 and ll_err <= 1e-6 and elapsed < 2.0,
        f"mean rel err {mean_err:.2e}, loglik rel err {ll_err:.2e}, {elapsed:.2f}s",
    )


def test_acceptance_sdof_kernel_advantage(tmp_path):
    start = time.perf_counter()
    sdof = run_experiment(CONFIGS / "sdof_kernel_gp.json", output_dir=tmp_path / "sdof")
    se = run_experiment(CONFIGS / "sdof_se_gp.json", output_dir=tmp_path / "se")
    elapsed = time.perf_counter() - start
    ok = sdof.nmse_percent < 15.0 and sdof.nmse_percent < 0.5 * se.nmse_percent
    _report(
        "oscillator-kernel advantage over squared exponential",
        ok and elapsed < 30.0,
        f"sdof nMSE {sdof.nmse_percent:.2f}, se nMSE {se.nmse_percent:.2f}, {elapsed:.1f}s",
    )


def test_acceptance_physics_mean_extrapolation(tmp_path):
    start = time.perf_counter()
    linear = run_experiment(CONFIGS / "trend_linear_mean.json", output_dir=tmp_path / "lin")
    zero = run_experiment(CONFIGS / "trend_zero_mean.json", output_dir=tmp_path / "zero")
    elapsed = time.perf_counter() - start
    ok = linear.nmse_percent <= 0.5 * zero.nmse_percent
    _report(
        "physics-mean extrapolation advantage",
        ok and elapsed < 10.0,
        f"linear-mean nMSE {linear.nmse_percent:.2f}, zero-mean nMSE {zero.nmse_percent:.2f}, "
        f"{elapsed:.1f}s",
    )


def test_acceptance_narx_coverage_trend():
    start = time.perf_counter()
    rec = generate_wave_loading(seed=0)
    seq = rec.seq
    test_seq = SequenceData(u=seq.u[rec.test_window], y=seq.y[rec.test_window], dt=seq.dt)
    scores = {}
    for level in (100, 75, 50, 25):
        w = rec.train_windows[level]
        train_seq = SequenceData(u=seq.u[w], y=seq.y[w], dt=seq.dt)
        for name, mode in (("blackbox", BlackBox()), ("residual", ResidualMean(rec.morison))):
            cfg = NarxConfig(exog_lags=4, auto_lags=4, mode=mode)
            X, targets = build_lag_matrix(train_seq, cfg)
            mean = rec.morison if name == "residual" else ZeroMean()
            tuned = tune_exact_gp(Dataset(X, targets), "squared_exponential", mean=mean,
                                  ard=True, noise_var=None,
                                  particles=12, iterations=30, seed=3)
            model = NarxModel(gp=tuned.model, config=cfg, n_channels=2)
            p = cfg.first_index
            traj = simulate_free_run(
                model, test_seq.u[p - cfg.exog_lags :], y_init=test_seq.y[p - cfg.auto_lags : p]
            )
            _, test_targets = build_lag_matrix(test_seq, cfg)
            scores[(level, name)] = nmse(test_targets, traj)
    elapsed = time.perf_counter() - start
    ok = all(scores[(lv, "residual")] <= scores[(lv, "blackbox")] for lv in (75, 50, 25))
    detail = "; ".join(
        f"{lv}%: rm {scores[(lv, 'residual')]:.1f} vs bb {scores[(lv, 'blackbox')]:.1f}"
        for lv in (100, 75, 50, 25)
    )
    _report("GP-NARX coverage trend (residual-mean vs black-box free run)",
            ok and elapsed < 60.0, f"{detail}; {elapsed:.1f}s")


def test_acceptance_reduced_rank_convergence():
    start = time.perf_counter()
    spec = SquaredExponential(signal_scale=1.0, lengthscales=0.1)
    grid = np.linspace(-1.5, 1.5, 50).reshape(-1, 1)
    exact = build_gram(spec, grid)
    errs = []
    for m in (16, 32, 64, 128):
        basis = eigenpairs(DomainSpec(half_widths=[3.0], basis_counts=m))
        errs.append(np.abs(approx_gram(basis, spec, grid) - exact).max())
    monotone = all(errs[i + 1] < errs[i] for i in range(3))

    rng = np.random.default_rng(7)
    X = np.sort(rng.uniform(-1.0, 1.0, 30)).reshape(-1, 1)
    y = np.sin(4.0 * X[:, 0]) + 0.01 * rng.standard_normal(30)
    noise = 1e-4
    reduced = fit_reduced(Dataset(X, y), DomainSpec([3.0], basis_counts=128), spec, noise)
    full = gp.fit_exact(Dataset(X, y), spec, noise_var=noise)
    Xs = np.linspace(-0.9, 0.9, 60).reshape(-1, 1)
    truth = np.sin(4.0 * Xs[:, 0])
    nmse_diff = abs(
        nmse(truth, predict_reduced(reduced, Xs)[0]) - nmse(truth, gp.predict(full, Xs).mean)
    )
    elapsed = time.perf_counter() - start
    _report(
        "reduced-rank convergence and full-GP agreement",
        monotone and nmse_diff <= 1e-3 and elapsed < 5.0,
        f"errors {['%.1e' % e for e in errs]}, nMSE diff {nmse_diff:.1e}, {elapsed:.1f}s",
    )


def test_acceptance_force_recovery(tmp_path):
    start = time.perf_counter()
    report = run_experiment(CONFIGS / "latent_force_3dof.json", output_dir=tmp_path / "lf")
    elapsed = time.perf_counter() - start
    _report(
        "latent force recovery on 3-dof chain",
        report.nmse_percent < 5.0 and elapsed < 60.0,
        f"force nMSE {report.nmse_percent:.3f}, {elapsed:.1f}s",
    )


def test_acceptance_pso():
    cfg = PsoConfig(bounds=[(-5, 5)] * 3, particles=30, iterations=200, seed=0)
    sphere = lambda x: float(np.sum(x**2))
    result = pso_minimize(sphere, cfg)
    again = pso_minimize(sphere, cfg)
    deterministic = np.array_equal(result.trace, again.trace)

    rng = np.random.default_rng(0)
    n = 100
    X = rng.uniform(-3, 3, n).reshape(-1, 1)
    true = SquaredExponential(signal_scale=2.0, lengthscales=0.5)
    K = build_gram(true, X) + 1e-10 * np.eye(n)
    y = np.linalg.cholesky(K) @ rng.standard_normal(n) + 0.1 * rng.standard_normal(n)
    tuned = tune_exact_gp(
        Dataset(X, y), "squared_exponential", noise_var=None,
        bounds={"signal_scale": (0.2, 20.0), "lengthscale": (0.05, 5.0),
                "noise_var": (1e-4, 1.0)},
        particles=24, iterations=60, seed=10,
    )
    sf_err = abs(tuned.params["signal_scale"] - 2.0) / 2.0
    ell_err = abs(tuned.params["lengthscale"] - 0.5) / 0.5
    ok = result.best_value <= 1e-4 and deterministic and sf_err <= 0.2 and ell_err <= 0.2
    _report(
        "particle swarm: sphere, determinism, hyperparameter recovery",
        ok,
        f"sphere {result.best_value:.1e}, sf err {sf_err:.1%}, ell err {ell_err:.1%}",
    )


def test_acceptance_sdof_kernel_positive_semidefinite():
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(100):
        params = SdofKernel(
            zeta=float(rng.uniform(0.01, 0.95)),
            omega_n=float(rng.uniform(0.5, 30.0)),
            sigma2=float(10.0 ** rng.uniform(-2, 2)),
        )
        t = np.sort(rng.uniform(0.0, 20.0, 50)).reshape(-1, 1)
        K = build_gram(params, t)
        ratio = np.linalg.eigvalsh(K).min() / sdof_kernel_eval(params, 0.0)
        worst = min(worst, ratio)
    _report(
        "oscillator covariance positive semi-definiteness",
        worst >= -1e-8,
        f"min eigenvalue ratio {worst:.2e} over 100 draws",
    )


def test_acceptance_wiener_khinchin():
    # Matern-1/2 has an omega^-2 tail, so its lengthscale is large enough
    # that the spectral mass outside the +-200 window stays below tolerance
    specs = [
        SquaredExponential(signal_scale=1.5, lengthscales=0.5),
        Matern12(signal_scale=1.1, lengthscale=10.0),
        Matern32(signal_scale=0.9, lengthscale=2.0),
    ]
    worst = 0.0
    for spec in specs:
        ell = spec.lengthscales[0] if hasattr(spec, "lengthscales") else spec.lengthscale
        for lag_factor in (0.0, 0.1, 1.0, 3.0):
            tau = lag_factor * ell
            val, _ = integrate.quad(
                lambda w: spectral_density(spec, w), -200, 200,
                weight="cos", wvar=tau, limit=800,
            )
            val /= 2.0 * np.pi
            truth = build_gram(spec, [[0.0]], [[tau]])[0, 0]
            worst = max(worst, abs(val - truth) / abs(truth))
    _report(
        "spectral density reproduces kernels via quadrature",
        worst <= 1e-3,
        f"max rel err {worst:.2e}",
    )
