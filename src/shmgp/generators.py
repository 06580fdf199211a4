"""Seeded synthetic data generators.

Each generator stands in for a monitoring campaign whose real data cannot be
shipped: a white-noise-driven oscillator with a cubic spring, a chain of
masses under a band-limited force, a bridge-deck style trend series with a
declining temperature input, and a wave-loading record with amplitude
regimes of varying severity.

The oscillator and the chain integrate with fixed-step 4th-order
Runge-Kutta rather than exact discretisation, so their output does not
share error sources with the state-space estimators, and all generators are
bit-reproducible for a fixed (seed, parameters) pair.  With one degree of
freedom the RK4 state is a Python float rather than a length-1 array; every
operation, the cube included, rounds as numpy arrays do, so the records keep
the bits of stage-by-stage RK4 on arrays.  A chain applies the same RK4 as
its exact per-sample map, which agrees with stage-by-stage stepping to
rounding (about 1e-13 of each quantity's largest value).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .gp import Dataset
from .narx import SequenceData
from .physics import MorisonMean, morison_force
from .registry import Count, Floats, Positive, Positives, number, numbers, reads
from .statespace import StructuralModel


def _chain_matrix(values) -> np.ndarray:
    """Tridiagonal chain matrix: element i couples dof i to dof i-1 (ground for i=0)."""
    p = values.shape[0]
    A = np.zeros((p, p))
    for i in range(p):
        A[i, i] += values[i]
        if i + 1 < p:
            A[i, i] += values[i + 1]
            A[i, i + 1] = -values[i + 1]
            A[i + 1, i] = -values[i + 1]
    return A


def _rk4_sample(accel, y, v, f0, f1, h, substeps, zoh):
    """``y, v`` advanced over one sample by ``substeps`` RK4 steps of size h,
    the force held at ``f0`` (zoh) or linearly interpolated to ``f1``."""
    fa = fb = fc = f0
    df = f1 - f0
    for j in range(substeps):
        if not zoh:
            fa = f0 + (j / substeps) * df
            fb = f0 + ((j + 0.5) / substeps) * df
            fc = f0 + ((j + 1.0) / substeps) * df
        k1v = accel(y, v, fa)
        k1y = v
        k2y = v + 0.5 * h * k1v
        k2v = accel(y + 0.5 * h * k1y, k2y, fb)
        k3y = v + 0.5 * h * k2v
        k3v = accel(y + 0.5 * h * k2y, k3y, fb)
        k4y = v + h * k3v
        k4v = accel(y + h * k3y, k4y, fc)
        y = y + (h / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        v = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return y, v


def _integrate(M, C, K, k3, force, dt, substeps, zoh, y0=None, v0=None):
    """Fixed-step RK4 for M y'' + C y' + K y + k3 y^3 = F(t).

    ``force`` is a (T, p) series at the sample times; within a sample step
    it is either held (zoh) or linearly interpolated.  Returns displacement,
    velocity and acceleration arrays of shape (T, p).  With one degree of
    freedom the state is a Python float, which gives the bits of RK4 on
    1-element arrays without a numpy call per operation.  A chain (p > 1) is
    linear, so one sample of the same RK4 is an affine map
    x+ = Phi x + G0 f_i + G1 f_i+1 of the state x = [y; v]; one
    :func:`_rk4_sample` on identity columns gives Phi, G0 and G1.
    """
    T, p = force.shape
    Minv = np.linalg.inv(M)
    y = np.zeros(p) if y0 is None else np.array(y0, dtype=float)
    v = np.zeros(p) if v0 is None else np.array(v0, dtype=float)
    h = float(dt) / substeps  # a numpy dt would make every step's arithmetic numpy's
    diverged = "simulation diverged; the time step is too large for this system"
    if p > 1:
        if k3 != 0.0:
            raise ValueError(f"a chain of {p} masses takes k3 = 0, got {k3}")
        E = np.eye(4 * p)  # columns: y, v, f_i, f_i+1
        step = np.vstack(_rk4_sample(lambda yy, vv, ff: Minv @ (ff - C @ vv - K @ yy),
                                     E[:p], E[p:2 * p], E[2 * p:3 * p], E[3 * p:],
                                     h, substeps, zoh))
        Phi, G0, G1 = step[:, :2 * p], step[:, 2 * p:3 * p], step[:, 3 * p:]
        X = np.empty((T, 2 * p))
        X[0] = np.concatenate([y, v])
        X[1:] = force[:-1] @ G0.T + force[1:] @ G1.T  # the loop adds Phi x_i
        for i in range(T - 1):
            X[i + 1] += Phi @ X[i]
            if not np.abs(X[i + 1, :p]).max() <= 1e12:  # before an overflow; NaN fails too
                raise DataError(diverged)
        Y, V = X[:, :p], X[:, p:]
        return Y, V, (force - V @ C.T - Y @ K.T) @ Minv.T

    minv, c, k, k3 = Minv.item(), C.item(), K.item(), float(k3)
    y, v, rows = y.item(), v.item(), force[:, 0].tolist()
    cube, three = np.empty(1), np.array(3.0)

    def accel(yy, vv, ff):
        # numpy's cube of a one-element array: on some builds it is
        # neither libm's pow nor yy*yy*yy, and those change the records
        cube[0] = yy
        np.power(cube, three, out=cube)
        # + 0.0 turns -0.0 into 0.0, as the 1x1 matrix product does
        return minv * (ff - c * vv - k * yy - k3 * cube.item()) + 0.0

    Y, V, A = np.empty((3, T, 1))
    Y[0], V[0], A[0] = y, v, accel(y, v, rows[0])
    for i in range(T - 1):
        y, v = _rk4_sample(accel, y, v, rows[i], rows[i + 1], h, substeps, zoh)
        if not abs(y) <= 1e12:  # NaN fails too
            raise DataError(diverged)
        Y[i + 1], V[i + 1], A[i + 1] = y, v, accel(y, v, rows[i + 1])
    return Y, V, A


@reads
def simulate_sdof(
    m: Positive,
    c: float,
    k: float,
    k3: float = 0.0,
    forcing=1.0,
    dt: Positive = 0.01,
    n_samples: Count = 1000,
    seed: int = 0,
    substeps: Count = 1,
    y0: float = 0.0,
    v0: float = 0.0,
) -> SequenceData:
    """Single-mass oscillator m y'' + c y' + k y + k3 y^3 = F(t).

    ``forcing`` is either a scalar sigma, in which case F is white noise
    discretised as independent Gaussians of variance sigma^2/dt (held over
    each step, so the continuous spectral level sigma^2 is step-invariant),
    or a supplied force series of length n_samples (linearly interpolated
    inside steps).  Returns the force as the exogenous channel and the
    displacement as the target.
    """
    if np.ndim(forcing) == 0:
        rng = np.random.default_rng(seed)
        force = number("forcing", forcing) / np.sqrt(dt) * rng.standard_normal(n_samples)
        zoh = True
    else:
        force = numbers("forcing", forcing)
        if force.shape[0] != n_samples:
            raise ValueError("supplied forcing length must equal n_samples")
        zoh = False
    M = np.array([[m]])
    C = np.array([[c]])
    K = np.array([[k]])
    Y, _, _ = _integrate(M, C, K, k3, force[:, None], dt, substeps, zoh, y0=[y0], v0=[v0])
    return SequenceData(u=force[:, None], y=Y[:, 0], dt=dt)


@dataclass
class MdofSimulation:
    """Chain simulation output: noiseless states, noisy observations, true force, structure."""

    time: np.ndarray
    displacements: np.ndarray
    velocities: np.ndarray
    accelerations: np.ndarray
    observations: np.ndarray
    structure: StructuralModel
    force: np.ndarray
    dt: float


@reads
def simulate_mdof_chain(
    masses: Positives,
    dampings: Floats,
    stiffnesses: Positives,
    force: np.ndarray,
    dt: Positive,
    force_dof: int = 0,
    observed: tuple = StructuralModel.observed,
    noise_std: Floats = 0.0,
    seed: int = 0,
    substeps: Count = 1,
    y0: Floats | None = None,
    v0: Floats | None = None,
) -> MdofSimulation:
    """Chain of masses (tridiagonal stiffness/damping) driven at one dof.

    ``observed`` lists (kind, dof) pairs as in :class:`StructuralModel`, which
    checks them and the layout; Gaussian noise of standard deviation
    ``noise_std`` (scalar or one value per channel) corrupts those channels
    only.  The supplied force series is the ground truth returned for scoring.
    """
    for name, values in dict(dampings=dampings, stiffnesses=stiffnesses, y0=y0, v0=v0).items():
        if values is not None and len(values) != len(masses):
            raise ValueError(f"{name} takes one value per entry of masses, got {values.tolist()}")
    structure = StructuralModel(np.diag(masses), _chain_matrix(dampings),
                                _chain_matrix(stiffnesses), force_dof, observed)
    if np.size(noise_std) not in (1, len(structure.observed)):
        raise ValueError(f"noise_std takes one value or one per channel, got {noise_std.tolist()}")
    force = np.asarray(force, dtype=float).reshape(-1)
    F = np.zeros((force.shape[0], structure.ndof))
    F[:, force_dof] = force
    M, C, K = structure.mass, structure.damping, structure.stiffness
    Y, V, A = _integrate(M, C, K, 0.0, F, dt, substeps, zoh=False, y0=y0, v0=v0)

    channels = []
    for kind, dof in structure.observed:
        source = {"displacement": Y, "velocity": V, "acceleration": A}[kind]
        channels.append(source[:, dof])
    clean = np.column_stack(channels)
    rng = np.random.default_rng(seed)
    noise = np.broadcast_to(np.asarray(noise_std, dtype=float), (clean.shape[1],))
    obs = clean + rng.standard_normal(clean.shape) * noise

    return MdofSimulation(
        time=np.arange(force.shape[0]) * dt,
        displacements=Y,
        velocities=V,
        accelerations=A,
        observations=obs,
        structure=structure,
        force=force,
        dt=dt,
    )


@reads
def band_limited_force(
    n_samples: Count,
    dt: Positive,
    seed: int = 0,
    band: Positives = (0.5, 4.0),
    scale: float = 1.0,
    n_components: Count = 40,
) -> np.ndarray:
    """Smooth random series: superposition of cosines with random phases."""
    if len(band) != 2 or not band[0] < band[1]:
        raise ValueError(f"band takes a pair 0 < low < high, got {band.tolist()}")
    rng = np.random.default_rng(seed)
    omega = rng.uniform(band[0], band[1], n_components)
    phase = rng.uniform(0.0, 2.0 * np.pi, n_components)
    amp = rng.uniform(0.5, 1.0, n_components)
    t = np.arange(n_samples) * dt
    series = (amp[:, None] * np.cos(omega[:, None] * t[None, :] + phase[:, None])).sum(axis=0)
    return scale * series / np.std(series)


@reads
def generate_trend_series(
    seed: int = 0,
    n_samples: Count = 504,
    hours_per_sample: float = 2.0,
    noise_std: float = 0.15,
    temp_decline: float = 20.0,
    temp_daily_amp: float = 2.0,
    bend: float = 0.0,
) -> Dataset:
    """Deck-deflection style series: linear response to a declining temperature
    plus a daily periodic component.

    Inputs are [temperature, sin(daily), cos(daily)]; with ``bend`` = 0 the
    target is an exact affine function of those inputs plus observation
    noise.  ``bend`` adds a smooth temperature-local deviation from the
    linear expansion law (real responses are only approximately linear),
    which is what gives a data-driven model temperature-local structure to
    fit.  Temperature declines by ``temp_decline`` degrees across the
    record, so any head-of-series training window is an extrapolation setup
    by construction.
    """
    rng = np.random.default_rng(seed)
    hours = np.arange(n_samples) * hours_per_sample
    daily = 2.0 * np.pi * hours / 24.0
    temperature = (
        16.0
        - temp_decline * (np.arange(n_samples) / n_samples)
        + temp_daily_amp * np.sin(daily - 2.0)
        + 0.4 * rng.standard_normal(n_samples)
    )
    sin_d, cos_d = np.sin(daily), np.cos(daily)
    # daily deflection component in phase quadrature with the daily
    # temperature swing (traffic-like), so it does not alias into the
    # temperature slope
    y = (
        3.0
        - 0.85 * temperature
        + bend * np.sin(1.3 * temperature + 1.0)
        + 1.25 * np.cos(daily - 2.0)
        + noise_std * rng.standard_normal(n_samples)
    )
    X = np.column_stack([temperature, sin_d, cos_d])
    return Dataset(inputs=X, outputs=y, timestamps=hours * 3600.0)


@dataclass
class WaveRecord:
    """Wave-loading record with train windows of decreasing input coverage."""

    seq: SequenceData
    morison: MorisonMean
    train_windows: dict  # nominal coverage level (%) -> slice into seq
    test_window: slice


@reads
def generate_wave_loading(
    seed: int = 0,
    dt: Positive = 0.25,
    segment: Count = 340,
    drag: float = 1.0,
    inertia: float = 0.8,
    noise_std: float = 0.04,
) -> WaveRecord:
    """Morison-style loading with known drag/inertia physics plus behaviour
    the physics misses (an odd cubic term and a delayed drag memory term).

    The record is organised in amplitude regimes: four training segments of
    decreasing severity followed by a full-severity test segment, giving
    nominal input-space coverage levels of about 100/75/50/25 percent
    relative to the test window.
    """
    rng = np.random.default_rng(seed)
    scales = {100: 1.05, 75: 0.72, 50: 0.55, 25: 0.40}
    n_total = segment * (len(scales) + 1)
    t = np.arange(n_total) * dt

    n_comp = 30
    omega = rng.uniform(0.25, 1.3, n_comp)
    phase = rng.uniform(0.0, 2.0 * np.pi, n_comp)
    amp = rng.uniform(0.5, 1.0, n_comp)
    base = (amp[:, None] * np.cos(omega[:, None] * t[None, :] + phase[:, None])).sum(axis=0)
    base_dot = -(amp[:, None] * omega[:, None] * np.sin(omega[:, None] * t[None, :] + phase[:, None])).sum(axis=0)
    sd = np.std(base)
    base, base_dot = base / sd, base_dot / sd

    envelope = np.empty(n_total)
    for i, level in enumerate(scales):
        envelope[i * segment : (i + 1) * segment] = scales[level]
    envelope[len(scales) * segment :] = 1.0
    U = envelope * base
    Udot = envelope * base_dot

    morison = MorisonMean(drag=drag, inertia=inertia)
    white_box = morison_force(morison, U, Udot)
    memory = np.zeros(n_total)
    memory[3:] = U[:-3] * np.abs(U[:-3])
    residual = 0.12 * U**3 + 0.18 * memory
    y = white_box + residual + noise_std * rng.standard_normal(n_total)

    windows = {
        level: slice(i * segment, (i + 1) * segment) for i, level in enumerate(scales)
    }
    return WaveRecord(
        seq=SequenceData(u=np.column_stack([U, Udot]), y=y, dt=dt),
        morison=morison,
        train_windows=windows,
        test_window=slice(len(scales) * segment, n_total),
    )


@reads
def generate_bounded_field(
    seed: int = 0,
    half_widths: Positives = (1.0, 1.0),
    n_modes: Count = 4,
    lengthscale: Positive = 0.45,
    noise_std: float = 0.02,
    train_grid: Count = 5,
    train_extent: float = 0.5,
    test_grid: Count = 21,
) -> tuple[Dataset, Dataset]:
    """Smooth random field on a rectangle, pinned to zero on the boundary.

    The field is a sample from a boundary-respecting prior (low-order sine
    modes with spectral-decay weights).  Training points sit on a grid
    confined to the middle of the plate; the test grid spans the whole
    domain, so test accuracy depends on how a model extrapolates toward the
    boundary.  Returns (train, test) datasets.
    """
    from .kernels import SquaredExponential
    from .reduced_rank import DomainSpec, eigenpairs, spectral_weights

    rng = np.random.default_rng(seed)
    L = np.asarray(half_widths, dtype=float)
    if L.shape != (2,):
        raise ValueError(f"half_widths takes two numbers, one per side of the plate, "
                         f"got {L.tolist()}")
    domain = DomainSpec(half_widths=L, boundary="dirichlet", basis_counts=n_modes)
    basis = spectral_weights(
        eigenpairs(domain), SquaredExponential(signal_scale=1.0, lengthscales=lengthscale)
    )
    coeff = rng.standard_normal(basis.size) * np.sqrt(basis.weights)

    def field(X):
        return basis.evaluate(X) @ coeff

    g = np.linspace(-train_extent, train_extent, train_grid)
    Xtr = np.array([[a * L[0], b * L[1]] for a in g for b in g])
    ytr = field(Xtr) + noise_std * rng.standard_normal(Xtr.shape[0])

    h = np.linspace(-0.98, 0.98, test_grid)
    Xte = np.array([[a * L[0], b * L[1]] for a in h for b in h])
    yte = field(Xte)
    return Dataset(Xtr, ytr), Dataset(Xte, yte)
