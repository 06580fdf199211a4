"""Physics-derived priors: oscillator covariance and wave loading.

The covariance of a single-degree-of-freedom (SDOF) linear oscillator under
Gaussian white-noise forcing has a closed form, which makes an expressive
kernel for responses dominated by one vibration mode.  Morison's equation
(drag + inertia wave loading) serves as a prior mean for loads monitoring.
The 1-D kernel spectral density is here too; each kernel family owns its
d-dimensional density.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from .kernels import Kernel, companion
from .means import MeanFunction


@dataclass(frozen=True)
class SdofKernelParams:
    """Parameters of the white-noise-driven SDOF oscillator covariance.

    Mass is fixed at 1: the covariance only ever contains sigma2 / m^2, so
    mass and forcing magnitude are not jointly identifiable and sigma2
    absorbs the mass.  Requires an underdamped oscillator (0 < zeta < 1) so
    the damped natural frequency is real.
    """

    zeta: float
    omega_n: float
    sigma2: float

    def __post_init__(self):
        if not (0.0 < self.zeta < 1.0):
            raise ValueError(f"damping ratio must lie in (0, 1), got {self.zeta!r}")
        if not (np.isfinite(self.omega_n) and self.omega_n > 0.0):
            raise ValueError(f"natural frequency must be positive, got {self.omega_n!r}")
        if not (np.isfinite(self.sigma2) and self.sigma2 > 0.0):
            raise ValueError(f"forcing magnitude sigma2 must be positive, got {self.sigma2!r}")

    @property
    def omega_d(self) -> float:
        """Damped natural frequency."""
        return self.omega_n * np.sqrt(1.0 - self.zeta**2)


def sdof_kernel_eval(params: SdofKernelParams, tau) -> float | np.ndarray:
    """Autocovariance of the SDOF response at time lag ``tau`` (seconds).

    k(tau) = sigma2/(4 zeta w_n^3) exp(-zeta w_n |tau|)
             (cos(w_d tau) + (zeta w_n / w_d) sin(w_d |tau|))

    Even in tau; k(0) = sigma2 / (4 zeta w_n^3).
    """
    tau = np.asarray(tau, dtype=float)
    value = np.abs(np.atleast_1d(tau))
    _sdof_into(params, value)
    return value.reshape(tau.shape) if tau.ndim else float(value[0])


def _sdof_into(params: SdofKernelParams, lag: np.ndarray) -> None:
    """Overwrite the lags |tau| in ``lag`` with k(tau); the cosine of w_d |tau|
    has the bits of cos(w_d tau) because cosine is even."""
    zwn = params.zeta * params.omega_n
    wd = params.omega_d
    scale = params.sigma2 / (4.0 * zwn * params.omega_n**2)
    wave = lag * wd
    sine = np.sin(wave)
    sine *= zwn / wd
    np.cos(wave, out=wave)
    wave += sine
    lag *= -zwn
    np.exp(lag, out=lag)
    lag *= scale
    lag *= wave


@dataclass(frozen=True)
class SdofKernel(Kernel, family="sdof"):
    """Oscillator-response covariance as a 1-D (time-input) GP kernel."""

    params: SdofKernelParams
    keys = ("zeta", "omega_n", "sigma2")

    def values(self):
        return [getattr(self.params, k) for k in self.keys]

    @classmethod
    def from_vector(cls, v):
        return cls(SdofKernelParams(*v))

    @staticmethod
    def default_bounds(X, y_var, ard, dt):
        # natural frequency up to the sampling Nyquist
        if dt is None:
            dt = float(np.median(np.diff(np.sort(X[:, 0])))) if X.shape[0] > 1 else 1.0
        if dt == 0.0:
            raise ValueError("the sample interval of the time input is 0, so the SDOF kernel "
                             "has no Nyquist frequency to bound omega_n by")
        return {
            "zeta": (1e-3, 0.5),
            "omega_n": (0.1, np.pi / dt),
            "sigma2": (1e-8 * y_var, 1e4 * y_var),
        }

    def check_input_dim(self, d: int) -> None:
        if d != 1:
            raise ValueError(f"SDOF kernel is defined on 1-D time inputs, got dimension {d}")

    def sqdist_map(self, S):
        # sqrt(fl(tau * tau)) == |tau| exactly unless the square underflows,
        # and lags that small give k(0)'s bits either way
        np.sqrt(S, out=S)
        _sdof_into(self.params, S)

    def state_space(self):
        # the oscillator itself: x'' + 2 zeta w_n x' + w_n^2 x = w, with Var(w) = sigma2
        p = self.params
        zwn, s2 = p.zeta * p.omega_n, p.sigma2
        Pinf = np.diag([s2 / (4.0 * zwn * p.omega_n**2), s2 / (4.0 * zwn)])
        return companion([[p.omega_n**2]], [[2.0 * zwn]]), np.array([[0.0], [1.0]]), s2, Pinf


@dataclass(frozen=True)
class MorisonParams:
    """Drag and inertia coefficients of the simplified Morison equation."""

    drag: float
    inertia: float

    def __post_init__(self):
        if not (np.isfinite(self.drag) and np.isfinite(self.inertia)):
            raise ValueError("Morison coefficients must be finite")


def morison_force(params: MorisonParams, velocity, acceleration):
    """Wave force C_d U|U| + C_m dU/dt; odd in U, linear in dU/dt."""
    U = np.asarray(velocity, dtype=float)
    Ud = np.asarray(acceleration, dtype=float)
    out = params.drag * U * np.abs(U) + params.inertia * Ud
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class MorisonMean(MeanFunction, form="morison"):
    """Morison force as a prior mean over regressors whose first two columns
    are the current wave velocity and acceleration."""

    params: MorisonParams
    keys = ("drag", "inertia")

    def values(self):
        return astuple(self.params)

    @classmethod
    def from_values(cls, drag, inertia):
        return cls(MorisonParams(drag, inertia))

    def __call__(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] < 2:
            raise ValueError("Morison mean needs velocity and acceleration columns")
        return morison_force(self.params, X[:, 0], X[:, 1])


def spectral_density(spec: Kernel, omega) -> float | np.ndarray:
    """Spectral density S(omega) of a stationary 1-D kernel: the d = 1 case of
    :meth:`Kernel.spectral_density`.

    Normalisation follows k(tau) = (1/2pi) int S(w) exp(i w tau) dw, so the
    density integrates to 2 pi k(0).  Kernels without one (such as the SDOF
    kernel) raise ValueError.
    """
    w = np.asarray(omega, dtype=float)
    out = spec.spectral_density(np.reshape(w**2, (-1, 1))).reshape(w.shape)
    return out if out.ndim else float(out)
