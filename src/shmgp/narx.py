"""Dynamic GP regression in NARX form.

A NARX regressor maps lagged exogenous inputs u_t ... u_{t-l_u} and lagged
outputs y_{t-1} ... y_{t-l_y} to y_t.  A grey-box mode (:class:`NarxMode`)
sets how physics enters: not at all (black box), as the prior mean
(residual mean) or as an extra regressor (input augmentation).

``predict_osa`` uses measured output lags (one step ahead);
``simulate_free_run`` feeds posterior means back in place of measurements.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from . import gp
from .gp import Dataset, TrainedGp
from .kernels import Kernel
from .means import MeanFunction, ZeroMean
from .physics import MorisonMean, MorisonParams, morison_force
from .registry import Registered


class NarxMode(Registered):
    """How physics enters the model: a subclass declared with ``name="..."``
    owns its JSON form, its prior mean, the regressor columns it appends
    after the lags and the exogenous channels it needs."""

    tag = "name"

    @property
    def mean(self) -> MeanFunction:
        return ZeroMean()

    def check_channels(self, c: int) -> None:
        """Raise if the mode cannot work with c exogenous channels."""

    def extra_columns(self, u: np.ndarray) -> np.ndarray:
        """Appended columns for the rows whose current exogenous values are ``u`` (n, c)."""
        return np.empty((u.shape[0], 0))


@dataclass(frozen=True)
class BlackBox(NarxMode, name="blackbox"):
    """GP on the lag vector alone."""


@dataclass(frozen=True)
class _MorisonMode(NarxMode):
    morison: MorisonParams
    keys = MorisonMean.keys

    def check_channels(self, c):
        if c != 2:
            raise ValueError("Morison modes need exactly two exogenous channels "
                             f"(velocity, acceleration), got {c}")

    def values(self):
        return astuple(self.morison)

    @classmethod
    def from_values(cls, drag, inertia):
        return cls(MorisonParams(drag, inertia))


class ResidualMean(_MorisonMode, name="residual_morison"):
    """Morison's equation as prior mean; the GP models the residual."""

    @property
    def mean(self):
        return MorisonMean(self.morison)


class InputAugmentation(_MorisonMode, name="augmented_morison"):
    """Morison output appended as an extra regressor."""

    def extra_columns(self, u):
        return morison_force(self.morison, u[:, 0], u[:, 1])[:, None]


@dataclass(frozen=True)
class NarxConfig:
    """Lag structure and grey-box mode.

    The current input u_t is always part of the regressor, so the exogenous
    block spans l_u + 1 samples.  Morison modes require the exogenous
    channels to be (velocity, acceleration) in that order.
    """

    exog_lags: int = 4
    auto_lags: int = 4
    mode: NarxMode = BlackBox()

    def __post_init__(self):
        if not (isinstance(self.exog_lags, int) and isinstance(self.auto_lags, int)):
            raise ValueError(f"lag counts must be integers, got {self.exog_lags!r} "
                             f"and {self.auto_lags!r}")
        if self.exog_lags < 0:
            raise ValueError("exogenous lag count must be >= 0")
        if self.auto_lags < 1:
            raise ValueError("autoregressive lag count must be >= 1")

    @property
    def first_index(self) -> int:
        return max(self.exog_lags, self.auto_lags)


@dataclass(frozen=True)
class SequenceData:
    """Uniformly sampled series: exogenous channels u (T, c), target y (T,)."""

    u: np.ndarray
    y: np.ndarray
    dt: float

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        if u.ndim == 1:
            u = u.reshape(-1, 1)
        y = np.asarray(self.y, dtype=float).reshape(-1)
        if u.shape[0] != y.shape[0]:
            raise ValueError(f"series lengths differ: u has {u.shape[0]}, y has {y.shape[0]}")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(y))):
            raise ValueError("sequence contains non-finite entries")
        if not (self.dt > 0.0 and np.isfinite(self.dt)):
            raise ValueError(f"sample interval must be positive, got {self.dt!r}")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return self.y.shape[0]


def build_lag_matrix(seq: SequenceData, cfg: NarxConfig) -> tuple[np.ndarray, np.ndarray]:
    """Regressor matrix and targets from a sequence.

    Row for time t is [u_t, ..., u_{t-l_u}, y_{t-1}, ..., y_{t-l_y}] with
    each u_s contributing all channels, plus the Morison output column in
    input-augmentation mode; the target is y_t.  Rows run from
    max(l_u, l_y) to T-1, so n = T - max(l_u, l_y).
    """
    T = len(seq)
    p = cfg.first_index
    if T <= p:
        raise ValueError(f"series of length {T} too short for lags ({cfg.exog_lags}, {cfg.auto_lags})")
    cfg.mode.check_channels(seq.u.shape[1])

    t = np.arange(p, T)
    blocks = [seq.u[t - lag] for lag in range(cfg.exog_lags + 1)]
    blocks += [seq.y[t - lag, None] for lag in range(1, cfg.auto_lags + 1)]
    blocks.append(cfg.mode.extra_columns(seq.u[t]))
    X = np.hstack(blocks)
    return X, seq.y[t].copy()


@dataclass(frozen=True)
class NarxModel:
    """Fitted NARX regression: a trained GP over lag vectors plus its config."""

    gp: TrainedGp
    config: NarxConfig
    n_channels: int


def training_data(seq: SequenceData, cfg: NarxConfig) -> tuple[Dataset, MeanFunction]:
    """What a NARX GP is fitted to: the lag regressors with their targets, and
    the mode's prior mean.

    Residual-mean mode binds Morison's equation as the prior mean over the
    current (velocity, acceleration) columns, which is identical to fitting
    a zero-mean GP to the Morison-subtracted targets.
    """
    X, targets = build_lag_matrix(seq, cfg)
    return Dataset(X, targets), cfg.mode.mean


def fit_narx(
    seq: SequenceData, cfg: NarxConfig, kernel: Kernel, noise_var: float = 0.0
) -> NarxModel:
    """Fit the GP with fixed hyperparameters to :func:`training_data`."""
    data, mean = training_data(seq, cfg)
    model = gp.fit_exact(data, kernel, mean=mean, noise_var=noise_var)
    return NarxModel(gp=model, config=cfg, n_channels=seq.u.shape[1])


def predict_osa(model: NarxModel, seq: SequenceData) -> tuple[np.ndarray, np.ndarray]:
    """One-step-ahead posterior mean and variance using measured lags.

    Predictions cover t = max(l_u, l_y) ... T-1; exactly the GP posterior
    over the rows of :func:`build_lag_matrix`.
    """
    X, _ = build_lag_matrix(seq, model.config)
    if X.shape[1] != model.gp.X.shape[1]:
        raise ValueError(
            f"sequence yields regressor dimension {X.shape[1]}, model trained with {model.gp.X.shape[1]}"
        )
    pred = gp.predict(model.gp, X)
    return pred.mean, pred.var


def simulate_free_run(model: NarxModel, u: np.ndarray, y_init) -> np.ndarray:
    """Mean-feedback simulation over an exogenous record.

    ``y_init`` seeds the l_y output lags (chronological order, most recent
    last).  Posterior means are fed back as future output lags; no
    uncertainty is propagated.  Returns the predicted mean trajectory for
    t = l_u ... len(u)-1, i.e. len(u) - l_u values.
    """
    cfg = model.config
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        u = u.reshape(-1, 1)
    if u.shape[1] != model.n_channels:
        raise ValueError(f"expected {model.n_channels} exogenous channels, got {u.shape[1]}")
    y_init = np.asarray(y_init, dtype=float).reshape(-1)
    if y_init.shape[0] != cfg.auto_lags:
        raise ValueError(f"seed must supply {cfg.auto_lags} values, got {y_init.shape[0]}")
    T = u.shape[0]
    if T <= cfg.exog_lags:
        raise ValueError("exogenous record shorter than the exogenous lag window")

    history = list(y_init)  # history[-1] is y_{t-1}
    out = np.empty(T - cfg.exog_lags)
    for i, t in enumerate(range(cfg.exog_lags, T)):
        exog = u[t - cfg.exog_lags : t + 1][::-1].ravel()  # u_t first, then lags
        lags = history[-cfg.auto_lags :][::-1]  # y_{t-1} first
        row = np.concatenate([exog, lags, cfg.mode.extra_columns(u[t : t + 1])[0]])
        out[i] = gp.predict(model.gp, row.reshape(1, -1), mean_only=True).mean[0]
        history.append(out[i])
    return out


def coverage_metric(train: Dataset, test: Dataset) -> float:
    """Percentage of test rows inside the training per-dimension bounding box.

    A test point counts as covered when every coordinate lies within the
    [min, max] of the corresponding training coordinate.
    """
    if len(train) == 0 or len(test) == 0:
        raise ValueError("coverage requires non-empty train and test sets")
    if train.inputs.shape[1] != test.inputs.shape[1]:
        raise ValueError("train and test input dimensions differ")
    lo = train.inputs.min(axis=0)
    hi = train.inputs.max(axis=0)
    inside = np.all((test.inputs >= lo) & (test.inputs <= hi), axis=1)
    return 100.0 * float(np.mean(inside))
