"""Exact Gaussian-process regression with Cholesky factorisation.

Fitting conditions a GP prior (kernel + mean function) on training data.
Nonzero prior means are handled by regressing on the residuals y - m(X) and
adding m(X*) back at prediction time, which is algebraically identical to a
GP with that prior mean.  A fitted model holds only what prediction reads,
plus its lml; it is immutable and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import NumericalError
from .kernels import Kernel, SquaredDiffStack, build_gram, _as_matrix
from .means import MeanFunction, ZeroMean

# Escalating Cholesky stabilisation, relative to mean(diag K).
JITTER_START = 1e-10
JITTER_MAX = 1e-4
LOG_2PI = float(np.log(2.0 * np.pi))
# entries of one cross-Gram block of predict (2 MB): large enough that BLAS
# runs at full speed on it, small enough that memory does not grow with the
# number of test points
PREDICT_BLOCK_ENTRIES = 1 << 18


@dataclass(frozen=True)
class Dataset:
    """Training data: inputs (n, d), outputs (n,), optional timestamps (s)."""

    inputs: np.ndarray
    outputs: np.ndarray
    timestamps: np.ndarray | None = None

    def __post_init__(self):
        X = _as_matrix(self.inputs)
        y = np.asarray(self.outputs, dtype=float).reshape(-1)
        if X.shape[0] != y.shape[0]:
            raise ValueError(f"row counts differ: inputs {X.shape[0]}, outputs {y.shape[0]}")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise ValueError("dataset contains non-finite entries")
        object.__setattr__(self, "inputs", X)
        object.__setattr__(self, "outputs", y)
        if self.timestamps is not None:
            t = np.asarray(self.timestamps, dtype=float).reshape(-1)
            if t.shape[0] != y.shape[0]:
                raise ValueError("timestamps length does not match outputs")
            object.__setattr__(self, "timestamps", t)

    def __len__(self) -> int:
        return self.outputs.shape[0]


@dataclass(frozen=True)
class TrainedGp:
    """Fitted regression state.

    ``chol`` is the lower-triangular factor of K(X, X) + noise_var I +
    jitter I, ``alpha`` solves that matrix against the mean-subtracted
    outputs, and ``lml`` is the log marginal likelihood at the fitted
    hyperparameters.
    """

    kernel: Kernel
    mean: MeanFunction
    noise_var: float
    X: np.ndarray
    chol: np.ndarray
    alpha: np.ndarray
    jitter: float
    lml: float


class Prediction(NamedTuple):
    mean: np.ndarray
    var: np.ndarray
    cov: np.ndarray | None


def chol_with_jitter(A: np.ndarray, check_finite: bool = True) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of A with an escalating diagonal jitter.

    The jitter starts at 1e-10 mean(diag A) and grows tenfold up to 1e-4
    mean(diag A); failure beyond that signals ill-conditioned hyperparameters
    rather than roundoff.  Each rung copies A straight into one C-ordered
    buffer, adds the jitter and runs LAPACK's potrf in place on its
    transpose, which reads A's upper triangle: A must be exactly symmetric,
    as a :func:`build_gram` matrix plus a diagonal term or ``B.T @ B`` is.
    ``A`` is left unchanged; the factor is Fortran-ordered, zero above the
    diagonal.  A non-finite entry raises ``ValueError``; with
    ``check_finite=False`` only the diagonal is scanned, for a caller whose
    other entries are known finite.
    """
    diag = A.diagonal()
    if not np.isfinite(A if check_finite else diag).all():
        raise ValueError("array must not contain infs or NaNs")
    base = float(diag.sum() / len(diag))  # np.mean's sum and division
    if base <= 0.0 or not np.isfinite(base):
        base = 1.0
    jitter = JITTER_START * base
    work = np.empty(A.shape)
    while jitter <= JITTER_MAX * base * (1.0 + 1e-12):
        np.copyto(work, A)
        add_to_diag(work, jitter)
        L, info = dpotrf(work.T, lower=1, clean=1, overwrite_a=1)
        if info == 0:
            return L, jitter
        if info < 0:
            raise ValueError(f"LAPACK potrf: illegal value in argument {-info}")
        jitter *= 10.0  # a leading minor is not positive definite
    raise NumericalError(
        f"Cholesky factorisation failed with jitter up to {JITTER_MAX:g} * mean diagonal"
    )


def add_to_diag(A: np.ndarray, value: float) -> None:
    """A += value * I, in place, through a writable view of the diagonal."""
    diag = np.einsum("ii->i", A)
    diag += value


def fit_exact(
    data: Dataset,
    kernel: Kernel,
    mean: MeanFunction | None = None,
    noise_var: float = 0.0,
    stack: SquaredDiffStack | None = None,
) -> TrainedGp:
    """Condition a GP prior on the dataset.

    ``stack``, which must be built from ``data.inputs``, gives the Gram
    matrix through :func:`build_gram`'s stack path, within 1e-13 of the
    plain one; the caller owns that pairing, as a tune does.  Raises
    ``ValueError`` for an empty dataset or negative noise variance and
    ``NumericalError`` if factorisation fails after the jitter ladder.
    """
    if len(data) < 1:
        raise ValueError("cannot fit a GP to an empty dataset")
    if noise_var < 0.0 or not np.isfinite(noise_var):
        raise ValueError(f"noise variance must be finite and >= 0, got {noise_var!r}")
    mean = mean if mean is not None else ZeroMean()

    X = data.inputs
    residual = data.outputs - mean(X)
    if not np.all(np.isfinite(residual)):
        raise ValueError("prior mean is not finite at the training inputs")
    K = build_gram(kernel, X if stack is None else stack)
    add_to_diag(K, noise_var)
    L, jitter = chol_with_jitter(K, check_finite=False)  # build_gram scanned K
    alpha = dpotrs(L, residual, lower=1)[0]  # info flags only an illegal argument
    lml = float(-0.5 * residual @ alpha - np.log(L.diagonal()).sum() - 0.5 * len(data) * LOG_2PI)
    return TrainedGp(
        kernel=kernel,
        mean=mean,
        noise_var=float(noise_var),
        X=X,
        chol=L,
        alpha=alpha,
        jitter=jitter,
        lml=lml,
    )


def _predict_rows(n: int) -> int:
    """Test points per block of :func:`predict`: a multiple of 64 rows whose
    n-column cross-Gram block fits ``PREDICT_BLOCK_ENTRIES``, or fewer rows
    when n is too large for 64."""
    rows = max(1, PREDICT_BLOCK_ENTRIES // max(1, n))
    return rows - rows % 64 if rows >= 64 else rows


def predict(
    model: TrainedGp, X_star, full_cov: bool = False, mean_only: bool = False
) -> Prediction:
    """Posterior mean and variance (optionally full covariance) at X_star.

    The test points go through in blocks of rows, each with one cross-Gram
    block that the variance solve overwrites, so memory is a few blocks plus
    the O(m) outputs however many points there are; ``full_cov`` takes all
    points as one block.  Variances are clamped at zero: subtraction
    cancellation may leave values a hair below zero, which is roundoff rather
    than signal.  With ``mean_only`` the variance solve is skipped and
    ``var``/``cov`` are None; the mean is the same, bit for bit.
    """
    X_star = _as_matrix(X_star)
    if X_star.shape[1] != model.X.shape[1]:
        raise ValueError(
            f"prediction inputs have dimension {X_star.shape[1]}, trained on {model.X.shape[1]}"
        )
    m = X_star.shape[0]
    rows = max(1, m) if full_cov else _predict_rows(model.X.shape[0])
    mean = np.empty(m)
    var = None if mean_only else np.empty(m)
    cov = None
    # no test points still take one (empty) block, which gives empty outputs
    for start in range(0, max(m, 1), rows):
        Xb = X_star[start : start + rows]
        Ks = build_gram(model.kernel, Xb, model.X)
        mean[start : start + rows] = model.mean(Xb) + Ks @ model.alpha
        if mean_only:
            continue
        # Ks' is Fortran-ordered, so the solve writes V = L^-1 Ks' over Ks
        V = solve_triangular(model.chol, Ks.T, lower=True, overwrite_b=True,
                             check_finite=False)
        if full_cov:
            cov = build_gram(model.kernel, X_star) - V.T @ V
            cov = 0.5 * (cov + cov.T)
        np.square(V, out=V)
        var[start : start + rows] = model.kernel.diag(Xb) - V.sum(axis=0)
    if var is not None:
        np.clip(var, 0.0, None, out=var)
    return Prediction(mean=mean, var=var, cov=cov)
