"""PSO-driven hyperparameter selection.

Positive hyperparameters are searched in log10 space against box bounds
given in natural units; bounds default to physically sensible ranges
derived from the data (target variance, input ranges, sampling Nyquist).
The objective is the negative log marginal likelihood of an exact GP fit;
hyperparameter combinations whose factorisation fails are treated as +inf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrs

from . import blas, gp
from .errors import NumericalError
from .kernels import Kernel, SquaredDiffStack, build_gram
from .means import LinearMean, MeanFunction, ZeroMean
from .pso import PsoConfig, PsoResult, decoder, log10_box, override_box, pso_minimize
from .registry import reads


@dataclass
class TuneResult:
    model: gp.TrainedGp
    params: dict
    pso: PsoResult


def linear_design(X: np.ndarray) -> np.ndarray:
    """[1, X], the design of an affine mean; a NumericalError names the inputs
    that leave it rank-deficient, each one whose column can go at that rank."""
    A, rank = np.column_stack([np.ones(len(X)), X]), np.linalg.matrix_rank
    if rank(A) < A.shape[1]:
        bad = [j for j in range(X.shape[1]) if rank(np.delete(A, j + 1, 1)) == rank(A)]
        raise NumericalError(f"the linear_fit mean cannot be identified: input columns {bad} are "
                             f"constant or collinear on the training rows")
    return A


def gls_linear_mean(data: gp.Dataset, kernel: Kernel, noise_var: float,
                    stack: SquaredDiffStack | None = None, workspace=None) -> LinearMean:
    """Affine mean with coefficients profiled by generalised least squares.

    Weighting the regression by the inverse GP covariance discounts
    kernel-correlated deviations, so the recovered line tracks the global
    trend instead of absorbing local structure (ordinary least squares would
    bias the slope whenever the residual process correlates with an input).
    ``stack`` and ``workspace``, with its design, are as in :func:`gp.fit_exact`.
    """
    X, y = data.inputs, data.outputs
    work = workspace or gp.Workspace(design=linear_design(X))
    K = build_gram(kernel, X if stack is None else stack, out=work.K)
    gp.add_to_diag(K, noise_var)
    L, _ = gp.chol_with_jitter(K, check_finite=False, work=work.factor)  # build_gram scanned K
    W = dpotrs(L, work.design, lower=1)[0]
    theta = np.linalg.solve(work.design.T @ W, W.T @ y)
    return LinearMean(intercept=float(theta[0]), slope=theta[1:])


def default_bounds(
    family: str, data: gp.Dataset, ard: bool = False, dt: float | None = None,
    noise_var: float | None = None,
) -> dict:
    """Likely hyperparameter ranges for a family, derived from the data: the
    family's box, whose entries are its constructor's arguments in order,
    then ``noise_var`` unless the noise is fixed at a given ``noise_var``."""
    y_var = max(float(np.var(data.outputs)), 1e-12)
    box = Kernel.member(family).default_bounds(data.inputs, y_var, ard, dt)
    if noise_var is None:
        box["noise_var"] = (1e-8 * y_var, y_var)
    return box


@reads
def tuned_family(family: str, ard: bool = False) -> type:
    """The class of ``family``.  ``ard`` asks for one lengthscale per input:
    a ValueError for a family whose JSON keys have no ``lengthscales``."""
    cls = Kernel.member(family)
    if ard and "lengthscales" not in cls.keys:
        raise ValueError(f"'ard' asks for a lengthscale per input; {family} has one for all")
    return cls


def tune_exact_gp(
    data: gp.Dataset,
    family: str,
    mean: MeanFunction | None = None,
    profile_linear_mean: bool = False,
    ard: bool = False,
    noise_var: float | None = None,
    bounds: dict | None = None,
    dt: float | None = None,
    iterations: int = 100,
    **swarm,
) -> TuneResult:
    """Maximise the marginal likelihood over kernel (and optionally noise)
    hyperparameters.

    The box (:func:`default_bounds`) lays out the search: the kernel at a
    swarm position is the family's constructor applied to its values, read
    by name through :func:`pso.decoder`, in box order.  ``ard`` tunes one
    lengthscale per input (:func:`tuned_family`).
    ``noise_var`` fixes the observation noise when given; when None it is
    optimised alongside the kernel.  ``bounds`` override the defaults by
    name, as :func:`pso.override_box` allows; a given ``noise_var`` is no
    row of the box, so a bound on it is a ValueError.
    With ``profile_linear_mean`` the affine prior-mean coefficients are
    profiled out by GLS at every objective evaluation instead of being
    supplied through ``mean``.  The other swarm settings (``particles``,
    ``seed``, ...) go to :class:`PsoConfig`, whose defaults they take.

    The swarm's fits take the inputs' squared differences from one
    :class:`SquaredDiffStack`, built here once for every family, and one
    :class:`gp.Workspace`; the model returned is refit without either, so it
    is :func:`gp.fit_exact`'s at the tuned values on one BLAS thread, bit
    for bit.  The swarm, its GLS profiles and the refit all run in
    :func:`blas.single_thread`: the fits are many small serial BLAS calls,
    which a second thread makes no faster.  The caller's thread counts come
    back when the tune returns or raises.
    """
    cls = tuned_family(family, ard)
    box = override_box(default_bounds(family, data, ard, dt, noise_var), bounds)
    cfg = PsoConfig(bounds=log10_box(box), iterations=iterations, **swarm)
    decode = decoder(box)

    def fit_at(stack=None, work=None, noise_var=noise_var, **kernel_args) -> gp.TrainedGp:
        # the box's other entries are the kernel's arguments, in order
        sigma_n2 = float(noise_var)
        kernel = cls(*kernel_args.values())
        mean_fn = (gls_linear_mean(data, kernel, sigma_n2, stack, work) if profile_linear_mean
                   else mean)
        return gp.fit_exact(data, kernel, mean=mean_fn, noise_var=sigma_n2, stack=stack,
                            workspace=work)

    # built from the very inputs the swarm fits, outside the objective, so no
    # stack or workspace fault can hide among its inf scores
    stack = SquaredDiffStack(data.inputs)
    work = gp.Workspace(*np.empty((2, len(data), len(data))))
    work = (work._replace(design=linear_design(data.inputs)) if profile_linear_mean
            else work._replace(residual=gp.residual(data, mean or ZeroMean())))

    def objective(position: np.ndarray) -> float:
        try:
            return -fit_at(stack, work, **decode(position)).lml
        except (NumericalError, ValueError):
            return np.inf

    with blas.single_thread():
        result = pso_minimize(objective, cfg)
        del work  # its buffers go before the refit makes its own
        best = decode(result.best_params)
        model = fit_at(**best)
    # a list of pairs under lengthscales gives lengthscale_0, lengthscale_1, ...
    params = {f"{name[:-1]}_{k}" if np.ndim(value) else name: float(v)
              for name, value in best.items() for k, v in enumerate(np.atleast_1d(value))}
    params["noise_var"] = model.noise_var  # also where noise_var is fixed, so best lacks it
    if profile_linear_mean:
        params["mean_intercept"] = float(model.mean.intercept)
        params["mean_slope"] = np.asarray(model.mean.slope).tolist()
    return TuneResult(model=model, params=params, pso=result)
