"""State-space grey-box estimation: latent force recovery for linear systems.

A Matern GP prior over an unmeasured force has an exact representation as a
small linear stochastic differential equation.  Appending those force states
to a structural model in companion form gives a joint linear-Gaussian system
whose transition and observation densities are handled in closed form by the
Kalman filter and RTS smoother; the smoothed force-state block is the joint
input estimate.

Discretisation is exact (matrix exponential, with the process-noise integral
via the Van Loan block-exponential), which makes the filter likelihood and
smoothed means of a pure Matern model agree with batch GP regression to
numerical precision.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm, solve_continuous_lyapunov
from scipy.linalg.lapack import dpotrf, dtrtri

from .errors import NumericalError
from .kernels import Kernel, Matern32, companion
from .pso import PsoConfig, decoder, log10_box, override_box, pso_minimize
from .registry import Positive, count, reads

LOG_2PI = float(np.log(2.0 * np.pi))
# Largest change of an updated-covariance entry between two updates, relative
# to the product of its two standard deviations, at which the filter treats
# the covariance as converged; 0 runs the exact recursion at every step.
STEADY_RTOL = 1e-12


@dataclass(frozen=True)
class StructuralModel:
    """Linear structural system M y'' + C y' + K y = s f(t).

    ``force_dof`` selects the degree of freedom the latent force acts on.
    ``observed`` lists measured quantities as (kind, dof) pairs with kind in
    {"displacement", "velocity", "acceleration"}; the rows of the resulting
    observation matrix follow this order.
    """

    mass: np.ndarray
    damping: np.ndarray
    stiffness: np.ndarray
    force_dof: int = 0
    observed: tuple = (("displacement", 0),)

    def __post_init__(self):
        M = np.atleast_2d(np.asarray(self.mass, dtype=float))
        C = np.atleast_2d(np.asarray(self.damping, dtype=float))
        K = np.atleast_2d(np.asarray(self.stiffness, dtype=float))
        p = M.shape[0]
        if M.shape != (p, p) or C.shape != (p, p) or K.shape != (p, p):
            raise ValueError("mass, damping and stiffness must be square matrices of equal size")
        if not np.allclose(M, M.T, atol=1e-10 * max(1.0, np.abs(M).max())):
            raise ValueError("mass matrix must be symmetric")
        if np.any(np.linalg.eigvalsh(M) <= 0.0):
            raise ValueError("mass matrix must be positive definite")
        if np.any(np.linalg.eigvalsh(0.5 * (K + K.T)) < -1e-9 * max(1.0, np.abs(K).max())):
            raise ValueError("stiffness matrix must be positive semi-definite")
        if not 0 <= self.force_dof < p:
            raise ValueError(f"force_dof {self.force_dof} outside 0..{p - 1}")
        if not isinstance(self.observed, (list, tuple)) or not all(
                isinstance(pair, (list, tuple)) and len(pair) == 2 for pair in self.observed):
            raise ValueError(f"observed takes [kind, dof] pairs, got {self.observed!r}")
        if len(self.observed) == 0:
            raise ValueError("observed lists no (kind, dof) pair; at least one is measured")
        for kind, dof in self.observed:
            if kind not in ("displacement", "velocity", "acceleration"):
                raise ValueError(f"unknown observed quantity {kind!r}")
            if count("observed dof", dof) >= p:
                raise ValueError(f"observed dof {dof} outside 0..{p - 1}")
        object.__setattr__(self, "mass", M)
        object.__setattr__(self, "damping", C)
        object.__setattr__(self, "stiffness", K)
        object.__setattr__(self, "observed", tuple((str(k), int(d)) for k, d in self.observed))

    @property
    def ndof(self) -> int:
        return self.mass.shape[0]


@dataclass(frozen=True)
class StateSpaceModel:
    """Continuous-time linear SDE dx = A x dt + Lc dW, Var(dW) = q dt,
    observed through y = H x + r with r ~ N(0, R).

    ``Ad``/``Qd`` hold the exact discrete pair for one step once
    :func:`discretize` has run.  ``force_index`` marks the state carrying the
    latent force value (None when the model has no force block).
    """

    A: np.ndarray
    Lc: np.ndarray
    q: float
    H: np.ndarray
    R: np.ndarray
    m0: np.ndarray
    P0: np.ndarray
    force_index: int | None = None
    Ad: np.ndarray | None = None
    Qd: np.ndarray | None = None

    @property
    def state_dim(self) -> int:
        return self.A.shape[0]

    def with_noise(self, R) -> "StateSpaceModel":
        return dataclasses.replace(self, R=np.atleast_2d(np.asarray(R, dtype=float)))


def kernel_to_ss(kernel: Kernel) -> StateSpaceModel:
    """Exact linear-SDE form of a GP prior whose kernel family has one
    (:meth:`Kernel.state_space`), observed noise-free through its first state.

    The drift is Hurwitz and the stationary covariance, used as the initial
    state covariance, has P[0, 0] equal to the kernel variance.
    """
    A, Lc, q, Pinf = kernel.state_space()
    return StateSpaceModel(
        A=A,
        Lc=Lc,
        q=q,
        H=np.eye(1, A.shape[0]),
        R=np.zeros((1, 1)),
        m0=np.zeros(A.shape[0]),
        P0=Pinf,
        force_index=0,
    )


def stationary_covariance(model: StateSpaceModel) -> np.ndarray:
    """Solve A P + P A' + Lc q Lc' = 0 for the stationary state covariance."""
    Qc = model.q * (model.Lc @ model.Lc.T)
    return solve_continuous_lyapunov(model.A, -Qc)


def augment(structural: StructuralModel, force_fragment: StateSpaceModel) -> StateSpaceModel:
    """Join a structural model and a force prior into one state-space model.

    States are [displacements; velocities; force states].  The structure's
    drift is the companion form of M^-1 K and M^-1 C; the force states evolve
    autonomously and feed the velocity derivatives of ``force_dof`` through
    the inverse mass matrix.  Observation rows follow ``structural.observed``:
    a row of the identity, or for an acceleration the drift's row of that
    velocity, force feedthrough included.
    """
    p = structural.ndof
    n = 2 * p + force_fragment.state_dim
    Minv = np.linalg.inv(structural.mass)
    A, Lc, P0 = np.zeros((n, n)), np.zeros((n, force_fragment.Lc.shape[1])), np.zeros((n, n))
    A[: 2 * p, : 2 * p] = companion(Minv @ structural.stiffness, Minv @ structural.damping)
    # force value -> acceleration of each dof
    A[p : 2 * p, 2 * p :] = np.outer(Minv[:, structural.force_dof], force_fragment.H[0])
    f = slice(2 * p, n)  # the force states
    A[f, f], Lc[f], P0[f, f] = force_fragment.A, force_fragment.Lc, force_fragment.P0

    eye = np.eye(n)
    rows = {"displacement": eye[:p], "velocity": eye[p : 2 * p], "acceleration": A[p : 2 * p]}
    H = np.vstack([rows[kind][dof] for kind, dof in structural.observed])
    return StateSpaceModel(A=A, Lc=Lc, q=force_fragment.q, H=H, R=np.zeros((len(H), len(H))),
                           m0=np.zeros(n), P0=P0, force_index=2 * p)


@reads
def discretize(model: StateSpaceModel, dt: Positive) -> StateSpaceModel:
    """Exact discrete pair (A_d, Q_d) for a fixed step.

    A_d = expm(A dt); Q_d = int_0^dt expm(A s) Lc q Lc' expm(A' s) ds via the
    Van Loan block exponential.  For A = 0 this reduces to A_d = I and
    Q_d = Lc q Lc' dt.
    """
    n = model.state_dim
    Qc = model.q * (model.Lc @ model.Lc.T)
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = -model.A
    block[:n, n:] = Qc
    block[n:, n:] = model.A.T
    phi = expm(block * dt)
    Ad = phi[n:, n:].T
    Qd = Ad @ phi[:n, n:]
    Qd = 0.5 * (Qd + Qd.T)
    if not (np.all(np.isfinite(Ad)) and np.all(np.isfinite(Qd))):
        raise NumericalError("discretisation produced non-finite matrices")
    return dataclasses.replace(model, Ad=Ad, Qd=Qd)


@dataclass
class FilterResult:
    """Forward-pass output.  ``steady`` lists the step ranges [start, end)
    run in steady state: there ``covs`` and ``pred_covs`` repeat the values
    of step ``start - 1``, and one gain applies throughout."""

    means: np.ndarray  # (T, n) filtered
    covs: np.ndarray  # (T, n, n)
    pred_means: np.ndarray  # prior at each step, before the update
    pred_covs: np.ndarray
    log_likelihood: float
    steady: tuple = ()


@dataclass
class SmootherResult:
    """Filter + smoother output with the force posterior pulled out.

    ``force_mean``/``force_var`` are None when the model carries no force
    block.  Covariances are symmetrised at every step.
    """

    filtered_means: np.ndarray
    filtered_covs: np.ndarray
    smoothed_means: np.ndarray
    smoothed_covs: np.ndarray
    force_mean: np.ndarray | None
    force_var: np.ndarray | None
    log_likelihood: float
    hyperparameters: dict | None = None


def kalman_filter(model: StateSpaceModel, observations: np.ndarray) -> FilterResult:
    """Forward pass: predict/update recursions with Joseph-form updates.

    The state prior (m0, P0) applies at the first observation time, so step
    zero is an update without a preceding predict.  NaN entries are missing:
    a row of all-NaN skips the update, and a partly missing row updates on
    its observed channels only.  The log-likelihood sums the per-step
    innovation log densities.

    The model is time-invariant, so its covariances converge.  Once an
    update moves no covariance entry P_ij by more than ``STEADY_RTOL``
    sqrt(P_ii P_jj), and it and the previous update saw every channel, the
    filter keeps that covariance, its gain, the inverse of S and log|S|, and
    updates only the mean and the likelihood up to the next row with a
    missing entry, where the exact recursion resumes.
    """
    if model.Ad is None or model.Qd is None:
        raise ValueError("model must be discretized before filtering")
    Y = np.atleast_2d(np.asarray(observations, dtype=float))
    if Y.shape[1] != model.H.shape[0]:
        raise ValueError(
            f"observations have {Y.shape[1]} channels, model defines {model.H.shape[0]}"
        )
    missing = np.isnan(Y)
    full, skip = ~missing.any(axis=1), missing.all(axis=1)
    T, n = Y.shape[0], model.state_dim
    Ad, Qd, H, R = model.Ad, model.Qd, model.H, model.R
    eye = np.eye(n)

    means = np.empty((T, n))
    covs = np.empty((T, n, n))
    pred_means = np.empty((T, n))
    pred_covs = np.empty((T, n, n))
    loglik = 0.0
    steady = []

    m, P = model.m0.copy(), model.P0.copy()
    P_prev = None  # the previous step's updated covariance, if it observed every channel
    t = 0
    while t < T:
        if t > 0:
            m = Ad @ m
            P = Ad @ P @ Ad.T + Qd
            P = 0.5 * (P + P.T)
        pred_means[t], pred_covs[t] = m, P
        if skip[t]:  # nothing to update on (LAPACK takes no 0 x 0 factor)
            means[t], covs[t] = m, P
            P_prev = None
            t += 1
            continue
        y, Ht, Rt = Y[t], H, R
        if not full[t]:  # update on the observed channels only
            seen = np.flatnonzero(~missing[t])
            y, Ht, Rt = Y[t, seen], H[seen], R[np.ix_(seen, seen)]

        v = y - Ht @ m
        # LAPACK reads only the lower triangle of S, and passes NaN through
        L, info = dpotrf(Ht @ P @ Ht.T + Rt, lower=1)
        half_logdet = np.log(L.diagonal()).sum() if info == 0 else np.nan
        if not np.isfinite(half_logdet):
            raise NumericalError(f"innovation covariance not positive definite at step {t}")
        L_inv, _ = dtrtri(L, lower=1)
        S_inv = L_inv.T @ L_inv
        K = P @ Ht.T @ S_inv
        m = m + K @ v
        IKH = eye - K @ Ht
        P = IKH @ P @ IKH.T + K @ Rt @ K.T
        P = 0.5 * (P + P.T)
        loglik += -0.5 * (v @ S_inv @ v + v.size * LOG_2PI) - half_logdet
        means[t], covs[t] = m, P

        d = P.diagonal()  # |dP_ij| <= tol sqrt(P_ii P_jj), squared: no scale hides another's
        converged = (STEADY_RTOL > 0.0 and full[t] and P_prev is not None
                     and (np.square(P - P_prev) <= STEADY_RTOL**2 * (d[:, None] * d)).all())
        P_prev = P if full[t] else None
        t += 1
        if not converged:
            continue
        # steady state: reuse this step's moments up to the next row with a missing entry
        gaps = np.flatnonzero(~full[t:])
        end = t + gaps[0] if gaps.size else T
        if end > t:
            F = IKH @ Ad  # mean transition of an update with gain K
            Ky = Y[t:end] @ K.T
            for i in range(t, end):
                m = F @ m + Ky[i - t]
                means[i] = m
            pred_means[t:end] = means[t - 1 : end - 1] @ Ad.T
            V = Y[t:end] - pred_means[t:end] @ H.T
            loglik += (-0.5 * (np.einsum("ij,ij->", V @ S_inv, V) + V.size * LOG_2PI)
                       - (end - t) * half_logdet)
            covs[t:end], pred_covs[t:end] = P, pred_covs[t - 1]
            steady.append((t, end))
            t = end

    return FilterResult(
        means=means, covs=covs, pred_means=pred_means, pred_covs=pred_covs,
        log_likelihood=float(loglik), steady=tuple(steady),
    )


def rts_smoother(model: StateSpaceModel, filt: FilterResult) -> SmootherResult:
    """Backward Rauch-Tung-Striebel pass over a completed filter run.

    The final step's smoothed moments equal the filtered ones; earlier steps
    blend in future information, so smoothed variances never exceed filtered
    variances.  Over the filter's steady ranges one gain serves every step.
    """
    T, n = filt.means.shape
    sm = filt.means.copy()
    sP = filt.covs.copy()
    # steps whose gain inputs, covs[t] and pred_covs[t + 1], hold steady values
    constant = np.zeros(T, dtype=bool)
    for start, end in filt.steady:
        constant[start - 1 : end - 1] = True
    means, covs, pred_means, pred_covs = filt.means, filt.covs, filt.pred_means, filt.pred_covs
    for t in range(T - 2, -1, -1):
        if not (constant[t] and constant[t + 1]):
            try:
                # gain G = P_f A' P_pred^-1, computed as (P_pred^-1 A P_f)'
                Gt = np.linalg.solve(pred_covs[t + 1], model.Ad @ covs[t])
            except np.linalg.LinAlgError as exc:
                raise NumericalError(f"singular predicted covariance at step {t + 1}") from exc
            G = Gt.T
        sm[t] = means[t] + G @ (sm[t + 1] - pred_means[t + 1])
        P = covs[t] + G @ (sP[t + 1] - pred_covs[t + 1]) @ Gt
        sP[t] = 0.5 * (P + P.T)

    if model.force_index is not None:
        fi = model.force_index
        force_mean = sm[:, fi].copy()
        force_var = sP[:, fi, fi].copy()
    else:
        force_mean = force_var = None
    return SmootherResult(
        filtered_means=filt.means,
        filtered_covs=filt.covs,
        smoothed_means=sm,
        smoothed_covs=sP,
        force_mean=force_mean,
        force_var=force_var,
        log_likelihood=filt.log_likelihood,
    )


def smooth(model: StateSpaceModel, observations: np.ndarray) -> SmootherResult:
    """Filter then smooth in one call."""
    return rts_smoother(model, kalman_filter(model, observations))


def build_latent_force_model(
    structural: StructuralModel, dt: float, prior: Kernel, noise_var
) -> StateSpaceModel:
    """Augmented, discretized model with observation noise installed."""
    model = augment(structural, kernel_to_ss(prior))
    R = np.diag(np.broadcast_to(np.asarray(noise_var, dtype=float), (model.H.shape[0],)))
    return discretize(model.with_noise(R), dt)


# the force prior's default box, natural units, and the names its tune may bound
FORCE_BOUNDS = {"sigma": (1e-2, 1e2), "lengthscale": (1e-2, 1e2)}
FORCE_TUNED = (*FORCE_BOUNDS, "noise_var")


def estimate_force(
    structural: StructuralModel,
    observations: np.ndarray,
    dt: float,
    prior: Kernel = Matern32(),
    noise_var=1e-4,
    bounds: dict | None = None,
    **swarm,
) -> SmootherResult:
    """Joint input-state estimation of the unmeasured force under the GP
    ``prior``, a kernel with a state-space form.

    With ``bounds`` (overriding :data:`FORCE_BOUNDS` by name) or swarm
    settings (``particles``, ``seed``, ... for :class:`PsoConfig`) given,
    sigma, lengthscale and, if ``bounds`` names it, noise_var are tuned by
    maximising the filter log-likelihood before the final smoothing pass.
    The result records the hyperparameters actually used.
    """
    if bounds is not None or swarm:
        box = override_box(FORCE_BOUNDS, bounds, FORCE_TUNED)
        decode = decoder(box)

        def objective(position: np.ndarray) -> float:
            v = decode(position)
            try:
                model = build_latent_force_model(structural, dt, type(prior)(
                    v["sigma"], v["lengthscale"]), v.get("noise_var", noise_var))
                return -kalman_filter(model, observations).log_likelihood
            except NumericalError:
                return np.inf

        best = pso_minimize(objective, PsoConfig(bounds=log10_box(box), **swarm))
        tuned = decode(best.best_params)
        prior = type(prior)(tuned["sigma"], tuned["lengthscale"])
        noise_var = tuned.get("noise_var", noise_var)

    model = build_latent_force_model(structural, dt, prior, noise_var)
    result = smooth(model, observations)
    result.hyperparameters = {
        "nu": prior.nu,
        "sigma": float(prior.signal_scale),
        "lengthscale": float(prior.lengthscale),
        "noise_var": np.asarray(noise_var, dtype=float).tolist(),
    }
    return result
