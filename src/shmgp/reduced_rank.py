"""Boundary-constrained GP regression on hyper-rectangles.

The kernel is approximated by Laplacian eigenfunctions of the domain,
weighted by the kernel's spectral density at the eigenvalue roots:

    k(x, x') ~ sum_j S(sqrt(lambda_j)) phi_j(x) phi_j(x')

On a box prod_k [-L_k, L_k] the eigenpairs are closed-form sine (Dirichlet)
or cosine (Neumann) products, so predictions inherit the boundary behaviour
exactly: a Dirichlet model is pinned to zero on the boundary.  Fitting works
in coefficient space, so the per-point prediction cost is O(M^2) regardless
of the training size.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve

from .errors import DomainError
from .gp import Dataset, _predict_rows, chol_with_jitter
from .kernels import Kernel, _as_matrix


@dataclass(frozen=True)
class DomainSpec:
    """Axis-aligned box prod_k [-L_k, L_k] with a boundary condition.

    ``basis_counts`` gives the number of eigenfunctions per dimension;
    ``max_total`` optionally caps the tensor-product basis at the modes with
    the smallest eigenvalues.
    """

    half_widths: np.ndarray
    boundary: str = "dirichlet"
    basis_counts: np.ndarray = 32
    max_total: int | None = None

    def __post_init__(self):
        L = np.atleast_1d(np.asarray(self.half_widths, dtype=float))
        if np.any(L <= 0.0) or not np.all(np.isfinite(L)):
            raise ValueError("half-widths must be positive and finite")
        m = np.broadcast_to(np.asarray(self.basis_counts, dtype=int), L.shape).copy()
        if np.any(m < 1):
            raise ValueError("basis counts must be >= 1 in every dimension")
        if self.boundary not in ("dirichlet", "neumann"):
            raise ValueError(f"unknown boundary condition {self.boundary!r}")
        if self.max_total is not None and self.max_total < 1:
            raise ValueError("max_total must be >= 1")
        object.__setattr__(self, "half_widths", L)
        object.__setattr__(self, "basis_counts", m)

    @property
    def dim(self) -> int:
        return self.half_widths.shape[0]

    def contains(self, X: np.ndarray, strict: bool = False) -> np.ndarray:
        inside = np.abs(X) <= self.half_widths if not strict else np.abs(X) < self.half_widths
        return np.all(inside, axis=1)


@dataclass(frozen=True)
class ReducedRankBasis:
    """Eigenpairs of the domain Laplacian, one row per tensor-product mode.

    ``indices`` holds the per-dimension mode numbers (Dirichlet from 1,
    Neumann from 0), ``eigenvalues`` the summed per-dimension eigenvalues in
    ascending order.  ``weights`` carries S(sqrt(lambda)) once a kernel has
    been bound via :func:`spectral_weights`.
    """

    domain: DomainSpec
    indices: np.ndarray  # (M, d) ints
    eigenvalues: np.ndarray  # (M,)
    weights: np.ndarray | None = None

    @property
    def size(self) -> int:
        return self.indices.shape[0]

    def evaluate(self, X) -> np.ndarray:
        """Eigenfunction matrix Phi with Phi[i, j] = phi_j(X[i])."""
        X = _as_matrix(X)
        if X.shape[1] != self.domain.dim:
            raise ValueError(f"points have dimension {X.shape[1]}, domain is {self.domain.dim}-D")
        if not self.domain.contains(X).all():
            raise DomainError("input point outside the model domain")
        L = self.domain.half_widths
        # per-dimension mode shapes, combined multiplicatively; each shape is
        # evaluated once per distinct mode number and gathered into the M columns
        Phi = np.ones((X.shape[0], self.size))
        for k in range(self.domain.dim):
            modes, column = np.unique(self.indices[:, k], return_inverse=True)
            j = modes[None, :]
            v = (X[:, k][:, None] + L[k]) / (2.0 * L[k])  # 0 at -L, 1 at +L
            if self.domain.boundary == "dirichlet":
                shape = np.sin(np.pi * j * v) / np.sqrt(L[k])
                # sines vanish on the boundary by definition; enforce exactly
                shape[np.broadcast_to((v == 0.0) | (v == 1.0), shape.shape)] = 0.0
            else:
                shape = np.where(
                    j == 0, 1.0 / np.sqrt(2.0 * L[k]), np.cos(np.pi * j * v) / np.sqrt(L[k])
                )
            Phi *= shape[:, column]
        return Phi


def eigenpairs(domain: DomainSpec) -> ReducedRankBasis:
    """Closed-form Laplacian eigenpairs of the box, sorted by eigenvalue.

    1-D on [-L, L]: Dirichlet phi_j(x) = sqrt(1/L) sin(pi j (x+L)/(2L)) with
    lambda_j = (pi j / 2L)^2 for j >= 1; Neumann uses the cosine analogue
    with j >= 0 (the j = 0 constant mode has eigenvalue 0).  Multi-d modes
    are tensor products with summed eigenvalues.
    """
    start = 1 if domain.boundary == "dirichlet" else 0
    ranges = [range(start, start + int(m)) for m in domain.basis_counts]
    indices = np.array(list(itertools.product(*ranges)), dtype=int)
    per_dim = (np.pi * indices / (2.0 * domain.half_widths)) ** 2
    eigenvalues = per_dim.sum(axis=1)
    order = np.argsort(eigenvalues, kind="stable")
    indices, eigenvalues = indices[order], eigenvalues[order]
    if domain.max_total is not None:
        indices = indices[: domain.max_total]
        eigenvalues = eigenvalues[: domain.max_total]
    return ReducedRankBasis(domain=domain, indices=indices, eigenvalues=eigenvalues)


def spectral_weights(basis: ReducedRankBasis, spec: Kernel) -> ReducedRankBasis:
    """Bind a kernel: attach its spectral density at every mode's
    per-dimension frequencies."""
    lam_per_dim = (np.pi * basis.indices / (2.0 * basis.domain.half_widths)) ** 2
    return dataclasses.replace(basis, weights=spec.spectral_density(lam_per_dim))


def approx_gram(basis: ReducedRankBasis, spec: Kernel, X, X2=None) -> np.ndarray:
    """Gram matrix of the reduced-rank kernel (Phi S Phi')."""
    basis = basis if basis.weights is not None else spectral_weights(basis, spec)
    Phi = basis.evaluate(X)
    Phi2 = Phi if X2 is None else basis.evaluate(X2)
    return (Phi * basis.weights) @ Phi2.T


@dataclass(frozen=True)
class ReducedRankGp:
    """Posterior over basis coefficients: mean (M,) and covariance (M, M)."""

    basis: ReducedRankBasis
    kernel: Kernel
    noise_var: float
    weight_mean: np.ndarray
    weight_cov: np.ndarray


def fit_reduced(
    data: Dataset, domain: DomainSpec, spec: Kernel, noise_var: float = 0.0
) -> ReducedRankGp:
    """Fit in coefficient space.

    Solves (Phi' Phi + noise_var diag(S)^-1) w = Phi' y, parameterised in
    prior-whitened coordinates w = sqrt(S) u so that the system stays well
    scaled even when tail spectral weights underflow; the usual jitter
    ladder stabilises the solve.  Training inputs must lie strictly inside
    the domain.
    """
    basis = spectral_weights(eigenpairs(domain), spec)
    if not domain.contains(data.inputs, strict=True).all():
        raise DomainError("training inputs must lie strictly inside the domain")
    root_S = np.sqrt(basis.weights)
    B = basis.evaluate(data.inputs) * root_S  # (n, M), whitened features
    Z = B.T @ B + noise_var * np.eye(basis.size)
    L, _ = chol_with_jitter(Z)
    u_mean = cho_solve((L, True), B.T @ data.outputs)
    weight_mean = root_S * u_mean
    if noise_var > 0.0:
        inv_Z = cho_solve((L, True), np.eye(basis.size))
        weight_cov = noise_var * (root_S[:, None] * inv_Z * root_S[None, :])
    elif len(data) < basis.size:
        # noise-free with fewer points than modes: the data pin only the row
        # space of B, so the whitened covariance is the projector onto its
        # complement, I - B'(BB')^-1 B
        L_rows, _ = chol_with_jitter(B @ B.T)
        projector = np.eye(basis.size) - B.T @ cho_solve((L_rows, True), B)
        weight_cov = root_S[:, None] * projector * root_S[None, :]
    else:
        # noise-free with at least as many points as modes: coefficients are pinned
        weight_cov = np.zeros((basis.size, basis.size))
    return ReducedRankGp(
        basis=basis,
        kernel=spec,
        noise_var=float(noise_var),
        weight_mean=weight_mean,
        weight_cov=0.5 * (weight_cov + weight_cov.T),
    )


def predict_reduced(model: ReducedRankGp, X_star) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance at points of the (closed) domain.

    All Dirichlet eigenfunctions vanish on the boundary, so boundary points
    return exactly (0, 0) under that condition.  The points go through in
    blocks of rows, as in :func:`gp.predict`, so memory does not grow with
    their number beyond the outputs.
    """
    X_star = _as_matrix(X_star)
    m = X_star.shape[0]
    rows = _predict_rows(model.basis.size)
    mean, var = np.empty(m), np.empty(m)
    for start in range(0, max(m, 1), rows):  # no points: one empty block
        Phi = model.basis.evaluate(X_star[start : start + rows])
        mean[start : start + rows] = Phi @ model.weight_mean
        var[start : start + rows] = np.einsum("ij,ij->i", Phi @ model.weight_cov, Phi)
    np.clip(var, 0.0, None, out=var)
    return mean, var
