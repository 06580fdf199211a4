"""Stationary covariance functions.

Each kernel is a small frozen dataclass carrying its hyperparameters and
knowing how to map squared distances of its inputs to covariances.  A
kernel family is one class registered in :data:`FAMILIES` (the oscillator
family lives in :mod:`shmgp.physics`).  The module-level helpers
:func:`kernel_eval` and :func:`build_gram` are the entry points used by the
regression code; they normalise input shapes and enforce dimension checks.

:func:`build_gram` holds the one loop over blocks of rows, with one layout
(:func:`_row_blocks`) for every family.  Each block is computed into its
own buffer, from the diagonal to the right in the square case, and mirrored
from there, so a training Gram matrix is exactly symmetric.  Each family
maps a block of scaled squared distances in place; those come from explicit
pairwise differences, so results do not depend on BLAS parallelism.  A
tune, whose inputs stay fixed while the hyperparameters move, takes the
leading blocks of those squared differences once into a
:class:`SquaredDiffStack` of bounded size; each cached block's scaled
squared distance is then one matrix-vector product.  A 1-D stack keeps each
distinct squared lag once, and an index into them for every entry of its
leading rows, so a build maps each lag once and fills those rows with one
gather: times on a grid repeat few lags.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gamma as gamma_fn

import numpy as np

from .registry import Positive, Positives, Registered


def _as_matrix(X) -> np.ndarray:
    """Coerce to an (n, d) float matrix; 1-D input is read as n points in 1-D."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 0:
        return X.reshape(1, 1)
    if X.ndim == 1:
        return X.reshape(-1, 1)
    if X.ndim != 2:
        raise ValueError(f"expected at most 2-D input array, got shape {X.shape}")
    return X


class Kernel(Registered):
    """Interface shared by all covariance functions.

    A kernel family is one subclass declared with ``family="name"``; it owns
    its JSON form (its fields are the entries besides ``family``), spectral
    density and the default box of a tune, whose entries are its
    constructor's arguments in order.

    Every family is stationary: it supplies :meth:`sqdist_map`, which turns
    squared distances of the inputs divided by ``sqdist_scale`` into
    covariances in place, and :func:`build_gram` does the rest, so a
    :class:`SquaredDiffStack` can stand in for the inputs of any family.
    """

    tag = "family"
    sqdist_scale = 1.0

    def sqdist_map(self, S: np.ndarray) -> None:
        """Overwrite scaled squared distances S with the covariances."""
        raise NotImplementedError

    def diag(self, X: np.ndarray) -> np.ndarray:
        """k(x, x) for each row of X: the map at squared distance 0."""
        k0 = np.zeros(1)
        self.sqdist_map(k0)
        return np.full(X.shape[0], k0[0])

    def check_input_dim(self, d: int) -> None:
        """Raise if the kernel cannot act on d-dimensional inputs."""

    def spectral_density(self, lam: np.ndarray) -> np.ndarray:
        """Spectral density at squared per-dimension frequencies ``lam`` (m, d),
        normalised to integrate to (2 pi)^d k(0)."""
        raise ValueError(f"no spectral density available for kernel {type(self).__name__}")

    def state_space(self) -> tuple:
        """Exact linear-SDE form ``(A, Lc, q, Pinf)`` of a 1-D kernel: the state
        obeys dx = A x dt + Lc dW with Var(dW) = q dt, its first entry is the
        GP value, and Pinf solves A P + P A' + Lc q Lc' = 0."""
        raise ValueError(f"no state-space form available for kernel {type(self).__name__}")

    @staticmethod
    def default_bounds(X: np.ndarray, y_var: float, ard: bool, dt: float | None) -> dict:
        """Likely ranges of the tuned hyperparameters, from inputs and target
        variance: one entry per constructor argument, in order, named after
        it, a (lower, upper) pair or, for ``ard`` lengthscales, a list of one
        pair per input."""
        raise NotImplementedError


def companion(stiffness, damping) -> np.ndarray:
    """Drift [[0, I], [-K, -C]] of x'' + C x' + K x = w in the state [x; x']."""
    p = len(stiffness)
    A = np.zeros((2 * p, 2 * p))
    A[:p, p:], A[p:, :p], A[p:, p:] = np.eye(p), np.negative(stiffness), np.negative(damping)
    return A


@dataclass(frozen=True)
class SquaredExponential(Kernel, family="squared_exponential"):
    """k(x, x') = signal_scale^2 exp(-1/2 sum_k ((x_k - x'_k)/l_k)^2).

    ``lengthscales`` may be a scalar (isotropic) or a length-d vector (one
    lengthscale per input dimension, for regressors with heterogeneous
    scales).
    """

    signal_scale: Positive = 1.0
    lengthscales: Positives = 1.0

    def check_input_dim(self, d: int) -> None:
        if self.lengthscales.shape[0] not in (1, d):
            raise ValueError(
                f"kernel has {self.lengthscales.shape[0]} lengthscales but inputs have dimension {d}"
            )

    @property
    def sqdist_scale(self):
        return self.lengthscales

    def sqdist_map(self, S):
        S *= -0.5
        np.exp(S, out=S)
        S *= self.signal_scale**2

    def spectral_density(self, lam):
        # exact product form over dimensions, so per-dimension lengthscales work
        d = lam.shape[1]
        ell = np.broadcast_to(self.lengthscales, (d,))
        return (self.signal_scale**2 * (2.0 * np.pi) ** (d / 2.0) * np.prod(ell)
                * np.exp(-0.5 * lam @ (ell**2)))

    @staticmethod
    def default_bounds(X, y_var, ard, dt):
        ranges = X.max(axis=0) - X.min(axis=0)
        ranges = np.where(ranges > 0.0, ranges, 1.0)
        y_std = np.sqrt(y_var)
        box = {"signal_scale": (1e-2 * y_std, 1e2 * y_std)}
        if ard:
            box["lengthscales"] = [(1e-2 * r, 1e1 * r) for r in ranges]
        else:
            r = float(np.max(ranges))
            box["lengthscale"] = (1e-2 * r, 1e1 * r)
        return box


@dataclass(frozen=True)
class _Matern(Kernel):
    """Matern kernel on Euclidean distance; subclasses set the half-integer
    smoothness ``nu`` and map the unscaled squared distances."""

    signal_scale: Positive = 1.0
    lengthscale: Positive = 1.0

    def spectral_density(self, lam):
        # isotropic: a function of |omega|^2 only
        nu, ell, d = self.nu, self.lengthscale, lam.shape[1]
        const = (self.signal_scale**2 * 2.0**d * np.pi ** (d / 2.0) * gamma_fn(nu + d / 2.0)
                 * (2.0 * nu) ** nu / (gamma_fn(nu) * ell ** (2.0 * nu)))
        return const * (2.0 * nu / ell**2 + lam.sum(axis=1)) ** -(nu + d / 2.0)

    @staticmethod
    def default_bounds(X, y_var, ard, dt):
        # the box of an isotropic squared exponential: same parameters, same scales
        return SquaredExponential.default_bounds(X, y_var, False, dt)


class Matern12(_Matern, family="matern12"):
    """Exponential kernel k(r) = signal_scale^2 exp(-r/lengthscale)."""

    nu = 0.5

    def sqdist_map(self, S):
        np.sqrt(S, out=S)
        S /= -self.lengthscale
        np.exp(S, out=S)
        S *= self.signal_scale**2

    def state_space(self):
        lam, s2 = 1.0 / self.lengthscale, self.signal_scale**2
        return np.array([[-lam]]), np.array([[1.0]]), 2.0 * s2 * lam, np.array([[s2]])


class Matern32(_Matern, family="matern32"):
    """k(r) = signal_scale^2 (1 + sqrt(3) r/l) exp(-sqrt(3) r/l)."""

    nu = 1.5

    def sqdist_map(self, S):
        np.sqrt(S, out=S)
        S *= np.sqrt(3.0)
        S /= self.lengthscale
        decay = np.negative(S)
        np.exp(decay, out=decay)
        S += 1.0
        S *= self.signal_scale**2
        S *= decay

    def state_space(self):
        lam, s2 = np.sqrt(3.0) / self.lengthscale, self.signal_scale**2
        A = companion([[lam**2]], [[2.0 * lam]])
        return A, np.array([[0.0], [1.0]]), 4.0 * s2 * lam**3, np.diag([s2, s2 * lam**2])


# entries of the (d, rows, cols) difference stack of one block of rows: the
# stack and its running sum stay in cache while the dimensions are added up
GRAM_BLOCK_ENTRIES = 1 << 16
# at most this many rows a block, so that even a 150-point matrix has three
# blocks and its kernel map skips most of the lower triangle
GRAM_BLOCK_ROWS = 64
# bytes a SquaredDiffStack keeps (2^23 doubles): the NARX tunes' 6.6 MB of
# squared differences whole, a large tabular tune only its leading blocks
STACK_BYTES = 1 << 26


def _block_rows(d: int, m: int) -> int:
    """Rows of a block of an m-column Gram build at input dimension d."""
    return min(GRAM_BLOCK_ROWS, max(1, GRAM_BLOCK_ENTRIES // max(1, d * m)))


def _row_blocks(d: int, n: int, m: int, square: bool):
    """The row blocks of every n x m Gram build at input dimension d, as
    (start, stop, first): rows start..stop are computed from column
    ``first`` on, which in the square case is the block's diagonal."""
    rows = _block_rows(d, m)
    for start in range(0, n, rows):
        yield start, min(start + rows, n), start if square else 0


class SquaredDiffStack:
    """Per-dimension squared differences (x_ik - x_jk)^2 of one input matrix.

    Built once from inputs X (n, d) that stay fixed while the hyperparameters
    change, as over a tune's swarm, and passed to :func:`build_gram` in
    place of X for the square Gram matrix.  It covers the leading ``rows``
    rows, in whole blocks of :func:`_row_blocks` whose total fits
    ``STACK_BYTES``; the Gram build computes the other rows afresh.

    At d > 1 ``blocks`` holds those square blocks as (start, stop, D_b),
    each from its diagonal to the right: D_b is a C-ordered
    (d, rows * (n - start)) array, so a weighted sum over dimensions is one
    matrix-vector product.  All of them come to about d/2 Gram matrices.

    In one dimension, where inputs on a grid repeat few lags, ``values``
    (1, u) holds each distinct squared difference of the covered rows once,
    sorted, and ``index`` (rows, n) the index into it of every entry of
    those rows, on both sides of the diagonal, so it is exactly symmetric
    where both entries are covered; ``blocks`` is empty.  A row i costs n
    indices and at most n - i new values, and both count toward
    ``STACK_BYTES``.  At d > 1, or with no row covered, both are None.
    """

    def __init__(self, X):
        self.inputs = _as_matrix(X)
        n, d = self.inputs.shape
        Z = np.ascontiguousarray(self.inputs.T)
        layout, room = [], STACK_BYTES
        for start, stop, _ in _row_blocks(d, n, n, True):
            room -= 8 * (stop - start) * (d * (n - start) if d > 1 else 2 * n - start)
            if room < 0:
                break
            layout.append((start, stop))
        self.rows = layout[-1][1] if layout else 0
        self.blocks, self.values, self.index = [], None, None
        if d == 1:
            if self.rows:
                # a sorted copy gives the distinct values, then each lag's
                # place among them: about two copies of the lags at the peak
                lags = np.square(np.subtract.outer(Z[0, : self.rows], Z[0]))
                flat = np.sort(lags, axis=None)
                values = flat[np.concatenate(([True], flat[1:] != flat[:-1]))]
                del flat
                self.values, self.index = values[None], np.searchsorted(values, lags)
            return
        # every cached block is a view of one buffer
        flat = np.empty(d * sum((stop - start) * (n - start) for start, stop in layout))
        offset = 0
        for start, stop in layout:
            size = d * (stop - start) * (n - start)
            block = flat[offset : offset + size].reshape(d, stop - start, n - start)
            np.subtract(Z[:, start:stop, None], Z[:, None, start:], out=block)
            np.square(block, out=block)
            self.blocks.append((start, stop, block.reshape(d, -1)))
            offset += size


# family name -> class; importing the package imports every module that
# declares a family.  Kernel.from_dict, the JSON form's reader, raises
# ValueError on an unknown family or a wrong set of keys.
FAMILIES = Kernel.registry


def kernel_eval(spec: Kernel, x, x_prime) -> float:
    """Evaluate the covariance between two single points.

    Delegates to :func:`build_gram` on 1-row matrices so scalar and matrix
    evaluation share one code path bit for bit.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    x_prime = np.atleast_1d(np.asarray(x_prime, dtype=float))
    if x.shape != x_prime.shape:
        raise ValueError(f"point dimensions differ: {x.shape} vs {x_prime.shape}")
    return float(build_gram(spec, x.reshape(1, -1), x_prime.reshape(1, -1))[0, 0])


def build_gram(spec: Kernel, X, X_prime=None) -> np.ndarray:
    """Covariance matrix K[i, j] = k(X[i], X_prime[j]).

    With ``X_prime`` omitted, the (symmetric) training Gram matrix is
    returned.  ``X`` may be a :class:`SquaredDiffStack` of the inputs, for
    the square matrix.  Entries are finite by construction for valid
    hyperparameters and finite inputs.

    A block of squared distances is either the stack's cached block weighted
    by w = 1/scale^2, one BLAS product, or the squared differences of the
    scaled inputs summed in dimension order.  The latter gives each entry
    the same sum in the same order whichever block it falls in, so ``X2``
    passed as a copy of ``X`` gives the same bits as ``X``; the former is
    within 1e-13 relative of it.  In the square case the entries left of a
    block's diagonal mirror blocks already built, since (a - b)^2 ==
    (b - a)^2 exactly.  A 1-D stack's rows come whole instead: its distinct
    values are weighted and mapped once, with the bits each entry would get
    on its own, and one gather fills every covered row; the remaining
    blocks mirror those rows.
    """
    stack = None
    if isinstance(X, SquaredDiffStack):
        if X_prime is not None:
            raise ValueError("a difference stack gives only the square Gram matrix")
        stack, X = X, X.inputs
        X2 = X
    else:
        X = _as_matrix(X)
        X2 = X if X_prime is None else _as_matrix(X_prime)
        if X.shape[1] != X2.shape[1]:
            raise ValueError(f"input dimensions differ: {X.shape[1]} vs {X2.shape[1]}")
    (n, d), m = X.shape, X2.shape[0]
    spec.check_input_dim(d)
    ell = spec.sqdist_scale
    cached = 0 if stack is None else stack.rows
    if cached:
        w = np.empty(d)
        w[...] = 1.0 / np.square(ell)
    if cached < n:  # some rows afresh
        Z = np.ascontiguousarray((X / ell).T)
        Z2 = Z if X2 is X else np.ascontiguousarray((X2 / ell).T)
    K = np.empty((n, m))
    # rows 0..done are complete; the map of a 1-D stack's values is scanned
    # in their place
    done, finite = 0, True
    if cached and stack.index is not None:  # each distinct squared lag mapped once
        mapped = np.matmul(w, stack.values)
        spec.sqdist_map(mapped)
        finite = np.isfinite(mapped).all()
        done = cached
        np.take(mapped, stack.index, out=K[:done], mode="clip")  # unbuffered; indices in range
    # one buffer for every fresh block: the first is the largest
    work = np.empty((d + 1) * min(n - done, _block_rows(d, m)) * m)
    for i, (start, stop, first) in enumerate(_row_blocks(d, n, m, X2 is X)):
        if stop <= done:
            continue
        out = K[start:stop, first:]
        block = work[: out.size].reshape(out.shape)
        if stop <= cached:
            np.matmul(w, stack.blocks[i][2], out=work[: out.size])
        else:
            # the d terms follow the block; at d = 1 the one term is the block
            diffs = work[out.size * (d > 1) :][: d * out.size].reshape((d,) + out.shape)
            np.subtract(Z[:, start:stop, None], Z2[:, None, first:], out=diffs)
            np.square(diffs, out=diffs)
            if d > 1 and out.size > 1:  # in dimension order
                np.add.reduce(diffs, axis=0, out=block)
            elif d > 1:  # numpy sums a reduction to one entry pairwise
                block[...] = np.add.accumulate(diffs, axis=0)[-1]
        spec.sqdist_map(block)
        out[...] = block
        if first:
            K[start:stop, :first] = K[:first, start:stop].T
    if not (finite and np.isfinite(K[done:]).all()):
        raise ValueError("kernel evaluation produced non-finite entries")
    return K
