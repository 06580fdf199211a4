"""Prior mean functions for GP regression.

A mean function maps an (n, d) input matrix to an n-vector of prior mean
values.  Nonzero means are handled by the fitting routines through residual
subtraction, so every mean here only needs to be evaluable.  The Morison
mean lives in :mod:`shmgp.physics`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .registry import Floats, Registered


class MeanFunction(Registered):
    """Interface: calling with an (n, d) matrix returns an n-vector.

    A mean form is one subclass declared with ``form="name"``; it owns its
    JSON form (its fields are the entries besides ``form``).
    """

    tag = "form"

    def __call__(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class ZeroMean(MeanFunction, form="zero"):
    """Identically-zero prior mean (the standard uninformed choice)."""

    def __call__(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.zeros(X.shape[0])


@dataclass(frozen=True)
class LinearMean(MeanFunction, form="linear"):
    """Affine prior mean m(x) = intercept + slope . x."""

    intercept: float
    slope: Floats

    def __call__(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.slope.shape[0]:
            raise ValueError(
                f"input dimension {X.shape[1]} does not match slope dimension {self.slope.shape[0]}"
            )
        return self.intercept + X @ self.slope
