"""Particle-swarm minimisation over a box.

Used for hyperparameter optimisation of every model family in the toolkit:
the objective is a negative log (marginal) likelihood and the box encodes
physically plausible parameter ranges, by name: parameter -> positive
natural-unit (lower, upper) pair or list of pairs, searched in log10 space
(:func:`override_box`, :func:`log10_box`) and read back by name
(:func:`decoder`).  Global-best PSO with inertia and velocity clamping;
non-finite objective values are treated as +inf so unstable
hyperparameter combinations are simply avoided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .blas import flush_subnormals
from .errors import NumericalError
from .registry import Count, read_fields


@dataclass(frozen=True)
class PsoConfig:
    """Swarm settings and per-parameter box bounds.

    ``bounds`` is a sequence of (lower, upper) pairs, one per parameter.
    The same seed always reproduces the same trace.
    """

    bounds: tuple
    particles: Count = 30
    iterations: Count = 200
    inertia: float = 0.72
    cognitive: float = 1.49
    social: float = 1.49
    seed: int = 0

    def __post_init__(self):
        b = np.asarray(self.bounds, dtype=float)
        if b.ndim != 2 or b.shape[1] != 2 or b.shape[0] < 1:
            raise ValueError("bounds must be a non-empty sequence of (lower, upper) pairs")
        if not np.all(b[:, 0] < b[:, 1]):
            raise ValueError("each lower bound must be strictly below its upper bound")
        read_fields(self)
        object.__setattr__(self, "bounds", tuple(map(tuple, b)))


def override_box(box: dict, bounds, names=None) -> dict:
    """``box`` with the entries of ``bounds`` put in by name.  Each must name a
    parameter out of ``names`` (by default the box's own), pass
    :func:`log10_box` and have the shape of the entry it replaces, or of one
    pair where there is none; otherwise ValueError."""
    bounds = {**(bounds or {})}
    unknown = set(bounds) - set(box if names is None else names)
    if unknown:
        raise ValueError(f"bounds names {sorted(unknown)} that this model does not tune; "
                         f"expected some of {sorted(box if names is None else names)}")
    log10_box(bounds)
    for name, value in bounds.items():
        shape = np.shape(box.get(name, (0.0, 1.0)))
        if np.shape(value) != shape:
            raise ValueError(f"bounds.{name} takes an array of shape {shape}; got {value!r}")
    return {**box, **bounds}


def log10_box(box: dict) -> tuple:
    """The log10 rows of ``box``, parameter name -> (lower, upper) pair or list
    of pairs, in key order with a list's pairs in turn.  A row that is not
    0 < lower < upper < inf raises ValueError naming ``bounds.<name>``."""
    rows = []
    for name, value in box.items():
        try:
            pairs = np.asarray(value, dtype=float)
        except (TypeError, ValueError):
            pairs = np.empty(0)
        if pairs.ndim not in (1, 2) or pairs.shape[-1] != 2 or not np.all(
                (0.0 < pairs[..., 0]) & (pairs[..., 0] < pairs[..., 1])
                & (pairs[..., 1] < np.inf)):
            raise ValueError(f"bounds.{name} takes finite (lower, upper) pairs with "
                             f"0 < lower < upper; got {value!r}")
        rows.append(pairs.reshape(-1, 2))
    return tuple(map(tuple, np.log10(np.concatenate(rows)))) if rows else ()


def decoder(box: dict) -> Callable[[np.ndarray], dict]:
    """The reader of swarm positions over ``box``'s :func:`log10_box` rows:
    it takes 10 ** the whole position and returns the natural-unit values by
    name, a numpy float for a pair and an array for a list of pairs.  The
    box's layout is read here, once, not at each position."""
    layout, row = {}, 0
    for name, value in box.items():
        layout[name] = slice(row, row + len(value)) if np.ndim(value) == 2 else row
        row += len(value) if np.ndim(value) == 2 else 1

    def decode(position: np.ndarray) -> dict:
        values = 10.0**position
        return {name: values[at] for name, at in layout.items()}

    return decode


class PsoResult(NamedTuple):
    best_params: np.ndarray
    best_value: float
    trace: np.ndarray  # global-best objective value after each iteration


def pso_minimize(objective: Callable[[np.ndarray], float], cfg: PsoConfig) -> PsoResult:
    """Minimise ``objective`` over the configured box.

    The trace of global-best values is nonincreasing by construction, every
    evaluated position lies inside the box (positions are clamped after each
    velocity step), and runs are deterministic for a fixed seed.  Raises
    NumericalError when no evaluation is finite.  The swarm runs under
    :func:`~shmgp.blas.flush_subnormals`, so Gram entries and products below
    2.2e-308 cost no microcode assists; only its objective values are
    computed that way, not the model a caller refits from its answer.
    """
    with flush_subnormals():
        rng = np.random.default_rng(cfg.seed)
        bounds = np.asarray(cfg.bounds)
        lo, hi = bounds[:, 0], bounds[:, 1]
        width = hi - lo
        vmax = 0.5 * width  # keeps particles from thrashing against the box

        pos = lo + width * rng.random((cfg.particles, len(lo)))
        vel = vmax * (2.0 * rng.random((cfg.particles, len(lo))) - 1.0)

        values = np.array([_safe_eval(objective, p) for p in pos])
        pbest_pos = pos.copy()
        pbest_val = values.copy()
        g = int(np.argmin(pbest_val))
        gbest_pos, gbest_val = pbest_pos[g].copy(), float(pbest_val[g])

        trace = np.empty(cfg.iterations)
        for it in range(cfg.iterations):
            r1 = rng.random((cfg.particles, len(lo)))
            r2 = rng.random((cfg.particles, len(lo)))
            vel = (
                cfg.inertia * vel
                + cfg.cognitive * r1 * (pbest_pos - pos)
                + cfg.social * r2 * (gbest_pos - pos)
            )
            np.clip(vel, -vmax, vmax, out=vel)
            pos = np.clip(pos + vel, lo, hi)

            values = np.array([_safe_eval(objective, p) for p in pos])
            improved = values < pbest_val
            pbest_pos[improved] = pos[improved]
            pbest_val[improved] = values[improved]
            g = int(np.argmin(pbest_val))  # particle-index-ordered, deterministic
            if pbest_val[g] < gbest_val:
                gbest_val = float(pbest_val[g])
                gbest_pos = pbest_pos[g].copy()
            trace[it] = gbest_val

        if not np.isfinite(gbest_val):
            raise NumericalError("no objective evaluation of the swarm was finite")
        return PsoResult(best_params=gbest_pos, best_value=gbest_val, trace=trace)


def _safe_eval(objective, params) -> float:
    value = objective(np.asarray(params, dtype=float))
    value = float(value)
    return value if math.isfinite(value) else math.inf
