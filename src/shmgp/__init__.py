"""Physics-informed Gaussian process regression for structural monitoring.

Subpackages cover exact GP regression (:mod:`shmgp.gp`), physics-derived
kernels and means (:mod:`shmgp.physics`), dynamic GP-NARX models
(:mod:`shmgp.narx`), boundary-constrained reduced-rank GPs
(:mod:`shmgp.reduced_rank`), state-space latent force estimation
(:mod:`shmgp.statespace`), particle-swarm hyperparameter search
(:mod:`shmgp.pso`, :mod:`shmgp.tuning`) and the experiment harness
(:mod:`shmgp.experiments`, :mod:`shmgp.cli`).
"""

from .gp import Dataset, TrainedGp, fit_exact, predict
from .kernels import Matern12, Matern32, SquaredExponential, build_gram, kernel_eval
from .means import LinearMean, ZeroMean
from .metrics import nmse
from .physics import SdofKernel, morison_force, sdof_kernel_eval, spectral_density
from .pso import PsoConfig, pso_minimize

__all__ = [
    "Dataset",
    "TrainedGp",
    "fit_exact",
    "predict",
    "SquaredExponential",
    "Matern12",
    "Matern32",
    "kernel_eval",
    "build_gram",
    "ZeroMean",
    "LinearMean",
    "SdofKernel",
    "sdof_kernel_eval",
    "morison_force",
    "spectral_density",
    "PsoConfig",
    "pso_minimize",
    "nmse",
]

__version__ = "0.1.0"
