"""Adaptive HMC with entropy-guided mass-matrix learning."""

__version__ = "0.1.0"

from .precond import Preconditioner, make_preconditioner, n_params
from .targets import TargetModel
from .integrator import Trajectory
from .sampler import run_experiment, SamplerSettings

__all__ = [
    "Preconditioner",
    "make_preconditioner",
    "n_params",
    "TargetModel",
    "Trajectory",
    "run_experiment",
    "SamplerSettings",
    "__version__",
]
