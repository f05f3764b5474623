"""Noise-tolerant regularized quasi-Newton optimization with a benchmark harness.

The names here are what a user drives the library with: ``solve`` a
problem under a noise model with a ``SolverConfig``, or run a whole matrix
with ``run_matrix`` and compare solvers by ``performance_profile``. The
building blocks (memory, line search, regularizer, oracle) stay importable
from their modules.
"""

from .bench import (
    ProfileCurve,
    RunRecord,
    emit_csv,
    emit_svg,
    performance_profile,
    read_runs_csv,
    run_matrix,
)
from .noise import NoiseModel, OracleError, default_eps_f
from .problems import DESK_SUITE, ObjectiveProblem, get_problem, registry, suite_names
from .solver import IterationRecord, SolveResult, SolverConfig, solve

__all__ = [
    "DESK_SUITE",
    "IterationRecord",
    "NoiseModel",
    "ObjectiveProblem",
    "OracleError",
    "ProfileCurve",
    "RunRecord",
    "SolveResult",
    "SolverConfig",
    "default_eps_f",
    "emit_csv",
    "emit_svg",
    "get_problem",
    "performance_profile",
    "read_runs_csv",
    "registry",
    "run_matrix",
    "solve",
    "suite_names",
]

__version__ = "0.1.0"
