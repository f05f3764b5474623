"""Noise-tolerant regularized quasi-Newton optimization with a benchmark harness."""

from .bench import (
    ProfileCurve,
    RunRecord,
    aggregate_seeds,
    emit_csv,
    emit_svg,
    performance_profile,
    read_runs_csv,
    run_matrix,
)
from .lbfgs import CurvaturePair, LbfgsMemory, modified_secant, powell_damp, screen_pair
from .linesearch import LineSearchConfig, LineSearchResult, backtrack, compute_delta, secant_rescale
from .noise import NoiseModel, NoisyOracle, OracleError, default_eps_f
from .problems import (
    DESK_SUITE,
    ObjectiveProblem,
    finite_diff_gradient,
    get_problem,
    registry,
    suite_names,
)
from .regularizer import RegularizerState
from .solver import (
    IterationRecord,
    SolveResult,
    SolverConfig,
    minimize,
    minimize_baseline,
    solve,
)

__all__ = [
    "CurvaturePair",
    "DESK_SUITE",
    "IterationRecord",
    "LbfgsMemory",
    "LineSearchConfig",
    "LineSearchResult",
    "NoiseModel",
    "NoisyOracle",
    "ObjectiveProblem",
    "OracleError",
    "ProfileCurve",
    "RegularizerState",
    "RunRecord",
    "SolveResult",
    "SolverConfig",
    "aggregate_seeds",
    "backtrack",
    "compute_delta",
    "default_eps_f",
    "emit_csv",
    "emit_svg",
    "finite_diff_gradient",
    "get_problem",
    "minimize",
    "minimize_baseline",
    "modified_secant",
    "performance_profile",
    "powell_damp",
    "read_runs_csv",
    "registry",
    "run_matrix",
    "screen_pair",
    "secant_rescale",
    "solve",
    "suite_names",
]

__version__ = "0.1.0"
