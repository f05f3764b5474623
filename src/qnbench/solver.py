"""Noise-tolerant regularized quasi-Newton solver and its line-search baseline.

``solve`` runs every variant the benchmark compares. The variants share all
of the machinery and differ in two decisions, which the table ``VARIANTS``
maps from the variant name:

- *regularized* (``ours*``): per iteration the shift ``mu`` is zero while
  the objective gate holds and follows the gradient-energy rule otherwise,
  a step is accepted under the error-relaxed Armijo test, and a first trial
  taken at ``mu > 0`` may be rescaled once. Off (``baseline_line*``), the
  loop is the classical comparator: ``mu = 0`` everywhere and the plain
  Armijo test (zero slack), which is what it takes to represent a
  conventional line-search L-BFGS in the same cost accounting;
- *modified secant* (``*_ms``): the gradient difference is corrected by
  function values before it is damped and screened.

Either way the direction is the shifted two-loop one, and the damped,
screened curvature pair is fed back into memory. The line-search and
regularizer constants are those of ``LineSearchConfig()`` and
``RegularizerState()``, which own and validate them.

Oracle calls are the benchmark currency, so the loop is frugal with them:
the accepted trial value from iteration k is reused as ``f_bar(x_{k+1})``
(``fresh_fk`` forces a re-evaluation instead), and the gradient probe spent
by a step rescale is reused as the next gradient whenever it was taken at
the finally accepted point.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .lbfgs import LbfgsMemory, modified_secant, powell_damp, screen_pair
from .linesearch import LineSearchConfig, backtrack
from .noise import NoiseModel, NoisyOracle, OracleError
from .problems import ObjectiveProblem
from .regularizer import RegularizerState

Array = np.ndarray

# Variant name -> (regularized, modified secant).
VARIANTS = {
    "ours": (True, False),
    "ours_ms": (True, True),
    "baseline_line": (False, False),
    "baseline_line_ms": (False, True),
}


@dataclass(frozen=True)
class SolverConfig:
    memory_size: int = 10
    k_max: int = 15000
    eps_gtol: float = 1e-5
    eps_f: float = 0.0
    variant: str = "ours"
    time_budget: float = 600.0
    fresh_fk: bool = False

    def __post_init__(self):
        if self.k_max < 1:
            raise ValueError("k_max must be positive")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {tuple(VARIANTS)}, got {self.variant!r}")


@dataclass
class IterationRecord:
    k: int
    f_bar: float
    g_inf: float
    g_two: float
    mu: float
    alpha: float
    delta: float
    set_label: str  # "K0" when mu == 0, else "Kplus"
    rejections: int
    f_calls: int  # oracle totals at the end of the iteration
    g_calls: int


@dataclass
class SolveResult:
    status: str  # converged | max_iters | timeout | oracle_error
    x_final: Array
    trace: list[IterationRecord] = field(default_factory=list)
    f_calls: int = 0
    g_calls: int = 0
    final_f_bar: float = np.nan
    final_g_inf: float = np.nan
    discarded_grad_probes: int = 0

    @property
    def oracle_calls(self) -> int:
        return self.f_calls + self.g_calls

    @property
    def iterations(self) -> int:
        return len(self.trace)


def solve(problem: ObjectiveProblem, noise_model: NoiseModel, cfg: SolverConfig) -> SolveResult:
    """Run ``cfg.variant`` on ``problem`` under ``noise_model`` from ``problem.x0``.

    Stops when the gradient's infinity norm reaches ``cfg.eps_gtol``
    (``converged``), after ``cfg.k_max`` iterations (``max_iters``), past
    ``cfg.time_budget`` seconds (``timeout``), or when the oracle refuses a
    point (``oracle_error``, with the partial trace).
    """
    regularized, use_ms = VARIANTS[cfg.variant]
    oracle = NoisyOracle(problem, noise_model, eps_f=cfg.eps_f)
    ls_cfg = LineSearchConfig()
    # The baseline runs the classical Armijo test: no error slack at all.
    ls_eps_f = cfg.eps_f if regularized else 0.0

    x = np.array(problem.x0, dtype=float)
    trace: list[IterationRecord] = []
    discarded = 0
    status = "max_iters"
    t_start = time.perf_counter()

    try:
        g = oracle.grad_bar(x)
        f_bar = oracle.f_bar(x)
        memory = LbfgsMemory(cfg.memory_size)
        reg = RegularizerState() if regularized else None

        for k in range(cfg.k_max):
            g_inf = float(np.abs(g).max())
            if g_inf <= cfg.eps_gtol:
                status = "converged"
                break
            if time.perf_counter() - t_start > cfg.time_budget:
                status = "timeout"
                break
            if cfg.fresh_fk and k > 0:
                f_bar = oracle.f_bar(x)

            if regularized:
                eligible = reg.mu_zero_eligible(f_bar)
                mu = 0.0 if eligible else reg.mu_positive(g)
            else:
                eligible = False
                mu = 0.0

            d = memory.direction(g, mu)
            if float(g.dot(d)) >= 0.0:
                # Numerically degenerate (underflow-scale gradients); the
                # screened memory otherwise guarantees descent.
                d = -g / (1.0 + mu)

            res = backtrack(
                oracle, x, d, g, f_bar, ls_cfg, mu=mu,
                allow_rescale=regularized, eps_f=ls_eps_f,
            )
            if regularized and eligible:
                reg.register_k0(f_bar, res.delta)

            x_new = res.x_new
            if res.g_new is not None:
                g_new = res.g_new
            else:
                g_new = oracle.grad_bar(x_new)
                if res.took_grad_probe:
                    discarded += 1

            s = x_new - x
            if float(s.dot(s)) > 0.0:
                y = g_new - g
                if use_ms:
                    y = modified_secant(y, s, f_bar, res.f_bar_new, g, g_new)
                y_bar = powell_damp(s, y, memory.gamma)
                pair = screen_pair(s, y_bar)
                if pair is not None:
                    memory.push(pair)

            trace.append(
                IterationRecord(
                    k=k,
                    f_bar=f_bar,
                    g_inf=g_inf,
                    g_two=math.sqrt(float(g.dot(g))),
                    mu=mu,
                    alpha=res.alpha,
                    delta=res.delta,
                    set_label="K0" if mu == 0.0 else "Kplus",
                    rejections=res.rejections,
                    f_calls=oracle.f_calls,
                    g_calls=oracle.g_calls,
                )
            )
            x, g, f_bar = x_new, g_new, res.f_bar_new
        else:
            status = "max_iters"
    except OracleError:
        status = "oracle_error"
        return SolveResult(
            status, x, trace, oracle.f_calls, oracle.g_calls,
            discarded_grad_probes=discarded,
        )

    return SolveResult(
        status=status,
        x_final=x,
        trace=trace,
        f_calls=oracle.f_calls,
        g_calls=oracle.g_calls,
        final_f_bar=f_bar,
        final_g_inf=float(np.abs(g).max()),
        discarded_grad_probes=discarded,
    )
