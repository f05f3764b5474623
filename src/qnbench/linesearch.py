"""Backtracking line search with an error-absorbing acceptance test.

The acceptance test is the Armijo condition relaxed by a slack term that
upper-bounds what bounded evaluation errors can do to an observed decrease:

    f_bar(x) + c * alpha * g'd + delta >= f_bar(x + alpha d),
    delta = (2 eps_f / (1 - eps_f)) * max(1, f_bar(x), -f_bar(x + alpha d)).

With ``eps_f = 0`` this is exactly the classical Armijo test. ``delta`` is
recomputed at every trial because it depends on the trial value itself; it
deliberately ignores large *positive* trial values so it cannot grow without
bound. Rejected steps are shrunk by quadratic interpolation clipped to
``[beta_min * alpha, beta_max * alpha]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

Array = np.ndarray


@dataclass(frozen=True)
class LineSearchConfig:
    c: float = 1e-4
    beta_min: float = 1.0 / 16.0
    beta_max: float = 15.0 / 16.0
    max_rejections: int = 100

    def __post_init__(self):
        if not 0.0 < self.c < 1.0:
            raise ValueError("c must lie in (0, 1)")
        if not 0.0 < self.beta_min < self.beta_max < 1.0:
            raise ValueError("need 0 < beta_min < beta_max < 1")
        if self.max_rejections < 1:
            raise ValueError("max_rejections must be positive")


@dataclass
class LineSearchResult:
    """Outcome of one search.

    ``x_new`` is the accepted trial point, the very array the objective was
    probed at: bitwise ``x + alpha * d``, and ``x`` itself when the search
    ended on an absorbed trial.
    """

    alpha: float
    delta: float
    f_bar_new: float
    x_new: Array
    rejections: int  # objective probes beyond the first (keeps call accounting exact)
    rescaled: bool = False
    exhausted: bool = False
    # Gradient at the accepted point when the rescale probe could be reused;
    # took_grad_probe records that a probe was spent either way.
    g_new: Optional[Array] = None
    took_grad_probe: bool = False


def _check_eps_f(eps_f: float) -> None:
    if not 0.0 <= eps_f < 1.0:
        raise ValueError("eps_f must lie in [0, 1)")


def secant_rescale(d: Array, g: Array, g_try: Array, cfg: LineSearchConfig) -> float:
    """One-time rescale of the unit first step from the directional-derivative
    sign change.

    Applies only when the directional derivative flips sign between the
    current point and the trial ``x + d`` and the trial gradient is strictly
    aligned with ``d`` (d'g_try > 0.5 ||d|| ||g_try||); otherwise ``1.0`` is
    returned unchanged. The secant factor ``-d'g / (d'g_try - d'g)`` is
    clipped to the backtracking window ``[beta_min, beta_max]``.
    """
    dg = float(d.dot(g))
    dgt = float(d.dot(g_try))
    if not (dg < 0.0 and dgt > 0.0):
        return 1.0
    if not dgt > 0.5 * math.sqrt(float(d.dot(d))) * math.sqrt(float(g_try.dot(g_try))):
        return 1.0
    cand = -dg / (dgt - dg)
    return min(max(cand, cfg.beta_min), cfg.beta_max)


def backtrack(
    oracle,
    x: Array,
    d: Array,
    g: Array,
    f_bar_x: float,
    cfg: LineSearchConfig,
    mu: float = 0.0,
    *,
    eps_f: float,
) -> LineSearchResult:
    """Find a step along descent direction ``d`` passing the relaxed test.

    ``eps_f`` is the error rate of the slack ``delta``; ``0`` gives the
    classical Armijo test. Starts at ``alpha = 1`` and shrinks by clipped
    interpolation on each rejection. If rejections exceed
    ``cfg.max_rejections`` the smallest trial is accepted anyway with
    ``exhausted`` set: the relaxed test holds for small enough steps, so
    running out indicates a broken error model rather than a recoverable
    state.

    The trial point is absorbing: ``alpha`` strictly decreases after a
    rejection, and rounding is monotone, so once ``x + alpha * d`` equals
    ``x`` bitwise every later trial does too. From then on ``x`` itself is
    probed without recomputing the trial; each probe still makes exactly
    one ``f_bar`` call, so call counts and noise draws are unchanged.

    When ``mu > 0`` and the very first trial is accepted (so the search did
    not run out), one gradient probe at the trial point may rescale the step
    by a secant factor; the rescaled step is re-tested and the pre-rescale
    acceptance is restored if it fails. The rescale follows ``mu`` alone: a
    caller that keeps ``mu = 0`` never pays for the probe. The probe
    gradient is handed back via ``g_new`` whenever it was taken at the
    finally accepted point, which is returned as ``x_new``.
    """
    _check_eps_f(eps_f)
    f_bar = oracle.f_bar
    isfinite = math.isfinite
    c, beta_min, beta_max, max_rejections = cfg.c, cfg.beta_min, cfg.beta_max, cfg.max_rejections
    # delta = slack * max(1, f_bar_x, -f_trial), in the order of the
    # three-argument max.
    slack = 2.0 * eps_f / (1.0 - eps_f)
    scale_floor = max(1.0, f_bar_x)
    gtd = float(g.dot(d))
    alpha = 1.0
    trial = x + alpha * d
    x_bytes = None
    probes = 0
    exhausted = False
    while True:
        f_trial = f_bar(trial)
        probes += 1
        delta = slack * max(scale_floor, -f_trial)
        if f_bar_x + c * alpha * gtd + delta >= f_trial:
            break
        if probes - 1 >= max_rejections:
            exhausted = True
            break
        # Quadratic interpolation through (f_bar_x, gtd, f_trial), clipped to
        # [beta_min * alpha, beta_max * alpha]; degenerate or
        # negative-curvature fits fall back to alpha / 2.
        denom = 2.0 * (f_trial - f_bar_x - gtd * alpha)
        if denom > 0.0:
            cand = -gtd * alpha * alpha / denom
            if not isfinite(cand):
                cand = 0.5 * alpha
        else:
            cand = 0.5 * alpha
        lo = beta_min * alpha
        hi = beta_max * alpha
        if lo > cand:
            cand = lo
        if hi < cand:
            cand = hi
        alpha = cand
        if trial is not x:
            trial = x + alpha * d
            if x_bytes is None:
                x_bytes = x.tobytes()
            if trial.tobytes() == x_bytes:
                trial = x

    g_new = None
    took_probe = False
    rescaled = False
    if mu > 0.0 and probes == 1 and not exhausted:
        # The first trial is x + 1.0 * d, bitwise x + d.
        g_try = oracle.grad_bar(trial)
        took_probe = True
        alpha2 = secant_rescale(d, g, g_try, cfg)
        if alpha2 == 1.0:
            g_new = g_try
        else:
            trial2 = x + alpha2 * d
            f_trial2 = f_bar(trial2)
            probes += 1
            delta2 = slack * max(scale_floor, -f_trial2)
            if f_bar_x + c * alpha2 * gtd + delta2 >= f_trial2:
                alpha, f_trial, delta, trial = alpha2, f_trial2, delta2, trial2
                rescaled = True
            else:
                g_new = g_try

    return LineSearchResult(
        alpha=alpha,
        delta=delta,
        f_bar_new=f_trial,
        x_new=trial,
        rejections=probes - 1,
        rescaled=rescaled,
        exhausted=exhausted,
        g_new=g_new,
        took_grad_probe=took_probe,
    )
