"""Reference form of the backtracking line search, for tests only.

:func:`backtrack` is the search as it was written before its probe loop was
inlined: the slack and the clipped interpolation are separate functions
called once per probe. ``qnbench.linesearch.backtrack`` must reproduce it bit
for bit: the same float operations in the same order, the same result
fields and the same oracle calls.

- :func:`compute_delta` is the error-absorbing slack of one acceptance test;
- :func:`_interpolate` is the clipped quadratic-interpolation shrink.
"""

from __future__ import annotations

import math

import numpy as np

from qnbench.linesearch import ARMIJO_C, BETA_MAX, BETA_MIN, MAX_REJECTIONS, LineSearchResult, secant_rescale

Array = np.ndarray


def _check_eps_f(eps_f: float) -> None:
    if not 0.0 <= eps_f < 1.0:
        raise ValueError("eps_f must lie in [0, 1)")


def _delta(eps_f: float, f_bar_x: float, f_bar_trial: float) -> float:
    return (2.0 * eps_f / (1.0 - eps_f)) * max(1.0, f_bar_x, -f_bar_trial)


def compute_delta(eps_f: float, f_bar_x: float, f_bar_trial: float) -> float:
    """Error-absorbing slack for one acceptance test."""
    _check_eps_f(eps_f)
    return _delta(eps_f, f_bar_x, f_bar_trial)


def _interpolate(alpha: float, f0: float, gtd: float, f_trial: float) -> float:
    """Minimizer of the quadratic fit through (f0, gtd, f_trial), clipped.

    Degenerate or negative-curvature fits fall back to alpha/2, which always
    lies inside the clip interval.
    """
    denom = 2.0 * (f_trial - f0 - gtd * alpha)
    if denom > 0.0:
        cand = -gtd * alpha * alpha / denom
    else:
        cand = 0.5 * alpha
    if not math.isfinite(cand):
        cand = 0.5 * alpha
    return min(max(cand, BETA_MIN * alpha), BETA_MAX * alpha)


def backtrack(
    oracle,
    x: Array,
    d: Array,
    gtd: float,
    f_bar_x: float,
    mu: float = 0.0,
    *,
    eps_f: float,
) -> LineSearchResult:
    """Find a step along descent direction ``d`` passing the relaxed test.

    ``gtd`` is the directional derivative ``g'd`` at ``x``, and ``eps_f``
    is the error rate of the slack ``delta``; ``0`` gives the classical
    Armijo test. Starts at ``alpha = 1`` and shrinks by clipped
    interpolation on each rejection. If rejections exceed
    ``MAX_REJECTIONS`` the smallest trial is accepted anyway with
    ``exhausted`` set: the relaxed test holds for small enough steps, so
    running out indicates a broken error model rather than a recoverable
    state.

    The trial point is absorbing: ``alpha`` strictly decreases after a
    rejection, and rounding is monotone, so once ``x + alpha * d`` equals
    ``x`` bitwise every later trial does too. From then on ``x`` itself is
    probed without recomputing the trial; each probe still makes exactly
    one ``f_bar`` call, so call counts and noise draws are unchanged.

    When ``mu > 0`` and the very first trial is accepted, one gradient
    probe at the trial point may rescale the step by a secant factor; the
    rescaled step is re-tested and the pre-rescale acceptance is restored if
    it fails. The search ends with the gradient at the accepted point
    ``x_new``, returned as ``g_new``: the probe when it was taken there, and
    otherwise one ``grad_bar`` call at ``x_new``.
    """
    _check_eps_f(eps_f)
    f_bar = oracle.f_bar
    c = ARMIJO_C
    alpha = 1.0
    trial = x + alpha * d
    x_bytes = None
    probes = 0
    exhausted = False
    while True:
        f_trial = f_bar(trial)
        probes += 1
        delta = _delta(eps_f, f_bar_x, f_trial)
        if f_bar_x + c * alpha * gtd + delta >= f_trial:
            break
        if probes - 1 >= MAX_REJECTIONS:
            exhausted = True
            break
        alpha = _interpolate(alpha, f_bar_x, gtd, f_trial)
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
        alpha2 = secant_rescale(d, gtd, g_try)
        if alpha2 == 1.0:
            g_new = g_try
        else:
            trial2 = x + alpha2 * d
            f_trial2 = f_bar(trial2)
            probes += 1
            delta2 = _delta(eps_f, f_bar_x, f_trial2)
            if f_bar_x + c * alpha2 * gtd + delta2 >= f_trial2:
                alpha, f_trial, delta, trial = alpha2, f_trial2, delta2, trial2
                rescaled = True
            else:
                g_new = g_try
    if g_new is None:
        g_new = oracle.grad_bar(trial)

    return LineSearchResult(
        alpha=alpha,
        delta=delta,
        f_bar_new=f_trial,
        x_new=trial,
        g_new=g_new,
        rejections=probes - 1,
        rescaled=rescaled,
        exhausted=exhausted,
        took_grad_probe=took_probe,
    )
