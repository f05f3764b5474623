"""Central-difference gradients, for tests only: the oracle that checks
every problem's analytic ``grad``."""

from __future__ import annotations

import numpy as np

from qnbench.problems import ObjectiveProblem

Array = np.ndarray


def finite_diff_gradient(problem: ObjectiveProblem, x: Array, h: float = 1e-6) -> Array:
    """Central-difference gradient, used as a test oracle for ``grad``."""
    if h <= 0:
        raise ValueError("h must be positive")
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        fp = problem.f(x + e)
        fm = problem.f(x - e)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError(f"non-finite objective value probing coordinate {i}")
        g[i] = (fp - fm) / (2.0 * h)
    return g
