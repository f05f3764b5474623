"""Adaptive regularization bookkeeping.

Iterations split into two regimes. While the observed objective keeps
clearing the best previously recorded level (value minus its error slack),
the shift ``mu`` stays at zero and the full quasi-Newton step is trusted.
Once that gate fails, ``mu`` switches to a gradient-energy rule in the
AdaGrad-Norm family: accumulate squared gradient norms, take the square
root, and clip ``||g||/10`` into ``[G/100, G]``. Function values never
enter the positive-``mu`` rule, which is what makes it noise-proof.

A large observed drop (more than 1.0 below the gate) restarts the energy
accumulator so that stale gradient history cannot keep ``mu`` inflated; the
gate itself is never reset, keeping eligibility monotone.

The rule's constants (``varsigma``, ``theta_min``, ``theta_max``) are class
constants of :class:`RegularizerState`, beside :data:`RESTART_DROP`; only the
running state is per instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

RESTART_DROP = 1.0


@dataclass
class RegularizerState:
    """Mutable per-solver state; single writer."""

    varsigma: ClassVar[float] = 1e-10
    theta_min: ClassVar[float] = 1e-2
    theta_max: ClassVar[float] = 1.0
    best_level: float = field(default=math.inf)  # min over gate entries of f_bar - delta
    g_energy: float = 0.0
    restarts: int = 0

    def mu_zero_eligible(self, f_bar_k: float) -> bool:
        """True when the current value clears the gate (always at the start)."""
        return self.best_level >= f_bar_k

    def register_k0(self, f_bar_k: float, delta_k: float) -> None:
        """Record an accepted zero-``mu`` iteration.

        Lowers the gate to ``min(gate, f_bar_k - delta_k)`` and, when the
        drop below the previous (finite) gate exceeds ``RESTART_DROP``,
        clears the gradient-energy accumulator.
        """
        if math.isfinite(self.best_level) and self.best_level - f_bar_k > RESTART_DROP:
            self.g_energy = 0.0
            self.restarts += 1
        self.best_level = min(self.best_level, f_bar_k - delta_k)

    def mu_positive(self, gg: float) -> float:
        """Shift for an iteration that failed the gate, from ``gg = ||g_k||^2``.

        Adds ``gg`` to the accumulator first, so the resulting
        ``G = sqrt(varsigma + energy)`` always dominates ``||g_k||`` and the
        effective factor ``mu / G`` stays inside [theta_min, theta_max].
        A NaN ``gg`` is refused; an overflowed ``gg = inf`` gives ``mu = inf``.
        """
        if math.isnan(gg):
            raise ValueError("NaN squared gradient norm in regularizer update")
        self.g_energy += gg
        big_g = math.sqrt(self.varsigma + self.g_energy)
        raw = math.sqrt(gg) / 10.0
        return min(max(raw, self.theta_min * big_g), self.theta_max * big_g)
