"""Limited-memory BFGS state built from damped, screened curvature pairs.

The Hessian approximation is never formed: directions come from the
standard two-loop recursion. A regularization shift ``mu`` is folded into
the recursion by replacing each stored difference vector ``y`` with
``y + mu * s``, which turns the recursion into an (approximate) solve with
the shifted matrix. :meth:`LbfgsMemory.materialize` builds the same shifted
matrix densely by textbook rank-two updates and exists purely as a test
oracle for the recursion.

Positive definiteness is enforced without Wolfe conditions: raw gradient
differences are first damped toward ``gamma * s`` (Powell's rule with the
scalar surrogate ``gamma * I``) and then screened against two curvature
bounds before being admitted to memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Array = np.ndarray

# Powell damping constant: admitted pairs satisfy y's >= SIGMA_DAMP*gamma*||s||^2.
SIGMA_DAMP = 0.2

# Curvature screen defaults. Permissive in production; tests tighten them to
# make the spectral bounds of `bfgs_spectral_bounds` numerically meaningful.
SCREEN_MIN_CURV = 1e-10
SCREEN_MAX_CURV = 1e10


@dataclass
class CurvaturePair:
    """One admitted pair with cached inner products."""

    s: Array
    y_bar: Array
    sy: float  # y_bar' s
    yy: float  # ||y_bar||^2
    ss: float  # ||s||^2

    @classmethod
    def from_vectors(cls, s: Array, y_bar: Array) -> "CurvaturePair":
        s = np.asarray(s, dtype=float)
        y_bar = np.asarray(y_bar, dtype=float)
        return cls(s, y_bar, float(y_bar @ s), float(y_bar @ y_bar), float(s @ s))


def powell_damp(s: Array, y: Array, gamma: float) -> Array:
    """Damp ``y`` toward ``gamma * s`` so the pair has safely positive curvature.

    Returns ``theta * y + (1 - theta) * gamma * s`` with ``theta = 1`` when
    ``s'y >= SIGMA_DAMP * gamma * ||s||^2`` already holds, and otherwise the
    Powell choice that makes the damped inner product land exactly on that
    threshold. Requires ``s != 0`` and ``gamma > 0``.
    """
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    ss = float(s @ s)
    if ss == 0.0:
        raise ValueError("cannot damp a zero step")
    if not gamma > 0.0:
        raise ValueError("gamma must be positive")
    sy = float(s @ y)
    floor = SIGMA_DAMP * gamma * ss
    if sy >= floor:
        return y
    theta = (1.0 - SIGMA_DAMP) * gamma * ss / (gamma * ss - sy)
    return theta * y + (1.0 - theta) * gamma * s


def screen_pair(
    s: Array,
    y_bar: Array,
    min_curv: float = SCREEN_MIN_CURV,
    max_curv: float = SCREEN_MAX_CURV,
) -> bool:
    """Accept a pair only if both curvature bounds hold.

    The admitted region is ``y's >= min_curv * ||s||^2`` and
    ``y's >= ||y||^2 / max_curv`` with everything finite and ``s != 0``;
    pairs inside it keep the resulting BFGS matrix uniformly bounded.
    """
    s = np.asarray(s, dtype=float)
    y_bar = np.asarray(y_bar, dtype=float)
    if not (np.isfinite(s).all() and np.isfinite(y_bar).all()):
        return False
    ss = float(s @ s)
    if ss == 0.0:
        return False
    sy = float(y_bar @ s)
    yy = float(y_bar @ y_bar)
    # Underflow guard: a subnormal sy passes both inequalities with zeros on
    # both sides, then 1/sy overflows inside the recursion.
    if not (sy > 0.0 and np.isfinite(1.0 / sy)):
        return False
    return sy >= min_curv * ss and sy >= yy / max_curv


def modified_secant(y: Array, s: Array, f_k: float, f_k1: float, g_k: Array, g_k1: Array) -> Array:
    """Function-value-corrected gradient difference (Zhang-type adjustment).

    Shifts ``y`` along ``s`` by ``theta / ||s||^2`` with
    ``theta = 2 (f_k - f_k1) + (g_k + g_k1)' s``, which vanishes identically
    on quadratics. The adjustment is skipped when ``|theta| > 0.1 |y's|``
    (function values too unreliable) or when it would destroy positive
    curvature.
    """
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    ss = float(s @ s)
    if ss == 0.0:
        raise ValueError("modified secant needs s != 0")
    theta = 2.0 * (f_k - f_k1) + float((g_k + g_k1) @ s)
    if abs(theta) > 0.1 * abs(float(y @ s)):
        return y
    y_tilde = y + (theta / ss) * s
    if float(y_tilde @ s) <= 0.0:
        return y
    return y_tilde


class LbfgsMemory:
    """Ring buffer of admitted curvature pairs plus the initial scaling.

    ``gamma`` is always ``||y||^2 / y's`` of the *oldest* stored pair (1.0
    when empty); the same rule applied to the shifted pair seeds the
    regularized recursion.
    """

    def __init__(self, capacity: int = 10):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._pairs: list[CurvaturePair] = []

    def __len__(self) -> int:
        return len(self._pairs)

    @property
    def pairs(self) -> list[CurvaturePair]:
        return list(self._pairs)

    @property
    def gamma(self) -> float:
        if not self._pairs:
            return 1.0
        oldest = self._pairs[0]
        return oldest.yy / oldest.sy

    def shifted_gamma(self, mu: float) -> float:
        """Scaling from the oldest pair after the ``y + mu*s`` shift."""
        if not self._pairs:
            return 1.0 + mu
        p = self._pairs[0]
        return (p.yy + 2.0 * mu * p.sy + mu * mu * p.ss) / (p.sy + mu * p.ss)

    def push(self, pair: CurvaturePair) -> None:
        """Append an (already screened) pair, evicting the oldest when full."""
        self._pairs.append(pair)
        if len(self._pairs) > self.capacity:
            self._pairs.pop(0)

    def clear(self) -> None:
        self._pairs.clear()

    def direction(self, g: Array, mu: float = 0.0) -> Array:
        """Quasi-Newton direction ``-inv(B_mu) g`` by the two-loop recursion.

        ``B_mu`` is the BFGS matrix built from the mu-shifted pairs starting
        at ``shifted_gamma(mu) * I``; with empty memory this degrades to
        ``-g / (1 + mu)``. Each shifted vector ``y + mu*s`` and its
        ``1 / (s'y + mu*||s||^2)`` is formed once per call, from the cached
        ``sy`` and ``ss``, and serves both loops. At ``mu == 0`` the stored
        ``y_bar`` and ``sy`` are used as they are.
        """
        if mu < 0.0:
            raise ValueError("mu must be nonnegative")
        g = np.asarray(g, dtype=float)
        pairs = self._pairs
        if not pairs:
            return -g / (1.0 + mu)
        if mu == 0.0:
            ys = [p.y_bar for p in pairs]
            sys_mu = [p.sy for p in pairs]
        else:
            ys = [p.y_bar + mu * p.s for p in pairs]
            sys_mu = [p.sy + mu * p.ss for p in pairs]
        rhos = []
        for sy_mu in sys_mu:
            if sy_mu <= 0.0:
                raise ValueError("shifted pair lost positive curvature")
            rhos.append(1.0 / sy_mu)
        q = g.copy()
        alphas = [0.0] * len(pairs)
        for i in range(len(pairs) - 1, -1, -1):
            alpha = rhos[i] * float(pairs[i].s @ q)
            alphas[i] = alpha
            q -= alpha * ys[i]
        r = q / self.shifted_gamma(mu)
        for i in range(len(pairs)):
            beta = rhos[i] * float(ys[i] @ r)
            r += (alphas[i] - beta) * pairs[i].s
        return -r

    def materialize(self, mu: float, n: int) -> Array:
        """Dense shifted BFGS matrix, built by rank-two updates (tests only).

        Limited to ``n <= 50``; ``direction(g, mu)`` must agree with
        ``-inv(materialize(mu, n)) @ g``.
        """
        if n > 50:
            raise ValueError("materialize is a test oracle, n <= 50 only")
        if not self._pairs:
            return (1.0 + mu) * np.eye(n)
        b = self.shifted_gamma(mu) * np.eye(n)
        for p in self._pairs:
            y_mu = p.y_bar + mu * p.s
            sy_mu = p.sy + mu * p.ss
            bs = b @ p.s
            sbs = float(p.s @ bs)
            if sbs <= 0.0 or sy_mu <= 0.0:
                raise ValueError("BFGS update would divide by a nonpositive curvature")
            b = b - np.outer(bs, bs) / sbs + np.outer(y_mu, y_mu) / sy_mu
        return b


def bfgs_spectral_bounds(num_pairs: int, min_curv: float, max_curv: float) -> tuple[float, float]:
    """Eigenvalue envelope [m, M] of a BFGS matrix from screened pairs.

    Any matrix built from ``num_pairs`` pairs inside the screen region has
    eigenvalues within these bounds; they shrink/grow geometrically with the
    pair count and the screen condition number.
    """
    kappa = max_curv / min_curv
    big = (1.0 + num_pairs) * max_curv
    small = 1.0 / (
        (1.0 + np.sqrt(kappa)) ** (2 * num_pairs)
        * (1.0 / min_curv + 1.0 / (min_curv * (2.0 * np.sqrt(kappa) + kappa)))
    )
    return small, big
