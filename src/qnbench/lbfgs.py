"""Limited-memory BFGS state built from damped, screened curvature pairs.

The Hessian approximation is never formed: directions come from the
standard two-loop recursion (Nocedal, Math. Comp. 35, 1980). A
regularization shift ``mu`` is folded into the recursion by replacing each
stored difference vector ``y`` with ``y + mu * s``, which turns the
recursion into an (approximate) solve with the shifted matrix.

Positive definiteness is enforced without Wolfe conditions: raw gradient
differences are first damped toward ``gamma * s`` (Powell's rule with the
scalar surrogate ``gamma * I``) and then screened against two curvature
bounds, the module constants :data:`SCREEN_MIN_CURV` and
:data:`SCREEN_MAX_CURV`, before being admitted to memory. :func:`screen_pair`
hands back the admitted pair with the inner products it computed, so each is
computed once.

Storage. :class:`LbfgsMemory` keeps the pairs as rows of two preallocated
``(capacity, n)`` arrays ``S`` and ``Y`` used as a ring: a slot list orders
the rows oldest to newest, and per-slot ``s'y``, ``||y||^2`` and ``||s||^2``
scalars sit beside them. At ``mu > 0`` the shifted rows ``Y + mu * S`` are
formed once per call into one more ``(capacity, n)`` buffer, allocated on
the first such call.

Bit identity. :meth:`LbfgsMemory.direction` performs the textbook
recursion over per-pair vectors operation for operation, in the same order:
each inner product is one BLAS ``ddot`` over two contiguous float64 vectors
(``a.dot(b)`` and ``a @ b`` reach the same routine), and each elementwise
operation rounds the same whether it runs on one row or on all rows at
once, or writes into a buffer instead of a new array. So the direction is
bitwise the one the list-of-pairs form computes; the tests keep that form
as the reference. The 1-D inner products here, in the line search, the
solver, the regularizer and the problems use ``a.dot(b)`` for the same
reason: it returns the bits ``a @ b`` does, with about half the call
overhead at n <= 100.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Array = np.ndarray

# Powell damping constant: admitted pairs satisfy y's >= SIGMA_DAMP*gamma*||s||^2.
SIGMA_DAMP = 0.2

# Curvature screen bounds, read by screen_pair at each call. They are loose
# enough that only degenerate pairs fail; a test that checks the BFGS spectral
# bounds patches tighter ones in.
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


def powell_damp(s: Array, y: Array, gamma: float) -> Array:
    """Damp ``y`` toward ``gamma * s`` so the pair has safely positive curvature.

    Returns ``theta * y + (1 - theta) * gamma * s`` with ``theta = 1`` when
    ``s'y >= SIGMA_DAMP * gamma * ||s||^2`` already holds, and otherwise the
    Powell choice that makes the damped inner product land exactly on that
    threshold. Requires ``s != 0`` and ``gamma > 0``.
    """
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    ss = float(s.dot(s))
    if ss == 0.0:
        raise ValueError("cannot damp a zero step")
    if not gamma > 0.0:
        raise ValueError("gamma must be positive")
    sy = float(s.dot(y))
    floor = SIGMA_DAMP * gamma * ss
    if sy >= floor:
        return y
    theta = (1.0 - SIGMA_DAMP) * gamma * ss / (gamma * ss - sy)
    return theta * y + (1.0 - theta) * gamma * s


def screen_pair(s: Array, y_bar: Array) -> CurvaturePair | None:
    """Return the admitted pair if both curvature bounds hold, else ``None``.

    The admitted region is ``y's >= SCREEN_MIN_CURV * ||s||^2`` and
    ``y's >= ||y||^2 / SCREEN_MAX_CURV`` with ``s != 0`` and the entries and
    the three inner products finite; pairs inside it keep the resulting BFGS
    matrix uniformly bounded. The returned :class:`CurvaturePair` refers to
    ``s`` and ``y_bar`` as given and carries the ``sy``, ``yy`` and ``ss``
    computed here: ``y_bar.dot(s)``, ``y_bar.dot(y_bar)`` and ``s.dot(s)``.
    """
    s = np.asarray(s, dtype=float)
    y_bar = np.asarray(y_bar, dtype=float)
    ss = float(s.dot(s))
    yy = float(y_bar.dot(y_bar))
    # A finite sum of squares has finite terms only, so this also refuses
    # inf and nan entries. An overflowed product would pass both bounds
    # (inf >= inf) and turn gamma into inf / inf.
    if not (math.isfinite(ss) and math.isfinite(yy)) or ss == 0.0:
        return None
    sy = float(y_bar.dot(s))
    # Underflow guard: a subnormal sy passes both inequalities with zeros on
    # both sides, then 1/sy overflows inside the recursion.
    if not (math.isfinite(sy) and sy > 0.0 and math.isfinite(1.0 / sy)):
        return None
    if sy >= SCREEN_MIN_CURV * ss and sy >= yy / SCREEN_MAX_CURV:
        return CurvaturePair(s, y_bar, sy, yy, ss)
    return None


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
    ss = float(s.dot(s))
    if ss == 0.0:
        raise ValueError("modified secant needs s != 0")
    theta = 2.0 * (f_k - f_k1) + float((g_k + g_k1).dot(s))
    if abs(theta) > 0.1 * abs(float(y.dot(s))):
        return y
    y_tilde = y + (theta / ss) * s
    if float(y_tilde.dot(s)) <= 0.0:
        return y
    return y_tilde


class LbfgsMemory:
    """Ring buffer of admitted curvature pairs plus the initial scaling.

    Pairs live in rows of preallocated ``(capacity, n)`` arrays, allocated
    by the first :meth:`push`, which fixes ``n``; a pair of another length
    is refused. The pairs are read only through :meth:`direction`,
    :meth:`shifted_gamma` and ``len``. ``shifted_gamma(0.0)`` is
    ``||y||^2 / y's`` of the *oldest* stored pair (1.0 when empty), the
    scaling that Powell damping uses; the same rule applied to the shifted
    pair seeds the regularized recursion.
    """

    def __init__(self, capacity: int):
        if not isinstance(capacity, int) or isinstance(capacity, bool) or capacity < 1:
            raise ValueError(f"capacity must be a positive int, got {capacity!r}")
        self.capacity = capacity
        self._order: list[int] = []  # occupied slots, oldest first
        self._sy = [0.0] * capacity
        self._yy = [0.0] * capacity
        self._ss = [0.0] * capacity
        self._s = self._y = self._y_mu = self._tmp = None
        self._s_rows = self._y_rows = self._y_mu_rows = ()

    def __len__(self) -> int:
        return len(self._order)

    def shifted_gamma(self, mu: float) -> float:
        """Scaling from the oldest pair after the ``y + mu*s`` shift."""
        if not self._order:
            return 1.0 + mu
        i = self._order[0]
        sy, ss = self._sy[i], self._ss[i]
        return (self._yy[i] + 2.0 * mu * sy + mu * mu * ss) / (sy + mu * ss)

    def push(self, pair: CurvaturePair) -> None:
        """Copy an (already screened) pair into memory, evicting the oldest when full."""
        s = np.asarray(pair.s, dtype=float)
        y = np.asarray(pair.y_bar, dtype=float)
        if self._s is None:
            if s.ndim != 1 or y.shape != s.shape:
                raise ValueError(f"pair vectors must be 1-D of one length, got {s.shape} and {y.shape}")
            n = s.shape[0]
            self._s = np.empty((self.capacity, n))
            self._y = np.empty((self.capacity, n))
            self._tmp = np.empty(n)
            self._s_rows = tuple(self._s)
            self._y_rows = tuple(self._y)
        elif s.shape != self._tmp.shape or y.shape != s.shape:
            raise ValueError(f"pair of shape {s.shape}/{y.shape} pushed to a memory of length {self._tmp.size}")
        order = self._order
        slot = len(order) if len(order) < self.capacity else order.pop(0)
        order.append(slot)
        self._s[slot] = s
        self._y[slot] = y
        self._sy[slot] = pair.sy
        self._yy[slot] = pair.yy
        self._ss[slot] = pair.ss

    def direction(self, g: Array, mu: float = 0.0) -> Array:
        """Quasi-Newton direction ``-inv(B_mu) g`` by the two-loop recursion.

        ``B_mu`` is the BFGS matrix built from the mu-shifted pairs starting
        at ``shifted_gamma(mu) * I``; with empty memory this degrades to
        ``-g / (1 + mu)``. At ``mu > 0`` the rows ``y + mu*s`` are formed once
        per call by one multiply and one add over the occupied rows, and each
        ``1 / (s'y + mu*||s||^2)`` from the cached ``sy`` and ``ss``; both
        serve both loops. At ``mu == 0`` the stored rows and ``sy`` are used
        as they are. The result is bitwise that of the recursion over
        per-pair vectors (see the module docstring).
        """
        # Negated, so that a NaN shift is refused too.
        if not mu >= 0.0:
            raise ValueError("mu must be nonnegative")
        g = np.asarray(g, dtype=float)
        order = self._order
        if not order:
            return -g / (1.0 + mu)
        if mu == 0.0:
            y_rows = self._y_rows
            sys_mu = self._sy
        else:
            if self._y_mu is None:
                self._y_mu = np.empty_like(self._y)
                self._y_mu_rows = tuple(self._y_mu)
            # Slots fill in order, so the occupied rows are the first len(order).
            k = len(order)
            y_mu = self._y_mu[:k]
            np.multiply(self._s[:k], mu, y_mu)
            np.add(self._y[:k], y_mu, y_mu)
            y_rows = self._y_mu_rows
            sys_mu = [sy + mu * ss for sy, ss in zip(self._sy, self._ss)]
        rhos = [0.0] * self.capacity
        for i in order:
            if sys_mu[i] <= 0.0:
                raise ValueError("shifted pair lost positive curvature")
            rhos[i] = 1.0 / sys_mu[i]
        s_rows = self._s_rows
        # Ufuncs take their output positionally: the out= keyword costs more
        # than the arithmetic at n <= 100.
        multiply, add, subtract = np.multiply, np.add, np.subtract
        tmp = self._tmp
        q = g.copy()
        alphas = [0.0] * self.capacity
        for i in reversed(order):
            alpha = rhos[i] * float(s_rows[i].dot(q))
            alphas[i] = alpha
            multiply(y_rows[i], alpha, tmp)
            subtract(q, tmp, q)
        np.divide(q, self.shifted_gamma(mu), q)
        for i in order:
            beta = rhos[i] * float(y_rows[i].dot(q))
            multiply(s_rows[i], alphas[i] - beta, tmp)
            add(q, tmp, q)
        return np.negative(q, q)
