"""Built-in smooth unconstrained test problems with analytic gradients.

Each problem fixes its conventional starting point ``x0``, whose length is
its dimension, and the dimension is baked into the registered name
(``rosenbrock_n2``, ``broyden_tridiag_n100``, ...) so result tables stay
self-describing. The collection spans convex quadratics (well and ill
conditioned), Rosenbrock-type valleys, and separable/chained nonconvex
functions.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

Array = np.ndarray


_FLOAT64 = np.dtype(np.float64)


class LastValueMemo:
    """One-entry memo of a pure objective, keyed on the exact bytes of ``x``.

    Only native 1-D float64 arrays take part: the key is ``x.tobytes()``, so
    in-place mutation of the last argument is a miss, and an array of another
    dtype or shape that happens to share the bytes bypasses the memo. The
    state is a single ``(key, value)`` tuple, read and replaced whole, so a
    concurrent caller at worst misses; it never pairs a key with another
    key's value.
    """

    __slots__ = ("__wrapped__", "last")

    def __init__(self, fn: Callable[[Array], float]):
        self.__wrapped__ = fn
        self.last = (None, None)

    def __call__(self, x: Array) -> float:
        if type(x) is not np.ndarray or x.dtype is not _FLOAT64 or x.ndim != 1:
            return self.__wrapped__(x)
        key = x.tobytes()
        last = self.last
        if last[0] == key:
            return last[1]
        value = self.__wrapped__(x)
        self.last = (key, value)
        return value


@dataclass(frozen=True)
class ObjectiveProblem:
    """A smooth unconstrained minimization problem with an exact gradient.

    ``f`` and ``grad`` accept a 1-D float64 array of the length of ``x0``,
    which sets the dimension. ``grad`` must be the analytic gradient of
    ``f`` (verified against central finite differences in the test suite).
    ``f_star`` is the known infimum when available; it is used only for
    sanity checks, never by solvers.

    ``f`` must be a pure function of ``x``: construction wraps it in a
    :class:`LastValueMemo`, which returns the previous value when called
    again with a bitwise-equal 1-D float64 array. A stalled line search
    probes the same point many times, and this makes each repeat cost a
    byte comparison instead of an evaluation.
    """

    name: str
    f: Callable[[Array], float]
    grad: Callable[[Array], Array]
    x0: Array
    f_star: Optional[float] = None

    def __post_init__(self):
        # dataclasses.replace re-runs this on an already wrapped ``f``.
        if not isinstance(self.f, LastValueMemo):
            object.__setattr__(self, "f", LastValueMemo(self.f))
        if self.x0.ndim != 1 or self.x0.size < 1:
            raise ValueError(f"x0 must be a nonempty 1-D array, got shape {self.x0.shape}")
        if not (np.isfinite(self.f(self.x0)) and np.all(np.isfinite(self.grad(self.x0)))):
            raise ValueError(f"{self.name}: f or grad not finite at x0")


def make_sphere(n: int) -> ObjectiveProblem:
    """f(x) = 0.5 ||x||^2."""

    def f(x):
        return 0.5 * float(x.dot(x))

    def grad(x):
        return np.array(x, dtype=float)

    return ObjectiveProblem(f"sphere_n{n}", f, grad, np.ones(n), 0.0)


def _diagonal_quadratic(name: str, w: Array) -> ObjectiveProblem:
    """f(x) = 0.5 * sum_i w_i * x_i^2 from x0 = 1; minimum 0 at the origin."""

    def f(x):
        return 0.5 * float(w.dot(x * x))

    def grad(x):
        return w * x

    return ObjectiveProblem(name, f, grad, np.ones(w.size), 0.0)


def make_illcond_quadratic(n: int) -> ObjectiveProblem:
    """f(x) = 0.5 * sum_i i * x_i^2, condition number n."""
    return _diagonal_quadratic(f"illcond_quadratic_n{n}", np.arange(1, n + 1, dtype=float))


def make_logspaced_quadratic(n: int) -> ObjectiveProblem:
    """Diagonal quadratic with eigenvalues log-spaced over [1, 1e4]."""
    return _diagonal_quadratic(f"logspaced_quadratic_n{n}", np.logspace(0.0, 4.0, n))


def make_chained_rosenbrock(n: int) -> ObjectiveProblem:
    """sum_{i<n} 100 (x_{i+1} - x_i^2)^2 + (1 - x_i)^2."""

    def f(x):
        return float(np.add.reduce(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))

    def grad(x):
        g = np.zeros_like(x)
        t = x[1:] - x[:-1] ** 2
        g[:-1] = -400.0 * x[:-1] * t - 2.0 * (1.0 - x[:-1])
        g[1:] += 200.0 * t
        return g

    x0 = np.empty(n)
    x0[0::2] = -1.2
    x0[1::2] = 1.0
    return ObjectiveProblem(f"chained_rosenbrock_n{n}", f, grad, x0, 0.0)


def make_ext_rosenbrock(n: int) -> ObjectiveProblem:
    """Pairwise-separable Rosenbrock valleys; n must be even."""
    if n % 2 != 0:
        raise ValueError("ext_rosenbrock needs even n")

    def f(x):
        a, b = x[0::2], x[1::2]
        return float(np.add.reduce(100.0 * (b - a**2) ** 2 + (1.0 - a) ** 2))

    def grad(x):
        g = np.zeros_like(x)
        a, b = x[0::2], x[1::2]
        t = b - a**2
        g[0::2] = -400.0 * a * t - 2.0 * (1.0 - a)
        g[1::2] = 200.0 * t
        return g

    x0 = np.empty(n)
    x0[0::2] = -1.2
    x0[1::2] = 1.0
    return ObjectiveProblem(f"ext_rosenbrock_n{n}", f, grad, x0, 0.0)


def make_beale() -> ObjectiveProblem:
    """Beale's two-dimensional valley; minimum 0 at (3, 0.5)."""
    coeff = np.array([1.5, 2.25, 2.625])
    powers = np.array([1.0, 2.0, 3.0])

    def f(x):
        x1, x2 = x
        r = coeff - x1 * (1.0 - x2**powers)
        return float(r.dot(r))

    def grad(x):
        x1, x2 = x
        p = x2**powers
        r = coeff - x1 * (1.0 - p)
        dr1 = -(1.0 - p)
        dr2 = x1 * powers * x2 ** (powers - 1.0)
        return np.array([2.0 * r.dot(dr1), 2.0 * r.dot(dr2)])

    return ObjectiveProblem("beale_n2", f, grad, np.array([1.0, 1.0]), 0.0)


def make_wood() -> ObjectiveProblem:
    """Wood's four-dimensional function; minimum 0 at the all-ones point."""

    def f(x):
        x1, x2, x3, x4 = x
        return float(
            100.0 * (x2 - x1**2) ** 2
            + (1.0 - x1) ** 2
            + 90.0 * (x4 - x3**2) ** 2
            + (1.0 - x3) ** 2
            + 10.1 * ((x2 - 1.0) ** 2 + (x4 - 1.0) ** 2)
            + 19.8 * (x2 - 1.0) * (x4 - 1.0)
        )

    def grad(x):
        x1, x2, x3, x4 = x
        return np.array(
            [
                -400.0 * x1 * (x2 - x1**2) - 2.0 * (1.0 - x1),
                200.0 * (x2 - x1**2) + 20.2 * (x2 - 1.0) + 19.8 * (x4 - 1.0),
                -360.0 * x3 * (x4 - x3**2) - 2.0 * (1.0 - x3),
                180.0 * (x4 - x3**2) + 20.2 * (x4 - 1.0) + 19.8 * (x2 - 1.0),
            ]
        )

    return ObjectiveProblem("wood_n4", f, grad, np.array([-3.0, -1.0, -3.0, -1.0]), 0.0)


def make_ext_powell(n: int) -> ObjectiveProblem:
    """Extended Powell singular function; n must be a multiple of 4."""
    if n % 4 != 0:
        raise ValueError("ext_powell needs n divisible by 4")

    def f(x):
        a, b, c, d = x[0::4], x[1::4], x[2::4], x[3::4]
        return float(
            np.add.reduce((a + 10.0 * b) ** 2 + 5.0 * (c - d) ** 2 + (b - 2.0 * c) ** 4 + 10.0 * (a - d) ** 4)
        )

    def grad(x):
        g = np.zeros_like(x)
        a, b, c, d = x[0::4], x[1::4], x[2::4], x[3::4]
        t1 = a + 10.0 * b
        t2 = c - d
        t3 = (b - 2.0 * c) ** 3
        t4 = (a - d) ** 3
        g[0::4] = 2.0 * t1 + 40.0 * t4
        g[1::4] = 20.0 * t1 + 4.0 * t3
        g[2::4] = 10.0 * t2 - 8.0 * t3
        g[3::4] = -10.0 * t2 - 40.0 * t4
        return g

    x0 = np.tile(np.array([3.0, -1.0, 0.0, 1.0]), n // 4)
    return ObjectiveProblem(f"ext_powell_n{n}", f, grad, x0, 0.0)


def make_dixon_price(n: int) -> ObjectiveProblem:
    """(x_1 - 1)^2 + sum_{i>=2} i (2 x_i^2 - x_{i-1})^2."""
    idx = np.arange(2, n + 1, dtype=float)

    def f(x):
        t = 2.0 * x[1:] ** 2 - x[:-1]
        return float((x[0] - 1.0) ** 2 + np.add.reduce(idx * t**2))

    def grad(x):
        t = 2.0 * x[1:] ** 2 - x[:-1]
        g = np.zeros_like(x)
        g[0] = 2.0 * (x[0] - 1.0)
        g[1:] += 8.0 * idx * t * x[1:]
        g[:-1] -= 2.0 * idx * t
        return g

    return ObjectiveProblem(f"dixon_price_n{n}", f, grad, np.ones(n), 0.0)


def make_trigonometric(n: int) -> ObjectiveProblem:
    """Sum of squared trigonometric residuals; minimum 0 at the origin."""
    idx = np.arange(1, n + 1, dtype=float)

    def residuals(x):
        c = np.cos(x)
        return n - np.add.reduce(c) + idx * (1.0 - c) - np.sin(x)

    def f(x):
        r = residuals(x)
        return float(r.dot(r))

    def grad(x):
        r = residuals(x)
        s = np.sin(x)
        return 2.0 * s * np.add.reduce(r) + 2.0 * r * (idx * s - np.cos(x))

    return ObjectiveProblem(f"trigonometric_n{n}", f, grad, np.full(n, 1.0 / n), 0.0)


def make_broyden_tridiagonal(n: int) -> ObjectiveProblem:
    """Squared residuals of the Broyden tridiagonal system."""

    def residuals(x):
        r = (3.0 - 2.0 * x) * x + 1.0
        r[1:] -= x[:-1]
        r[:-1] -= 2.0 * x[1:]
        return r

    def f(x):
        r = residuals(x)
        return float(r.dot(r))

    def grad(x):
        r = residuals(x)
        g = 2.0 * r * (3.0 - 4.0 * x)
        g[:-1] -= 2.0 * r[1:]
        g[1:] -= 4.0 * r[:-1]
        return g

    return ObjectiveProblem(f"broyden_tridiag_n{n}", f, grad, np.full(n, -1.0), 0.0)


def make_penalty1(n: int) -> ObjectiveProblem:
    """Penalty function with a soft norm constraint; flat near the solution."""
    a = 1e-5

    def f(x):
        return float(a * np.add.reduce((x - 1.0) ** 2) + (x.dot(x) - 0.25) ** 2)

    def grad(x):
        return 2.0 * a * (x - 1.0) + 4.0 * (float(x.dot(x)) - 0.25) * x

    return ObjectiveProblem(f"penalty1_n{n}", f, grad, np.arange(1, n + 1, dtype=float))


def make_quartic(n: int) -> ObjectiveProblem:
    """f(x) = 0.25 * sum_i i * x_i^4; singular Hessian at the solution."""
    w = np.arange(1, n + 1, dtype=float)

    def f(x):
        return 0.25 * float(w.dot(x**4))

    def grad(x):
        return w * x**3

    return ObjectiveProblem(f"quartic_n{n}", f, grad, np.ones(n), 0.0)


# One constructor per registered name, in the order ``registry()`` lists
# them. Nothing is built until a name is asked for.
_CONSTRUCTORS: dict[str, Callable[[], ObjectiveProblem]] = {
    "sphere_n2": lambda: make_sphere(2),
    "sphere_n10": lambda: make_sphere(10),
    "sphere_n100": lambda: make_sphere(100),
    "sphere_n1000": lambda: make_sphere(1000),
    "illcond_quadratic_n10": lambda: make_illcond_quadratic(10),
    "illcond_quadratic_n100": lambda: make_illcond_quadratic(100),
    "illcond_quadratic_n1000": lambda: make_illcond_quadratic(1000),
    "illcond_quadratic_n10000": lambda: make_illcond_quadratic(10000),
    "logspaced_quadratic_n10": lambda: make_logspaced_quadratic(10),
    "logspaced_quadratic_n100": lambda: make_logspaced_quadratic(100),
    "rosenbrock_n2": lambda: dataclasses.replace(make_chained_rosenbrock(2), name="rosenbrock_n2"),
    "chained_rosenbrock_n10": lambda: make_chained_rosenbrock(10),
    "chained_rosenbrock_n100": lambda: make_chained_rosenbrock(100),
    "ext_rosenbrock_n10": lambda: make_ext_rosenbrock(10),
    "ext_rosenbrock_n100": lambda: make_ext_rosenbrock(100),
    "beale_n2": make_beale,
    "wood_n4": make_wood,
    "ext_powell_n20": lambda: make_ext_powell(20),
    "ext_powell_n100": lambda: make_ext_powell(100),
    "dixon_price_n10": lambda: make_dixon_price(10),
    "dixon_price_n100": lambda: make_dixon_price(100),
    "trigonometric_n10": lambda: make_trigonometric(10),
    "trigonometric_n100": lambda: make_trigonometric(100),
    "broyden_tridiag_n10": lambda: make_broyden_tridiagonal(10),
    "broyden_tridiag_n100": lambda: make_broyden_tridiagonal(100),
    "broyden_tridiag_n1000": lambda: make_broyden_tridiagonal(1000),
    "penalty1_n10": lambda: make_penalty1(10),
    "penalty1_n100": lambda: make_penalty1(100),
    "quartic_n10": lambda: make_quartic(10),
    "quartic_n100": lambda: make_quartic(100),
}
_BUILT: dict[str, ObjectiveProblem] = {}


def registry() -> list[ObjectiveProblem]:
    """All built-in problems, in a stable order; builds every one not yet
    built."""
    return [get_problem(name) for name in _CONSTRUCTORS]


def get_problem(name: str) -> ObjectiveProblem:
    """The built-in problem ``name``.

    It is built, and so checked at ``x0``, when a call first names it, and
    every later call returns the same object. An unknown name raises
    ``KeyError``; a constructor whose problem has another name raises
    ``ValueError``.
    """
    # An unhashable name is refused by name, not by the lookup's TypeError.
    if not isinstance(name, str) or name not in _CONSTRUCTORS:
        raise KeyError(f"unknown problem {name!r}")
    problem = _BUILT.get(name)
    if problem is None:
        problem = _CONSTRUCTORS[name]()
        if problem.name != name:
            raise ValueError(f"the constructor registered as {name!r} builds {problem.name!r}")
        # Two threads may build one name at once; both keep the first stored.
        problem = _BUILT.setdefault(name, problem)
    return problem


# 15 small problems (n <= 100) used for desk-scale benchmark runs.
DESK_SUITE = (
    "sphere_n10",
    "sphere_n100",
    "illcond_quadratic_n10",
    "illcond_quadratic_n100",
    "logspaced_quadratic_n10",
    "rosenbrock_n2",
    "chained_rosenbrock_n10",
    "ext_rosenbrock_n10",
    "beale_n2",
    "wood_n4",
    "ext_powell_n20",
    "dixon_price_n10",
    "trigonometric_n10",
    "broyden_tridiag_n10",
    "quartic_n10",
)


def suite_names(spec: str) -> list[str]:
    """Resolve a suite spec: ``desk``, ``all``, or a comma-separated list of
    names, returned as given (``run_matrix`` refuses unknown ones)."""
    if spec == "desk":
        return list(DESK_SUITE)
    if spec == "all":
        return list(_CONSTRUCTORS)
    return [s.strip() for s in spec.split(",") if s.strip()]
