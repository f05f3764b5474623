"""Noise-tolerant regularized quasi-Newton solver and its line-search baseline.

``solve`` runs every variant the benchmark compares. The variants share all
of the machinery, and the table ``VARIANTS`` maps each variant name to the
:class:`Variant` record of what sets it apart:

- ``slack``: the run's ``eps_f`` reaches the error-relaxed Armijo test.
  Without it the test is the plain Armijo one, and the config refuses a
  nonzero ``eps_f``;
- ``mu_rule``: ``"gated"`` keeps the shift ``mu`` at zero while the
  objective gate holds and follows the gradient-energy rule otherwise, and
  a first trial taken at ``mu > 0`` may be rescaled once; ``"off"`` keeps
  ``mu = 0`` everywhere, so no step is rescaled. A run with neither a slack
  nor a shift is the classical comparator, a conventional line-search
  L-BFGS in the same cost accounting;
- ``modified_secant``: the gradient difference is corrected by function
  values before it is damped and screened;
- ``fresh_fk``: the objective is evaluated again at each iterate after the
  first, rather than taken from the line search (see below).

In every variant the direction is the shifted two-loop one, and the damped,
screened curvature pair is fed back into memory. The line-search constants
are module constants of :mod:`qnbench.linesearch`, and the regularizer's are
class constants of ``RegularizerState``; ``SolverConfig`` holds and
validates the per-run settings.

Oracle calls are the benchmark currency, so the loop is frugal with them.
The line search hands back a finished step: the accepted point, the trial
value observed there, reused as ``f_bar(x_{k+1})`` unless the variant
has ``fresh_fk``, and the gradient there, which is the next one. So outside
the search the loop calls the oracle only at ``x_0`` and for a ``fresh_fk``
variant's re-evaluation. A search that rescales its step discards the
gradient probe it took at the first trial.

Each iteration appends one row to the run's open columns: a scalar per
stored :class:`IterationRecord` field, in ``array('d')`` for a float field
and ``array('q')`` for an int one. The record's fields define the columns
(and the trace CSV), so a new field is one dataclass line plus its value in
the row ``solve`` appends. When the run ends, the columns become its
:class:`Trace`, which compacts each one once: a column whose bytes are all
zero (only ``0``, or only ``+0.0``) keeps just its length, an int column
goes into the narrowest of 1, 2, 4 and 8 bytes that holds its values, and
a float column keeps 8 bytes per iteration. A row takes at most 72 bytes;
on the benchmark's noisy desk runs it averages 40, because the line-search
baseline never stores its zero ``mu`` and ``delta``. Records are built only
when the trace is read. A trace crosses a process boundary as one flat
buffer per stored column and one small object per zero-width column.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, fields
from typing import get_type_hints

import numpy as np

from .lbfgs import LbfgsMemory, modified_secant, powell_damp, screen_pair
from .linesearch import backtrack
from .noise import NoiseModel, NoisyOracle, OracleError
from .problems import ObjectiveProblem
from .regularizer import RegularizerState

Array = np.ndarray


@dataclass(frozen=True)
class Variant:
    """What a variant name selects (see the module docstring)."""

    slack: bool
    mu_rule: str  # "gated" or "off"
    modified_secant: bool
    fresh_fk: bool


VARIANTS = {
    "ours": Variant(slack=True, mu_rule="gated", modified_secant=False, fresh_fk=False),
    "ours_ms": Variant(slack=True, mu_rule="gated", modified_secant=True, fresh_fk=False),
    "ours_fresh": Variant(slack=True, mu_rule="gated", modified_secant=False, fresh_fk=True),
    "baseline_line": Variant(slack=False, mu_rule="off", modified_secant=False, fresh_fk=False),
    "baseline_line_ms": Variant(slack=False, mu_rule="off", modified_secant=True, fresh_fk=False),
    "baseline_line_fresh": Variant(slack=False, mu_rule="off", modified_secant=False, fresh_fk=True),
}


@dataclass(frozen=True)
class SolverConfig:
    """Per-run settings, validated when built. ``k_max`` is a run's only budget.

    ``memory_size`` and ``k_max`` are ints, and ``eps_gtol`` and ``eps_f``
    ints or floats, stored as ``float``; a ``bool`` counts as none of them.
    ``eps_f`` is the error rate of the relaxed Armijo test's slack, which
    only a variant with ``slack`` has: any other variant refuses a nonzero
    one. Everything else about a run's algorithm is its ``variant``'s row.
    """

    memory_size: int = 10
    k_max: int = 15000
    eps_gtol: float = 1e-5
    eps_f: float = 0.0
    variant: str = "ours"

    def __post_init__(self):
        # A bool is an int, but True would run as 1.
        for name in ("memory_size", "k_max"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValueError(f"{name} must be a positive int, got {value!r}")
        for name in ("eps_gtol", "eps_f"):
            value = getattr(self, name)
            if not isinstance(value, (int, float, np.floating)) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int or float, got {value!r}")
            # A numpy float would carry its own width into the arithmetic; and
            # -0.0 + 0.0 is 0.0, so that equal settings make one run.
            try:
                object.__setattr__(self, name, float(value) + 0.0)
            except OverflowError:
                raise ValueError(f"{name} must fit in a float, got {value!r}") from None
        # Negated comparisons, so that NaN fails every float check.
        if not self.eps_gtol >= 0.0:
            raise ValueError(f"eps_gtol must be >= 0, got {self.eps_gtol!r}")
        if not 0.0 <= self.eps_f < 1.0:
            raise ValueError(f"eps_f must lie in [0, 1), got {self.eps_f!r}")
        if not isinstance(self.variant, str) or self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {tuple(VARIANTS)}, got {self.variant!r}")
        if self.eps_f != 0.0 and not VARIANTS[self.variant].slack:
            slack = tuple(name for name, v in VARIANTS.items() if v.slack)
            raise ValueError(f"eps_f is the slack of the variants {slack}, got {self.eps_f!r} for {self.variant}")


@dataclass
class IterationRecord:
    k: int
    f_bar: float
    g_inf: float
    g_two: float
    mu: float  # 0.0 exactly on a K0 iteration, and on every mu_rule="off" row
    alpha: float
    delta: float
    rejections: int
    f_calls: int  # oracle totals at the end of the iteration
    g_calls: int


# The stored trace columns: every IterationRecord field after the position
# ``k``, which is the first.
_COLUMNS = tuple(f.name for f in fields(IterationRecord))[1:]
_HINTS = get_type_hints(IterationRecord)
# The typecode of each open column, which ``solve`` appends to.
_TYPECODES = tuple({int: "q", float: "d"}[_HINTS[name]] for name in _COLUMNS)


class _Zeros:
    """A trace column whose every byte was zero: its zero and its length.

    Reads give back the zero, ``0`` for an int column and ``0.0`` (``+0.0``)
    for a float one, at any index: the trace resolves every index before it
    reads, and never iterates a column, which here would not stop.
    """

    __slots__ = ("_zero", "_n")

    def __init__(self, zero, n: int):
        self._zero = zero
        self._n = n

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, k: int):
        return self._zero


def _compact(column: array):
    """The stored form of an open column.

    A column whose bytes are all zero keeps only its length (``-0.0`` and
    NaN have nonzero bytes, so they are stored); an int column goes into the
    narrowest of ``'B'``, ``'H'``, ``'I'`` and ``'q'`` that holds all its
    values; a float column is kept as it is.
    """
    if column.tobytes().count(0) == len(column) * column.itemsize:
        return _Zeros(array(column.typecode, [0])[0], len(column))
    if column.typecode == "q":
        for code in "BHI":
            try:
                return array(code, column)
            except OverflowError:
                pass
    return column


class Trace(Sequence):
    """The iterations of one run, stored column-wise.

    A read-only sequence of :class:`IterationRecord`: each record is built
    when it is read. It is built once, when the run ends, from one open
    column per stored field (``array('d')`` for a float, ``array('q')`` for
    an int), all of one length. A column whose bytes are all zero (only
    ``+0.0``, or only ``0``) keeps just its length; an int column is copied
    into the narrowest of ``'B'``, ``'H'``, ``'I'`` and ``'q'`` that holds
    it; so a row takes 0 to 72 bytes. ``k`` is the position, so it is not
    stored. A trace equals any sequence of equal records, in order.
    """

    __slots__ = ("_columns",)

    def __init__(self, columns):
        if len(columns) != len(_TYPECODES) or len({len(c) for c in columns}) != 1:
            raise ValueError(f"a trace takes {len(_TYPECODES)} columns of one length")
        self._columns = [_compact(column) for column in columns]

    def _record(self, k: int) -> IterationRecord:
        return IterationRecord(k, *[column[k] for column in self._columns])

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, index):
        rows = range(len(self))[index]
        if isinstance(rows, range):
            return [self._record(k) for k in rows]
        return self._record(rows)

    def __iter__(self):
        for k in range(len(self)):
            yield self._record(k)

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


@dataclass
class SolveResult:
    """Outcome of one :func:`solve` run, which sets every field.

    ``status`` is ``converged``, ``max_iters`` or ``oracle_error``: the
    oracle refused a point, or a finite gradient's squared norm overflowed.
    An ``oracle_error`` result keeps the partial trace and call counts, and
    leaves ``final_f_bar``/``final_g_inf`` NaN. ``discarded_grad_probes``
    counts the searches that rescaled their step, and so left their rescale
    probe's gradient unused; a run that does not end in ``oracle_error`` has
    ``g_calls == 1 + iterations + discarded_grad_probes``.
    """

    status: str
    x_final: Array
    trace: Trace
    f_calls: int
    g_calls: int
    final_f_bar: float
    final_g_inf: float
    discarded_grad_probes: int

    @property
    def iterations(self) -> int:
        return len(self.trace)


def solve(problem: ObjectiveProblem, noise_model: NoiseModel, cfg: SolverConfig) -> SolveResult:
    """Run ``cfg.variant`` on ``problem`` under ``noise_model`` from ``problem.x0``.

    Stops when the gradient's infinity norm reaches ``cfg.eps_gtol``
    (``converged``), after ``cfg.k_max`` iterations (``max_iters``), or when
    the oracle refuses a point or a finite gradient's squared norm overflows
    (``oracle_error``, with the partial trace).
    """
    variant = VARIANTS[cfg.variant]
    gated = variant.mu_rule == "gated"
    use_ms = variant.modified_secant
    oracle = NoisyOracle(problem, noise_model)

    x = np.array(problem.x0, dtype=float)
    columns = [array(code) for code in _TYPECODES]
    discarded = 0
    status = "max_iters"

    try:
        g = oracle.grad_bar(x)
        f_bar = oracle.f_bar(x)
        memory = LbfgsMemory(cfg.memory_size)
        reg = RegularizerState() if gated else None

        for k in range(cfg.k_max):
            g_inf = float(np.abs(g).max())
            if g_inf <= cfg.eps_gtol:
                status = "converged"
                break
            if variant.fresh_fk and k > 0:
                f_bar = oracle.f_bar(x)

            gg = float(g.dot(g))
            if not math.isfinite(gg):
                # A finite gradient whose g'g overflows: no shift or step
                # can be formed from it.
                raise OracleError("squared gradient norm overflows")
            # A gated run keeps mu at zero while the objective gate holds.
            eligible = gated and reg.mu_zero_eligible(f_bar)
            mu = reg.mu_positive(gg) if gated and not eligible else 0.0

            d = memory.direction(g, mu)
            gtd = float(g.dot(d))
            if not gtd < 0.0:
                # Numerically degenerate (underflow-scale gradients, or a
                # NaN g'd); the screened memory otherwise guarantees descent.
                d = -g / (1.0 + mu)
                gtd = float(g.dot(d))

            res = backtrack(oracle, x, d, gtd, f_bar, mu=mu, eps_f=cfg.eps_f)
            if eligible:
                reg.register_k0(f_bar, res.delta)

            x_new, g_new = res.x_new, res.g_new
            # The rescale probe was taken at the first trial, which a
            # rescaled step leaves behind.
            discarded += res.rescaled

            s = x_new - x
            if float(s.dot(s)) > 0.0:
                y = g_new - g
                if use_ms:
                    y = modified_secant(y, s, f_bar, res.f_bar_new, g, g_new)
                y_bar = powell_damp(s, y, memory.shifted_gamma(0.0))
                pair = screen_pair(s, y_bar)
                if pair is not None:
                    memory.push(pair)

            row = (
                f_bar, g_inf, math.sqrt(gg), mu, res.alpha, res.delta,
                res.rejections, oracle.f_calls, oracle.g_calls,
            )
            for column, value in zip(columns, row):
                column.append(value)
            x, g, f_bar = x_new, g_new, res.f_bar_new
    except OracleError:
        status = "oracle_error"
        f_bar = g_inf = math.nan
    else:
        g_inf = float(np.abs(g).max())

    return SolveResult(
        status, x, Trace(columns), oracle.f_calls, oracle.g_calls,
        final_f_bar=f_bar, final_g_inf=g_inf, discarded_grad_probes=discarded,
    )
