"""Noise-tolerant regularized quasi-Newton solver and its line-search baseline.

``solve`` runs every variant the benchmark compares. The variants share all
of the machinery and differ in two decisions, which the table ``VARIANTS``
maps from the variant name:

- *regularized* (``ours*``): per iteration the shift ``mu`` is zero while
  the objective gate holds and follows the gradient-energy rule otherwise,
  a step is accepted under the error-relaxed Armijo test, and a first trial
  taken at ``mu > 0`` may be rescaled once. Off (``baseline_line*``), the
  loop is the classical comparator: ``mu = 0`` everywhere (so no step is
  rescaled) and the plain Armijo test (zero slack), which is what it takes
  to represent a conventional line-search L-BFGS in the same cost
  accounting;
- *modified secant* (``*_ms``): the gradient difference is corrected by
  function values before it is damped and screened.

Either way the direction is the shifted two-loop one, and the damped,
screened curvature pair is fed back into memory. The line-search constants
are module constants of :mod:`qnbench.linesearch`, and the regularizer's are
class constants of ``RegularizerState``; ``SolverConfig`` holds and
validates the per-run settings.

Oracle calls are the benchmark currency, so the loop is frugal with them:
the accepted trial value from iteration k is reused as ``f_bar(x_{k+1})``
(``fresh_fk`` forces a re-evaluation instead), and the gradient probe spent
by a step rescale is reused as the next gradient whenever it was taken at
the finally accepted point.

Each iteration leaves one row in the run's :class:`Trace`: a scalar per
stored :class:`IterationRecord` field, appended to that field's typed
column. The record's fields define the columns (and the trace CSV), so a
new field is one dataclass line plus its value in the ``_append`` call.
Records are built only when the trace is read. Every column starts zero
bytes wide: while it has held only zeros (``0``, or ``+0.0``) it stores just
its length. Its first other value copies it into an array: a float column
then takes 8 bytes per iteration, and an int column 1, copied into the next
wider type (2, 4, then 8 bytes) when a value does not fit. A row takes at
most 72 bytes plus array headroom; on the benchmark's noisy desk runs it
averages 40, because the line-search baseline never stores its zero ``mu``
and ``delta``. A trace crosses a process boundary as one flat buffer per
stored column and one small object per zero-width column.
"""

from __future__ import annotations

import math
import operator
import time
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from typing import get_type_hints

import numpy as np

from .lbfgs import LbfgsMemory, modified_secant, powell_damp, screen_pair
from .linesearch import backtrack
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
    """Per-run settings, validated when built.

    ``time_budget`` (seconds) is checked between iterations only, so a run
    overruns it by up to one iteration, whose search may make all its
    ``linesearch.MAX_REJECTIONS + 1`` objective probes.
    """

    memory_size: int = 10
    k_max: int = 15000
    eps_gtol: float = 1e-5
    eps_f: float = 0.0
    variant: str = "ours"
    time_budget: float = 600.0
    fresh_fk: bool = False

    def __post_init__(self):
        # Negated comparisons, so that NaN fails every float check.
        if not isinstance(self.memory_size, int) or self.memory_size < 1:
            raise ValueError(f"memory_size must be a positive int, got {self.memory_size!r}")
        if not isinstance(self.k_max, int) or self.k_max < 1:
            raise ValueError(f"k_max must be a positive int, got {self.k_max!r}")
        if not self.eps_gtol >= 0.0:
            raise ValueError(f"eps_gtol must be >= 0, got {self.eps_gtol!r}")
        if not 0.0 <= self.eps_f < 1.0:
            raise ValueError(f"eps_f must lie in [0, 1), got {self.eps_f!r}")
        if not self.time_budget > 0.0:
            raise ValueError(f"time_budget must be > 0, got {self.time_budget!r}")
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


# The stored trace columns: every IterationRecord field but the position
# ``k`` (the first field) and ``set_label``, which follows from ``mu``.
_FIELDS = [f.name for f in fields(IterationRecord)]
_COLUMNS = tuple(name for name in _FIELDS if name not in ("k", "set_label"))
_HINTS = get_type_hints(IterationRecord)
_TYPECODES = tuple({int: "B", float: "d"}[_HINTS[name]] for name in _COLUMNS)
# An int column that a value overflows is copied into the next wider type.
_WIDER = {"B": "H", "H": "I", "I": "q"}
_MU = _COLUMNS.index("mu")
_LABEL_AT = _FIELDS.index("set_label") - 1  # among the fields after ``k``


# The types of the zeros a zero-width column takes, by the typecode of the
# array it is copied into; a ``bool`` flag stores ``False`` as ``0``.
_ZERO_TYPES = {"B": (int, bool), "d": (float,)}


class _Zeros:
    """A trace column that has held only zeros: just its length.

    It takes ``0`` (or ``False``) into an int column (``typecode`` ``'B'``)
    and ``+0.0`` into a float column (``'d'``), and raises ``OverflowError``
    on any other value, ``-0.0`` and NaN included, so that
    :meth:`Trace._widen` copies it into an ``array`` of ``typecode``.
    """

    __slots__ = ("typecode", "_zero", "_n")
    itemsize = 0

    def __init__(self, typecode: str):
        self.typecode = typecode
        self._zero = array(typecode, [0])[0]
        self._n = 0

    def append(self, value) -> None:
        if value.__class__ not in _ZERO_TYPES[self.typecode] or value != 0 or math.copysign(1.0, value) < 0.0:
            raise OverflowError("a zero-width column holds only zeros")
        self._n += 1

    def pop(self) -> None:
        self._n -= 1

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, k: int):
        if not -self._n <= k < self._n:
            raise IndexError("column index out of range")
        return self._zero


class Trace(Sequence):
    """The iterations of one run, stored column-wise.

    A read-only sequence of :class:`IterationRecord`: each record is built
    when it is read. Every stored field is one typed column holding one
    entry per iteration. It starts zero-width, a count of zeros, until its
    first other value (``-0.0`` and NaN included) copies it into
    ``array('d')`` for a float, and for an int into ``array('B')``, copied
    into ``'H'``, ``'I'`` and then ``'q'`` as values overflow it; so a row
    takes 0 to 72 bytes. A row that no column can hold raises and leaves
    the trace as it was. ``k`` is the position and ``set_label`` follows
    from ``mu``, so neither is stored. A trace equals any sequence of equal
    records, in order.
    """

    __slots__ = ("_columns",)

    def __init__(self):
        self._columns = [_Zeros(code) for code in _TYPECODES]

    def _append(self, *values) -> None:
        """Append one iteration: a value for each stored column, in field order."""
        columns = self._columns
        if len(values) != len(columns):
            raise TypeError(f"a trace row has {len(columns)} values, got {len(values)}")
        for i, value in enumerate(values):
            try:
                try:
                    columns[i].append(value)
                except OverflowError:
                    self._widen(i, value)
            except Exception:
                # Take back this row's earlier values: no ragged row is left.
                for column in columns[:i]:
                    column.pop()
                raise

    def _widen(self, i: int, value) -> None:
        """Append ``value`` to column ``i``, copied into wider types until it
        fits. Past ``'q'``, or on a materialized float column, the
        ``OverflowError`` of the append propagates and the column is left as
        it was."""
        column = self._columns[i]
        while True:
            try:
                column.append(value)
            except OverflowError:
                if isinstance(column, _Zeros):
                    column = array(column.typecode, [0]) * len(column)
                elif column.typecode in _WIDER:
                    column = array(_WIDER[column.typecode], column)
                else:
                    raise
            else:
                self._columns[i] = column
                return

    def _record(self, k: int) -> IterationRecord:
        values = [column[k] for column in self._columns]
        values.insert(_LABEL_AT, "K0" if values[_MU] == 0.0 else "Kplus")
        return IterationRecord(k, *values)

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._record(k) for k in range(*index.indices(len(self)))]
        k = operator.index(index)
        n = len(self)
        if k < 0:
            k += n
        if not 0 <= k < n:
            raise IndexError("trace index out of range")
        return self._record(k)

    def __iter__(self):
        for k in range(len(self)):
            yield self._record(k)

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


@dataclass
class SolveResult:
    """Outcome of one :func:`solve` run.

    ``status`` is ``converged``, ``max_iters``, ``timeout`` or
    ``oracle_error``: the oracle refused a point, or a finite gradient's
    squared norm overflowed. An ``oracle_error`` result keeps the partial
    trace and call counts, and leaves ``final_f_bar``/``final_g_inf`` NaN.
    """

    status: str
    x_final: Array
    trace: Trace = field(default_factory=Trace)
    f_calls: int = 0
    g_calls: int = 0
    final_f_bar: float = np.nan
    final_g_inf: float = np.nan
    discarded_grad_probes: int = 0

    @property
    def iterations(self) -> int:
        return len(self.trace)


def solve(problem: ObjectiveProblem, noise_model: NoiseModel, cfg: SolverConfig) -> SolveResult:
    """Run ``cfg.variant`` on ``problem`` under ``noise_model`` from ``problem.x0``.

    Stops when the gradient's infinity norm reaches ``cfg.eps_gtol``
    (``converged``), after ``cfg.k_max`` iterations (``max_iters``), past
    ``cfg.time_budget`` seconds (``timeout``), or when the oracle refuses a
    point or a finite gradient's squared norm overflows (``oracle_error``,
    with the partial trace).
    """
    regularized, use_ms = VARIANTS[cfg.variant]
    oracle = NoisyOracle(problem, noise_model)
    # The baseline runs the classical Armijo test: no error slack at all.
    ls_eps_f = cfg.eps_f if regularized else 0.0

    x = np.array(problem.x0, dtype=float)
    trace = Trace()
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

            gg = float(g.dot(g))
            if not math.isfinite(gg):
                # A finite gradient whose g'g overflows: no shift or step
                # can be formed from it.
                raise OracleError("squared gradient norm overflows")
            if regularized:
                eligible = reg.mu_zero_eligible(f_bar)
                mu = 0.0 if eligible else reg.mu_positive(gg)
            else:
                eligible = False
                mu = 0.0

            d = memory.direction(g, mu)
            gtd = float(g.dot(d))
            if not gtd < 0.0:
                # Numerically degenerate (underflow-scale gradients, or a
                # NaN g'd); the screened memory otherwise guarantees descent.
                d = -g / (1.0 + mu)
                gtd = float(g.dot(d))

            res = backtrack(oracle, x, d, gtd, f_bar, mu=mu, eps_f=ls_eps_f)
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

            trace._append(
                f_bar, g_inf, math.sqrt(gg), mu, res.alpha, res.delta,
                res.rejections, oracle.f_calls, oracle.g_calls,
            )
            x, g, f_bar = x_new, g_new, res.f_bar_new
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
