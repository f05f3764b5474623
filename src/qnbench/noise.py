"""Noisy evaluation oracles.

A :class:`NoisyOracle` wraps a clean problem behind the only evaluation
surface a solver sees: it injects the configured noise model into objective
and gradient evaluations and counts every call. Each call evaluates the
clean problem once; a kind acts either on its input or on its value. Three
models are supported:

* ``exact`` passes values through unchanged,
* ``additive_uniform`` acts on the value: it adds independent uniform draws
  from ``[-level, +level]`` to the objective and to each gradient component,
* ``precision_cast`` acts on the input: it rounds the vector to a narrower
  IEEE-754 format (binary32/16, round-to-nearest-even) and evaluates the
  clean functions on the rounded point in full precision.

Evaluation in binary64 is the ``exact`` model itself, so no cast names it.

Draws come from a counter-based Philox stream seeded per oracle instance,
so identical (kind, seed, call-sequence) triples reproduce identical noisy
values bit for bit, independent of platform. The oracle builds that stream
on its first uniform draw, so ``exact`` and ``precision_cast`` runs, which
draw nothing, never import ``numpy.random``. The oracle draws the stream in
blocks of :data:`DRAW_BLOCK` values and hands them out in call order: the
objective and ``rank1`` gradients take one value each, ``percomp`` gradients
take ``n``. A single sized ``uniform`` draw equals the same number of scalar
draws bit for bit, so every noisy value equals the one an uninterrupted
per-oracle stream, drawn call by call, would give.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .problems import ObjectiveProblem

Array = np.ndarray

# Each kind and the fields it reads besides ``kind``; a model keeps every
# other field at its default.
KINDS = {
    "exact": (),
    "additive_uniform": ("level", "seed", "grad_mode"),
    "precision_cast": ("bits",),
}
GRAD_MODES = ("percomp", "rank1")

# Default objective error rates per model: large multiples of the machine
# epsilon of the evaluation format, to cover accumulated round-off.
CAST_EPS_F = {32: 1.19e-3, 16: 9.77e-2}
UNIFORM_EPS_F = 1e-2

# Uniform noise values drawn from the Philox stream per refill. A scalar
# Generator call costs microseconds of dispatch; a block amortises it.
DRAW_BLOCK = 4096

# Largest uniform level: the draw range [-level, level] has width 2 * level,
# which overflows above it.
MAX_LEVEL = sys.float_info.max / 2

_FLOAT64 = np.dtype(np.float64)


@dataclass(frozen=True)
class NoiseModel:
    """Configuration of the injected evaluation noise.

    ``KINDS`` lists the fields each kind reads, and a field its kind does
    not read must keep its default, so a model says what it does.
    ``level`` is an ``int`` or ``float``, not a ``bool``, and for
    ``additive_uniform`` lies in ``(0, MAX_LEVEL]``, so that the draw range
    ``[-level, level]`` has a finite width. ``bits`` is an ``int``: 32 or 16
    for ``precision_cast``, and 64 for every other kind. ``grad_mode``
    selects whether uniform gradient noise is drawn per component
    (``percomp``) or as a single draw shared by all components (``rank1``).
    ``seed`` is an ``int``, not a ``bool``, in ``[0, 2**64)``; only
    ``additive_uniform``, the one kind that draws, takes a nonzero one.
    """

    kind: str = "exact"
    level: float = 0.0
    bits: int = 64
    seed: int = 0
    grad_mode: str = "percomp"

    def __post_init__(self):
        # An unhashable kind is refused by name, not by the lookup's TypeError.
        if not isinstance(self.kind, str) or self.kind not in KINDS:
            raise ValueError(f"kind must be one of {tuple(KINDS)}, got {self.kind!r}")
        # A bool is a number, but True would draw from [-1, 1].
        if not isinstance(self.level, (int, float, np.floating)) or isinstance(self.level, bool):
            raise ValueError(f"level must be an int or float, got {self.level!r}")
        if not isinstance(self.bits, int) or self.bits not in (64, 32, 16):
            raise ValueError(f"bits must be the int 64, 32 or 16, got {self.bits!r}")
        if self.grad_mode not in GRAD_MODES:
            raise ValueError(f"grad_mode must be one of {GRAD_MODES}, got {self.grad_mode!r}")
        # A bool is an int, but True would seed the stream as 1.
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError(f"seed must be an int, got {self.seed!r}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        # A field its kind does not read keeps its default; kind is the first.
        for field in fields(self)[1:]:
            value = getattr(self, field.name)
            if field.name not in KINDS[self.kind] and value != field.default:
                readers = " and ".join(kind for kind, read in KINDS.items() if field.name in read)
                raise ValueError(f"{field.name} applies to {readers} only, got {value!r} for {self.kind}")
        if self.kind == "additive_uniform" and not 0 < self.level <= MAX_LEVEL:
            raise ValueError(f"additive_uniform needs 0 < level <= {MAX_LEVEL!r}, got {self.level!r}")
        # binary64 evaluation is the exact model: one setting, one run.
        if self.kind == "precision_cast" and self.bits == 64:
            raise ValueError("precision_cast needs bits 32 or 16, got 64: binary64 is kind 'exact'")


def default_eps_f(model: NoiseModel) -> float:
    """Objective error rate matching the noise model."""
    if model.kind == "exact":
        return 0.0
    if model.kind == "additive_uniform":
        return UNIFORM_EPS_F
    return CAST_EPS_F[model.bits]


class OracleError(RuntimeError):
    """A point a run cannot go on from; ``solve`` ends the run ``oracle_error``.

    The oracle raises it for a non-finite value or gradient, naming the
    noise model kind, and for an input outside the cast format's range,
    naming the width; ``solve`` raises it for a finite gradient whose
    squared norm overflows. The message is all it carries.
    """


class NoisyOracle:
    """Counting evaluation oracle for one (problem, noise model) pair.

    Instances hold a private RNG stream and mutable call counters, so each
    one must be confined to a single worker.
    """

    def __init__(self, problem: ObjectiveProblem, model: NoiseModel = NoiseModel()):
        self.problem = problem
        self.model = model
        self.f_calls = 0
        self.g_calls = 0
        # Built on the first draw: exact and cast oracles never draw.
        self._rng = None
        self._block = np.empty(0)
        self._used = 0

    def _uniform(self, size: int) -> Array:
        """The next ``size`` values of the oracle's uniform noise stream."""
        block, used = self._block, self._used
        end = used + size
        if end <= block.size:
            self._used = end
            return block[used:end]
        # Leftover values first, then the head of a fresh block (or of one
        # exactly as long as the rest of a larger draw).
        if self._rng is None:
            self._rng = np.random.Generator(np.random.Philox(self.model.seed))
        level = self.model.level
        need = end - block.size
        self._block = self._rng.uniform(-level, level, size=max(DRAW_BLOCK, need))
        self._used = need
        return np.concatenate((block[used:], self._block[:need]))

    def _cast_input(self, x: Array) -> Array:
        bits = self.model.bits
        target = np.float32 if bits == 32 else np.float16
        with np.errstate(over="ignore"):
            rounded = x.astype(target).astype(np.float64)
        if not np.all(np.isfinite(rounded)):
            raise OracleError(f"input overflows binary{bits} range")
        return rounded

    def f_bar(self, x: Array) -> float:
        """Noisy objective value; increments ``f_calls``."""
        if type(x) is not np.ndarray or x.dtype is not _FLOAT64:
            x = np.asarray(x, dtype=float)
        self.f_calls += 1
        kind = self.model.kind
        val = self.problem.f(self._cast_input(x) if kind == "precision_cast" else x)
        if kind == "additive_uniform":
            # One value of the noise stream, drawn after the evaluation.
            used = self._used
            if used < self._block.size:
                self._used = used + 1
                val = val + self._block[used]
            else:
                val = val + self._uniform(1)[0]
        if not math.isfinite(val):
            raise OracleError(f"non-finite objective under {kind} model")
        return float(val)

    def grad_bar(self, x: Array) -> Array:
        """Noisy gradient; increments ``g_calls``."""
        x = np.asarray(x, dtype=float)
        self.g_calls += 1
        kind = self.model.kind
        g = self.problem.grad(self._cast_input(x) if kind == "precision_cast" else x)
        if kind == "additive_uniform":
            # A rank1 draw of length 1 broadcasts to every component.
            g = g + self._uniform(g.size if self.model.grad_mode == "percomp" else 1)
        if not np.isfinite(g).all():
            raise OracleError(f"non-finite gradient under {kind} model")
        return np.asarray(g, dtype=float)
