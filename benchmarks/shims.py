"""Timing shims for the traced benchmark run.

The traced run measures each layer from outside the library: it replaces the
public entry points that the solver calls with wrappers that record one span
per call (name, start, end, parent span) and puts the original objects back
afterwards. Nothing under ``src/`` knows about it.

``qnbench.solver`` binds ``backtrack``, ``powell_damp`` and ``screen_pair``
by name and ``qnbench.bench`` binds ``solve`` and ``get_problem`` by name, so
those shims patch the binding in the calling module. Problem ``f``/``grad``
are wrapped on shallow copies of the registry problems; copying runs no
``__post_init__``, so its evaluations at ``x0`` never enter a trace.

Spans live in flat in-memory arrays while the pass runs and are written out
by :meth:`Recorder.save` once the benchmark is done.
"""

from __future__ import annotations

import copy
import time
from array import array
from contextlib import contextmanager

import numpy as np

import qnbench.bench as bench_mod
import qnbench.solver as solver_mod
from qnbench.lbfgs import LbfgsMemory
from qnbench.noise import NoisyOracle
from qnbench.regularizer import RegularizerState

# (owner, attribute, span name) of every entry point that gets a timing shim.
SPANNED = (
    (NoisyOracle, "f_bar", "noise.f_bar"),
    (NoisyOracle, "grad_bar", "noise.grad_bar"),
    (LbfgsMemory, "direction", "lbfgs.direction"),
    (LbfgsMemory, "push", "lbfgs.push"),
    (solver_mod, "powell_damp", "lbfgs.powell_damp"),
    (solver_mod, "screen_pair", "lbfgs.screen_pair"),
    (solver_mod, "backtrack", "linesearch.backtrack"),
    (RegularizerState, "mu_zero_eligible", "regularizer.mu_zero_eligible"),
    (RegularizerState, "register_k0", "regularizer.register_k0"),
    (RegularizerState, "mu_positive", "regularizer.mu_positive"),
    (bench_mod, "solve", "solver.solve"),
)
PATCHED = tuple((owner, attr) for owner, attr, _ in SPANNED) + ((bench_mod, "get_problem"),)
ORIGINALS = {key: vars(key[0])[key[1]] for key in PATCHED}

LAYERS = ("noise", "problems", "lbfgs", "linesearch", "regularizer", "solver", "bench")


def pristine() -> bool:
    """True when every patched attribute is the library's own object again."""
    return all(vars(owner)[attr] is ORIGINALS[(owner, attr)] for owner, attr in PATCHED)


class Recorder:
    """Span store for one traced pass, plus counters taken at the same calls."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ix = array("h")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.searches = self.probes = self.first_accept = self.exhausted = self.rescaled = 0
        self.discarded_probes = 0

    def wrap(self, name: str, fn, on_result=None):
        """Return ``fn`` wrapped so that every call records one span."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_ix, parent, start, end, stack = self.name_ix, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        def shim(*args, **kwargs):
            i = len(start)
            name_ix.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if on_result is not None:
                on_result(out)
            return out

        return shim

    def _count_search(self, res) -> None:
        # The solver drops these flags; the shim is the only place they are seen.
        self.searches += 1
        self.probes += res.rejections + 1
        self.first_accept += res.rejections == 0 or res.took_grad_probe
        self.exhausted += res.exhausted
        self.rescaled += res.rescaled

    def _count_solve(self, res) -> None:
        self.discarded_probes += res.discarded_grad_probes

    def _problem_lookup(self, get_problem):
        copies = {}

        def traced_get_problem(name):
            if name not in copies:
                problem = copy.copy(get_problem(name))
                object.__setattr__(problem, "f", self.wrap("problems.f", problem.f))
                object.__setattr__(problem, "grad", self.wrap("problems.grad", problem.grad))
                copies[name] = problem
            return copies[name]

        return traced_get_problem

    @contextmanager
    def installed(self):
        """Install every shim for the duration of the block, then restore."""
        hooks = {"linesearch.backtrack": self._count_search, "solver.solve": self._count_solve}
        patches = [
            (owner, attr, self.wrap(name, ORIGINALS[(owner, attr)], hooks.get(name)))
            for owner, attr, name in SPANNED
        ]
        patches.append((bench_mod, "get_problem", self._problem_lookup(ORIGINALS[(bench_mod, "get_problem")])))
        try:
            for owner, attr, shim in patches:
                setattr(owner, attr, shim)
            yield self
        finally:
            for owner, attr, _ in patches:
                setattr(owner, attr, ORIGINALS[(owner, attr)])

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, inclusive seconds, self seconds)."""
        name_ix = np.frombuffer(self.name_ix, dtype=np.int16)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        width = len(self.names)
        calls = np.bincount(name_ix, minlength=width)
        incl = np.bincount(name_ix, weights=dur, minlength=width)
        self_t = np.bincount(name_ix, weights=dur - child, minlength=width)
        return {n: (int(calls[i]), float(incl[i]), float(self_t[i])) for i, n in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_ix=np.frombuffer(self.name_ix, dtype=np.int16),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )


def span_cost_us(samples: int = 20000) -> float:
    """Extra wall time one shimmed call costs over a plain call, in microseconds."""

    def noop():
        return None

    shim = Recorder().wrap("noop", noop)
    clock = time.perf_counter
    t0 = clock()
    for _ in range(samples):
        noop()
    t1 = clock()
    for _ in range(samples):
        shim()
    t2 = clock()
    return ((t2 - t1) - (t1 - t0)) / samples * 1e6


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, t: dict, records, matrix_s: float, profile_s: float) -> dict[str, float]:
    """Per-layer numbers of one traced pass, from its span totals ``t``.

    Per-call times (``.us``, ``.self_us``) are means over that function's
    calls; ``lbfgs.update.us``, ``solver.self_us_per_iter`` are per solver
    iteration and ``regularizer.self_us`` per regularized iteration.
    """

    def calls(n):
        return t.get(n, (0, 0.0, 0.0))[0]

    def incl(n):
        return t.get(n, (0, 0.0, 0.0))[1]

    def self_s(n):
        return t.get(n, (0, 0.0, 0.0))[2]

    iters = sum(r.iters for r in records)
    wall = matrix_s + profile_s
    reg_iters = calls("regularizer.mu_zero_eligible")
    reg_self = sum(self_s(n) for n in t if n.startswith("regularizer."))
    update = incl("lbfgs.powell_damp") + incl("lbfgs.screen_pair") + incl("lbfgs.push")
    m = {
        "noise.f_bar.calls": calls("noise.f_bar"),
        "noise.f_bar.self_us": _share(self_s("noise.f_bar"), calls("noise.f_bar")) * 1e6,
        "noise.grad_bar.calls": calls("noise.grad_bar"),
        "noise.grad_bar.self_us": _share(self_s("noise.grad_bar"), calls("noise.grad_bar")) * 1e6,
        "problems.f.us": _share(incl("problems.f"), calls("problems.f")) * 1e6,
        "problems.grad.us": _share(incl("problems.grad"), calls("problems.grad")) * 1e6,
        "lbfgs.direction.calls": calls("lbfgs.direction"),
        "lbfgs.direction.us": _share(incl("lbfgs.direction"), calls("lbfgs.direction")) * 1e6,
        "lbfgs.update.us": _share(update, iters) * 1e6,
        "lbfgs.admit_ratio": _share(calls("lbfgs.push"), calls("lbfgs.screen_pair")),
        "linesearch.backtrack.self_us": _share(self_s("linesearch.backtrack"), rec.searches) * 1e6,
        "linesearch.probes_per_search": _share(rec.probes, rec.searches),
        "linesearch.first_accept_frac": _share(rec.first_accept, rec.searches),
        "linesearch.exhausted_frac": _share(rec.exhausted, rec.searches),
        "linesearch.rescaled_frac": _share(rec.rescaled, rec.searches),
        "regularizer.self_us": _share(reg_self, reg_iters) * 1e6,
        "regularizer.kplus_frac": _share(calls("regularizer.mu_positive"), reg_iters),
        "solver.self_us_per_iter": _share(self_s("solver.solve"), iters) * 1e6,
        "solver.iters": iters,
        "solver.discarded_probes": rec.discarded_probes,
        "bench.dispatch_ms": (matrix_s - sum(r.wall_ms for r in records) / 1e3) * 1e3,
        "bench.profile_ms": profile_s * 1e3,
    }
    layer_self = {layer: sum(self_s(n) for n in t if n.split(".")[0] == layer) for layer in LAYERS}
    layer_self["bench"] = wall - incl("solver.solve")
    for layer in LAYERS:
        m[f"{layer}.self_frac"] = _share(layer_self[layer], wall)
    return m


def consistency_errors(t: dict, records) -> list[str]:
    """Cross-check span totals ``t`` against the counters in the run records.

    A mismatch means a shim missed calls (or counted extra ones), so the
    per-layer numbers of that pass cannot be trusted.
    """
    f_calls = sum(r.f_calls for r in records)
    g_calls = sum(r.g_calls for r in records)
    iters = sum(r.iters for r in records)
    expect = {
        "noise.f_bar": f_calls,
        "problems.f": f_calls,
        "noise.grad_bar": g_calls,
        "problems.grad": g_calls,
        "linesearch.backtrack": iters,
        "lbfgs.direction": iters,
        "solver.solve": len(records),
    }
    errors = []
    for name, want in expect.items():
        got = t.get(name, (0,))[0]
        if got != want:
            errors.append(f"{name}: {got} spans, run records imply {want}")
    return errors
