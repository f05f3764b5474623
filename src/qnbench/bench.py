"""Benchmark harness: run solver/problem/noise matrices and build profiles.

A run records what it measured: its status and its objective and gradient
call totals. A profile prices each run under a metric, as the oracle calls
``n`` it spent to reach the gradient tolerance, infinite when it failed, and
compares solvers through the per-problem ratios
``r = n / min_over_solvers(n)``: the curve value at ``tau`` is the fraction
of problems a solver handled within factor ``tau`` of the best solver.

Runs are embarrassingly parallel. Every (problem, solver, seed) triple gets
its own oracle. Under a noise model that draws, its noise seed is derived
deterministically from the problem name and the user seed; a model that
draws nothing takes no seed. So results are identical whatever the worker
count; records are sorted canonically before use. Wall-clock times are the
one genuinely nondeterministic column.
"""

from __future__ import annotations

import csv
import math
import time
import warnings
import zlib
from dataclasses import dataclass, fields, replace
from functools import partial
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Optional, Sequence, get_type_hints

from .noise import KINDS, NoiseModel, default_eps_f
from .problems import get_problem
from .solver import STATUSES, VARIANTS, IterationRecord, SolverConfig, solve

INF = math.inf

# User seeds lie in [0, SEED_LIMIT): derive_oracle_seed is one-to-one there
# and would silently alias seeds outside it (-1 and 2**63 - 1, for one).
SEED_LIMIT = 2**63

# What a profile counts as a run's cost (see aggregate_seeds); the first is
# the default.
METRICS = ("both", "f_only")


@dataclass
class RunRecord:
    problem: str
    solver: str
    seed: int
    status: str
    f_calls: int
    g_calls: int
    iters: int
    final_f_bar: float
    final_g_inf: float
    wall_ms: float


# A CSV column per record field, in field order: each file's writer and its
# reader take its columns from the one header.
RUNS_HEADER = [f.name for f in fields(RunRecord)]
TRACE_HEADER = [f.name for f in fields(IterationRecord)]
PROFILE_HEADER = ["solver", "tau", "rho"]


@dataclass
class ProfileCurve:
    """Step curve of one solver: fraction of problems within ratio tau."""

    solver: str
    points: list[tuple[float, float]]  # (tau, rho), tau ascending, rho nondecreasing

    def rho_at(self, tau: float) -> float:
        rho = 0.0
        for t, r in self.points:
            if t <= tau:
                rho = r
            else:
                break
        return rho


def derive_oracle_seed(problem_name: str, seed: int) -> int:
    """Stable 63-bit seed from (problem, user seed); independent of solver."""
    h = zlib.crc32(problem_name.encode("utf-8"))
    return (seed * 0x9E3779B97F4A7C15 + h) & (SEED_LIMIT - 1)


def _execute(task, keep_trace: bool):
    """Run one task; its record holds what the run measured, with no cost
    derived, and its trace comes back alongside with ``keep_trace``."""
    name, seed, model, cfg = task
    problem = get_problem(name)
    t0 = time.perf_counter()
    res = solve(problem, model, cfg)
    wall_ms = (time.perf_counter() - t0) * 1e3
    record = RunRecord(name, cfg.variant, seed, res.status, res.f_calls, res.g_calls, res.iterations,
                       res.final_f_bar, res.final_g_inf, wall_ms)
    return record, (res.trace if keep_trace else None)


def _plan(
    suite: Iterable[str],
    solvers: Iterable[str],
    noise: NoiseModel,
    eps_gtol: float,
    seeds: Iterable[int],
    parallelism: int,
    *,
    eps_f: float | str,
    base_cfg: Optional[SolverConfig],
) -> list[tuple]:
    """The task list of :func:`run_matrix`, and every refusal it makes.

    Takes :func:`run_matrix`'s arguments but ``keep_traces`` and raises what
    it raises before any run. A caller that must tell a refusal from an
    error raised during a run, as ``qnbench run`` does, plans here and
    hands the tasks to :func:`_run`. Returns one ``(problem, seed, oracle
    model, config)`` task per triple, in matrix order. The oracle model is
    ``noise`` with the seed derived from the problem and the run seed when
    its kind reads a seed (it draws), and ``noise`` itself otherwise. The
    config names the solver, and holds the resolved ``eps_f`` when the
    solver's variant has a ``slack`` and 0 otherwise.
    """
    if not isinstance(parallelism, int) or isinstance(parallelism, bool) or parallelism < 1:
        raise ValueError(f"parallelism must be a positive int, got {parallelism!r}")
    suite, solvers, seeds = list(suite), list(solvers), list(seeds)
    for seed in seeds:
        # A bool is an int, but a record would keep and write it as True.
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ValueError(f"seed must be an int, got {seed!r}")
    for label, items in (("problem", suite), ("solver", solvers), ("seed", seeds)):
        if not items:
            raise ValueError(f"empty {label} list")
        seen = set()
        for item in items:
            if item in seen:
                raise ValueError(f"{label} {item!r} repeated: its runs would be counted twice")
            seen.add(item)
    for seed in seeds:
        if not 0 <= seed < SEED_LIMIT:
            raise ValueError(f"seed {seed} outside [0, 2**63)")
    for name in suite:
        get_problem(name)
    cfg0 = base_cfg if base_cfg is not None else SolverConfig()
    # Each run sets these itself, so a value given here would be lost.
    for name in ("eps_gtol", "eps_f", "variant"):
        if getattr(cfg0, name) != getattr(SolverConfig, name):
            raise ValueError(f"base_cfg.{name} is set per run and must keep its default, got {getattr(cfg0, name)!r}")
    if noise.seed != 0:
        raise ValueError(f"noise.seed is derived per run and must be 0, got {noise.seed!r}")
    # A given eps_f is checked even when no listed solver takes it.
    eps_f_val = default_eps_f(noise) if eps_f == "auto" else replace(cfg0, eps_gtol=eps_gtol, eps_f=eps_f).eps_f
    cfgs = [replace(cfg0, variant=s, eps_gtol=eps_gtol) for s in solvers]
    if eps_f != "auto" and eps_f_val != 0.0 and not any(VARIANTS[cfg.variant].slack for cfg in cfgs):
        slack = tuple(s for s, v in VARIANTS.items() if v.slack)
        raise ValueError(f"eps_f {eps_f_val!r} is the slack of the variants {slack}, and no listed solver has one")
    cfgs = [replace(cfg, eps_f=eps_f_val) if VARIANTS[cfg.variant].slack else cfg for cfg in cfgs]
    # Only a model that draws takes a seed; every other task shares noise.
    seeded = "seed" in KINDS[noise.kind]
    return [
        (name, seed, replace(noise, seed=derive_oracle_seed(name, seed)) if seeded else noise, cfg)
        for name in suite
        for cfg in cfgs
        for seed in seeds
    ]


def run_matrix(
    suite: Iterable[str],
    solvers: Iterable[str],
    noise: NoiseModel,
    eps_gtol: float,
    seeds: Iterable[int],
    parallelism: int = 1,
    *,
    eps_f: float | str = "auto",
    base_cfg: Optional[SolverConfig] = None,
    keep_traces: bool = False,
):
    """Execute every (problem, solver, seed) triple of the matrix:
    :func:`_plan` makes the task list and every refusal listed below, and
    :func:`_run` executes it.

    Returns the canonically sorted list of :class:`RunRecord`; with
    ``keep_traces`` a dict mapping (problem, solver, seed) to the iteration
    trace is returned alongside. No file is written. ``eps_f="auto"``
    resolves to the model's default error rate. Every task runs ``base_cfg``
    (``SolverConfig()`` when omitted) with its ``eps_gtol`` and ``variant``
    set from this call's ``eps_gtol`` and the task's solver name, under
    ``noise``. When the model draws (its kind reads ``seed``), each task's
    oracle seed is derived from the problem and the run seed; a model that
    draws nothing reaches every task unchanged, with seed 0. The resolved
    ``eps_f`` is the slack of the relaxed Armijo test, so it reaches only
    the solvers whose variant has a ``slack``; every other solver runs with
    ``eps_f = 0``. A record holds no cost: a profile prices it (see
    :func:`aggregate_seeds`). The problem, solver and seed lists may be any
    iterables; each is read once.

    These fail before any run, with a ``ValueError`` unless noted:

    - a ``parallelism`` that is not an ``int`` (a ``bool`` included) or is
      below 1;
    - an empty or repeating problem, solver or seed list;
    - a seed that is not an ``int`` (a ``bool`` included) or lies outside
      ``[0, SEED_LIMIT)``;
    - an unknown problem name (``KeyError``);
    - a ``base_cfg`` whose ``eps_gtol``, ``eps_f`` or ``variant`` is not
      ``SolverConfig``'s default, or a ``noise`` whose ``seed`` is not 0:
      each run sets these itself;
    - a setting ``SolverConfig`` refuses, such as an unknown solver name, an
      ``eps_gtol`` or ``eps_f`` out of range, or an ``eps_f`` other than
      ``"auto"`` that is not an int or float, even when no listed solver
      takes it;
    - a nonzero ``eps_f`` other than ``"auto"`` when no listed solver's
      variant has a ``slack``, since none would run with it.

    An exception raised during a run propagates unchanged.
    """
    tasks = _plan(suite, solvers, noise, eps_gtol, seeds, parallelism, eps_f=eps_f, base_cfg=base_cfg)
    records, traces = _run(tasks, parallelism, keep_traces)
    return (records, traces) if keep_traces else records


def _run(tasks: Sequence[tuple], parallelism: int, keep_traces: bool):
    """Execute the tasks :func:`_plan` returns on ``parallelism`` workers.

    Returns the canonically sorted records and a dict mapping (problem,
    solver, seed) to the iteration trace, empty unless ``keep_traces``.
    An exception raised during a run propagates unchanged.
    """
    execute = partial(_execute, keep_trace=keep_traces)
    if parallelism > 1:
        # Imported here: the process pool pulls in multiprocessing and socket,
        # which a serial run never needs.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            outcomes = list(pool.map(execute, tasks))
    else:
        outcomes = [execute(t) for t in tasks]

    outcomes.sort(key=lambda rt: (rt[0].problem, rt[0].solver, rt[0].seed))
    traces = {(r.problem, r.solver, r.seed): t for r, t in outcomes} if keep_traces else {}
    return [r for r, _ in outcomes], traces


def aggregate_seeds(records: Sequence[RunRecord], metric: str = METRICS[0]) -> dict[tuple[str, str], float]:
    """Collapse seeds: median oracle calls of the successful seeds per
    (problem, solver); infinite when more than half the seeds failed.

    A run costs ``f_calls + g_calls`` under ``both`` and ``f_calls`` under
    ``f_only`` when it converged, and ``inf`` otherwise. A ``metric`` not in
    ``METRICS``, a (problem, solver, seed) that two records share, and a
    converged run whose cost is not positive are refused with a
    ``ValueError``: the seeds of a solver are its runs, and a best cost of 0
    would leave every ratio undefined.
    """
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")
    groups: dict[tuple[str, str], list[float]] = {}
    seen = set()
    for r in records:
        run = (r.problem, r.solver, r.seed)
        if run in seen:
            raise ValueError(f"run {run} repeated: its runs would be counted twice")
        seen.add(run)
        if r.status != "converged":
            n = INF
        else:
            n = float(r.f_calls if metric == "f_only" else r.f_calls + r.g_calls)
            if n <= 0:
                cost = "f_calls" if metric == "f_only" else "f_calls + g_calls"
                raise ValueError(f"run {run} converged with {cost} = {n:g}: a converged run makes calls")
        groups.setdefault((r.problem, r.solver), []).append(n)
    agg: dict[tuple[str, str], float] = {}
    for key, vals in groups.items():
        finite = sorted(v for v in vals if math.isfinite(v))
        if 2 * (len(vals) - len(finite)) > len(vals):
            agg[key] = INF  # also when no seed converged
        else:
            mid = len(finite) // 2
            agg[key] = finite[mid] if len(finite) % 2 else 0.5 * (finite[mid - 1] + finite[mid])
    return agg


def performance_profile(records: Iterable[RunRecord], metric: str = METRICS[0]) -> list[ProfileCurve]:
    """One profile curve per solver in ``records``, in the order the solvers
    first appear, over the problems where at least one solver succeeded.
    Each run costs what ``metric`` counts (see :func:`aggregate_seeds`).

    Curves are sampled at tau = 1 and at every distinct finite ratio; failed
    runs have infinite ratio and never enter any curve value. To profile
    fewer solvers, pass only their records. Problems failed by every solver
    are dropped with a warning that counts them. No records, and a run that
    two records share, are refused with a ``ValueError``. ``records`` may be
    any iterable; it is read once.
    """
    curves, _, dropped = _profile(records, metric)
    if dropped:
        warnings.warn(f"{len(dropped)} problem(s) failed for every solver and were dropped")
    return curves


def _profile(
    records: Iterable[RunRecord], metric: str = METRICS[0]
) -> tuple[list[ProfileCurve], list[str], list[str]]:
    """:func:`performance_profile` with the counted and dropped problems of
    the one seed aggregation it runs, and no warning: its caller reports the
    dropped ones. No records, which give no solver a curve, are refused
    with a ``ValueError``."""
    records = list(records)
    if not records:
        raise ValueError("no run records to profile")
    solvers = list(dict.fromkeys(r.solver for r in records))
    agg = aggregate_seeds(records, metric)
    kept, dropped = [], []
    ratios = {}  # counted problem -> ratio per solver, in solver order
    for p in sorted({p for p, _ in agg}):
        calls = [agg.get((p, s), INF) for s in solvers]
        best = min(calls)
        if math.isfinite(best):
            kept.append(p)
            ratios[p] = [n / best for n in calls]
        else:
            dropped.append(p)
    taus = sorted({1.0} | {v for row in ratios.values() for v in row if math.isfinite(v)})
    curves = []
    for i, s in enumerate(solvers):
        mine = [ratios[p][i] for p in kept]
        pts = []
        for tau in taus:
            rho = sum(1 for v in mine if v <= tau) / len(kept) if kept else 0.0
            pts.append((tau, rho))
        curves.append(ProfileCurve(solver=s, points=pts))
    return curves, kept, dropped


def _write_csv(path, header: Sequence[str], rows: Iterable) -> None:
    """Write ``header`` and then ``rows``. ``csv`` writes each value that is
    not a string with ``str``, which for a float, a numpy float64 included,
    is the shortest decimal that reads back to the same bits."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _read_records(path, cls, header: Sequence[str], kind: str, choices: Optional[dict] = None) -> list:
    """Records of dataclass ``cls`` from a CSV written with ``header``; each
    value is parsed by its field's type, and a field of ``choices`` must take
    one of its values. A malformed row is refused with a ``ValueError`` that
    names the line the row begins on and what is wrong with it."""
    hints = get_type_hints(cls)
    parsers = [(name, hints[name], (choices or {}).get(name)) for name in header]
    records = []
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh, strict=True)
        line = 1  # where the next row begins
        try:
            found = next(reader, None)
            if found != header:
                raise ValueError(f"unexpected {kind} header: {found}")
            line = reader.line_num + 1
            for row in reader:
                if row:
                    records.append(cls(*_parse_row(row, parsers, kind, line)))
                line = reader.line_num + 1
        except csv.Error as exc:
            # A quoted field left open swallows the rest of the file.
            cause = "a quoted field is not closed" if str(exc) == "unexpected end of data" else exc
            raise ValueError(f"{kind} line {line}: {cause}") from None
    return records


def _parse_row(row: Sequence[str], parsers, kind: str, line: int) -> list:
    """The values of one CSV row, each parsed by its ``(name, type,
    choices)`` triple; no int field is negative."""
    if len(row) != len(parsers):
        few = "few" if len(row) < len(parsers) else "many"
        raise ValueError(f"{kind} line {line}: too {few} fields ({len(row)}, the header has {len(parsers)})")
    values = []
    for (name, parse, allowed), value in zip(parsers, row):
        try:
            parsed = parse(value)
        except ValueError:
            raise ValueError(f"{kind} line {line}: {name} {value!r} is not a valid {parse.__name__}") from None
        if parse is int and parsed < 0:
            raise ValueError(f"{kind} line {line}: {name} {value!r} is negative")
        if allowed is not None and parsed not in allowed:
            raise ValueError(f"{kind} line {line}: {name} {value!r} is not one of {allowed}")
        values.append(parsed)
    return values


def emit_csv(items: Sequence, path) -> None:
    """Write run records or profile curves."""
    if items and isinstance(items[0], ProfileCurve):
        _write_csv(path, PROFILE_HEADER, ((c.solver, tau, rho) for c in items for tau, rho in c.points))
    else:
        _write_csv(path, RUNS_HEADER, map(attrgetter(*RUNS_HEADER), items))


def read_runs_csv(path) -> list[RunRecord]:
    """Run records from a runs CSV; a status outside ``STATUSES`` is refused."""
    return _read_records(path, RunRecord, RUNS_HEADER, "runs", {"status": STATUSES})


def write_trace_csv(trace: Sequence[IterationRecord], path) -> None:
    _write_csv(path, TRACE_HEADER, map(attrgetter(*TRACE_HEADER), trace))


def read_trace_csv(path) -> list[IterationRecord]:
    return _read_records(path, IterationRecord, TRACE_HEADER, "trace")


_SVG_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def emit_svg(curves: Iterable[ProfileCurve], path) -> None:
    """Self-contained log-x step plot with exactly one polyline per solver;
    ``curves`` may be any iterable, read once.

    A curve that is empty, or has a tau that is not finite or is below 1,
    is refused with a ``ValueError``.
    """
    from html import escape

    curves = list(curves)
    for c in curves:
        if not c.points or not all(1.0 <= tau < INF for tau, _ in c.points):
            raise ValueError(f"profile curve {c.solver!r} needs points with finite tau >= 1")
    width, height = 760, 480
    ml, mr, mt, mb = 60, 170, 40, 50
    plot_w, plot_h = width - ml - mr, height - mt - mb

    # Taus ascend, so each curve's last point holds its largest.
    tau_max = max([10.0] + [c.points[-1][0] for c in curves])
    log_max = math.log10(tau_max)

    def px(tau: float) -> float:
        return ml + (math.log10(tau) / log_max) * plot_w

    def py(rho: float) -> float:
        return mt + (1.0 - rho) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{ml}" y="{mt - 15}" font-family="sans-serif" font-size="15">Performance profile</text>',
        f'<line x1="{ml}" y1="{mt + plot_h}" x2="{ml + plot_w}" y2="{mt + plot_h}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + plot_h}" stroke="black"/>',
    ]
    decade = 1.0
    while decade <= tau_max:
        x = px(decade)
        parts.append(f'<line x1="{x:.1f}" y1="{mt + plot_h}" x2="{x:.1f}" y2="{mt + plot_h + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{x:.1f}" y="{mt + plot_h + 20}" font-family="sans-serif" font-size="12" '
            f'text-anchor="middle">{decade:g}</text>'
        )
        decade *= 10.0
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = py(frac)
        parts.append(f'<line x1="{ml - 5}" y1="{y:.1f}" x2="{ml}" y2="{y:.1f}" stroke="black"/>')
        parts.append(
            f'<text x="{ml - 9}" y="{y + 4:.1f}" font-family="sans-serif" font-size="12" '
            f'text-anchor="end">{frac:g}</text>'
        )

    for i, curve in enumerate(curves):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        pts = [(px(curve.points[0][0]), py(curve.points[0][1]))]
        for (_, prev_rho), (tau, rho) in zip(curve.points, curve.points[1:]):
            pts.append((px(tau), py(prev_rho)))
            pts.append((px(tau), py(rho)))
        pts.append((ml + plot_w, py(curve.points[-1][1])))
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>')
        ly = mt + 16 + 20 * i
        parts.append(
            f'<text x="{ml + plot_w + 14}" y="{ly}" font-family="sans-serif" font-size="13" '
            f'fill="{color}">{escape(curve.solver, quote=False)}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts))
