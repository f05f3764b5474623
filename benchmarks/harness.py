"""Workloads, timed passes and the metrics of one benchmark run.

A pass runs a workload the way ``qnbench run`` followed by ``qnbench
profile`` does: ``run_matrix`` -> ``emit_csv`` -> ``read_runs_csv`` ->
``performance_profile`` -> ``emit_csv``. Runs within a pass differ by
problem, not by chance, so the pass is the sampling unit: a run repeats the
same pass and reports medians over passes.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from qnbench import DESK_SUITE, NoiseModel, SolverConfig
from qnbench.bench import emit_csv, performance_profile, read_runs_csv, run_matrix

import checks
import shims

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SOLVERS = ("ours", "baseline_line")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "iter_us": "us",
    "oracle_calls": "count",
    "unconverged_frac": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "setup.import_s": "s",
    "setup.registry_s": "s",
    "noise.f_bar.calls": "count",
    "noise.f_bar.self_us": "us",
    "noise.grad_bar.calls": "count",
    "noise.grad_bar.self_us": "us",
    "problems.f.us": "us",
    "problems.grad.us": "us",
    "lbfgs.direction.calls": "count",
    "lbfgs.direction.us": "us",
    "lbfgs.update.us": "us",
    "lbfgs.admit_ratio": "ratio",
    "linesearch.backtrack.self_us": "us",
    "linesearch.probes_per_search": "count",
    "linesearch.first_accept_frac": "ratio",
    "linesearch.exhausted_frac": "ratio",
    "linesearch.rescaled_frac": "ratio",
    "regularizer.self_us": "us",
    "regularizer.kplus_frac": "ratio",
    "solver.self_us_per_iter": "us",
    "solver.iters": "count",
    "solver.discarded_probes": "count",
    "bench.dispatch_ms": "ms",
    "bench.profile_ms": "ms",
    **{f"{layer}.self_frac": "ratio" for layer in shims.LAYERS},
    "trace.overhead_frac": "ratio",
    "trace.span_cost_us": "us",
}

# Each child interpreter pays what a fresh `qnbench run` pays before its first
# solve: the package and CLI imports plus building (and checking) all problems.
SETUP_CODE = """
import time
t0 = time.perf_counter()
import qnbench, qnbench.cli
t1 = time.perf_counter()
qnbench.registry()
t2 = time.perf_counter()
print(qnbench.__file__, t1 - t0, t2 - t1)
"""
SETUP_REPEATS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    suite: tuple[str, ...]
    noise: NoiseModel
    eps_f: float
    gtol: float
    k_max: int
    seeds_per_pass: int
    expect_iters: Optional[int] = None

    def seeds(self, seed: int) -> list[int]:
        """The run seeds of one pass; disjoint for different workload seeds."""
        return [seed * self.seeds_per_pass + i for i in range(self.seeds_per_pass)]


UNIFORM = NoiseModel(kind="additive_uniform", level=1e-3)
WORKLOADS = {
    w.name: w
    for w in (
        # Criterion 1 settings: bound by oracle calls and the line search.
        Workload("desk_noisy", DESK_SUITE, UNIFORM, eps_f=1e-2, gtol=1e-2, k_max=1000, seeds_per_pass=7),
        # Criterion 2 settings: no noise draws, bound by the two-loop direction
        # and solver bookkeeping at n <= 100. The seed changes nothing here.
        Workload("desk_exact", DESK_SUITE, NoiseModel(), eps_f=2.22e-9, gtol=1e-5, k_max=5000, seeds_per_pass=1),
        # Criterion 3 shape: eps_gtol = 0, so every run does exactly k_max
        # iterations at n = 1e4, bound by arithmetic and bulk noise draws.
        Workload("large_n", ("illcond_quadratic_n10000",), UNIFORM, eps_f=1e-2, gtol=0.0, k_max=100,
                 seeds_per_pass=8, expect_iters=100),
    )
}


@dataclass
class Pass:
    records: list
    traces: dict
    read_back: list
    curves: list
    matrix_s: float  # run_matrix wall time
    profile_s: float  # CSV round trip plus profile

    @property
    def wall_s(self) -> float:
        return self.matrix_s + self.profile_s

    @property
    def iter_us(self) -> float:
        return sum(r.wall_ms for r in self.records) / max(sum(r.iters for r in self.records), 1) * 1e3


def run_pass(wl: Workload, seeds: list[int], out_dir: Path) -> Pass:
    t0 = time.perf_counter()
    records, traces = run_matrix(
        wl.suite, SOLVERS, wl.noise, wl.gtol, seeds, parallelism=1,
        eps_f=wl.eps_f, base_cfg=SolverConfig(k_max=wl.k_max), keep_traces=True,
    )
    t1 = time.perf_counter()
    emit_csv(records, out_dir / "runs.csv")
    read_back = read_runs_csv(out_dir / "runs.csv")
    curves = performance_profile(read_back)
    emit_csv(curves, out_dir / "profile.csv")
    t2 = time.perf_counter()
    return Pass(records, traces, read_back, curves, t1 - t0, t2 - t1)


def time_setup(repeats: int) -> tuple[list[float], list[float]]:
    """Import and registry seconds of ``repeats`` fresh interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    imports, registries = [], []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        path, import_s, registry_s = out.stdout.split()
        if not Path(path).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up imported qnbench from {path}, not from {SRC}")
        imports.append(float(import_s))
        registries.append(float(registry_s))
    return imports, registries


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


class Tally:
    """Operations attempted and failed over the passes of one run."""

    def __init__(self, wl: Workload):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.reference = None
        self.digest = None

    def check(self, p: Pass, extra_errors: Sequence[str] = ()) -> None:
        failed, messages = checks.failed_operations(
            p.records, p.traces, p.read_back, self.wl.gtol, self.wl.expect_iters, self.reference,
        )
        pass_errors = checks.profile_errors(p.curves, SOLVERS) + list(extra_errors)
        if pass_errors:
            failed = {checks.run_key(r) for r in p.records}
            messages = messages + pass_errors
        for msg in messages:
            print(f"check failed: {msg}", file=sys.stderr)
        self.attempted += len(p.records)
        self.failed += len(failed)
        if self.reference is None:
            self.reference = checks.result_rows(p.records)
            self.digest = checks.digest(p.records), checks.digest_curves(p.curves)


def _keep_going(t_begin: float, last_s: float, seconds: float) -> bool:
    """Start another pass only if it should end within the run length."""
    return time.perf_counter() - t_begin + last_s <= seconds


def _require_pristine() -> None:
    if not shims.pristine():
        raise RuntimeError("timing shims are still installed; untraced passes would be traced")


def measure(wl: Workload, seed: int, seconds: float, trace: bool, out_dir: Path,
            setup_repeats: int = SETUP_REPEATS) -> tuple[dict, dict]:
    """Run the benchmark once; return (metadata, result object).

    Only one pass is alive at a time, so ``peak_rss_mb`` does not grow with
    the number of passes that fit in ``seconds``.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    imports, registries = time_setup(setup_repeats)
    seeds = wl.seeds(seed)
    tally = Tally(wl)
    walls, iter_us, traced_walls, layer_rows, recorders = [], [], [], [], []
    counts = None
    t_begin = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        _require_pristine()
        rec = shims.Recorder() if trace else None
        try:
            p = run_pass(wl, seeds, out_dir)
            if trace:
                with rec.installed():
                    tp = run_pass(wl, seeds, out_dir)
        except Exception:
            # An operation raised: every operation of the pass counts as failed.
            traceback.print_exc()
            ops = len(wl.suite) * len(SOLVERS) * len(seeds) * (1 + trace)
            tally.attempted += ops
            tally.failed += ops
            if not walls:
                raise
            break
        tally.check(p)
        walls.append(p.wall_s)
        iter_us.append(p.iter_us)
        if counts is None:
            # Later passes must repeat these exactly; the checks enforce it.
            counts = (
                sum(r.f_calls + r.g_calls for r in p.records),
                sum(r.status != "converged" for r in p.records) / len(p.records),
            )
        if trace:
            _require_pristine()
            totals = rec.totals()
            tally.check(tp, shims.consistency_errors(totals, tp.records))
            traced_walls.append(tp.wall_s)
            layer_rows.append(shims.layer_metrics(rec, totals, tp.records, tp.matrix_s, tp.profile_s))
            recorders.append(rec)
            del tp
        del p
        if not _keep_going(t_begin, time.perf_counter() - t_pass, seconds):
            break
    elapsed = time.perf_counter() - t_begin

    med = statistics.median
    if trace:
        metrics = {name: med(row[name] for row in layer_rows) for name in layer_rows[0]}
        metrics["trace.overhead_frac"] = med(traced_walls) / med(walls) - 1.0
        metrics["trace.span_cost_us"] = shims.span_cost_us()
        metrics["setup.import_s"] = med(imports)
        metrics["setup.registry_s"] = med(registries)
        units = PER_LAYER_UNITS
        for stale in out_dir.glob("spans-pass*.npz"):
            stale.unlink()
        for i, r in enumerate(recorders):
            r.save(out_dir / f"spans-pass{i}.npz")
    else:
        metrics = {
            "setup_s": med(a + b for a, b in zip(imports, registries)),
            "wall_s": med(walls),
            "iter_us": med(iter_us),
            "oracle_calls": counts[0],
            "unconverged_frac": counts[1],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    meta = {
        "workload": wl.name,
        "seed": seed,
        "run_seeds": seeds,
        "seconds": seconds,
        "elapsed_s": round(elapsed, 3),
        "passes": len(walls),
        "traced_passes": len(traced_walls),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
        "runs_digest": tally.digest[0],
        "profile_digest": tally.digest[1],
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return meta, result
