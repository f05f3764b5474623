"""Command-line benchmark harness.

``qnbench run`` executes a solver/problem/noise matrix and writes one CSV
row per run, plus one trace CSV per run with ``--trace-dir``; ``qnbench
profile`` turns such a CSV into performance-profile curves (CSV and optional
SVG), pricing each run under its ``--metric``. The commands write every
output file, and take their defaults and choices from the library. Outputs
are plain files; nothing here is interactive.
"""

from __future__ import annotations

import math
from pathlib import Path

import click

from .bench import METRICS, _plan, _profile, emit_csv, emit_svg, read_runs_csv, run_matrix, write_trace_csv
from .noise import NoiseModel
from .problems import suite_names
from .solver import VARIANTS, SolverConfig


def parse_seeds(spec: str) -> list[int]:
    """Accept ``7``, ``0,3,5`` or an inclusive range ``0..19``."""
    spec = spec.strip()
    try:
        if ".." in spec:
            lo, hi = spec.split("..", 1)
            return list(range(int(lo), int(hi) + 1))
        return [int(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError:
        raise click.BadParameter(f"{spec!r} is not N, a,b,c or lo..hi", param_hint="--seeds") from None


def parse_noise(spec: str) -> NoiseModel:
    """Accept ``exact``, ``uniform:LEVEL`` (LEVEL > 0), ``uniform:LEVEL:MODE``
    (MODE in ``noise.GRAD_MODES``) or ``cast:BITS`` (32, 16)."""
    spec = spec.strip()
    kind, *args = spec.split(":")
    try:
        if kind == "exact" and not args:
            return NoiseModel()
        if kind == "uniform" and 1 <= len(args) <= 2:
            mode = args[1] if len(args) == 2 else NoiseModel.grad_mode
            return NoiseModel(kind="additive_uniform", level=float(args[0]), grad_mode=mode)
        if kind == "cast" and len(args) == 1:
            return NoiseModel(kind="precision_cast", bits=int(args[0]))
    except ValueError as exc:
        raise click.BadParameter(f"{spec!r}: {exc}", param_hint="--noise") from None
    raise click.BadParameter(f"unknown noise spec {spec!r}", param_hint="--noise")


def parse_eps_f(spec: str) -> float | str:
    """``auto`` or a number; ``SolverConfig`` refuses one outside ``[0, 1)``."""
    try:
        return spec if spec == "auto" else float(spec)
    except ValueError:
        raise click.BadParameter(f"{spec!r} is not 'auto' or a number", param_hint="--eps-f") from None


@click.group()
def main():
    """Benchmark harness for noise-tolerant quasi-Newton solvers."""


@main.command("run")
@click.option("--suite", default="desk", show_default=True, help="Suite name (desk|all) or comma-separated problem names.")
@click.option("--solver", "solvers", default="ours,baseline_line", show_default=True, help=f"Comma-separated solver variants: {' | '.join(VARIANTS)}.")
@click.option("--noise", default="exact", show_default=True, help="exact | uniform:LEVEL[:MODE] | cast:BITS")
@click.option("--eps-f", default="auto", show_default=True, help="Objective error rate of the slack variants' relaxed test, or 'auto' for the model default.")
@click.option("--gtol", type=float, default=1e-2, show_default=True, help="Gradient tolerance (infinity norm).")
@click.option("--kmax", type=int, default=SolverConfig.k_max, show_default=True, help="Iteration cap.")
@click.option("--seeds", default="0", show_default=True, help="Seed list: N, a,b,c or lo..hi.")
@click.option("--jobs", type=int, default=1, show_default=True, help="Parallel workers.")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False), help="Output runs CSV.")
@click.option("--trace-dir", type=click.Path(file_okay=False), default=None, help="Write one per-iteration trace CSV per run.")
def run_command(suite, solvers, noise, eps_f, gtol, kmax, seeds, jobs, out_path, trace_dir):
    """Run the benchmark matrix and write one CSV row per run."""
    model = parse_noise(noise)
    eps_f = parse_eps_f(eps_f)
    seed_list = parse_seeds(seeds)
    solver_list = [tok.strip() for tok in solvers.split(",") if tok.strip()]
    # Ask for run_matrix's refusals before any run, so that they are usage
    # errors while an error raised during a run still ends in a traceback.
    try:
        cfg = SolverConfig(k_max=kmax)
        matrix = (suite_names(suite), solver_list, model, gtol, seed_list, jobs)
        settings = dict(eps_f=eps_f, base_cfg=cfg)
        _plan(*matrix, **settings)
    except (ValueError, KeyError) as exc:
        # A refusal names the field or the list it refuses: name its option.
        options = dict(eps_gtol="--gtol", eps_f="--eps-f", k_max="--kmax", variant="--solver", solver="--solver",
                       parallelism="--jobs", seed="--seeds", problem="--suite")
        option = next((options[word] for word in exc.args[0].split() if word in options), None)
        raise click.UsageError(f"{option}: {exc.args[0]}" if option else exc.args[0]) from None
    # Make the output directories first, so that a run's results are not
    # lost for want of one.
    Path(out_path).parent.mkdir(parents=True, exist_ok=True)
    if trace_dir is None:
        records = run_matrix(*matrix, **settings)
    else:
        Path(trace_dir).mkdir(parents=True, exist_ok=True)
        records, traces = run_matrix(*matrix, **settings, keep_traces=True)
        for (problem, solver, seed), trace in traces.items():
            write_trace_csv(trace, Path(trace_dir, f"{problem}__{solver}__seed{seed}.csv"))
    emit_csv(records, out_path)
    total = len(records)
    for s in solver_list:
        ok = sum(1 for r in records if r.solver == s and r.status == "converged")
        runs = sum(1 for r in records if r.solver == s)
        click.echo(f"{s}: {ok}/{runs} runs converged")
    click.echo(f"wrote {total} records to {out_path}")


@main.command("profile")
@click.option("--in", "in_path", required=True, type=click.Path(exists=True, dir_okay=False), help="Runs CSV from 'qnbench run'.")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False), help="Output profile CSV.")
@click.option("--svg", "svg_path", type=click.Path(dir_okay=False), default=None, help="Optional SVG plot.")
@click.option("--metric", type=click.Choice(METRICS), default=METRICS[0], show_default=True,
              help="A run's cost: objective+gradient calls or objective calls only.")
def profile_command(in_path, out_path, svg_path, metric):
    """Compute performance-profile curves from a runs CSV."""
    records = read_runs_csv(in_path)
    try:
        curves, kept, dropped = _profile(records, metric)
    except ValueError as exc:
        raise click.BadParameter(f"{in_path}: {exc}", param_hint="--in") from None
    # Make the output directories before the first write, so that a profile
    # is written whole or not at all.
    for path in (out_path, svg_path):
        if path is not None:
            Path(path).parent.mkdir(parents=True, exist_ok=True)
    emit_csv(curves, out_path)
    click.echo(f"profiled {len(kept)} problems ({len(dropped)} dropped: failed for every solver)")
    for c in curves:
        share = c.rho_at(math.inf)
        click.echo(f"{c.solver}: solves {share:.0%} of counted problems")
    if svg_path is not None:
        emit_svg(curves, svg_path)
        click.echo(f"wrote {svg_path}")


if __name__ == "__main__":
    main()
