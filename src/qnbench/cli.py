"""Command-line benchmark harness.

``qnbench run`` executes a solver/problem/noise matrix and writes one CSV
row per run; ``qnbench profile`` turns such a CSV into performance-profile
curves (CSV and optional SVG). Outputs are plain files; nothing here is
interactive.
"""

from __future__ import annotations

import math

import click

from .bench import SEED_LIMIT, _profile, emit_csv, emit_svg, read_runs_csv, run_matrix
from .noise import NoiseModel
from .problems import suite_names
from .solver import VARIANTS, SolverConfig


def _distinct(items: list, what: str, spec: str, hint: str | None = None) -> list:
    """``items`` if it is a nonempty list without repeats, else a usage error:
    a repeated problem, solver or seed would be counted twice by the profile."""
    if not items:
        raise click.BadParameter(f"no {what}s in {spec!r}", param_hint=hint)
    if len(set(items)) != len(items):
        raise click.BadParameter(f"repeated {what} in {spec!r}", param_hint=hint)
    return items


def parse_seeds(spec: str) -> list[int]:
    """Accept ``7``, ``0,3,5`` or an inclusive range ``0..19`` of distinct
    seeds in ``[0, 2**63)``; an empty list is an error."""
    spec = spec.strip()
    try:
        if ".." in spec:
            lo, hi = spec.split("..", 1)
            seeds = list(range(int(lo), int(hi) + 1))
        else:
            seeds = [int(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError:
        raise click.BadParameter(f"{spec!r} is not N, a,b,c or lo..hi") from None
    _distinct(seeds, "seed", spec)
    for seed in seeds:
        if not 0 <= seed < SEED_LIMIT:
            raise click.BadParameter(f"seed {seed} outside [0, 2**63)")
    return seeds


def parse_suite(spec: str) -> list[str]:
    """``desk``, ``all`` or a list of distinct registered problem names."""
    try:
        names = suite_names(spec)
    except KeyError as exc:
        raise click.BadParameter(exc.args[0], param_hint="--suite") from None
    return _distinct(names, "problem", spec, "--suite")


def parse_solvers(spec: str) -> list[str]:
    """A list of distinct solver variants."""
    names = [tok.strip() for tok in spec.split(",") if tok.strip()]
    for name in names:
        if name not in VARIANTS:
            raise click.BadParameter(f"unknown solver {name!r}, choose from {tuple(VARIANTS)}", param_hint="--solver")
    return _distinct(names, "solver", spec, "--solver")


def parse_noise(spec: str, grad_mode: str) -> NoiseModel:
    """Accept ``exact``, ``uniform:LEVEL`` (LEVEL > 0) or ``cast:BITS`` (64, 32, 16)."""
    spec = spec.strip()
    try:
        if spec == "exact":
            return NoiseModel(kind="exact", grad_mode=grad_mode)
        if spec.startswith("uniform:"):
            return NoiseModel(kind="additive_uniform", level=float(spec.split(":", 1)[1]), grad_mode=grad_mode)
        if spec.startswith("cast:"):
            return NoiseModel(kind="precision_cast", bits=int(spec.split(":", 1)[1]), grad_mode=grad_mode)
    except ValueError as exc:
        raise click.BadParameter(f"{spec!r}: {exc}", param_hint="--noise") from None
    raise click.BadParameter(f"unknown noise spec {spec!r}", param_hint="--noise")


def parse_eps_f(spec: str) -> float | str:
    """``auto`` or an objective error rate in ``[0, 1)``."""
    if spec == "auto":
        return spec
    try:
        eps_f = float(spec)
    except ValueError:
        eps_f = math.nan
    if not 0.0 <= eps_f < 1.0:
        raise click.BadParameter(f"{spec!r} is not 'auto' or a number in [0, 1)", param_hint="--eps-f")
    return eps_f


@click.group()
def main():
    """Benchmark harness for noise-tolerant quasi-Newton solvers."""


@main.command("run")
@click.option("--suite", default="desk", show_default=True, help="Suite name (desk|all) or comma-separated problem names.")
@click.option("--solver", "solvers", default="ours,baseline_line", show_default=True, help="Comma-separated solver variants.")
@click.option("--noise", default="exact", show_default=True, help="exact | uniform:LEVEL | cast:BITS")
@click.option("--eps-f", default="auto", show_default=True, help="Objective error rate, or 'auto' for the model default.")
@click.option("--gtol", type=float, default=1e-2, show_default=True, help="Gradient tolerance (infinity norm).")
@click.option("--kmax", type=click.IntRange(min=1), default=15000, show_default=True, help="Iteration cap.")
@click.option("--seeds", default="0", show_default=True, help="Seed list: N, a,b,c or lo..hi.")
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True, help="Parallel workers.")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False), help="Output runs CSV.")
@click.option("--trace-dir", type=click.Path(file_okay=False), default=None, help="Write one per-iteration trace CSV per run.")
@click.option("--fresh-fk", is_flag=True, help="Re-evaluate the objective at each iterate instead of reusing the accepted trial value.")
@click.option("--noise-grad-mode", type=click.Choice(["percomp", "rank1"]), default="percomp", show_default=True,
              help="Uniform gradient noise per component or one shared draw.")
@click.option("--metric", type=click.Choice(["both", "f_only"]), default="both", show_default=True,
              help="Oracle-call metric: objective+gradient calls or objective calls only.")
@click.option("--time-budget", type=float, default=600.0, show_default=True, help="Wall-clock budget per run, seconds.")
def run_command(suite, solvers, noise, eps_f, gtol, kmax, seeds, jobs, out_path, trace_dir,
                fresh_fk, noise_grad_mode, metric, time_budget):
    """Run the benchmark matrix and write one CSV row per run."""
    problem_names = parse_suite(suite)
    solver_list = parse_solvers(solvers)
    model = parse_noise(noise, noise_grad_mode)
    eps_f = parse_eps_f(eps_f)
    seed_list = parse_seeds(seeds)
    try:
        cfg = SolverConfig(k_max=kmax, eps_gtol=gtol, time_budget=time_budget, fresh_fk=fresh_fk)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None
    records = run_matrix(
        problem_names,
        solver_list,
        model,
        gtol,
        seed_list,
        parallelism=jobs,
        eps_f=eps_f,
        base_cfg=cfg,
        metric=metric,
        trace_dir=trace_dir,
    )
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
def profile_command(in_path, out_path, svg_path):
    """Compute performance-profile curves from a runs CSV."""
    records = read_runs_csv(in_path)
    if not records:
        raise click.BadParameter(f"{in_path} holds no run records", param_hint="--in")
    curves, kept, dropped = _profile(records)
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
