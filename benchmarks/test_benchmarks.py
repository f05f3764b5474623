"""Tests of the benchmark harness on tiny versions of each workload.

Run from the repository root::

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import qnbench.bench  # noqa: E402
import qnbench.lbfgs  # noqa: E402
import qnbench.linesearch  # noqa: E402
import qnbench.solver  # noqa: E402
from qnbench.lbfgs import LbfgsMemory  # noqa: E402
from qnbench.noise import NoisyOracle  # noqa: E402
from qnbench.regularizer import RegularizerState  # noqa: E402

import checks  # noqa: E402
import harness  # noqa: E402
import shims  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Every solver fails every large_n problem by design (eps_gtol = 0).
pytestmark = pytest.mark.filterwarnings("ignore:.*failed for every solver")


def tiny(wl: harness.Workload) -> harness.Workload:
    """Three problems, two seeds and a short iteration cap; same settings otherwise."""
    k_max = 5 if wl.expect_iters else 40
    return dataclasses.replace(
        wl, suite=wl.suite[:3], k_max=k_max, seeds_per_pass=min(wl.seeds_per_pass, 2),
        expect_iters=k_max if wl.expect_iters else None,
    )


def units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path):
    wl = tiny(harness.WORKLOADS[name])
    meta, result = harness.measure(wl, seed=3, seconds=0.0, trace=False, out_dir=tmp_path, setup_repeats=1)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units("end_to_end")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(wl.suite) * 2 * wl.seeds_per_pass * meta["passes"]
    assert meta["run_seeds"] == wl.seeds(3) and meta["traced_passes"] == 0
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_traced_run_reports_every_layer_and_restores_the_library(name, tmp_path):
    wl = tiny(harness.WORKLOADS[name])
    methods = {
        (cls, attr): vars(cls)[attr]
        for cls, attrs in (
            (NoisyOracle, ("f_bar", "grad_bar")),
            (LbfgsMemory, ("direction", "push")),
            (RegularizerState, ("mu_zero_eligible", "register_k0", "mu_positive")),
        )
        for attr in attrs
    }
    meta, result = harness.measure(wl, seed=0, seconds=0.0, trace=True, out_dir=tmp_path, setup_repeats=1)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units("per_layer")
    # The traced pass reproduced the untraced one and its span counts matched the records.
    assert result["correct"] and result["failed"] == 0
    assert meta["passes"] == meta["traced_passes"] == 1
    assert list(tmp_path.glob("spans-pass*.npz"))

    assert qnbench.solver.backtrack is qnbench.linesearch.backtrack
    assert qnbench.solver.powell_damp is qnbench.lbfgs.powell_damp
    assert qnbench.solver.screen_pair is qnbench.lbfgs.screen_pair
    assert qnbench.bench.solve is qnbench.solver.solve
    assert qnbench.bench.get_problem is qnbench.problems.get_problem
    assert all(vars(cls)[attr] is fn for (cls, attr), fn in methods.items())
    assert shims.pristine()


def test_layer_fractions_cover_the_traced_pass(tmp_path):
    wl = tiny(harness.WORKLOADS["desk_noisy"])
    rec = shims.Recorder()
    with rec.installed():
        p = harness.run_pass(wl, wl.seeds(0), tmp_path)
    totals = rec.totals()
    assert shims.consistency_errors(totals, p.records) == []
    m = shims.layer_metrics(rec, totals, p.records, p.matrix_s, p.profile_s)
    assert sum(m[f"{layer}.self_frac"] for layer in shims.LAYERS) == pytest.approx(1.0)
    assert m["noise.f_bar.calls"] == sum(r.f_calls for r in p.records)
    assert m["solver.iters"] == sum(r.iters for r in p.records)


def test_checks_flag_tampered_results(tmp_path):
    wl = tiny(harness.WORKLOADS["desk_exact"])
    p = harness.run_pass(wl, wl.seeds(0), tmp_path)
    reference = checks.result_rows(p.records)
    assert checks.failed_operations(p.records, p.traces, p.read_back, wl.gtol, reference=reference) == (set(), [])

    bad = [dataclasses.replace(r) for r in p.records]
    bad[0].f_calls += 1
    failed, _ = checks.failed_operations(bad, p.traces, p.read_back, wl.gtol, reference=reference)
    assert failed == {checks.run_key(bad[0])}

    converged = next(i for i, r in enumerate(bad) if r.status == "converged")
    bad = [dataclasses.replace(r) for r in p.records]
    bad[converged].final_g_inf = 2 * wl.gtol
    failed, _ = checks.failed_operations(bad, p.traces, bad, wl.gtol)
    assert failed == {checks.run_key(bad[converged])}

    failed, _ = checks.failed_operations(p.records, p.traces, p.read_back, wl.gtol, expect_iters=10**6)
    assert len(failed) == len(p.records)


def test_refuses_to_run_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "desk_exact", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert not any(line.startswith("{") for line in out.stdout.splitlines())
