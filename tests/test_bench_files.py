"""The committed benchmark trajectory files stay readable and consistent.

Each ``BENCH_<n>.json`` at the repository root records one change's
benchmark runs. Its workloads and end-to-end metrics must be those that
``BENCHMARK.json`` declares, and its quartiles must be ordered.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BENCH_FILES = sorted(p for p in ROOT.glob("BENCH_*.json") if re.fullmatch(r"BENCH_\d+\.json", p.name))


def test_there_is_a_trajectory():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_bench_file_matches_the_benchmark_spec(path):
    bench = json.loads(path.read_text())
    assert bench["pr"] == int(path.stem.split("_")[1])
    workloads = {w["name"] for w in SPEC["workloads"]}
    metrics = {m["name"] for m in SPEC["end_to_end"]}
    assert bench["workloads"] and set(bench["workloads"]) <= workloads
    for name, workload in bench["workloads"].items():
        assert workload["end_to_end"] and set(workload["end_to_end"]) <= metrics, name
        for metric, sides in workload["end_to_end"].items():
            for side in ("parent", "change"):
                q = sides[side]
                assert q["q1"] <= q["median"] <= q["q3"], (name, metric, side)
