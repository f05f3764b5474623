"""The committed benchmark trajectory files stay readable and consistent.

Each ``BENCH_<n>.json`` at the repository root records one change's
benchmark runs. Its workloads and end-to-end metrics must be those that
``BENCHMARK.json`` declares, its quartiles must be ordered, and every
summary it states must follow from its own per-run ``runs``: each side's
median and quartiles, in how many seed-paired runs the change read lower,
and whether the digests agree at every seed.
"""

import json
import re
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BENCH_FILES = sorted(p for p in ROOT.glob("BENCH_*.json") if re.fullmatch(r"BENCH_\d+\.json", p.name))
SIDES = ("parent", "change")


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
            for side in SIDES:
                q = sides[side]
                assert q["q1"] <= q["median"] <= q["q3"], (name, metric, side)


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_bench_file_summaries_follow_from_its_runs(path):
    bench = json.loads(path.read_text())
    for name, workload in bench["workloads"].items():
        runs = {side: {r["seed"]: r for r in workload["runs"][side]} for side in SIDES}
        assert len(runs["parent"]) == len(workload["runs"]["parent"]), (name, "repeated seed")
        assert runs["parent"].keys() == runs["change"].keys(), name
        seeds = sorted(runs["parent"])
        for metric, summary in workload["end_to_end"].items():
            for side in SIDES:
                values = [runs[side][s]["metrics"][metric] for s in seeds]
                q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
                assert summary[side] == {"q1": q1, "median": median, "q3": q3}, (name, metric, side)
            lower = sum(runs["change"][s]["metrics"][metric] < runs["parent"][s]["metrics"][metric] for s in seeds)
            assert (summary["change_lower_in_pairs"], summary["pairs"]) == (lower, len(seeds)), (name, metric)
        equal = all(
            runs["parent"][s][digest] == runs["change"][s][digest]
            for s in seeds
            for digest in ("runs_digest", "profile_digest")
        )
        assert workload["digests_equal_at_every_seed"] == equal, name
