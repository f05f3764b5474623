"""Pinned results of a small noisy benchmark matrix.

A pure speed-up must leave every ``runs.csv`` column except ``wall_ms``
bit-identical. This test pins those columns for a matrix that exercises
every solver variant but the two ``_fresh`` rows, both gradient-noise
modes, the exhausted line-search branch of the baseline, regularized
(``mu > 0``) and unshifted directions, and oracles that consume more than
4096 noise draws. Floats are compared by their exact ``float.hex()`` form.

The pinned values live in ``golden_noisy_runs.json``. A change that
deliberately alters the arithmetic regenerates them with::

    PYTHONPATH=src python tests/test_bit_identity.py > tests/golden_noisy_runs.json

and says in its description how statuses and call counts moved.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from qnbench.bench import run_matrix
from qnbench.noise import NoiseModel
from qnbench.solver import SolverConfig

GOLDEN = Path(__file__).with_name("golden_noisy_runs.json")
PROBLEMS = ["beale_n2", "wood_n4", "dixon_price_n10", "ext_powell_n20", "illcond_quadratic_n100", "trigonometric_n10"]


def snapshot() -> list[list]:
    rows = []
    for grad_mode in ("percomp", "rank1"):
        records = run_matrix(
            PROBLEMS,
            ["ours", "ours_ms", "baseline_line", "baseline_line_ms"],
            NoiseModel(kind="additive_uniform", level=1e-3, grad_mode=grad_mode),
            1e-2,
            [0, 1],
            eps_f=1e-2,
            base_cfg=SolverConfig(k_max=60),
        )
        for r in records:
            rows.append([
                grad_mode, r.problem, r.solver, r.seed, r.status, r.f_calls, r.g_calls, r.iters,
                float(r.final_f_bar).hex(), float(r.final_g_inf).hex(),
            ])
    return rows


def test_noisy_matrix_matches_pinned_results():
    assert snapshot() == json.loads(GOLDEN.read_text())


# Writes runs.csv (wall_ms zeroed) and one trace CSV per run of 30-iteration
# solves at n = 1e4 into the directory named by argv[1].
_LARGE_N_PROBE = """
import sys
from dataclasses import replace
from pathlib import Path
from qnbench import NoiseModel, SolverConfig, emit_csv, run_matrix
from qnbench.bench import write_trace_csv
out = Path(sys.argv[1])
records, traces = run_matrix(
    ["illcond_quadratic_n10000"], ["ours", "baseline_line"], NoiseModel(kind="additive_uniform", level=1e-3),
    0.0, [0], eps_f=1e-2, base_cfg=SolverConfig(k_max=30), keep_traces=True,
)
assert [r.iters for r in records] == [30, 30]
emit_csv([replace(r, wall_ms=0.0) for r in records], out / "runs.csv")
for (problem, solver, seed), trace in traces.items():
    write_trace_csv(trace, out / f"{problem}_{solver}_{seed}.csv")
"""


def test_large_n_results_do_not_depend_on_the_blas_thread_count(tmp_path):
    # OpenBLAS splits a ddot over more than 1e4 entries across its threads,
    # which changes the sum's last bits. At n <= 1e4 it does not, so a run's
    # bits must not depend on how many threads the host gives OpenBLAS.
    src = Path(__file__).resolve().parents[1] / "src"
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        out.mkdir()
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads}
        subprocess.run([sys.executable, "-c", _LARGE_N_PROBE, str(out)], env=env, check=True, timeout=120)
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert len(outputs[0]) == 3
    assert outputs[0] == outputs[1]


if __name__ == "__main__":
    print("[\n" + ",\n".join("  " + json.dumps(row) for row in snapshot()) + "\n]")
