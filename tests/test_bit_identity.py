"""Pinned results of a small noisy benchmark matrix.

A pure speed-up must leave every ``runs.csv`` column except ``wall_ms``
bit-identical. This test pins those columns for a matrix that exercises
both solvers, both gradient-noise modes, the exhausted line-search branch
of the baseline, regularized (``mu > 0``) and unshifted directions, and
oracles that consume more than 4096 noise draws. Floats are compared by
their exact ``float.hex()`` form.

The pinned values live in ``golden_noisy_runs.json``. A change that
deliberately alters the arithmetic regenerates them with::

    PYTHONPATH=src python tests/test_bit_identity.py > tests/golden_noisy_runs.json

and says in its description how statuses and call counts moved.
"""

import json
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
            ["ours", "baseline_line"],
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


if __name__ == "__main__":
    print("[\n" + ",\n".join("  " + json.dumps(row) for row in snapshot()) + "\n]")
