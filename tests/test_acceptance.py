"""End-to-end acceptance suite.

Each criterion prints one PASS/FAIL line (visible with ``pytest -s`` or in
the captured output). The noisy benchmark matrix is executed once per
session and shared by the criteria that inspect its records and traces.
"""

import math
import statistics
import time
from unittest.mock import patch

import numpy as np
import pytest

import qnbench.lbfgs as lbfgs_mod
from lbfgs_reference import bfgs_spectral_bounds, materialize
from linesearch_reference import compute_delta
from qnbench.bench import aggregate_seeds, performance_profile, run_matrix
from qnbench.lbfgs import LbfgsMemory, screen_pair
from qnbench.linesearch import ARMIJO_C, BETA_MAX, BETA_MIN
from qnbench.noise import CAST_EPS_F, UNIFORM_EPS_F, NoiseModel, default_eps_f
from qnbench.problems import DESK_SUITE, get_problem
from qnbench.regularizer import RESTART_DROP, RegularizerState
from qnbench.solver import SolverConfig, solve

NOISE_EPS_F = 1e-2
NOISE_GTOL = 1e-2
EXACT_EPS_F = 2.22e-9
SOLVERS = ["ours", "baseline_line"]


def check(num, ok, desc):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


@pytest.fixture(scope="module")
def noise_bench():
    t0 = time.perf_counter()
    model = NoiseModel(kind="additive_uniform", level=1e-3)
    records, traces = run_matrix(
        DESK_SUITE,
        SOLVERS,
        model,
        NOISE_GTOL,
        range(20),
        parallelism=2,
        eps_f=NOISE_EPS_F,
        base_cfg=SolverConfig(k_max=1000),
        keep_traces=True,
    )
    wall = time.perf_counter() - t0
    return records, traces, wall


@pytest.fixture(scope="module")
def exact_bench():
    t0 = time.perf_counter()
    records = run_matrix(
        DESK_SUITE,
        SOLVERS,
        NoiseModel(),
        1e-5,
        [0],
        parallelism=2,
        eps_f=EXACT_EPS_F,
        base_cfg=SolverConfig(k_max=5000),
    )
    wall = time.perf_counter() - t0
    return records, wall


def test_criterion_1_noise_robustness_contrast(noise_bench):
    records, _, wall = noise_bench
    agg = aggregate_seeds(records)
    rates = {}
    for s in SOLVERS:
        solved = sum(1 for p in DESK_SUITE if math.isfinite(agg[(p, s)]))
        rates[s] = solved / len(DESK_SUITE)
    gap = rates["ours"] - rates["baseline_line"]

    curves = {c.solver: c for c in performance_profile(records)}
    taus = sorted({4.0} | {t for c in curves.values() for t, _ in c.points if t >= 4.0})
    dominated = all(
        curves["ours"].rho_at(t) >= curves["baseline_line"].rho_at(t) for t in taus
    )

    check(
        1,
        gap >= 0.20 and dominated and wall < 300.0,
        f"ours {rates['ours']:.0%} vs baseline {rates['baseline_line']:.0%} "
        f"(gap {gap * 100:.0f}pp, need >= 20pp); profile dominance for tau >= 4: {dominated}; "
        f"wall {wall:.0f}s < 300s",
    )


def test_criterion_2_exact_arithmetic_parity(exact_bench):
    records, wall = exact_bench
    agg = aggregate_seeds(records)
    base_solved = {p for p in DESK_SUITE if math.isfinite(agg[(p, "baseline_line")])}
    ours_solved = {p for p in DESK_SUITE if math.isfinite(agg[(p, "ours")])}
    coverage = len(base_solved & ours_solved) / max(len(base_solved), 1)
    ratios = [agg[(p, "ours")] / agg[(p, "baseline_line")] for p in base_solved & ours_solved]
    med = statistics.median(ratios)
    check(
        2,
        coverage >= 0.90 and med <= 2.0 and wall < 300.0,
        f"ours solves {coverage:.0%} of baseline's {len(base_solved)} problems "
        f"(need >= 90%); median call ratio {med:.2f} <= 2.0; wall {wall:.0f}s < 300s",
    )


def test_criterion_3_cost_experiment_shape():
    t0 = time.perf_counter()
    problem = get_problem("illcond_quadratic_n10000")
    walls = {}
    finals = {}
    iters = {}
    for variant in ("ours", "baseline_line"):
        cfg = SolverConfig(k_max=100, eps_gtol=0.0, eps_f=EXACT_EPS_F if variant == "ours" else 0.0, variant=variant)
        times = []
        for _ in range(5):
            t1 = time.perf_counter()
            res = solve(problem, NoiseModel(), cfg)
            times.append(time.perf_counter() - t1)
        walls[variant] = statistics.median(times)
        finals[variant] = res.final_f_bar
        iters[variant] = res.iterations
    wall = time.perf_counter() - t0
    ratio_f = finals["ours"] / finals["baseline_line"]
    ratio_t = walls["ours"] / walls["baseline_line"]
    check(
        3,
        iters["ours"] == 100
        and iters["baseline_line"] == 100
        and 0.1 <= ratio_f <= 10.0
        and ratio_t <= 2.0
        and wall < 120.0,
        f"both ran exactly 100 iterations; final objective ratio {ratio_f:.3g} in [0.1, 10]; "
        f"median per-iteration overhead {ratio_t:.2f}x <= 2x; wall {wall:.0f}s < 120s",
    )


def _replay_kplus_segments(trace):
    """Segment the K+ iterations of one trace between accumulator restarts."""
    best = math.inf
    segments = [[]]
    for rec in trace:
        if rec.mu == 0.0:
            if math.isfinite(best) and best - rec.f_bar > RESTART_DROP:
                segments.append([])
            best = min(best, rec.f_bar - rec.delta)
        else:
            segments[-1].append((rec.g_two**2, rec.mu))
    return [seg for seg in segments if seg]


def test_criterion_4_adagrad_norm_inequalities(noise_bench):
    _, traces, _ = noise_bench
    state = RegularizerState()
    varsigma, theta_min, theta_max = state.varsigma, state.theta_min, state.theta_max
    n_segments = 0
    worst_upper = worst_lower = 0.0
    for (problem, solver, seed), trace in traces.items():
        if solver != "ours":
            continue
        for seg in _replay_kplus_segments(trace):
            n_segments += 1
            total = varsigma + sum(s for s, _ in seg)
            lhs_sq = sum(s / m**2 for s, m in seg)
            upper = (math.log(total) - math.log(varsigma)) / theta_min**2
            lhs = sum(s / m for s, m in seg)
            lower = (math.sqrt(total) - math.sqrt(varsigma)) / theta_max
            worst_upper = max(worst_upper, lhs_sq / upper)
            worst_lower = max(worst_lower, lower / lhs if lhs > 0 else math.inf)
    ok = n_segments > 0 and worst_upper <= 1.0 + 1e-9 and worst_lower <= 1.0 + 1e-9
    check(
        4,
        ok,
        f"{n_segments} K+ segments: sum ||g||^2/mu^2 within {worst_upper:.6f} of the log bound, "
        f"sum ||g||^2/mu within {worst_lower:.6f} of the sqrt bound (both <= 1 + 1e-9)",
    )


def test_criterion_5_spectral_bounds():
    t0 = time.perf_counter()
    lam, big = 0.5, 2.0
    rng = np.random.default_rng(20240501)
    violations = 0
    # The screen with the theorem's bounds in place of the loose defaults.
    with patch.multiple(lbfgs_mod, SCREEN_MIN_CURV=lam, SCREEN_MAX_CURV=big):
        for _ in range(200):
            n = 10
            target = int(rng.integers(1, 11))
            pairs = []
            while len(pairs) < target:
                q, _ = np.linalg.qr(rng.standard_normal((n, n)))
                a = (q * rng.uniform(lam, big, n)) @ q.T
                s = rng.standard_normal(n)
                y = a @ s
                pair = screen_pair(s, y)
                if pair is not None:
                    pairs.append(pair)
            m, big_m = bfgs_spectral_bounds(len(pairs), lam, big)
            ev = np.linalg.eigvalsh(materialize(pairs, 0.0, n))
            if ev.min() < m - 1e-8 or ev.max() > big_m + 1e-8:
                violations += 1
    wall = time.perf_counter() - t0
    check(
        5,
        violations == 0 and wall < 10.0,
        f"200 randomized screened pair sets: {violations} eigenvalue bound violations "
        f"(tolerance 1e-8); wall {wall:.1f}s < 10s",
    )


def test_criterion_6_two_loop_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 21))
        mem = LbfgsMemory(10)
        pairs = []
        target = int(rng.integers(0, 11))
        while len(pairs) < target:
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            a = (q * rng.uniform(0.05, 20.0, n)) @ q.T
            s = rng.standard_normal(n)
            y = a @ s
            pair = screen_pair(s, y)
            if pair is not None:
                mem.push(pair)
                pairs.append(pair)
        mu = float(rng.choice([0.0, 0.1, 1.0, 10.0]))
        g = rng.standard_normal(n)
        d_fast = mem.direction(g, mu)
        d_dense = -np.linalg.solve(materialize(pairs, mu, n), g)
        rel = float(np.linalg.norm(d_fast - d_dense)) / max(float(np.linalg.norm(d_dense)), 1e-300)
        worst = max(worst, rel)
    wall = time.perf_counter() - t0
    check(
        6,
        worst <= 1e-9 and wall < 10.0,
        f"500 randomized cases: worst relative deviation {worst:.2e} <= 1e-9; wall {wall:.1f}s < 10s",
    )


def test_criterion_7_line_search_invariants(noise_bench):
    _, traces, _ = noise_bench
    n_steps = n_deltas = n_tele = 0
    for (problem, solver, seed), trace in traces.items():
        if solver != "ours":
            continue
        for a, b in zip(trace, trace[1:]):
            assert b.f_bar <= a.f_bar + a.delta, (problem, seed, a.k)
            n_steps += 1
            recomputed = compute_delta(NOISE_EPS_F, a.f_bar, b.f_bar)
            assert recomputed == a.delta, (problem, seed, a.k)
            n_deltas += 1
        k0 = [rec for rec in trace if rec.mu == 0.0]
        for a, b in zip(k0, k0[1:]):
            assert b.f_bar <= a.f_bar - a.delta, (problem, seed, a.k, b.k)
            n_tele += 1
    ok = n_steps > 0 and n_tele > 0
    check(
        7,
        ok,
        f"{n_steps} accepted steps within the slack bound, {n_deltas} slack values "
        f"bit-identical to the recomputation, {n_tele} consecutive K0 pairs telescoping",
    )


def test_criterion_8_rate_trend():
    t0 = time.perf_counter()
    names = ["sphere_n10", "illcond_quadratic_n10", "beale_n2", "trigonometric_n10", "broyden_tridiag_n10"]
    worst_ratio = 0.0
    for name in names:
        cfg = SolverConfig(k_max=1600, eps_gtol=0.0, eps_f=EXACT_EPS_F, variant="ours")
        res = solve(get_problem(name), NoiseModel(), cfg)
        g_sq = np.array([t.g_two**2 for t in res.trace])
        padded = np.concatenate([g_sq, np.zeros(max(0, 1600 - len(g_sq)))])
        s400 = float(np.sum(padded[:400]))
        s1600 = float(np.sum(padded[:1600]))
        assert min(t.g_inf for t in res.trace[:400]) <= 1e-5 or len(res.trace) < 400
        worst_ratio = max(worst_ratio, s1600 / s400)
    wall = time.perf_counter() - t0
    check(
        8,
        worst_ratio <= 1.05 and wall < 120.0,
        f"5 exact problems: sum of squared gradient norms grows by at most "
        f"{worst_ratio:.6f}x from k=400 to k=1600 (<= 1.05); wall {wall:.0f}s < 120s",
    )


def test_criterion_9_configuration_defaults():
    scfg = SolverConfig()
    ok = (
        scfg.memory_size == 10
        and scfg.k_max == 15000
        and ARMIJO_C == 1e-4
        and BETA_MIN == 1.0 / 16.0
        and BETA_MAX == 15.0 / 16.0
        and RegularizerState().varsigma == 1e-10
        and UNIFORM_EPS_F == 1e-2
        and CAST_EPS_F == {32: 1.19e-3, 16: 9.77e-2}
        and default_eps_f(NoiseModel(kind="additive_uniform", level=1e-3)) == 1e-2
    )
    check(
        9,
        ok,
        "defaults: c=1e-4, beta=[1/16, 15/16], varsigma=1e-10, memory=10, k_max=15000, "
        "eps_f table {1e-2, 1.19e-3, 9.77e-2}",
    )
