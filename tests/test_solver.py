import copy

import numpy as np
import pytest

import qnbench.solver as solver_mod
from qnbench.bench import derive_oracle_seed
from qnbench.noise import NoiseModel
from qnbench.problems import ObjectiveProblem, get_problem
from qnbench.solver import SolverConfig, solve


def exact(**kw):
    kw.setdefault("eps_f", 0.0)
    return SolverConfig(**kw)


def test_wrapper_over_objective_sees_every_counted_call(monkeypatch):
    # A timing wrapper put over f on a shallow copy of a registry problem
    # must see one call per counted objective call, while the memo beneath
    # it skips re-evaluating the repeated probes of exhausted searches.
    problem = copy.copy(get_problem("beale_n2"))
    memo = problem.f
    clean_fn = memo.__wrapped__
    backtrack = solver_mod.backtrack
    counts = {"wrapper": 0, "clean": 0, "exhausted": 0}

    def clean(x):
        counts["clean"] += 1
        return clean_fn(x)

    def wrapper(x):
        counts["wrapper"] += 1
        return memo(x)

    def counting_backtrack(*args, **kwargs):
        res = backtrack(*args, **kwargs)
        counts["exhausted"] += res.exhausted
        return res

    monkeypatch.setattr(memo, "__wrapped__", clean)
    monkeypatch.setattr(solver_mod, "backtrack", counting_backtrack)
    object.__setattr__(problem, "f", wrapper)
    model = NoiseModel(kind="additive_uniform", level=1e-3, seed=derive_oracle_seed("beale_n2", 0))
    res = solve(problem, model, SolverConfig(k_max=60, eps_gtol=1e-2, eps_f=1e-2, variant="baseline_line"))
    assert counts["exhausted"] > 0
    assert counts["wrapper"] == res.f_calls
    assert counts["clean"] < res.f_calls


def test_sphere_exact_converges_immediately():
    res = solve(get_problem("sphere_n10"), NoiseModel(), exact(eps_gtol=1e-8, variant="ours"))
    assert res.status == "converged"
    assert res.iterations <= 5
    assert res.final_f_bar <= 1e-15
    assert res.final_g_inf <= 1e-8


def test_stationary_start_stops_without_line_search():
    p = ObjectiveProblem("flat_n2", 2, lambda x: 0.5 * float(x @ x), lambda x: np.array(x), np.zeros(2))
    res = solve(p, NoiseModel(), exact(eps_gtol=1e-8, variant="ours"))
    assert res.status == "converged"
    assert res.iterations == 0
    assert res.f_calls == 1
    assert res.g_calls == 1


def test_no_gtol_stop_runs_exactly_k_max_iterations():
    cfg = exact(eps_gtol=0.0, k_max=10, variant="ours")
    res = solve(get_problem("illcond_quadratic_n100"), NoiseModel(), cfg)
    assert res.status == "max_iters"
    assert res.iterations == 10
    assert [t.k for t in res.trace] == list(range(10))


def test_baseline_matches_ours_on_easy_convex_problem():
    p = get_problem("sphere_n100")
    r1 = solve(p, NoiseModel(), exact(eps_gtol=1e-8, variant="ours"))
    r2 = solve(p, NoiseModel(), exact(eps_gtol=1e-8, variant="baseline_line"))
    assert r1.status == r2.status == "converged"
    assert abs(r1.iterations - r2.iterations) <= 2
    # with eps_f = 0 both run the identical acceptance test; on an all-K0
    # trajectory the traces coincide exactly
    for a, b in zip(r1.trace, r2.trace):
        assert a.f_bar == b.f_bar and a.alpha == b.alpha


def test_noisy_rosenbrock_ours_converges():
    model = NoiseModel(kind="additive_uniform", level=1e-3, seed=0)
    cfg = SolverConfig(eps_gtol=1e-2, eps_f=1e-2, k_max=1000, variant="ours")
    res = solve(get_problem("rosenbrock_n2"), model, cfg)
    assert res.status == "converged"
    assert res.final_g_inf <= 1e-2


def test_noisy_contrast_over_seeds():
    # the headline behavior: under noise the relaxed method keeps converging
    # while the classical line-search variant mostly stalls
    p = get_problem("rosenbrock_n2")
    ours_ok = base_ok = 0
    for seed in range(8):
        model = NoiseModel(kind="additive_uniform", level=1e-3, seed=seed)
        ours = solve(p, model, SolverConfig(eps_gtol=1e-2, eps_f=1e-2, k_max=800, variant="ours"))
        base = solve(p, model, SolverConfig(eps_gtol=1e-2, eps_f=1e-2, k_max=800, variant="baseline_line"))
        ours_ok += ours.status == "converged"
        base_ok += base.status == "converged"
    assert ours_ok > 4
    assert base_ok < 4
    assert ours_ok > base_ok


def test_trace_invariants_on_noisy_run():
    model = NoiseModel(kind="additive_uniform", level=1e-3, seed=3)
    cfg = SolverConfig(eps_gtol=1e-2, eps_f=1e-2, k_max=500, variant="ours")
    res = solve(get_problem("chained_rosenbrock_n10"), model, cfg)
    trace = res.trace
    assert trace
    for rec in trace:
        assert (rec.mu == 0.0) == (rec.set_label == "K0")
        assert rec.mu >= 0.0
        assert 0.0 < rec.alpha <= 1.0
        assert rec.delta >= 0.0
    # bounded temporary increase, using the slack of the accepted step
    for a, b in zip(trace, trace[1:]):
        assert b.f_bar <= a.f_bar + a.delta
    # counters monotone
    for a, b in zip(trace, trace[1:]):
        assert b.f_calls >= a.f_calls and b.g_calls >= a.g_calls


@pytest.mark.parametrize("variant,problem,noisy", [
    ("ours", "beale_n2", False),
    ("ours", "chained_rosenbrock_n10", True),
    ("ours_ms", "wood_n4", True),
    ("baseline_line", "beale_n2", True),
])
def test_oracle_call_accounting(variant, problem, noisy):
    model = NoiseModel(kind="additive_uniform", level=1e-3, seed=5) if noisy else NoiseModel()
    eps_f = 1e-2 if noisy else 0.0
    cfg = SolverConfig(eps_gtol=1e-2, eps_f=eps_f, k_max=400, variant=variant)
    res = solve(get_problem(problem), model, cfg)
    expected_f = 1 + sum(1 + t.rejections for t in res.trace)
    assert res.f_calls == expected_f
    assert res.g_calls == 1 + res.iterations + res.discarded_grad_probes


def test_fresh_fk_costs_one_extra_call_per_iteration():
    model = NoiseModel(kind="additive_uniform", level=1e-3, seed=9)
    base = SolverConfig(eps_gtol=1e-2, eps_f=1e-2, k_max=300, variant="ours")
    res = solve(get_problem("beale_n2"), model, base)
    fresh_cfg = SolverConfig(eps_gtol=1e-2, eps_f=1e-2, k_max=300, variant="ours", fresh_fk=True)
    res_fresh = solve(get_problem("beale_n2"), model, fresh_cfg)
    expected_f = 1 + sum(1 + t.rejections for t in res_fresh.trace) + max(res_fresh.iterations - 1, 0)
    assert res_fresh.f_calls == expected_f
    assert res.status == "converged"


def test_ms_variant_runs_and_converges_exact():
    res = solve(get_problem("rosenbrock_n2"), NoiseModel(), exact(eps_gtol=1e-5, eps_f=2.22e-9, variant="ours_ms", k_max=2000))
    assert res.status == "converged"


def test_baseline_ms_variant():
    res = solve(
        get_problem("beale_n2"), NoiseModel(), exact(eps_gtol=1e-5, eps_f=2.22e-9, variant="baseline_line_ms", k_max=2000)
    )
    assert res.status == "converged"
    assert all(t.mu == 0.0 and t.delta == 0.0 for t in res.trace)


def test_oracle_error_returns_partial_result():
    # quadratic with its minimum beyond the binary16 range: the first trial
    # point overflows the input cast
    p = ObjectiveProblem(
        "farmin_n1", 1,
        lambda x: 0.5 * float((x[0] - 70000.0) ** 2),
        lambda x: np.array([x[0] - 70000.0]),
        np.zeros(1),
    )
    model = NoiseModel(kind="precision_cast", bits=16)
    res = solve(p, model, SolverConfig(eps_gtol=1e-8, eps_f=9.77e-2, variant="ours", k_max=50))
    assert res.status == "oracle_error"


def test_timeout_status():
    cfg = SolverConfig(eps_gtol=0.0, k_max=10**6, time_budget=0.0, variant="ours")
    res = solve(get_problem("illcond_quadratic_n100"), NoiseModel(), cfg)
    assert res.status == "timeout"


def test_descent_direction_every_iteration():
    model = NoiseModel(kind="additive_uniform", level=1e-3, seed=1)
    cfg = SolverConfig(eps_gtol=1e-2, eps_f=1e-2, k_max=1000, variant="ours")
    res = solve(get_problem("ext_rosenbrock_n10"), model, cfg)
    assert res.status == "converged"
    for rec in res.trace:
        assert rec.g_two > 0.0


def test_variant_dispatch_and_validation():
    p = get_problem("sphere_n2")
    with pytest.raises(ValueError):
        SolverConfig(variant="nonsense")
    with pytest.raises(ValueError):
        SolverConfig(k_max=0)
    r = solve(p, NoiseModel(), exact(eps_gtol=1e-8, variant="baseline_line"))
    assert r.status == "converged"
