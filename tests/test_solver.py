import copy
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qnbench.solver as solver_mod
from qnbench.bench import derive_oracle_seed
from qnbench.linesearch import MAX_REJECTIONS
from qnbench.noise import KINDS, NoiseModel
from qnbench.problems import DESK_SUITE, ObjectiveProblem, get_problem
from qnbench.regularizer import RegularizerState
from qnbench.solver import STATUSES, VARIANTS, SolverConfig, solve


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
    res = solve(problem, model, SolverConfig(k_max=60, eps_gtol=1e-2, variant="baseline_line"))
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
    p = ObjectiveProblem("flat_n2", lambda x: 0.5 * float(x @ x), lambda x: np.array(x), np.zeros(2))
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


@pytest.mark.parametrize("k_max", [1, 2])
def test_iterate_after_the_last_iteration_takes_the_stop_test(k_max):
    # One exact sphere iteration lands on the minimizer: a run capped at
    # that one iteration meets its tolerance as a run capped at two does.
    res = solve(get_problem("sphere_n10"), NoiseModel(), SolverConfig(k_max=k_max))
    assert (res.status, res.iterations, res.final_g_inf) == ("converged", 1, 0.0)
    assert (res.f_calls, res.g_calls) == (2, 2)


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
        base = solve(p, model, SolverConfig(eps_gtol=1e-2, k_max=800, variant="baseline_line"))
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
    cfg = SolverConfig(eps_gtol=1e-2, eps_f=eps_f if variant != "baseline_line" else 0.0, k_max=400, variant=variant)
    res = solve(get_problem(problem), model, cfg)
    expected_f = 1 + sum(1 + t.rejections for t in res.trace)
    assert res.f_calls == expected_f
    assert res.g_calls == 1 + res.iterations + res.discarded_grad_probes


@pytest.mark.parametrize("noisy", [True, False], ids=["uniform:1e-3", "exact"])
@pytest.mark.parametrize("variant", list(VARIANTS))
def test_discarded_probes_are_the_rescaled_searches(monkeypatch, variant, noisy):
    # A rescale probe is taken at the first trial, so it is lost exactly when
    # the search takes the rescaled step instead.
    backtrack = solver_mod.backtrack
    rescaled = []

    def counting_backtrack(*args, **kwargs):
        res = backtrack(*args, **kwargs)
        rescaled.append(res.rescaled)
        return res

    monkeypatch.setattr(solver_mod, "backtrack", counting_backtrack)
    name = "illcond_quadratic_n10"
    if noisy:
        model, eps_f = NoiseModel(kind="additive_uniform", level=1e-3, seed=derive_oracle_seed(name, 0)), 1e-2
    else:
        model, eps_f = NoiseModel(), 2.22e-9
    cfg = SolverConfig(eps_gtol=1e-8, eps_f=eps_f if VARIANTS[variant].slack else 0.0, k_max=300, variant=variant)
    res = solve(get_problem(name), model, cfg)
    assert len(rescaled) == res.iterations
    assert res.discarded_grad_probes == sum(rescaled)
    if VARIANTS[variant].mu_rule == "off":
        assert res.discarded_grad_probes == 0
    else:
        assert res.discarded_grad_probes > 0


def test_fresh_fk_costs_one_extra_call_per_iteration():
    model = NoiseModel(kind="additive_uniform", level=1e-3, seed=9)
    base = SolverConfig(eps_gtol=1e-2, eps_f=1e-2, k_max=300, variant="ours")
    res = solve(get_problem("beale_n2"), model, base)
    fresh_cfg = SolverConfig(eps_gtol=1e-2, eps_f=1e-2, k_max=300, variant="ours_fresh")
    res_fresh = solve(get_problem("beale_n2"), model, fresh_cfg)
    expected_f = 1 + sum(1 + t.rejections for t in res_fresh.trace) + max(res_fresh.iterations - 1, 0)
    assert res_fresh.f_calls == expected_f
    assert res.status == "converged"


def test_fresh_fk_changes_a_baseline_outcome():
    # Why the _fresh rows are kept: re-evaluating f at each iterate rescues
    # a noisy baseline run that otherwise spins through exhausted searches.
    model = NoiseModel(kind="additive_uniform", level=1e-3, seed=derive_oracle_seed("broyden_tridiag_n10", 0))
    outcomes = []
    for variant in ("baseline_line", "baseline_line_fresh"):
        cfg = SolverConfig(eps_gtol=1e-2, k_max=1000, variant=variant)
        res = solve(get_problem("broyden_tridiag_n10"), model, cfg)
        outcomes.append((res.status, res.iterations, res.f_calls))
    assert outcomes == [("max_iters", 1000, 31462), ("converged", 14, 34)]


def test_ms_variant_runs_and_converges_exact():
    res = solve(get_problem("rosenbrock_n2"), NoiseModel(), exact(eps_gtol=1e-5, eps_f=2.22e-9, variant="ours_ms", k_max=2000))
    assert res.status == "converged"


def test_ms_variant_changes_an_exact_outcome():
    # Why the _ms rows are kept: in exact arithmetic the modified secant
    # slows rosenbrock_n2 past a 1000-iteration cap that ours meets.
    outcomes = []
    for variant in ("ours", "ours_ms"):
        cfg = exact(eps_gtol=1e-5, eps_f=2.22e-9, variant=variant, k_max=1000)
        res = solve(get_problem("rosenbrock_n2"), NoiseModel(), cfg)
        outcomes.append((res.status, res.iterations))
    assert outcomes == [("converged", 267), ("max_iters", 1000)]


def test_baseline_ms_variant():
    res = solve(
        get_problem("beale_n2"), NoiseModel(), exact(eps_gtol=1e-5, variant="baseline_line_ms", k_max=2000)
    )
    assert res.status == "converged"
    assert all(t.mu == 0.0 and t.delta == 0.0 for t in res.trace)


def test_oracle_error_returns_partial_result():
    # quadratic with its minimum beyond the binary16 range: the first trial
    # point overflows the input cast
    p = ObjectiveProblem(
        "farmin_n1",
        lambda x: 0.5 * float((x[0] - 70000.0) ** 2),
        lambda x: np.array([x[0] - 70000.0]),
        np.zeros(1),
    )
    model = NoiseModel(kind="precision_cast", bits=16)
    res = solve(p, model, SolverConfig(eps_gtol=1e-8, eps_f=9.77e-2, variant="ours", k_max=50))
    assert res.status == "oracle_error"


def _walled_rosenbrock(where, value):
    # rosenbrock_n2 whose f (where="f") is ``value`` at x[1] <= 0.5, or whose
    # gradient (where="grad") is ``value`` in each entry at x[0] >= 0.5; the
    # iterates from x0 = (-1.2, 1) reach either wall after some iterations.
    base = get_problem("rosenbrock_n2")
    if where == "f":
        return ObjectiveProblem("walled_n2", lambda x: base.f(x) if x[1] > 0.5 else value, base.grad, base.x0)
    grad = lambda x: base.grad(x) if x[0] < 0.5 else np.full(2, value)
    return ObjectiveProblem("walled_n2", base.f, grad, base.x0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("where", ["f", "grad"])
def test_nonfinite_oracle_value_ends_in_oracle_error(where, value):
    # The refused call is counted, the trace keeps the completed iterations,
    # and x_final lies before the wall.
    p = _walled_rosenbrock(where, value)
    res = solve(p, NoiseModel(), SolverConfig(variant="ours", k_max=1000))
    assert res.status == "oracle_error"
    assert res.iterations == (25 if where == "f" else 48)
    # The iteration that meets the wall makes one objective probe, refused
    # at the f wall and accepted at the gradient wall, whose call is refused.
    last = res.trace[-1]
    assert (res.f_calls - last.f_calls, res.g_calls - last.g_calls) == ((1, 0) if where == "f" else (1, 1))
    assert math.isnan(res.final_f_bar) and math.isnan(res.final_g_inf)
    assert math.isfinite(p.f(res.x_final)) and np.isfinite(p.grad(res.x_final)).all()


def test_x_final_of_an_oracle_error_run_is_its_last_iterate():
    p = _walled_rosenbrock("f", float("nan"))
    res = solve(p, NoiseModel(), SolverConfig(variant="ours", k_max=1000))
    assert res.status == "oracle_error"
    rerun = solve(p, NoiseModel(), SolverConfig(variant="ours", k_max=res.iterations))
    assert rerun.status == "max_iters"
    assert rerun.x_final.tobytes() == res.x_final.tobytes()


@pytest.mark.parametrize("variant", ["ours", "baseline_line"])
def test_x_final_is_where_the_final_gradient_was_taken(variant):
    p = get_problem("rosenbrock_n2")
    res = solve(p, NoiseModel(), exact(eps_gtol=1e-5, variant=variant))
    assert res.status == "converged" and res.iterations > 0
    assert float(np.abs(p.grad(res.x_final)).max()) == res.final_g_inf


def _plateau(f):
    # The gradient is ones at x0 and 1e160 per entry everywhere else, where
    # it is finite but g'g overflows.
    x0 = np.array([1.0, -2.0, 3.0])

    def grad(x):
        return np.ones(3) if x.tobytes() == x0.tobytes() else np.full(3, 1e160)

    return ObjectiveProblem("plateau_n3", f, grad, x0)


def test_overflowing_squared_gradient_norm_ends_in_oracle_error():
    # The second iteration's finite gradient has g'g = inf: the run ends
    # there, before a direction is formed or a trial point probed, and no
    # ValueError escapes.
    p = _plateau(lambda x: 1.0 + 0.0 * float(x.sum()))
    with np.errstate(over="ignore", invalid="ignore"):
        res = solve(p, NoiseModel(), SolverConfig(eps_f=1e-2, k_max=50, variant="ours"))
    assert res.status == "oracle_error"
    assert (res.iterations, res.f_calls, res.g_calls) == (1, 2, 2)


def test_overflowing_squared_gradient_norm_ends_the_run_when_nan_points_evaluate():
    # f = 1 everywhere, so a NaN trial point would not be refused: without
    # the g'g check, mu = inf gives a NaN direction that is line-searched on
    # every one of the k_max iterations.
    p = _plateau(lambda x: 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        res = solve(p, NoiseModel(), SolverConfig(eps_f=1e-2, k_max=50, variant="ours"))
    assert res.status == "oracle_error"
    assert (res.iterations, res.f_calls, res.g_calls) == (1, 2, 2)
    assert np.isnan(res.final_g_inf)


def test_nan_directional_derivative_takes_the_steepest_descent_step(monkeypatch):
    # A NaN g'd fails the descent test, so the step is -g / (1 + mu)
    # instead of a line search along a NaN direction.
    monkeypatch.setattr(solver_mod.LbfgsMemory, "direction", lambda self, g, mu: np.full_like(g, np.nan))
    res = solve(get_problem("sphere_n10"), NoiseModel(), exact(eps_gtol=1e-8, variant="ours"))
    assert res.status == "converged"
    assert res.iterations == 1


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


NAN = float("nan")
BAD_SETTINGS = [
    ("memory_size", 0), ("memory_size", -1), ("memory_size", 2.5),
    ("k_max", 2.5), ("k_max", NAN),
    ("eps_gtol", -1.0), ("eps_gtol", NAN),
    ("eps_f", -0.1), ("eps_f", 1.0), ("eps_f", NAN),
    ("eps_gtol", 10**400), ("eps_f", 10**400),
]


@pytest.mark.parametrize("field, value", BAD_SETTINGS)
def test_config_refuses_bad_settings(field, value):
    with pytest.raises(ValueError, match=field):
        SolverConfig(**{field: value})


def test_config_keeps_edge_settings():
    # large_n runs with eps_gtol = 0.
    SolverConfig(memory_size=1, eps_gtol=0.0, eps_f=0.0)


@pytest.mark.parametrize("variant", ["baseline_line", "baseline_line_ms"])
def test_a_variant_without_a_slack_refuses_a_nonzero_eps_f(variant):
    # The line-search baselines run the classical Armijo test: an eps_f
    # given to them would name a run they do not make.
    with pytest.raises(ValueError, match=rf"eps_f .*{variant}"):
        SolverConfig(variant=variant, eps_f=1e-2)
    assert SolverConfig(variant=variant, eps_f=0).eps_f == 0.0
    # -0.0 is the zero slack too, kept as +0.0 so a trace's delta stays +0.0.
    assert math.copysign(1.0, SolverConfig(variant=variant, eps_f=-0.0).eps_f) == 1.0


@pytest.mark.parametrize("name", VARIANTS)
def test_a_variant_row_names_rules_solve_implements(name):
    variant = VARIANTS[name]
    # solve implements these two; a row naming another would not run it.
    assert variant.mu_rule in ("gated", "off")
    assert all(isinstance(flag, bool) for flag in (variant.slack, variant.modified_secant, variant.fresh_fk))


@pytest.mark.parametrize("name", VARIANTS)
def test_a_variant_refuses_eps_f_exactly_when_it_has_no_slack(name):
    try:
        SolverConfig(variant=name, eps_f=1e-2)
    except ValueError as exc:
        assert not VARIANTS[name].slack
        assert "eps_f" in str(exc)
        # The message names the variants that do take one.
        assert all(s in str(exc) for s, v in VARIANTS.items() if v.slack)
    else:
        assert VARIANTS[name].slack


@pytest.mark.parametrize("name", VARIANTS)
def test_a_run_follows_its_variant_row(name):
    # rosenbrock_n2 under uniform 1e-3 (the oracle seed run_matrix derives
    # for run seed 0), gtol 1e-2, k_max 300, and eps_f 1e-2 where the row
    # has a slack: every row shifts, takes a slack and re-evaluates f as its
    # record says.
    variant = VARIANTS[name]
    model = NoiseModel(kind="additive_uniform", level=1e-3, seed=derive_oracle_seed("rosenbrock_n2", 0))
    cfg = SolverConfig(eps_gtol=1e-2, k_max=300, eps_f=1e-2 if variant.slack else 0.0, variant=name)
    res = solve(get_problem("rosenbrock_n2"), model, cfg)
    trace = res.trace
    assert len(trace) > 0
    fresh = len(trace) - 1 if variant.fresh_fk else 0
    assert res.f_calls == 1 + sum(1 + r.rejections for r in trace) + fresh
    if variant.mu_rule == "off":
        assert all(r.mu == 0.0 for r in trace)
    else:
        assert any(r.mu > 0.0 for r in trace)
    if variant.slack:
        assert all(r.delta > 0.0 for r in trace)
    else:
        assert all(r.delta == 0.0 for r in trace)

def float32_run(eps_f, eps_gtol):
    model = NoiseModel(kind="additive_uniform", level=1e-3, seed=1)
    cfg = SolverConfig(eps_gtol=eps_gtol, eps_f=eps_f, k_max=50)
    return solve(get_problem("rosenbrock_n2"), model, cfg)


def test_numpy_float_settings_run_in_double_precision():
    # Under NumPy 2's scalar rules a float32 setting would pull the slack
    # and the convergence test into float32; the run equals the one under
    # the double the setting equals, bit for bit.
    narrow = float32_run(np.float32(1e-2), np.float32(1e-2))
    wide = float32_run(float(np.float32(1e-2)), float(np.float32(1e-2)))
    assert narrow.status == wide.status and narrow.f_calls == wide.f_calls
    assert [repr(r) for r in narrow.trace] == [repr(r) for r in wide.trace]
    assert narrow.trace[0].delta.hex() == wide.trace[0].delta.hex()


def test_a_gradient_one_ulp_above_a_float32_tolerance_is_not_converged():
    gtol = np.float32(0.01)
    above = math.nextafter(float(gtol), math.inf)
    p = ObjectiveProblem(
        "sphere_above_n1", lambda x: 0.5 * float(x.dot(x)), lambda x: np.array(x, dtype=float), np.array([above])
    )
    res = solve(p, NoiseModel(), exact(eps_gtol=gtol))
    assert res.iterations >= 1


NOISE_MODELS = st.one_of(
    st.just(NoiseModel()),
    st.builds(
        lambda level, mode: NoiseModel(kind="additive_uniform", level=level, grad_mode=mode),
        st.floats(-4.0, -1.0).map(lambda e: 10.0**e),
        st.sampled_from(["percomp", "rank1"]),
    ),
    st.builds(lambda bits: NoiseModel(kind="precision_cast", bits=bits), st.sampled_from([32, 16])),
)


@st.composite
def whole_runs(draw):
    """A desk run: problem, noise model and seed, and every solver setting."""
    variant = draw(st.sampled_from(list(VARIANTS)))
    cfg = SolverConfig(
        memory_size=draw(st.integers(1, 12)),
        k_max=draw(st.integers(1, 40)),
        eps_gtol=1e-3,
        eps_f=draw(st.floats(0.0, 0.5)) if VARIANTS[variant].slack else 0.0,
        variant=variant,
    )
    model = draw(NOISE_MODELS)
    if "seed" in KINDS[model.kind]:
        model = replace(model, seed=draw(st.integers(0, 2**64 - 1)))
    return get_problem(draw(st.sampled_from(DESK_SUITE))), model, cfg


def run_bytes(res):
    """Everything a run returns, in a form whose equality is equality of bits."""
    rows = [repr(r) for r in res.trace]
    return (res.status, res.f_calls, res.g_calls, res.discarded_grad_probes,
            repr(res.final_f_bar), repr(res.final_g_inf), res.x_final.tobytes(), rows)


@given(whole_runs())
@settings(max_examples=60, deadline=None)
def test_whole_loop_properties(run):
    problem, model, cfg = run
    res = solve(problem, model, cfg)
    trace = res.trace
    assert res.status in STATUSES
    # Only an OracleError ends a run before the cap or the tolerance.
    assert res.iterations <= cfg.k_max
    if res.status == "max_iters":
        assert res.iterations == cfg.k_max
        assert not res.final_g_inf <= cfg.eps_gtol
    if res.status == "converged":
        assert res.final_g_inf <= cfg.eps_gtol
    if res.status != "oracle_error":
        assert res.g_calls == 1 + res.iterations + res.discarded_grad_probes
        fresh = max(res.iterations - 1, 0) if VARIANTS[cfg.variant].fresh_fk else 0
        assert res.f_calls == 1 + sum(1 + r.rejections for r in trace) + fresh
        if trace:
            assert (trace[-1].f_calls, trace[-1].g_calls) == (res.f_calls, res.g_calls)
    for a, b in zip(trace, trace[1:]):
        assert b.f_calls >= a.f_calls and b.g_calls >= a.g_calls
    assert run_bytes(solve(problem, model, cfg)) == run_bytes(res)
    for r in trace:
        if r.mu > 0.0:
            assert r.mu >= RegularizerState.theta_min * r.g_two
    # The slack exceeds 2 eps_f >= 2 level, which bounds the difference of
    # two noisy values at one point: a small enough step always passes.
    if model.kind == "additive_uniform" and VARIANTS[cfg.variant].slack and cfg.eps_f >= model.level:
        assert all(r.rejections < MAX_REJECTIONS for r in trace)
