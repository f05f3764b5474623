import dataclasses

import numpy as np
import pytest

from finite_diff import finite_diff_gradient
from qnbench.problems import (
    DESK_SUITE,
    LastValueMemo,
    ObjectiveProblem,
    get_problem,
    make_ext_powell,
    make_ext_rosenbrock,
    make_illcond_quadratic,
    registry,
    suite_names,
)


def counted_sum_problem():
    seen = []

    def f(x):
        seen.append(x.dtype)
        return float(np.add.reduce(x, axis=None))

    return ObjectiveProblem("sum_n2", f, lambda x: np.ones(2), np.zeros(2)), seen


def test_objective_memo_returns_fresh_values_after_mutation():
    p, seen = counted_sum_problem()
    x = np.array([1.0, 2.0])
    assert p.f(x) == 3.0
    evaluations = len(seen)
    assert p.f(x.copy()) == 3.0  # equal bytes, other array: a hit
    assert len(seen) == evaluations
    x[0] = 5.0  # in-place mutation of the array the entry was taken from
    assert p.f(x) == 7.0
    assert len(seen) == evaluations + 1


def test_objective_memo_never_serves_another_dtype_or_shape():
    p, seen = counted_sum_problem()
    x = np.array([1.0, 2.0])
    assert p.f(x) == 3.0
    for alias in (x.view(np.int64), x.view(np.float32), x.reshape(1, 2)):
        assert alias.tobytes() == x.tobytes()
        evaluations = len(seen)
        assert p.f(alias) == p.f.__wrapped__(alias)
        assert len(seen) == evaluations + 2
        assert seen[-1] == alias.dtype
    assert p.f(x) == 3.0


def test_replace_wraps_the_objective_once():
    p = get_problem("rosenbrock_n2")
    assert isinstance(p.f, LastValueMemo)
    assert not isinstance(p.f.__wrapped__, LastValueMemo)
    q = dataclasses.replace(p, name="renamed_n2")
    assert q.f is p.f
    x = np.array([0.5, -0.25])
    assert q.f(x) == p.f.__wrapped__(x)


def test_registry_size_and_unique_names():
    probs = registry()
    assert len(probs) >= 15
    names = [p.name for p in probs]
    assert len(set(names)) == len(names)


def test_names_encode_dimension():
    for p in registry():
        assert p.name.endswith(f"_n{p.x0.size}")


def test_category_dimension_coverage():
    names = {p.name for p in registry()}
    dims = {2, 10, 100, 1000}

    def covered(prefix):
        return {d for d in dims if any(n == f"{prefix}_n{d}" for n in names)}

    assert len(covered("sphere")) >= 2  # convex quadratics
    assert len(covered("chained_rosenbrock") | covered("ext_rosenbrock")) >= 2
    assert len(covered("broyden_tridiag") | covered("quartic")) >= 2


def test_illcond_quadratic_n10000_matches_cost_experiment_form():
    p = get_problem("illcond_quadratic_n10000")
    assert p.x0.size == 10000
    assert np.all(p.x0 == 1.0)
    # 0.5 * sum(i * 1^2) for i = 1..10000
    assert p.f(p.x0) == pytest.approx(0.5 * 10000 * 10001 / 2, rel=1e-14)
    assert p.grad(p.x0)[:3] == pytest.approx([1.0, 2.0, 3.0])


def test_sphere_identity_case():
    p = get_problem("sphere_n10")
    z = np.zeros(10)
    assert p.f(z) == 0.0
    assert np.all(p.grad(z) == 0.0)
    assert p.f_star == 0.0


def test_rosenbrock_n2_start_value():
    p = get_problem("rosenbrock_n2")
    assert p.x0 == pytest.approx([-1.2, 1.0])
    assert p.f(p.x0) == pytest.approx(24.2, rel=1e-12)


def test_x0_evaluations_finite():
    for p in registry():
        assert np.isfinite(p.f(p.x0))
        assert np.all(np.isfinite(p.grad(p.x0)))


def test_finite_diff_sphere():
    p = get_problem("sphere_n2")
    x = np.array([1.0, 2.0])
    fd = finite_diff_gradient(p, x, 1e-6)
    assert fd == pytest.approx([1.0, 2.0], abs=1e-6)


def test_finite_diff_illcond_n3():
    p = make_illcond_quadratic(3)
    fd = finite_diff_gradient(p, np.ones(3), 1e-6)
    assert fd == pytest.approx([1.0, 2.0, 3.0], abs=1e-5)


def test_finite_diff_rosenbrock_matches_analytic():
    p = get_problem("rosenbrock_n2")
    fd = finite_diff_gradient(p, p.x0, 1e-6)
    g = p.grad(p.x0)
    assert fd == pytest.approx(g, rel=1e-4)


def test_finite_diff_rejects_bad_h():
    p = get_problem("sphere_n2")
    with pytest.raises(ValueError):
        finite_diff_gradient(p, np.zeros(2), 0.0)


def test_finite_diff_reports_offending_coordinate():
    bad = ObjectiveProblem(
        "sqrt_n2",
        lambda x: float(np.sqrt(np.maximum(x[0], -1.0)) + x[1]) if x[0] >= 0 else float("nan"),
        lambda x: np.array([0.5 / np.sqrt(x[0]), 1.0]),
        np.array([1.0, 1.0]),
    )
    with pytest.raises(ValueError, match="coordinate 0"):
        finite_diff_gradient(bad, np.array([1e-9, 0.0]), 1e-6)


@pytest.mark.parametrize("problem", registry(), ids=lambda p: p.name)
def test_gradient_matches_finite_differences_near_x0(problem):
    rng = np.random.default_rng(12345)
    for _ in range(5):
        x = problem.x0 + 0.1 * rng.standard_normal(problem.x0.size)
        g = problem.grad(x)
        fd = finite_diff_gradient(problem, x, 1e-6)
        tol = 1e-4 * max(1.0, float(np.linalg.norm(g, np.inf)))
        assert float(np.linalg.norm(g - fd, np.inf)) <= tol
        if problem.f_star is not None:
            assert problem.f(x) >= problem.f_star


def test_problem_constructor_validation():
    with pytest.raises(ValueError):
        ObjectiveProblem("bad", lambda x: 0.0, lambda x: x, np.zeros(0))
    with pytest.raises(ValueError, match="1-D"):
        ObjectiveProblem("bad", lambda x: 0.0, lambda x: x, np.zeros((2, 1)))
    with pytest.raises(ValueError):
        ObjectiveProblem("bad", lambda x: float("nan"), lambda x: x, np.zeros(1))


@pytest.mark.parametrize("make, n", [(make_ext_rosenbrock, 3), (make_ext_powell, 6)])
def test_block_problems_refuse_a_dimension_the_blocks_do_not_divide(make, n):
    with pytest.raises(ValueError):
        make(n)


def test_suite_resolution():
    assert suite_names("desk") == list(DESK_SUITE)
    assert len(DESK_SUITE) == 15
    assert set(suite_names("desk")) <= {p.name for p in registry()}
    assert suite_names("all") == [p.name for p in registry()]
    assert suite_names("sphere_n10,beale_n2") == ["sphere_n10", "beale_n2"]


def test_get_problem_unknown():
    with pytest.raises(KeyError):
        get_problem("bogus_n3")
