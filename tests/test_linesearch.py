import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import linesearch_reference as reference
from linesearch_reference import _interpolate, compute_delta
from qnbench.linesearch import ARMIJO_C, BETA_MAX, BETA_MIN, MAX_REJECTIONS, backtrack, secant_rescale
from qnbench.noise import NoiseModel, NoisyOracle
from qnbench.problems import ObjectiveProblem, get_problem


def scalar_problem(f, grad, x0=1.0, name="scalar"):
    return ObjectiveProblem(name + "_n1", lambda x: float(f(x[0])), lambda x: np.array([grad(x[0])]), np.array([x0]))


class FixedOracle:
    """Duck-typed oracle returning scripted objective values."""

    def __init__(self, values, eps_f=0.0, grad=None):
        self._values = list(values)
        self.eps_f = eps_f
        self._grad = grad
        self.f_calls = 0
        self.g_calls = 0
        self.points = []

    def f_bar(self, x):
        self.f_calls += 1
        self.points.append(np.array(x, copy=True))
        if len(self._values) > 1:
            return self._values.pop(0)
        return self._values[0]

    def grad_bar(self, x):
        self.g_calls += 1
        return np.zeros_like(x) if self._grad is None else np.array(self._grad, dtype=float)


class TestComputeDelta:
    def test_zero_eps_f_always_zero(self):
        assert compute_delta(0.0, 123.0, -456.0) == 0.0

    def test_negative_trial_dominates(self):
        assert compute_delta(0.5, 3.0, -5.0) == 10.0

    def test_clamps_at_one(self):
        assert compute_delta(1e-2, 0.2, 0.1) == pytest.approx(0.020202020202020204)

    def test_eps_f_range(self):
        with pytest.raises(ValueError):
            compute_delta(1.0, 0.0, 0.0)

    @given(
        st.floats(0.0, 0.99),
        st.floats(-1e6, 1e6),
        st.floats(-1e6, 1e6),
    )
    @settings(max_examples=200)
    def test_nonnegative_and_ignores_large_positive_trials(self, eps_f, fx, ftrial):
        d = compute_delta(eps_f, fx, ftrial)
        assert d >= 0.0
        # raising the trial value can only shrink or keep the slack
        assert compute_delta(eps_f, fx, ftrial + 10.0) <= d


class TestBacktrack:
    @pytest.mark.parametrize("eps_f", [1.0, -0.1])
    def test_eps_f_outside_the_unit_interval_refused(self, eps_f):
        o = NoisyOracle(get_problem("sphere_n2"), NoiseModel())
        x = np.array([1.0, 0.0])
        with pytest.raises(ValueError, match="eps_f"):
            backtrack(o, x, -x, -1.0, 0.5, eps_f=eps_f)
        assert o.f_calls == 0

    def test_exact_sphere_accepts_unit_step(self):
        p = get_problem("sphere_n2")
        o = NoisyOracle(p, NoiseModel())
        x = np.array([1.0, 0.0])
        g = np.array([1.0, 0.0])
        res = backtrack(o, x, -g, -1.0, 0.5, eps_f=0.0)
        assert res.alpha == 1.0
        assert res.f_bar_new == 0.0
        assert res.rejections == 0
        assert res.delta == 0.0
        assert o.f_calls == 1

    def test_overscaled_direction_interpolates(self):
        # f = x^2/2 at x=1 with d=-4: first trial rejected, quadratic fit
        # lands exactly on alpha = 0.25 and hits the minimum
        p = scalar_problem(lambda t: 0.5 * t * t, lambda t: t)
        o = NoisyOracle(p, NoiseModel())
        res = backtrack(o, np.array([1.0]), np.array([-4.0]), -4.0, 0.5, eps_f=0.0)
        assert res.alpha == 0.25
        assert res.f_bar_new == 0.0
        assert res.rejections == 1
        assert o.f_calls == 2

    def test_pure_noise_plateau_accepts_with_slack(self):
        # constant observed objective, eps_f = 0.5: slack 2 covers everything
        p = scalar_problem(lambda t: 1.0, lambda t: 0.0, name="plateau")
        o = NoisyOracle(p, NoiseModel())
        res = backtrack(o, np.array([0.0]), np.array([-1.0]), -1.0, 1.0, eps_f=0.5)
        assert res.alpha == 1.0
        assert res.rejections == 0
        assert res.delta == pytest.approx(2.0)

    def test_relaxed_equals_classical_when_exact(self):
        p = scalar_problem(lambda t: 0.5 * t * t, lambda t: t)
        o = NoisyOracle(p, NoiseModel())
        res = backtrack(o, np.array([1.0]), np.array([-1.0]), -1.0, 0.5, eps_f=0.0)
        assert res.delta == 0.0  # classical Armijo exactly

    def test_accepted_step_respects_slack_bound(self):
        rng = np.random.default_rng(8)
        p = get_problem("rosenbrock_n2")
        model = NoiseModel(kind="additive_uniform", level=1e-3, seed=21)
        o = NoisyOracle(p, model)
        x = p.x0.copy()
        for _ in range(30):
            g = o.grad_bar(x)
            fx = o.f_bar(x)
            d = -g / max(1.0, float(np.linalg.norm(g)))
            res = backtrack(o, x, d, float(g.dot(d)), fx, eps_f=1e-2)
            if not res.exhausted:
                assert res.f_bar_new <= fx + res.delta
            x = x + res.alpha * d + 0.01 * rng.standard_normal(2)

    def test_step_shrink_bounds_and_exhaustion(self):
        # scripted oracle: every trial comes back far above the incumbent
        o = FixedOracle([10.0], eps_f=0.0)
        res = backtrack(o, np.array([0.0]), np.array([-1.0]), -1.0, 0.0, eps_f=0.0)
        assert res.exhausted
        assert res.rejections == MAX_REJECTIONS
        assert o.f_calls == MAX_REJECTIONS + 1
        assert BETA_MIN**MAX_REJECTIONS <= res.alpha <= BETA_MAX**MAX_REJECTIONS

    def test_upper_clip_binds_once_the_interpolant_is_subnormal(self):
        # After the first probe every trial returns f_bar_x, so each later
        # fit gives alpha / 2 in exact arithmetic; but gtd * alpha**2 turns
        # subnormal here, and the rounded fit overshoots BETA_MAX * alpha.
        # x = 0 and d = 1, so each probe's x[0] is its alpha exactly.
        o = FixedOracle([9.875980117652487e248, 0.0])
        res = backtrack(o, np.array([0.0]), np.array([1.0]), -7.169441288522104e-280, 0.0, mu=0.0, eps_f=0.0)
        alphas = [float(p[0]) for p in o.points]
        steps = list(zip(alphas, alphas[1:]))
        assert all(new <= BETA_MAX * old for old, new in steps)
        assert any(new == BETA_MAX * old for old, new in steps)
        assert res.rejections == 88 and not res.exhausted
        assert res.alpha == 3.078432239753159e-42

    def test_vanishing_step_probes_x_until_exhausted(self):
        # alpha * d is lost against x from the first probe on: every trial is
        # x itself, and each one still costs exactly one objective call
        o = FixedOracle([10.0], eps_f=0.0)
        x = np.array([1.0, -3.0])
        d = np.array([-1e-20, 1e-20])
        res = backtrack(o, x, d, float(-d.dot(d)), 0.0, eps_f=0.0)
        assert res.exhausted
        assert o.f_calls == MAX_REJECTIONS + 1
        assert len(o.points) == MAX_REJECTIONS + 1
        assert all(p.tobytes() == x.tobytes() for p in o.points)

    @pytest.mark.parametrize("x2, absorbs", [(0.0, True), (-0.0, False)])
    def test_trial_points_match_recomputed_steps(self, x2, absorbs):
        # The shortcut to x must give the very points x + alpha * d would:
        # here the step starts visible and vanishes after a few shrinks.
        # With x2 = -0.0 the trial keeps +0.0 there, equal to x in value
        # but never bitwise, so x itself must never be probed.
        o = FixedOracle([10.0], eps_f=0.0)
        x = np.array([1.0, -0.0, x2, 3.0])
        d = np.array([-1e-9, -1e-300, 0.0, 2e-12])
        g = -d
        res = backtrack(o, x, d, float(g.dot(d)), 0.0, eps_f=0.0)
        alpha, expected = 1.0, []
        for _ in range(MAX_REJECTIONS + 1):
            expected.append(x + alpha * d)
            alpha = _interpolate(alpha, 0.0, float(g @ d), 10.0)
        assert res.exhausted
        assert [p.tobytes() for p in o.points] == [e.tobytes() for e in expected]
        assert o.points[0].tobytes() != x.tobytes()
        assert (o.points[-1].tobytes() == x.tobytes()) == absorbs

    def test_smooth_quadratic_rejection_count_bound(self):
        # d = -scale * g on f = t^2/2: model curvature m_est = 1/scale, L = 1.
        # Backtracking must stop within ceil(log(2(1-c) m_est / L) / log(beta_max))
        # rejections once that quantity is >= 1.
        for scale in (4.0, 16.0, 64.0):
            p = scalar_problem(lambda t: 0.5 * t * t, lambda t: t)
            o = NoisyOracle(p, NoiseModel())
            g = np.array([1.0])
            res = backtrack(o, np.array([1.0]), -scale * g, -scale, 0.5, eps_f=0.0)
            threshold = 2.0 * (1.0 - ARMIJO_C) / scale
            bound = math.ceil(math.log(threshold) / math.log(BETA_MAX))
            assert not res.exhausted
            assert res.rejections <= max(bound, 0) + 1


def _accepted_point_cases():
    # (label, oracle, x, d, g, f_bar_x, mu) for every way a search can end
    quad = scalar_problem(lambda t: 0.5 * t * t, lambda t: t)
    x1, g1 = np.array([1.0]), np.array([1.0])
    return [
        ("first trial accepted", NoisyOracle(get_problem("sphere_n2"), NoiseModel()),
         np.array([1.0, 0.3]), np.array([-1.0, -0.3]), np.array([1.0, 0.3]), 0.545, 0.0),
        ("backtracked", NoisyOracle(quad, NoiseModel()), x1, np.array([-4.0]), g1, 0.5, 0.0),
        ("exhausted", FixedOracle([10.0]), np.array([0.0]), np.array([-1.0]), g1, 0.0, 0.0),
        ("absorbed exhaust", FixedOracle([10.0]), np.array([1.0, -3.0]), np.array([-1e-20, 1e-20]),
         np.array([1e-20, -1e-20]), 0.0, 0.0),
        # d'g_try = 6 > 0.5 ||d|| ||g_try|| = 3: secant factor 2 / (6 + 2) = 0.25
        ("rescaled", FixedOracle([0.0, 0.0], grad=[-3.0]), x1, np.array([-2.0]), g1, 0.5, 1.0),
        ("rescale refused", FixedOracle([0.0, 10.0], grad=[-3.0]), x1, np.array([-2.0]), g1, 0.5, 1.0),
    ]


class TestAcceptedPoint:
    @pytest.mark.parametrize("case", _accepted_point_cases(), ids=lambda c: c[0])
    def test_x_new_is_the_step_the_solver_would_take(self, case):
        label, o, x, d, g, fx, mu = case
        res = backtrack(o, x, d, float(g.dot(d)), fx, mu=mu, eps_f=0.0)
        assert res.x_new.tobytes() == (x + res.alpha * d).tobytes()
        flags = {
            "first trial accepted": res.rejections == 0 and not res.took_grad_probe,
            "backtracked": res.rejections > 0 and not res.exhausted,
            "exhausted": res.exhausted and res.x_new is not x,
            "absorbed exhaust": res.exhausted and res.x_new is x,
            "rescaled": res.rescaled and res.alpha == 0.25,
            "rescale refused": res.took_grad_probe and not res.rescaled and res.alpha == 1.0,
        }
        assert flags[label]
        assert o.g_calls == 1 + res.rescaled
        if isinstance(o, FixedOracle):
            # the accepted point is the last point the objective was probed
            # at, or the first trial when the rescaled one was refused
            probed = o.points[0] if label == "rescale refused" else o.points[-1]
            assert probed.tobytes() == res.x_new.tobytes()


class TestSecantRescale:
    def test_no_sign_change_unchanged(self):
        d = np.array([1.0, 0.0])
        assert secant_rescale(d, -2.0, np.array([-1.0, 0.0])) == 1.0

    def test_alignment_strictly_above_threshold_required(self):
        # alignment one ulp above the 0.5 cosine threshold fails the strict test
        d = np.array([1.0, 0.0])
        g_try = np.array([1.0, np.nextafter(np.sqrt(3.0), 2.0)])
        assert secant_rescale(d, -2.0, g_try) == 1.0

    def test_secant_factor_applied(self):
        d = np.array([1.0, 0.0])
        g_try = np.array([3.0, 0.1])
        # factor 2/(3+2) = 0.4, inside the clip window
        assert secant_rescale(d, -2.0, g_try) == pytest.approx(0.4)

    def test_collinear_full_alignment(self):
        out = secant_rescale(np.array([1.0]), -2.0, np.array([2.0]))
        assert out == pytest.approx(0.5)

    def test_clipping(self):
        d = np.array([1.0])
        g_try = np.array([1.0])
        # raw factor ~ 1e-6: clipped at beta_min
        assert secant_rescale(d, -1e-6, g_try) == BETA_MIN


class TestRescaleFlow:
    """A search hands back the gradient at the point it accepts, and spends
    ``1 + rescaled`` gradient calls: the rescale probe is lost exactly when
    the rescaled step is taken."""

    @staticmethod
    def search(d, mu, eps_f):
        p = scalar_problem(lambda t: 0.5 * t * t, lambda t: t)
        o = NoisyOracle(p, NoiseModel())
        res = backtrack(o, np.array([1.0]), np.array([d]), d, 0.5, mu=mu, eps_f=eps_f)
        assert res.g_new.tobytes() == p.grad(res.x_new).tobytes()
        assert o.g_calls == 1 + res.rescaled
        return res, o

    def test_probe_reused_when_guard_fails(self):
        # exact quadratic, d = -g / 2: the trial gradient stays negative
        # along d, no sign change, so alpha stays 1 and the probe is the
        # gradient handed back
        res, o = self.search(-0.5, mu=1.0, eps_f=0.0)
        assert res.alpha == 1.0
        assert not res.rescaled
        assert res.took_grad_probe

    def test_rescale_applied_and_probe_discarded(self):
        # overshooting step on a quadratic: directional derivative flips sign,
        # rescale brings alpha to the exact line minimum at 0.5
        res, o = self.search(-2.0, mu=1.0, eps_f=0.2)
        assert res.rescaled
        assert res.alpha == pytest.approx(0.5)
        assert res.took_grad_probe
        assert o.g_calls == 2  # the probe at x + d, then the gradient at x_new
        assert res.rejections == 1  # superseded first trial counts as one probe
        assert o.f_calls == 2

    def test_no_rescale_for_zero_mu(self):
        res, o = self.search(-1.0, mu=0.0, eps_f=0.0)
        assert not res.took_grad_probe
        assert o.g_calls == 1  # the gradient at x_new only


class ScriptedOracle:
    """Duck-typed oracle: scripted objective values, one fixed gradient, and
    a log of every call with the exact bytes of its point."""

    def __init__(self, values, grad):
        self._values = list(values)
        self._grad = np.array(grad, dtype=float)
        self.calls = []

    def f_bar(self, x):
        self.calls.append(("f", x.tobytes()))
        return self._values.pop(0) if len(self._values) > 1 else self._values[0]

    def grad_bar(self, x):
        self.calls.append(("g", x.tobytes()))
        return self._grad.copy()


def _fields(res, x):
    return (
        res.alpha.hex(), res.delta.hex(), res.f_bar_new.hex(), res.x_new.tobytes(), res.x_new is x,
        res.g_new.tobytes(), res.rejections, res.rescaled, res.exhausted, res.took_grad_probe,
    )


MAGNITUDES = st.floats(0.0, 1e3)
FREE_VALUES = st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0, 1.0, -1.0])


@st.composite
def search_case(draw, branch):
    """(x, d, g, f_bar_x, values, grad, mu) that end a search through
    ``branch``; ``free`` draws everything at random."""
    eps_f = draw(st.sampled_from([0.0, 1e-2]))
    mu = draw(st.sampled_from([0.0, 0.5]) | st.floats(1e-8, 1e3))
    f0 = draw(st.floats(-100.0, 100.0))
    x = np.array([draw(st.floats(-10.0, 10.0)), draw(st.floats(-10.0, 10.0))])
    g = np.array([draw(st.floats(0.01, 10.0)), draw(st.floats(-10.0, 10.0))])
    d = -g * draw(st.floats(0.01, 10.0))
    grad = [0.0, 0.0]
    # Objective values the test refuses or accepts whatever the slack: here
    # g'd >= -2e3, so c * alpha * g'd >= -0.2, and delta <= 2.02.
    reject = st.builds(lambda u: abs(f0) * 1.1 + 10.0 + u, MAGNITUDES)
    accept = st.builds(lambda u: f0 - 1.0 - u, MAGNITUDES)
    if branch == "first accept":
        values = [draw(accept)]
    elif branch == "backtrack":
        values = draw(st.lists(reject, min_size=1, max_size=6)) + [draw(accept)]
    elif branch in ("absorbed", "absorbed exhaust"):
        # The step is visible at first and rounds back to x after a few shrinks.
        x = np.array([draw(st.floats(1.0, 4.0)), -3.0])
        d = np.array([-draw(st.floats(1e-15, 1e-13)), 0.0])
        g = -d
        values = draw(st.lists(reject, min_size=30, max_size=60))
        if branch == "absorbed":
            values.append(draw(accept))
        else:
            values.append(values[-1])
    elif branch == "exhausted":
        values = draw(st.lists(reject, min_size=1, max_size=4))
    elif branch in ("rescale accepted", "rescale refused"):
        # d'g_try = 3 ||d|| > 0.5 ||d|| ||g_try||, and d'g < 0: the secant
        # factor 2 / (2 + 3) applies.
        mu = draw(st.floats(1e-8, 1e3))
        x, g, d = np.array([1.0]), np.array([1.0]), np.array([-2.0])
        grad = [-1.5]
        second = accept if branch == "rescale accepted" else reject
        values = [draw(accept), draw(second)]
    elif branch == "boundary":
        # The second value is the acceptance threshold itself, as the
        # reference rounds it at the interpolated step: it must be accepted,
        # which only the same float operations in the same order guarantee.
        f0 = 0.0
        first = draw(reject)
        gtd = float(g.dot(d))
        alpha = reference._interpolate(1.0, f0, gtd, first)
        # |threshold| < 1, so the slack is 2 eps_f / (1 - eps_f) exactly.
        values = [first, f0 + ARMIJO_C * alpha * gtd + reference.compute_delta(eps_f, f0, 0.0)]
    elif branch == "overflowing slope":
        # g'd overflows to -inf: every fit is NaN and falls back to alpha / 2.
        x, g, d = np.array([0.0, 1.0]), np.array([1e200, 0.0]), np.array([-1e200, 0.0])
        values = [draw(FREE_VALUES)]
    else:
        n = draw(st.integers(1, 3))
        x = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))
        g = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))
        d = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))
        values = draw(st.lists(FREE_VALUES, min_size=1, max_size=10))
        grad = draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n))
    return x, d, g, f0, eps_f, values, grad, mu


BRANCHES = {
    "first accept": lambda r: r.rejections == 0 and not r.exhausted,
    "backtrack": lambda r: r.rejections > 0 and not r.exhausted,
    "absorbed": lambda r: r.rejections > 0 and not r.exhausted,
    "absorbed exhaust": lambda r: r.exhausted,
    "exhausted": lambda r: r.exhausted,
    "rescale accepted": lambda r: r.rescaled,
    "rescale refused": lambda r: r.took_grad_probe and not r.rescaled and r.rejections == 1,
    "boundary": lambda r: r.rejections == 1 and not r.exhausted,
    "overflowing slope": lambda r: True,
    "free": lambda r: True,
}


class TestMatchesReference:
    """``backtrack`` repeats the reference search bit for bit."""

    # Without the shrink phase a failure reports the first failing example
    # and ends in seconds; shrinking the ten branches' examples took minutes.
    @pytest.mark.parametrize("branch", list(BRANCHES))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
    def test_same_result_and_oracle_calls(self, branch, data):
        x, d, g, f0, eps_f, values, grad, mu = data.draw(search_case(branch))
        ours, ref = ScriptedOracle(values, grad), ScriptedOracle(values, grad)
        with np.errstate(over="ignore", invalid="ignore"):
            gtd = float(g.dot(d))
            res = backtrack(ours, x, d, gtd, f0, mu=mu, eps_f=eps_f)
            expected = reference.backtrack(ref, x, d, gtd, f0, mu=mu, eps_f=eps_f)
        assert _fields(res, x) == _fields(expected, x)
        assert ours.calls == ref.calls
        # The last gradient is taken at the accepted point, and it is the last
        # call unless a refused rescale probed the objective after it.
        g_points = [point for kind, point in ours.calls if kind == "g"]
        assert len(g_points) == 1 + res.rescaled
        assert g_points[-1] == res.x_new.tobytes()
        refused = res.took_grad_probe and not res.rescaled and res.rejections == 1
        assert (ours.calls[-1] == ("g", res.x_new.tobytes())) != refused
        assert BRANCHES[branch](res), branch
        if branch.startswith("absorbed"):
            assert res.x_new is x or ours.calls[-1][1] == x.tobytes()
