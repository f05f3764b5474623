import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qnbench.lbfgs as lbfgs_mod
from lbfgs_reference import (
    bfgs_spectral_bounds,
    curvature_pair,
    materialize,
    screen_reference,
    two_loop_reference,
)
from qnbench.lbfgs import (
    SCREEN_MAX_CURV,
    SCREEN_MIN_CURV,
    SIGMA_DAMP,
    CurvaturePair,
    LbfgsMemory,
    modified_secant,
    powell_damp,
    screen_pair,
)


def screen_bounds(min_curv=SCREEN_MIN_CURV, max_curv=SCREEN_MAX_CURV):
    """``screen_pair`` with other curvature bounds, inside a ``with`` block."""
    return patch.multiple(lbfgs_mod, SCREEN_MIN_CURV=min_curv, SCREEN_MAX_CURV=max_curv)


def make_screened_memory(rng, n, npairs, lo=0.05, hi=20.0):
    """Memory filled with pairs y = A s for random SPD A with spectrum in
    [lo, hi]; returns the memory and the pairs it holds, oldest first."""
    mem = LbfgsMemory(max(npairs, 1))
    pairs = []
    while len(pairs) < npairs:
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = (q * rng.uniform(lo, hi, n)) @ q.T
        s = rng.standard_normal(n)
        y = a @ s
        pair = screen_pair(s, y)
        if pair is not None:
            mem.push(pair)
            pairs.append(pair)
    return mem, pairs


def direction_bytes(mem, g):
    """The memory's directions at ``g``, unshifted and shifted, as bytes."""
    return [mem.direction(g, mu).tobytes() for mu in (0.0, 0.5)]


def reference_bytes(pairs, g):
    """``direction_bytes`` of a memory holding ``pairs``, by the list two-loop."""
    return [two_loop_reference(pairs, g, mu).tobytes() for mu in (0.0, 0.5)]


def push_random_pairs(rng, mem, n, count):
    """Push ``count`` screened pairs y = D s with a random positive diagonal D,
    half of them Powell-damped as the solver does; returns the pairs."""
    pushed = []
    while len(pushed) < count:
        s = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
        y = s * rng.uniform(0.05, 20.0, n)
        if len(pushed) % 2:
            y = powell_damp(s, y - rng.uniform(0.0, 2.0) * s, mem.shifted_gamma(0.0))
        pair = screen_pair(s, y)
        if pair is not None:
            mem.push(pair)
            pushed.append(pair)
    return pushed


class TestPowellDamp:
    def test_well_scaled_pair_untouched(self):
        s = np.array([1.0, 2.0])
        y = 1.0 * s  # s'y = gamma ||s||^2 exactly
        out = powell_damp(s, y, 1.0)
        assert np.all(out == y)

    def test_negative_curvature_is_damped_to_floor(self):
        s = np.array([1.0, 0.0])
        y = np.array([-1.0, 0.0])
        out = powell_damp(s, y, 1.0)
        assert out == pytest.approx([0.2, 0.0])
        assert float(out @ s) == pytest.approx(SIGMA_DAMP * 1.0 * 1.0)

    def test_zero_y_is_pulled_toward_scaled_step(self):
        s = np.array([2.0, 0.0])
        out = powell_damp(s, np.zeros(2), 1.0)
        assert out == pytest.approx([0.4, 0.0])
        assert float(out @ s) == pytest.approx(0.8)

    def test_zero_step_rejected(self):
        with pytest.raises(ValueError):
            powell_damp(np.zeros(2), np.ones(2), 1.0)

    def test_nonpositive_gamma_rejected(self):
        with pytest.raises(ValueError):
            powell_damp(np.ones(2), np.ones(2), 0.0)
        with pytest.raises(ValueError):
            powell_damp(np.ones(2), np.ones(2), float("nan"))

    @given(
        st.lists(st.floats(-10, 10), min_size=2, max_size=6),
        st.lists(st.floats(-10, 10), min_size=2, max_size=6),
        st.floats(1e-3, 1e3),
    )
    @settings(max_examples=200)
    def test_damping_guarantee(self, s_vals, y_vals, gamma):
        n = min(len(s_vals), len(y_vals))
        s = np.array(s_vals[:n])
        y = np.array(y_vals[:n])
        ss = float(s @ s)
        if ss == 0.0:
            return
        out = powell_damp(s, y, gamma)
        floor = SIGMA_DAMP * gamma * ss
        assert float(out @ s) >= floor * (1.0 - 1e-9) - 1e-12


class TestScreenPair:
    def test_accepts_healthy_pair(self):
        v = np.array([1.0, 0.0])
        assert screen_pair(v, v)

    def test_rejects_zero_curvature(self):
        assert not screen_pair(np.array([1.0, 0.0]), np.zeros(2))

    def test_accepts_large_y_within_ratio(self):
        s = np.array([1.0, 0.0])
        y = np.array([1e6, 0.0])
        # s'y = 1e6 >= ||y||^2 / 1e10 = 100
        assert screen_pair(s, y)

    def test_rejects_y_exceeding_ratio(self):
        s = np.array([1.0, 0.0])
        y = np.array([1e6, 0.0])
        with screen_bounds(max_curv=1e4):
            assert not screen_pair(s, y)

    def test_rejects_below_min_curvature(self):
        s = np.array([1.0, 0.0])
        y = np.array([1e-8, 0.0])
        with screen_bounds(min_curv=1e-4):
            assert not screen_pair(s, y)

    def test_rejects_zero_step_and_nonfinite(self):
        assert not screen_pair(np.zeros(2), np.ones(2))
        assert not screen_pair(np.array([1.0, np.nan]), np.ones(2))
        assert not screen_pair(np.ones(2), np.array([np.inf, 0.0]))

    def test_rejects_subnormal_curvature(self):
        s = np.full(2, 1e-200)
        y = np.full(2, 1e-200)
        assert not screen_pair(s, y)

    @pytest.mark.parametrize(
        "s, y, kw",
        [
            ([1.0, 0.0], [0.0, 0.0], {}),
            ([1.0, 0.0], [1e6, 0.0], {"max_curv": 1e4}),
            ([1.0, 0.0], [1e-8, 0.0], {"min_curv": 1e-4}),
            ([0.0, 0.0], [1.0, 1.0], {}),
            ([1.0, np.nan], [1.0, 1.0], {}),
            ([1.0, 1.0], [np.inf, 0.0], {}),
            ([1e-200, 1e-200], [1e-200, 1e-200], {}),
            ([1e-160, 0.0], [1e-160, 0.0], {}),  # sy = 1e-320 is subnormal: 1/sy overflows
        ],
    )
    def test_rejection_is_none(self, s, y, kw):
        with screen_bounds(**kw):
            assert screen_pair(np.array(s), np.array(y)) is None

    @pytest.mark.parametrize(
        "s, y",
        [
            ([np.inf, 1.0], [1.0, 1.0]),
            ([1.0, 1.0], [-np.inf, np.inf]),
            ([np.nan, 0.0], [0.0, 1.0]),
            ([0.0, 0.0], [np.inf, 0.0]),
            ([1e200, 1.0], [1.0, 1.0]),  # finite entries whose squares overflow
            ([1.0, 1.0], [1e200, 1e200]),
            ([1e200, 0.0], [1e200, 0.0]),
        ],
    )
    def test_extreme_entries_decided_as_the_boolean_screen(self, s, y):
        s, y = np.array(s), np.array(y)
        with np.errstate(over="ignore"):
            assert (screen_pair(s, y) is not None) == screen_reference(s, y)

    def test_overflowing_pair_is_refused_and_direction_stays_finite(self):
        # s'y = ||y||^2 = ||s||^2 = inf would pass both bounds (inf >= inf);
        # as the oldest pair in memory it would make gamma inf / inf.
        mem = LbfgsMemory(3)
        s = np.array([1e200, 0.0])
        with np.errstate(over="ignore", invalid="ignore"):
            pair = screen_pair(s, s.copy())
            if pair is not None:  # the solver pushes only admitted pairs
                mem.push(pair)
            d = mem.direction(np.array([1.0, -1.0]))
        assert pair is None
        assert np.isfinite(d).all()

    @given(
        st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=6),
        st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=6),
        st.sampled_from([(1e-10, 1e10), (0.5, 2.0)]),
    )
    @settings(max_examples=300)
    def test_admits_what_the_boolean_screen_admits(self, s_vals, y_vals, bounds):
        # The returned pair carries exactly the inner products curvature_pair
        # computes, so the solver can push it without recomputing them.
        n = min(len(s_vals), len(y_vals))
        s = np.array(s_vals[:n])
        y = np.array(y_vals[:n]) if len(y_vals) % 2 else np.array(s_vals[:n]) * 1.5
        with screen_bounds(*bounds):
            pair = screen_pair(s, y)
        assert (pair is not None) == screen_reference(s, y, *bounds)
        if pair is not None:
            ref = curvature_pair(s, y)
            assert (pair.sy, pair.yy, pair.ss) == (ref.sy, ref.yy, ref.ss)
            assert pair.s is s and pair.y_bar is y


class TestMemory:
    def test_gamma_from_single_pair(self):
        mem = LbfgsMemory(10)
        s = np.array([1.0, 0.0])
        y = np.array([2.0, 0.0])  # sy = 2, yy = 4
        mem.push(curvature_pair(s, y))
        assert mem.shifted_gamma(0.0) == pytest.approx(2.0)

    def test_gamma_is_one_for_s_equals_y(self):
        mem = LbfgsMemory(10)
        v = np.array([3.0, 4.0])
        mem.push(curvature_pair(v, v))
        assert mem.shifted_gamma(0.0) == pytest.approx(1.0)

    def test_gamma_empty(self):
        assert LbfgsMemory(10).shifted_gamma(0.0) == 1.0
        assert LbfgsMemory(3).shifted_gamma(0.5) == 1.5

    def test_ring_eviction_keeps_capacity_and_rescales(self):
        mem = LbfgsMemory(3)
        pushed = []
        for k in range(1, 6):
            v = np.array([float(k), 1.0])
            pushed.append(curvature_pair(v, float(k + 1) * v))
            mem.push(pushed[-1])
        assert len(mem) == 3
        # oldest surviving pair is k=3: yy/sy = (k+1)^2 ||v||^2 / ((k+1) ||v||^2) = 4
        assert mem.shifted_gamma(0.0) == pytest.approx(4.0)
        g = np.array([1.0, -2.0])
        assert direction_bytes(mem, g) == reference_bytes(pushed[-3:], g)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            LbfgsMemory(0)

    def test_pairs_survive_wraparound_pushes(self):
        # The memory holds the newest three pushes, oldest first, and the
        # pairs a caller pushed keep their values while their slots are reused.
        rng = np.random.default_rng(5)
        mem = LbfgsMemory(3)
        g = rng.standard_normal(4)
        pushed = push_random_pairs(rng, mem, 4, 3)
        assert direction_bytes(mem, g) == reference_bytes(pushed, g)
        saved = [(p.s.tobytes(), p.y_bar.tobytes(), p.sy, p.yy, p.ss) for p in pushed]
        pushed += push_random_pairs(rng, mem, 4, 4)
        assert [(p.s.tobytes(), p.y_bar.tobytes(), p.sy, p.yy, p.ss) for p in pushed[:3]] == saved
        assert len(mem) == 3
        assert mem.shifted_gamma(0.0) == pushed[-3].yy / pushed[-3].sy
        assert direction_bytes(mem, g) == reference_bytes(pushed[-3:], g)
        # Another order or another window of the pushes gives other bits.
        assert direction_bytes(mem, g) != reference_bytes(pushed[-3:][::-1], g)
        assert direction_bytes(mem, g) != reference_bytes(pushed[-4:-1], g)

    def test_pushed_vectors_are_copied(self):
        s = np.array([1.0, 0.0])
        y = np.array([2.0, 0.5])
        kept = curvature_pair(s.copy(), y.copy())
        mem = LbfgsMemory(2)
        mem.push(curvature_pair(s, y))
        s[0] = y[0] = -7.0
        g = np.array([1.0, 3.0])
        assert direction_bytes(mem, g) == reference_bytes([kept], g)

    @pytest.mark.parametrize("bad_s, bad_y", [(np.ones(3), np.ones(3)), (np.ones(2), np.ones(3)), (np.ones((2, 2)), np.ones((2, 2)))])
    def test_push_of_another_length_rejected(self, bad_s, bad_y):
        mem = LbfgsMemory(3)
        pair = curvature_pair(np.array([1.0, 0.0]), np.array([2.0, 0.5]))
        mem.push(pair)
        g = np.array([1.0, 3.0])
        with pytest.raises(ValueError):
            mem.push(CurvaturePair(bad_s, bad_y, 1.0, 1.0, 1.0))
        assert len(mem) == 1 and mem.shifted_gamma(0.0) == pair.yy / pair.sy
        assert direction_bytes(mem, g) == reference_bytes([pair], g)
        with pytest.raises(ValueError):
            LbfgsMemory(3).push(CurvaturePair(np.ones(2), np.ones(3), 1.0, 1.0, 1.0))


class TestTwoLoopDirection:
    def test_empty_memory_steepest_descent(self):
        mem = LbfgsMemory(10)
        g = np.array([3.0, 4.0])
        assert mem.direction(g, 0.0) == pytest.approx([-3.0, -4.0])

    def test_empty_memory_with_shift(self):
        mem = LbfgsMemory(10)
        assert mem.direction(np.array([2.0, 0.0]), 1.0) == pytest.approx([-1.0, 0.0])

    def test_single_pair_identity_on_complement(self):
        mem = LbfgsMemory(10)
        v = np.array([1.0, 0.0])
        mem.push(curvature_pair(v, v))
        d = mem.direction(np.array([0.0, 1.0]), 0.0)
        assert d == pytest.approx([0.0, -1.0])

    @pytest.mark.parametrize("mu", [-0.5, math.nan])
    def test_negative_mu_rejected(self, mu):
        with pytest.raises(ValueError, match="mu must be nonnegative"):
            LbfgsMemory(10).direction(np.ones(2), mu)

    @pytest.mark.parametrize("sy", [0.0, -1.0])
    def test_pair_without_positive_curvature_refused(self, sy):
        # screen_pair admits no such pair; a hand-built one fails loudly.
        mem = LbfgsMemory(3)
        mem.push(CurvaturePair(np.array([1.0, 0.0]), np.array([-1.0, 0.0]), sy, 1.0, 1.0))
        with pytest.raises(ValueError, match="lost positive curvature"):
            mem.direction(np.ones(2), 0.0)

    @pytest.mark.parametrize("mu", [0.0, 0.1, 1.0, 10.0])
    def test_matches_dense_inverse(self, mu):
        rng = np.random.default_rng(2024)
        for _ in range(25):
            n = int(rng.integers(2, 21))
            mem, pairs = make_screened_memory(rng, n, int(rng.integers(0, 11)))
            for _ in range(4):
                g = rng.standard_normal(n)
                d_fast = mem.direction(g, mu)
                d_dense = -np.linalg.solve(materialize(pairs, mu, n), g)
                denom = max(float(np.linalg.norm(d_dense)), 1e-300)
                assert float(np.linalg.norm(d_fast - d_dense)) / denom <= 1e-9

    @pytest.mark.parametrize("n", [1, 2, 7, 10, 100, 10_000])
    def test_bitwise_equal_to_list_two_loop(self, n):
        # Memories of capacity 4 filled one pair at a time, then wrapped more
        # than twice: every direction must equal the list-of-pairs recursion
        # bit for bit, shifted or not, including the first mu > 0 call.
        rng = np.random.default_rng(n)
        mem = LbfgsMemory(4)
        g = rng.standard_normal(n)
        pushed = []
        for pushes in range(11):
            for mu in (0.0, 0.1, 10.0):
                expected = two_loop_reference(pushed[-4:], g, mu)
                assert mem.direction(g, mu).tobytes() == expected.tobytes()
            pushed += push_random_pairs(rng, mem, n, 1)
        assert len(mem) == 4

    def test_direction_leaves_memory_and_gradient_untouched(self):
        rng = np.random.default_rng(3)
        mem = LbfgsMemory(3)
        pushed = push_random_pairs(rng, mem, 5, 4)
        g = rng.standard_normal(5)
        g_bytes = g.tobytes()
        d1 = mem.direction(g, 0.5)
        d2 = mem.direction(g, 0.5)
        assert d1 is not d2 and d1.tobytes() == d2.tobytes()
        assert g.tobytes() == g_bytes
        # The memory still holds the newest three pushes: the unshifted
        # direction after shifted ones reads the stored rows, not the shifted.
        other = rng.standard_normal(5)
        assert len(mem) == 3 and mem.shifted_gamma(0.0) == pushed[-3].yy / pushed[-3].sy
        assert direction_bytes(mem, other) == reference_bytes(pushed[-3:], other)

    def test_descent_property(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 15))
            mem, _ = make_screened_memory(rng, n, int(rng.integers(0, 11)))
            g = rng.standard_normal(n)
            for mu in (0.0, 0.5, 3.0):
                assert float(g @ mem.direction(g, mu)) < 0.0


class TestModifiedSecant:
    def test_exact_quadratic_leaves_y_unchanged(self):
        # f = 0.5 x'Ax: 2(f_k - f_k1) + (g_k + g_k1)'s = 0 identically
        rng = np.random.default_rng(3)
        a = np.diag(rng.uniform(0.5, 3.0, 4))
        x0 = rng.standard_normal(4)
        x1 = rng.standard_normal(4)
        f = lambda x: 0.5 * float(x @ a @ x)
        g = lambda x: a @ x
        s = x1 - x0
        y = g(x1) - g(x0)
        out = modified_secant(y, s, f(x0), f(x1), g(x0), g(x1))
        assert out == pytest.approx(y, abs=1e-12)

    def test_small_correction_applied(self):
        # theta = 0.05 * y's with s = y = e1: correction 0.05 along s
        s = np.array([1.0, 0.0])
        y = np.array([1.0, 0.0])
        # 2 (f_k - f_k1) + (g_k + g_k1)'s = 0.05 -> pick f_k - f_k1 = 0.025, grads zero
        out = modified_secant(y, s, 0.025, 0.0, np.zeros(2), np.zeros(2))
        assert out == pytest.approx([1.05, 0.0])

    def test_large_theta_skipped(self):
        s = np.array([1.0, 0.0])
        y = np.array([1.0, 0.0])
        out = modified_secant(y, s, 0.25, 0.0, np.zeros(2), np.zeros(2))  # theta = 0.5 y's
        assert np.all(out == y)

    def test_small_negative_shift_still_applied(self):
        s = np.array([1.0, 0.0])
        y = np.array([0.05, 0.0])  # y's = 0.05; theta = -0.004 keeps |theta| <= 0.1 y's
        out = modified_secant(y, s, -0.002, 0.0, np.zeros(2), np.zeros(2))
        assert out == pytest.approx([0.046, 0.0])

    def test_positivity_guard(self):
        # with y's < 0 the corrected pair cannot become positive, so skip
        s = np.array([1.0, 0.0])
        y = np.array([-1.0, 0.0])
        out = modified_secant(y, s, 0.025, 0.0, np.zeros(2), np.zeros(2))  # theta = 0.05
        assert np.all(out == y)

    def test_zero_step_rejected(self):
        with pytest.raises(ValueError):
            modified_secant(np.ones(2), np.zeros(2), 1.0, 0.0, np.ones(2), np.ones(2))


class TestMaterialize:
    def test_empty_memory_identity(self):
        assert np.array_equal(materialize([], 0.0, 3), np.eye(3))

    def test_empty_memory_shifted(self):
        assert np.array_equal(materialize([], 2.0, 2), 3.0 * np.eye(2))

    def test_secant_equation_for_newest_pair(self):
        rng = np.random.default_rng(11)
        for mu in (0.0, 0.7):
            _, pairs = make_screened_memory(rng, 6, 4)
            b = materialize(pairs, mu, 6)
            p = pairs[-1]
            assert b @ p.s == pytest.approx(p.y_bar + mu * p.s, abs=1e-10)

    def test_shift_consistency(self):
        # shifting stored pairs by mu up front equals materializing with mu
        rng = np.random.default_rng(13)
        mu = 0.8
        _, pairs = make_screened_memory(rng, 5, 3)
        shifted = [curvature_pair(p.s, p.y_bar + mu * p.s) for p in pairs]
        assert materialize(shifted, 0.0, 5) == pytest.approx(materialize(pairs, mu, 5), rel=1e-12)

    def test_large_n_rejected(self):
        with pytest.raises(ValueError):
            materialize([], 0.0, 51)


def test_spectral_bounds_formula_values():
    m, big_m = bfgs_spectral_bounds(1, 0.5, 2.0)
    assert big_m == 4.0  # (1 + p) * max_curv
    kappa = 4.0
    expected_m = 1.0 / ((1 + np.sqrt(kappa)) ** 2 * (1 / 0.5 + 1 / (0.5 * (2 * np.sqrt(kappa) + kappa))))
    assert m == pytest.approx(expected_m)


def test_eigenvalues_within_spectral_bounds():
    rng = np.random.default_rng(99)
    lam, big = 0.5, 2.0
    for _ in range(40):
        npairs = int(rng.integers(1, 11))
        with screen_bounds(lam, big):
            mem, pairs = make_screened_memory(rng, 10, npairs, lo=lam, hi=big)
            for p in pairs:
                assert screen_pair(p.s, p.y_bar)
        m, big_m = bfgs_spectral_bounds(len(mem), lam, big)
        ev = np.linalg.eigvalsh(materialize(pairs, 0.0, 10))
        assert ev.min() >= m - 1e-8
        assert ev.max() <= big_m + 1e-8
