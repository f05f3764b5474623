import math

import numpy as np
import pytest

from qnbench.regularizer import RegularizerState


def test_fresh_state_always_eligible():
    st = RegularizerState()
    assert st.best_level == math.inf
    assert st.mu_zero_eligible(1e12)
    assert st.mu_zero_eligible(-1e12)


def test_eligibility_is_non_strict():
    st = RegularizerState(best_level=5.0)
    assert st.mu_zero_eligible(5.0)
    assert not st.mu_zero_eligible(5.0001)


def test_register_first_entry_no_restart():
    st = RegularizerState()
    st.register_k0(3.0, 0.5)
    assert st.best_level == 2.5
    assert st.restarts == 0


def test_register_large_drop_restarts_accumulator():
    st = RegularizerState(best_level=10.0, g_energy=42.0)
    st.register_k0(8.5, 0.2)
    assert st.best_level == pytest.approx(8.3)
    assert st.g_energy == 0.0
    assert st.restarts == 1


def test_register_small_drop_keeps_accumulator():
    st = RegularizerState(best_level=2.5, g_energy=7.0)
    st.register_k0(2.4, 0.3)
    assert st.best_level == pytest.approx(2.1)
    assert st.g_energy == 7.0
    assert st.restarts == 0


def test_best_level_is_monotone():
    st = RegularizerState(best_level=1.0)
    st.register_k0(5.0, 0.0)  # worse value cannot raise the gate
    assert st.best_level == 1.0


def test_mu_positive_first_entry():
    st = RegularizerState()
    g = np.zeros(5)
    g[0] = 10.0
    mu = st.mu_positive(g)
    # G = sqrt(1e-10 + 100) ~ 10; raw = 1 inside [0.1, 10]
    assert mu == pytest.approx(1.0, rel=1e-9)
    assert st.g_energy == pytest.approx(100.0)


def test_mu_positive_lower_clip():
    st = RegularizerState(g_energy=25.0)
    mu = st.mu_positive(np.array([1e-8, 0.0]))
    # raw 1e-9 clipped up to G/100 ~ 0.05
    assert mu == pytest.approx(0.05, rel=1e-9)


def test_mu_positive_theta_window():
    rng = np.random.default_rng(4)
    st = RegularizerState()
    for _ in range(200):
        g = rng.standard_normal(6) * 10.0 ** rng.integers(-6, 4)
        mu = st.mu_positive(g)
        big_g = math.sqrt(st.varsigma + st.g_energy)
        theta = mu / big_g
        assert 1e-2 - 1e-12 <= theta <= 1.0 + 1e-12
        # the accumulator includes the current gradient, so the upper clip
        # is never strictly active
        assert mu <= big_g / 10.0 + 1e-12 or mu == pytest.approx(big_g / 100.0)


def test_mu_positive_rejects_nonfinite():
    st = RegularizerState()
    with pytest.raises(ValueError):
        st.mu_positive(np.array([1.0, np.nan]))


def adagrad_norm_bounds(sq_norms, mus, varsigma, theta_min, theta_max):
    total = varsigma + sum(sq_norms)
    lhs_sq = sum(s / m**2 for s, m in zip(sq_norms, mus))
    upper = (math.log(total) - math.log(varsigma)) / theta_min**2
    lhs = sum(s / m for s, m in zip(sq_norms, mus))
    lower = (math.sqrt(total) - math.sqrt(varsigma)) / theta_max
    return lhs_sq, upper, lhs, lower


def test_accumulation_satisfies_adagrad_norm_inequalities():
    rng = np.random.default_rng(17)
    for _ in range(20):
        st = RegularizerState()
        sq_norms, mus = [], []
        for _ in range(int(rng.integers(1, 60))):
            g = rng.standard_normal(4) * 10.0 ** rng.integers(-3, 3)
            mu = st.mu_positive(g)
            sq_norms.append(float(g @ g))
            mus.append(mu)
        lhs_sq, upper, lhs, lower = adagrad_norm_bounds(sq_norms, mus, st.varsigma, st.theta_min, st.theta_max)
        assert lhs_sq <= upper * (1.0 + 1e-9)
        assert lhs >= lower * (1.0 - 1e-9)
