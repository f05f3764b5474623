import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qnbench.noise import DRAW_BLOCK, NoiseModel, NoisyOracle, OracleError, default_eps_f
from qnbench.problems import ObjectiveProblem, get_problem, make_illcond_quadratic, make_sphere


def test_default_eps_f_table():
    assert default_eps_f(NoiseModel(kind="exact")) == 0.0
    assert default_eps_f(NoiseModel(kind="additive_uniform", level=1e-3)) == 1e-2
    assert default_eps_f(NoiseModel(kind="precision_cast", bits=64)) == 2.22e-9
    assert default_eps_f(NoiseModel(kind="precision_cast", bits=32)) == 1.19e-3
    assert default_eps_f(NoiseModel(kind="precision_cast", bits=16)) == 9.77e-2


def test_exact_model_passthrough():
    o = NoisyOracle(get_problem("sphere_n2"), NoiseModel())
    assert o.f_bar(np.array([3.0, 4.0])) == 12.5
    assert o.grad_bar(np.array([3.0, 4.0])) == pytest.approx([3.0, 4.0])
    assert default_eps_f(NoiseModel()) == 0.0
    # Any real vector is evaluated as float64, and every call is counted.
    assert o.f_bar([3.0, 4.0]) == o.f_bar(np.array([3.0, 4.0], dtype=np.float32)) == 12.5
    assert o.f_calls == 3


def test_additive_uniform_objective_bound():
    p = get_problem("sphere_n2")
    o = NoisyOracle(p, NoiseModel(kind="additive_uniform", level=1e-3, seed=3))
    x = np.array([0.5, -0.25])
    clean = p.f(x)
    draws = [o.f_bar(x) for _ in range(300)]
    errs = np.abs(np.array(draws) - clean)
    assert np.all(errs <= 1e-3)
    assert errs.max() > 1e-4  # noise actually present


def test_additive_uniform_satisfies_error_model():
    # with level <= eps_f every call obeys |fbar - f| <= eps_f * max(1, |f|)
    p = get_problem("rosenbrock_n2")
    model = NoiseModel(kind="additive_uniform", level=1e-3, seed=11)
    o = NoisyOracle(p, model)
    assert default_eps_f(model) == 1e-2
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = p.x0 + rng.standard_normal(2)
        clean = p.f(x)
        assert abs(o.f_bar(x) - clean) <= default_eps_f(model) * max(1.0, abs(clean))


def test_additive_uniform_gradient_percomp():
    p = get_problem("sphere_n10")
    o = NoisyOracle(p, NoiseModel(kind="additive_uniform", level=1e-3, seed=5))
    x = p.x0
    clean = p.grad(x)
    noise = o.grad_bar(x) - clean
    assert float(np.abs(noise).max()) <= 1e-3
    assert len(np.unique(noise)) > 1  # independent per-component draws


def test_additive_uniform_gradient_rank1():
    p = get_problem("sphere_n10")
    o = NoisyOracle(p, NoiseModel(kind="additive_uniform", level=1e-3, seed=5, grad_mode="rank1"))
    noise = o.grad_bar(p.x0) - p.grad(p.x0)
    assert float(np.abs(noise).max()) <= 1e-3
    assert len(np.unique(noise)) == 1  # one shared draw


def test_identical_seed_and_call_sequence_is_bit_identical():
    p = get_problem("beale_n2")
    model = NoiseModel(kind="additive_uniform", level=1e-2, seed=123)
    a, b = NoisyOracle(p, model), NoisyOracle(p, model)
    x = p.x0
    seq_a = [a.f_bar(x), *a.grad_bar(x), a.f_bar(x), *a.grad_bar(x)]
    seq_b = [b.f_bar(x), *b.grad_bar(x), b.f_bar(x), *b.grad_bar(x)]
    assert seq_a == seq_b


@pytest.mark.parametrize(
    "n, grad_mode, pattern",
    [
        (10, "percomp", "fgffgggf" * 200),
        (10_000, "percomp", "fgfggfffg"),
        (10, "rank1", "fgffgggf" * 1100),
        (10_000, "percomp", "gffgfg"),
    ],
    ids=["percomp_n10", "percomp_n10000", "rank1_n10", "percomp_n10000_grad_first"],
)
def test_buffered_draws_equal_the_raw_philox_stream(n, grad_mode, pattern):
    # At x = 0 the sphere's f and grad vanish, so the oracle returns the
    # noise itself; it must be the per-oracle stream drawn call by call.
    level, seed = 1e-3, 2026
    model = NoiseModel(kind="additive_uniform", level=level, seed=seed, grad_mode=grad_mode)
    o = NoisyOracle(make_sphere(n), model)
    ref = np.random.Generator(np.random.Philox(seed))
    x = np.zeros(n)
    for call in pattern:
        if call == "f":
            assert o.f_bar(x) == ref.uniform(-level, level)
        elif grad_mode == "percomp":
            assert np.array_equal(o.grad_bar(x), ref.uniform(-level, level, size=n))
        else:
            assert np.array_equal(o.grad_bar(x), np.full(n, ref.uniform(-level, level)))
    draws = pattern.count("f") + pattern.count("g") * (n if grad_mode == "percomp" else 1)
    assert draws > 2 * DRAW_BLOCK
    assert (o.f_calls, o.g_calls) == (pattern.count("f"), pattern.count("g"))


def test_different_seed_differs():
    p = get_problem("beale_n2")
    a = NoisyOracle(p, NoiseModel(kind="additive_uniform", level=1e-2, seed=1))
    b = NoisyOracle(p, NoiseModel(kind="additive_uniform", level=1e-2, seed=2))
    assert a.f_bar(p.x0) != b.f_bar(p.x0)


def test_counters_increment_once_per_call():
    o = NoisyOracle(get_problem("sphere_n2"), NoiseModel())
    x = np.array([1.0, 1.0])
    assert (o.f_calls, o.g_calls) == (0, 0)
    o.f_bar(x)
    o.f_bar(x)
    o.grad_bar(x)
    assert (o.f_calls, o.g_calls) == (2, 1)


def test_precision_cast_binary16_rounding():
    o = NoisyOracle(get_problem("sphere_n2"), NoiseModel(kind="precision_cast", bits=16))
    # 1 + 2^-12 is below half an ulp of 1.0 in binary16, so it rounds to 1.0
    assert o.f_bar(np.array([1.0 + 2.0**-12, 0.0])) == 0.5
    clean = 0.5 * (1.0 + 2.0**-12) ** 2
    assert abs(o.f_bar(np.array([1.0 + 2.0**-12, 0.0])) - clean) <= 9.77e-2 * max(1.0, clean)


def test_precision_cast_binary32_representable_input():
    o = NoisyOracle(make_illcond_quadratic(2), NoiseModel(kind="precision_cast", bits=32))
    assert np.all(o.grad_bar(np.array([1.0, 1.0])) == np.array([1.0, 2.0]))


def test_precision_cast_binary64_is_identity():
    p = get_problem("rosenbrock_n2")
    o = NoisyOracle(p, NoiseModel(kind="precision_cast", bits=64))
    assert o.f_bar(p.x0) == p.f(p.x0)


def test_precision_cast_overflow_raises():
    o = NoisyOracle(get_problem("sphere_n2"), NoiseModel(kind="precision_cast", bits=16))
    with pytest.raises(OracleError, match="input overflows binary16 range"):
        o.f_bar(np.array([1e6, 0.0]))


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("model", [NoiseModel(), NoiseModel(kind="additive_uniform", level=1e-3)], ids=["exact", "uniform"])
def test_nonfinite_value_is_refused(model, value):
    # f and grad are finite at x0 and ``value`` at x[0] > 1.
    sphere = make_sphere(2)
    p = ObjectiveProblem(
        "walled_n2",
        lambda x: sphere.f(x) if x[0] <= 1.0 else value,
        lambda x: sphere.grad(x) if x[0] <= 1.0 else np.full(2, value),
        sphere.x0,
    )
    o = NoisyOracle(p, model)
    with pytest.raises(OracleError, match=f"non-finite objective under {model.kind} model"):
        o.f_bar(np.array([2.0, 0.0]))
    with pytest.raises(OracleError, match=f"non-finite gradient under {model.kind} model"):
        o.grad_bar(np.array([2.0, 0.0]))
    assert (o.f_calls, o.g_calls) == (1, 1)


def test_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(kind="gaussian")
    with pytest.raises(ValueError):
        NoiseModel(kind="additive_uniform", level=0.0)
    with pytest.raises(ValueError):
        NoiseModel(kind="precision_cast", bits=8)
    with pytest.raises(ValueError):
        NoiseModel(grad_mode="weird")
    with pytest.raises(ValueError):
        NoiseModel(seed=-1)
    # Refused when the model is built, not at the first draw (which an exact
    # run never makes).
    for seed in (1.5, "5"):
        with pytest.raises(ValueError, match="seed"):
            NoiseModel(seed=seed)


@pytest.mark.parametrize(
    "settings, field",
    [
        (dict(kind="exact", level=float("nan")), "level"),
        (dict(kind="exact", level=-1.0), "level"),
        (dict(kind="exact", level=1e-3), "level"),
        (dict(kind="precision_cast", bits=32, level=1e-3), "level"),
        (dict(kind="additive_uniform", level=1e-3, bits=7), "bits"),
        (dict(kind="additive_uniform", level=1e-3, bits=32), "bits"),
        (dict(kind="exact", bits=16), "bits"),
        (dict(kind="precision_cast", bits=32.0), "bits"),
        (dict(kind="precision_cast", bits=True), "bits"),
    ],
    ids=str,
)
def test_model_refuses_settings_its_kind_ignores(settings, field):
    # A model says what it does: a level only for additive_uniform, a width
    # below 64 bits only for precision_cast, and a width only as an int.
    with pytest.raises(ValueError, match=field):
        NoiseModel(**settings)


def test_uniform_level_must_keep_its_range_finite():
    # The draws come from [-level, level]: numpy refuses a range whose width
    # 2 * level overflows, so the model refuses such a level up front.
    for level in (math.inf, 1e308):
        with pytest.raises(ValueError, match="level"):
            NoiseModel(kind="additive_uniform", level=level)
    model = NoiseModel(kind="additive_uniform", level=sys.float_info.max / 2)
    g = NoisyOracle(get_problem("sphere_n2"), model).grad_bar(np.ones(2))
    assert np.isfinite(g).all()


_NUMPY_RANDOM_PROBE = """
import json, sys
import numpy
loaded = {"import numpy": "numpy.random" in sys.modules}
from qnbench import NoiseModel, SolverConfig, default_eps_f, get_problem, solve
models = {
    "exact": NoiseModel(),
    "cast32": NoiseModel(kind="precision_cast", bits=32),
    "uniform": NoiseModel(kind="additive_uniform", level=1e-3),
}
for name, model in models.items():
    cfg = SolverConfig(k_max=50, eps_gtol=1e-2, eps_f=default_eps_f(model))
    solve(get_problem("sphere_n10"), model, cfg)
    loaded[name] = "numpy.random" in sys.modules
print(json.dumps(loaded))
"""


def test_noise_free_runs_never_import_numpy_random():
    # A fresh interpreter, as the test process itself has numpy.random loaded.
    # The models run in this order, so a module the exact or cast run loaded
    # would still show after it.
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", _NUMPY_RANDOM_PROBE],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    loaded = json.loads(out.splitlines()[-1])
    if loaded["import numpy"]:
        pytest.skip("this numpy loads numpy.random on import")
    assert loaded == {"import numpy": False, "exact": False, "cast32": False, "uniform": True}
