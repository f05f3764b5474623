"""The column-wise iteration trace behaves as a list of its records."""

import math
import pickle
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnbench.bench import read_trace_csv, run_matrix, write_trace_csv
from qnbench.noise import NoiseModel
from qnbench.problems import get_problem
from qnbench.solver import IterationRecord, SolverConfig, Trace, solve

FLOATS = st.floats(allow_nan=False)
COUNTS = st.integers(-(2**63), 2**63 - 1)
ROWS = st.lists(
    st.tuples(FLOATS, FLOATS, FLOATS, st.sampled_from([0.0, -0.0, 1e-300, 2.5]) | FLOATS,
              FLOATS, FLOATS, COUNTS, COUNTS, COUNTS),
    max_size=12,
)


def open_columns():
    """Empty columns as ``solve`` keeps them: six float columns, then three int."""
    return [array("d") for _ in range(6)] + [array("q") for _ in range(3)]


def build(rows):
    """The trace and the list of records that ``solve`` would have kept."""
    columns = open_columns()
    records = []
    for k, (f_bar, g_inf, g_two, mu, alpha, delta, rejections, f_calls, g_calls) in enumerate(rows):
        for column, value in zip(columns, (f_bar, g_inf, g_two, mu, alpha, delta, rejections, f_calls, g_calls)):
            column.append(value)
        records.append(IterationRecord(
            k=k, f_bar=f_bar, g_inf=g_inf, g_two=g_two, mu=mu, alpha=alpha, delta=delta,
            rejections=rejections, f_calls=f_calls, g_calls=g_calls,
        ))
    return Trace(columns), records


def widths(trace):
    """Bytes per row of each stored column: 0 for a zero-width one."""
    return [c.itemsize if isinstance(c, array) else 0 for c in trace._columns]


def reprs(records):
    """Each field's type and repr: unlike ``==``, tells ``-0.0`` from ``0.0``."""
    return [[(type(v), repr(v)) for v in vars(r).values()] for r in records]


@given(ROWS, st.integers(-15, 15), st.integers(-15, 15), st.integers(-4, 4).filter(bool))
@settings(max_examples=200)
def test_sequence_behaviour_matches_a_list_of_the_records(rows, start, stop, step):
    trace, records = build(rows)
    n = len(records)
    assert len(trace) == n
    assert list(trace) == records
    assert reprs(trace) == reprs(records)
    for i in range(-n - 2, n + 2):
        if -n <= i < n:
            assert trace[i] == records[i]
            assert trace[i].k == records[i].k
        else:
            with pytest.raises(IndexError):
                trace[i]
    assert trace[start:stop:step] == records[start:stop:step]
    assert trace[:] == records
    assert [r.k for r in trace] == list(range(n))
    assert trace == records and records == trace
    assert not (trace != records)
    assert trace == tuple(records)
    assert pickle.loads(pickle.dumps(trace)) == trace
    assert reprs(pickle.loads(pickle.dumps(trace))) == reprs(records)


@given(ROWS.filter(bool), st.data())
@settings(max_examples=100)
def test_inequality_both_ways(rows, data):
    trace, records = build(rows)
    assert trace != records[:-1] and records[:-1] != trace
    assert trace != records + records[:1] and records + records[:1] != trace
    i = data.draw(st.integers(0, len(records) - 1))
    changed = list(records)
    changed[i] = IterationRecord(**{**vars(records[i]), "rejections": records[i].rejections + 1})
    assert trace != changed and changed != trace
    assert trace != "not a trace"
    assert (trace == 5) is False and trace != 5


INT_FIELDS = ("rejections", "f_calls", "g_calls")


@pytest.mark.parametrize("name", INT_FIELDS)
def test_int_columns_widen_to_every_boundary_value(name):
    # Each side of the 'B', 'H' and 'I' limits, a negative and the int64 maximum.
    values = [0, 255, 256, 65535, 65536, 2**32 - 1, 2**32, -1, 2**63 - 1]
    floats = (0.5, 1.0, 2.0, 0.0, 1.0, 0.0)
    rows = [(*floats, *(v if f == name else 3 for f in INT_FIELDS)) for v in values]
    trace, records = build(rows)
    assert [trace[k] for k in range(len(trace))] == records
    assert list(trace) == records
    assert list(pickle.loads(pickle.dumps(trace))) == records
    assert [getattr(r, name) for r in trace] == values
    assert all(type(getattr(r, f)) is int for r in trace for f in INT_FIELDS)
    # Only the column that holds the wide values was widened.
    assert widths(trace)[-3:] == [8 if f == name else 1 for f in INT_FIELDS]
    # A value beyond 'q' does not enter the open column.
    with pytest.raises(OverflowError):
        build([(*floats, *(2**63 if f == name else 3 for f in INT_FIELDS))])


STORED = ("f_bar", "g_inf", "g_two", "mu", "alpha", "delta", *INT_FIELDS)
ZERO_ROW = (0.0,) * 6 + (0,) * 3
# A first value other than +0.0 or 0 and the item size it materializes at.
FIRST_VALUES = [
    *((name, value, 8) for name in ("mu", "delta") for value in (-0.0, math.nan, 5e-324, -math.inf, 1.0)),
    *((name, value, size) for name in INT_FIELDS for value, size in ((1, 1), (256, 2), (-1, 8), (2**63 - 1, 8))),
]


@pytest.mark.parametrize("k", [0, 1, 5])
@pytest.mark.parametrize(("name", "value", "itemsize"), FIRST_VALUES)
def test_zero_width_column_materializes_at_its_first_other_value(name, value, itemsize, k):
    i = STORED.index(name)
    zeros, _ = build([ZERO_ROW] * k)
    assert widths(zeros) == [0] * len(STORED)
    rows = [ZERO_ROW] * k + [ZERO_ROW[:i] + (value,) + ZERO_ROW[i + 1:]] + [ZERO_ROW] * 2
    trace, records = build(rows)
    assert reprs(trace) == reprs(records)
    assert [repr(getattr(r, name)) for r in trace] == [repr(ZERO_ROW[i])] * k + [repr(value)] + [repr(ZERO_ROW[i])] * 2
    assert reprs(pickle.loads(pickle.dumps(trace))) == reprs(records)
    # Only this column stores its values; the others still hold just a count.
    assert widths(trace) == [itemsize if j == i else 0 for j in range(len(STORED))]


def test_a_false_flag_keeps_an_int_column_zero_width():
    trace, _ = build([ZERO_ROW[:6] + (False, 0, False)] * 3)
    assert widths(trace) == [0] * len(STORED)
    # Read back as the int 0, the zero of the column's own typecode.
    assert reprs(trace) == reprs(build([ZERO_ROW] * 3)[1])


@pytest.mark.parametrize("lengths", [(1,) * 8 + (2,), (2,) + (1,) * 8, (0,) * 8 + (1,), (1,) * 8, (1,) * 10, ()])
def test_columns_of_unequal_length_or_number_are_refused(lengths):
    columns = (open_columns() + [array("q")])[:len(lengths)]
    for column, n in zip(columns, lengths):
        column.extend([0] * n)
    with pytest.raises(ValueError, match="9 columns of one length"):
        Trace(columns)


def test_solver_trace_round_trips_through_pickle_and_csv(tmp_path):
    model = NoiseModel(kind="additive_uniform", level=1e-3, seed=4)
    res = solve(get_problem("ext_rosenbrock_n10"), model, SolverConfig(eps_gtol=1e-2, eps_f=1e-2, k_max=300))
    trace = res.trace
    assert isinstance(trace, Trace)
    # The run has K0 iterations (mu == 0) and K+ ones.
    assert {r.mu == 0.0 for r in trace} == {True, False}
    back = pickle.loads(pickle.dumps(trace))
    assert isinstance(back, Trace) and back == trace
    for name in Trace.__slots__:
        assert getattr(back, name) == getattr(trace, name)
    write_trace_csv(trace, tmp_path / "columns.csv")
    write_trace_csv(list(trace), tmp_path / "records.csv")
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "records.csv").read_bytes()


def test_baseline_trace_round_trips_through_pickle_and_csv_byte_for_byte(tmp_path):
    model = NoiseModel(kind="additive_uniform", level=1e-3, seed=4)
    cfg = SolverConfig(eps_gtol=1e-2, k_max=300, variant="baseline_line")
    trace = solve(get_problem("ext_rosenbrock_n10"), model, cfg).trace
    # The baseline has no shift and no Armijo slack: mu and delta are never stored.
    assert widths(trace) == [8, 8, 8, 0, 8, 0, 1, 2, 2]
    back = pickle.loads(pickle.dumps(trace))
    assert isinstance(back, Trace) and reprs(back) == reprs(trace)
    # The same rows with every column materialized, as the columns were stored
    # before zero-width columns.
    stored = Trace.__new__(Trace)
    stored._columns = [array(code, [getattr(r, name) for r in trace]) for code, name in zip("ddddddBHH", STORED)]
    assert widths(stored) == [8, 8, 8, 8, 8, 8, 1, 2, 2]
    for name, t in (("trace", trace), ("pickled", back), ("stored", stored), ("records", list(trace))):
        write_trace_csv(t, tmp_path / f"{name}.csv")
    expected = (tmp_path / "stored.csv").read_bytes()
    for name in ("trace", "pickled", "records"):
        assert (tmp_path / f"{name}.csv").read_bytes() == expected, name
    assert reprs(read_trace_csv(tmp_path / "trace.csv")) == reprs(trace)


def test_parallel_traces_equal_serial_traces():
    args = (["beale_n2", "ext_rosenbrock_n10"], ["ours", "baseline_line"],
            NoiseModel(kind="additive_uniform", level=1e-3), 1e-2, [0, 1])
    cfg = SolverConfig(k_max=300)
    _, serial = run_matrix(*args, parallelism=1, base_cfg=cfg, keep_traces=True)
    _, parallel = run_matrix(*args, parallelism=2, base_cfg=cfg, keep_traces=True)
    assert serial.keys() == parallel.keys()
    for key, trace in serial.items():
        assert isinstance(parallel[key], Trace)
        assert parallel[key] == trace


def test_trace_retains_at_most_64_bytes_per_iteration():
    # One record object per iteration retained about 360 bytes, and nine
    # columns of 8 bytes about 78. Six float columns of 8 bytes and int
    # columns of 1 (rejections) and 2 (the call totals) retain 53 plus the
    # arrays' growth headroom, about 58 in all.
    problem = get_problem("illcond_quadratic_n10")
    model = NoiseModel(kind="additive_uniform", level=1e-3, seed=7)
    cfg = SolverConfig(eps_gtol=0.0, eps_f=1e-2, k_max=2000)
    # The first solve in a process allocates once-only state; keep it out.
    solve(problem, model, SolverConfig(eps_gtol=0.0, eps_f=1e-2, k_max=3))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        res = solve(problem, model, cfg)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert res.iterations == 2000
    assert retained / res.iterations <= 64


def test_baseline_trace_retains_at_most_44_bytes_per_iteration():
    # The line-search baseline stores mu = 0 and delta = 0 on every row, so
    # both columns stay zero-width: about 40 bytes per iteration, against 57
    # when they took 8 bytes each.
    problem = get_problem("illcond_quadratic_n10")
    model = NoiseModel(kind="additive_uniform", level=1e-3, seed=7)
    cfg = SolverConfig(eps_gtol=0.0, k_max=2000, variant="baseline_line")
    solve(problem, model, SolverConfig(eps_gtol=0.0, k_max=3, variant="baseline_line"))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        res = solve(problem, model, cfg)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert res.iterations == 2000
    assert retained / res.iterations <= 44
