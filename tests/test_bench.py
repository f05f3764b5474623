import copy
import csv
import hashlib
import math
from dataclasses import fields, replace

import click
import numpy as np
import pytest
from click.testing import CliRunner

import qnbench.bench as bench_mod
import qnbench.cli as cli_mod
import qnbench.problems as problems_mod
from qnbench.bench import (
    INF,
    METRICS,
    ProfileCurve,
    RunRecord,
    _profile,
    aggregate_seeds,
    derive_oracle_seed,
    emit_csv,
    emit_svg,
    performance_profile,
    read_runs_csv,
    read_trace_csv,
    run_matrix,
    write_trace_csv,
)
from qnbench.cli import main, parse_eps_f, parse_noise, parse_seeds
from qnbench.lbfgs import LbfgsMemory
from qnbench.noise import NoiseModel
from qnbench.solver import VARIANTS, IterationRecord, SolverConfig


def rec(problem, solver, seed=0, status="converged", calls=100.0, **kw):
    """A record whose cost under the default metric is ``calls`` when it converged."""
    base = dict(
        problem=problem, solver=solver, seed=seed, status=status,
        f_calls=int(calls) if math.isfinite(calls) else 0,
        g_calls=0, iters=10, final_f_bar=1e-9, final_g_inf=1e-9, wall_ms=1.5,
    )
    base.update(kw)
    return RunRecord(**base)


SMALL_CFG = SolverConfig(k_max=400)


class TestRunMatrix:
    def test_cardinality(self):
        records = run_matrix(
            ["sphere_n10"], ["ours", "baseline_line"], NoiseModel(kind="additive_uniform", level=1e-3),
            1e-2, [0, 1, 2], base_cfg=SMALL_CFG,
        )
        assert len(records) == 6

    def test_converges_fast_on_sphere(self):
        records = run_matrix(["sphere_n10"], ["ours"], NoiseModel(), 1e-8, [0], base_cfg=SMALL_CFG)
        (r,) = records
        assert r.status == "converged"
        assert r.f_calls + r.g_calls < 50

    def test_unknown_names_fail_before_running(self, monkeypatch):
        def no_run(task):
            raise AssertionError("a run started")

        monkeypatch.setattr(bench_mod, "_execute", no_run)
        for suite in (["nope_n1"], ["sphere_n10", "nope_n1"]):
            with pytest.raises(KeyError, match="unknown problem 'nope_n1'"):
                run_matrix(suite, ["ours"], NoiseModel(), 1e-2, [0])
        with pytest.raises(ValueError):
            run_matrix(["sphere_n10"], ["warp_drive"], NoiseModel(), 1e-2, [0])

    def test_builds_only_the_problems_it_names(self, monkeypatch):
        monkeypatch.setattr(problems_mod, "_BUILT", {})
        records = run_matrix(["wood_n4", "beale_n2"], ["ours"], NoiseModel(), 1e-2, [0], base_cfg=SMALL_CFG)
        assert len(records) == 2
        assert list(problems_mod._BUILT) == ["wood_n4", "beale_n2"]

    def test_out_of_range_seeds_fail_before_running(self, monkeypatch):
        # Outside [0, 2**63) derived oracle seeds alias: -1 would silently
        # rerun seed 2**63 - 1. A bool seed would run and be written as
        # "True", which read_runs_csv refuses.
        assert derive_oracle_seed("sphere_n10", -1) == derive_oracle_seed("sphere_n10", 2**63 - 1)

        def no_run(task):
            raise AssertionError("a run started")

        monkeypatch.setattr(bench_mod, "_execute", no_run)
        cases = [(-1, "outside"), (2**63, "outside")]
        cases += [(bad, "seed must be an int") for bad in (True, False, 1.5, 2.0, "3", None)]
        for bad, message in cases:
            with pytest.raises(ValueError, match=message):
                run_matrix(["sphere_n10"], ["ours"], NoiseModel(), 1e-2, [0, bad])

    def test_empty_or_repeated_lists_fail_before_running(self, monkeypatch):
        def no_run(task):
            raise AssertionError("a run started")

        monkeypatch.setattr(bench_mod, "_execute", no_run)
        cases = [
            ([], ["ours"], [0], "empty problem"),
            (["sphere_n10"], [], [0], "empty solver"),
            (["sphere_n10"], ["ours"], [], "empty seed"),
            (["sphere_n10"], ["ours"], [1, 1], "seed 1 repeated"),
            (["sphere_n10", "beale_n2", "sphere_n10"], ["ours"], [0], "problem 'sphere_n10' repeated"),
            (["sphere_n10"], ["ours", "baseline_line", "ours"], [0], "solver 'ours' repeated"),
        ]
        for suite, solvers, seeds, message in cases:
            with pytest.raises(ValueError, match=message):
                run_matrix(suite, solvers, NoiseModel(), 1e-2, seeds)

    @pytest.mark.parametrize("parallelism", [0, -5])
    def test_nonpositive_parallelism_fails_before_running(self, monkeypatch, parallelism):
        def no_run(task):
            raise AssertionError("a run started")

        monkeypatch.setattr(bench_mod, "_execute", no_run)
        with pytest.raises(ValueError, match="parallelism"):
            run_matrix(["sphere_n10"], ["ours"], NoiseModel(), 1e-2, [0], parallelism=parallelism)

    def test_parallel_matches_serial_except_wall_time(self, tmp_path):
        model = NoiseModel(kind="additive_uniform", level=1e-3)
        args = (["sphere_n10", "beale_n2"], ["ours", "baseline_line"], model, 1e-2, [0, 1])
        seq = run_matrix(*args, parallelism=1, base_cfg=SMALL_CFG)
        par = run_matrix(*args, parallelism=2, base_cfg=SMALL_CFG)
        # One-shot iterables run the matrix that their lists run.
        once = run_matrix(iter(args[0]), (s for s in args[1]), model, 1e-2, iter(args[4]), base_cfg=SMALL_CFG)
        for group in (seq, par, once):
            for r in group:
                r.wall_ms = 0.0
        p1, p2, p3 = tmp_path / "seq.csv", tmp_path / "par.csv", tmp_path / "once.csv"
        emit_csv(seq, p1)
        emit_csv(par, p2)
        emit_csv(once, p3)
        assert p1.read_bytes() == p2.read_bytes() == p3.read_bytes()

    def test_failed_run_is_priced_infinite(self):
        cfg = SolverConfig(k_max=3)
        records = run_matrix(["chained_rosenbrock_n10"], ["ours"], NoiseModel(), 1e-10, [0], base_cfg=cfg)
        (r,) = records
        assert r.status == "max_iters"
        assert r.f_calls > 0  # raw totals still recorded
        for metric in METRICS:
            assert aggregate_seeds(records, metric) == {("chained_rosenbrock_n10", "ours"): INF}

    def test_f_only_metric(self):
        records = run_matrix(["sphere_n10"], ["ours"], NoiseModel(), 1e-8, [0], base_cfg=SMALL_CFG)
        (r,) = records
        assert aggregate_seeds(records, "f_only") == {("sphere_n10", "ours"): float(r.f_calls)}

    def test_keep_traces(self):
        records, traces = run_matrix(
            ["sphere_n10"], ["ours"], NoiseModel(), 1e-8, [0], keep_traces=True, base_cfg=SMALL_CFG,
        )
        assert ("sphere_n10", "ours", 0) in traces
        assert len(traces[("sphere_n10", "ours", 0)]) == records[0].iters

    @pytest.mark.parametrize("spec", ["exact", "cast:32", "uniform:1e-3", "uniform:1e-3:rank1"])
    def test_only_a_model_that_draws_takes_a_derived_seed(self, spec):
        noise = parse_noise(spec)
        solvers = ["ours", "baseline_line"]
        tasks = bench_mod._plan(["sphere_n10", "beale_n2"], solvers, noise, 1e-2, [0, 1], 1, eps_f="auto", base_cfg=None)
        assert len(tasks) == 8
        for name, seed, model, _ in tasks:
            if noise.kind == "additive_uniform":
                assert model == replace(noise, seed=derive_oracle_seed(name, seed))
            else:
                assert model == noise and model.seed == 0

    @pytest.mark.parametrize("spec", ["exact", "cast:32"])
    def test_a_model_that_draws_nothing_gives_every_run_seed_one_run(self, spec):
        # Neither kind draws, so a run seed changes nothing but the record's
        # seed: the premise of giving such a model no seed.
        records, traces = run_matrix(
            ["beale_n2", "rosenbrock_n2"], list(VARIANTS), parse_noise(spec), 1e-2, [0, 1],
            base_cfg=SolverConfig(k_max=200), keep_traces=True,
        )
        runs = {s: [replace(r, seed=0, wall_ms=0.0) for r in records if r.seed == s] for s in (0, 1)}
        assert len(runs[0]) == 2 * len(VARIANTS) and runs[0] == runs[1]
        for problem, solver, seed in traces:
            assert traces[problem, solver, seed] == traces[problem, solver, 1 - seed]


class TestAggregation:
    def test_a_run_is_priced_by_the_metric(self):
        def record(status):
            return RunRecord("sphere_n2", "ours", 0, status, 7, 5, 0, math.nan, math.nan, 1.5)

        r = record("converged")
        assert (r.status, r.f_calls, r.g_calls, r.iters, r.wall_ms) == ("converged", 7, 5, 0, 1.5)
        assert aggregate_seeds([r]) == aggregate_seeds([r], "both") == {("sphere_n2", "ours"): 12.0}
        assert aggregate_seeds([r], "f_only") == {("sphere_n2", "ours"): 7.0}
        r = record("max_iters")
        assert (r.f_calls, r.g_calls) == (7, 5)
        for metric in METRICS:
            assert aggregate_seeds([r], metric) == {("sphere_n2", "ours"): INF}

    def test_unknown_metric_is_refused(self):
        records = [rec("p", "A")]
        for profile in (aggregate_seeds, performance_profile, _profile):
            with pytest.raises(ValueError, match="metric must be one of"):
                profile(records, metric="calls")

    def test_median_of_successful_seeds(self):
        records = [rec("p", "s", seed=i, calls=c) for i, c in enumerate([100.0, 300.0, 200.0])]
        assert aggregate_seeds(records)[("p", "s")] == 200.0

    def test_even_count_median(self):
        records = [rec("p", "s", seed=i, calls=c) for i, c in enumerate([100.0, 200.0, 300.0, 400.0])]
        assert aggregate_seeds(records)[("p", "s")] == 250.0

    def test_failure_when_more_than_half_fail(self):
        records = [rec("p", "s", seed=i, calls=100.0) for i in range(2)]
        records += [rec("p", "s", seed=2 + i, status="max_iters", calls=INF) for i in range(3)]
        assert aggregate_seeds(records)[("p", "s")] == INF
        # No seed converged: the more-than-half test alone gives the failure.
        for n in (1, 2, 4):
            none = [rec("q", "s", seed=i, status="max_iters", calls=INF) for i in range(n)]
            assert aggregate_seeds(none) == {("q", "s"): INF}

    def test_a_run_counted_twice_is_refused(self):
        # Two matrices joined together, one of them recording its fresh
        # objective runs under the plain name: the median of its two
        # "seeds" 0 would be 728.5, a cost that neither algorithm has.
        plain, fresh = run_matrix(["beale_n2"], ["baseline_line", "baseline_line_fresh"], UNIFORM, 1e-2, [0])
        assert (plain.f_calls + plain.g_calls, fresh.f_calls + fresh.g_calls) == (1397, 60)
        joined = [plain, replace(fresh, solver="baseline_line")]
        for profile in (aggregate_seeds, performance_profile, _profile):
            with pytest.raises(ValueError, match=r"\('beale_n2', 'baseline_line', 0\) repeated"):
                profile(joined)
        # Under its own name the fresh run is a solver of its own.
        assert aggregate_seeds([plain, fresh]) == {
            ("beale_n2", "baseline_line"): 1397.0, ("beale_n2", "baseline_line_fresh"): 60.0,
        }

    def test_half_failures_still_counts(self):
        records = [rec("p", "s", seed=i, calls=100.0 * (i + 1)) for i in range(2)]
        records += [rec("p", "s", seed=2 + i, status="max_iters", calls=INF) for i in range(2)]
        assert aggregate_seeds(records)[("p", "s")] == 150.0


class TestPerformanceProfile:
    def test_no_records_are_refused(self):
        # No solver would get a curve, and an empty curve list would write
        # the runs header into a profile file.
        for profile in (performance_profile, _profile):
            with pytest.raises(ValueError, match="no run records"):
                profile([])

    def test_two_solver_hand_example(self):
        records = [rec("p", "A", calls=100.0), rec("p", "B", calls=200.0)]
        curves = {c.solver: c for c in performance_profile(records)}
        assert curves["A"].rho_at(1.0) == 1.0
        assert curves["B"].rho_at(1.0) == 0.0
        assert curves["B"].rho_at(2.0) == 1.0

    def test_ties_give_everyone_ratio_one(self):
        records = [rec("p1", s, calls=50.0) for s in "AB"] + [rec("p2", s, calls=70.0) for s in "AB"]
        for c in performance_profile(records):
            assert c.rho_at(1.0) == 1.0

    def test_all_failed_solver_is_flat_zero(self):
        records = [rec("p1", "A", calls=10.0), rec("p2", "A", calls=20.0)]
        records += [rec(p, "B", status="max_iters", calls=INF) for p in ("p1", "p2")]
        curves = {c.solver: c for c in performance_profile(records)}
        assert curves["B"].rho_at(1e9) == 0.0
        assert curves["A"].rho_at(1.0) == 1.0

    def test_problem_failed_by_all_is_dropped_with_warning(self):
        records = [rec("good", "A", calls=10.0), rec("good", "B", calls=10.0)]
        records += [rec("bad", s, status="max_iters", calls=INF) for s in "AB"]
        with pytest.warns(UserWarning, match="dropped"):
            curves = performance_profile(records)
        # _profile warns nothing: its caller, the profile command, reports
        # the dropped problems itself.
        _, kept, dropped = _profile(records)
        assert kept == ["good"] and dropped == ["bad"]
        for c in curves:
            assert c.rho_at(1.0) == 1.0  # |P| excludes the dropped problem

    def test_monotone_bounded_and_best_covered(self):
        records = []
        for i, p in enumerate(["p1", "p2", "p3"]):
            records.append(rec(p, "A", calls=100.0 + i))
            records.append(rec(p, "B", calls=130.0 + 40 * i))
        curves = performance_profile(records)
        assert performance_profile(r for r in records) == curves
        for c in curves:
            rhos = [r for _, r in c.points]
            assert all(b >= a for a, b in zip(rhos, rhos[1:]))
            assert all(0.0 <= r <= 1.0 for r in rhos)
        assert sum(c.rho_at(1.0) for c in curves) >= 1.0

    def test_invariant_under_per_problem_rescaling(self):
        records = [rec("p1", "A", calls=100.0), rec("p1", "B", calls=150.0),
                   rec("p2", "A", calls=60.0), rec("p2", "B", calls=30.0)]
        scaled = copy.deepcopy(records)
        for r in scaled:
            if r.problem == "p1":
                r.f_calls *= 7
        c1 = performance_profile(records)
        c2 = performance_profile(scaled)
        for a, b in zip(c1, c2):
            assert a.points == b.points


class TestCsv:
    def test_round_trip_exact(self, tmp_path):
        records = run_matrix(
            ["sphere_n10", "beale_n2"], ["ours"], NoiseModel(kind="additive_uniform", level=1e-3),
            1e-2, [0, 1], base_cfg=SMALL_CFG,
        )
        path = tmp_path / "runs.csv"
        emit_csv(records, path)
        assert read_runs_csv(path) == records

    def test_header_order(self, tmp_path):
        path = tmp_path / "runs.csv"
        emit_csv([], path)
        assert path.read_bytes() == (
            b"problem,solver,seed,status,f_calls,g_calls,iters,final_f_bar,final_g_inf,wall_ms\r\n"
        )
        path = tmp_path / "trace.csv"
        write_trace_csv([], path)
        assert path.read_bytes() == b"k,f_bar,g_inf,g_two,mu,alpha,delta,rejections,f_calls,g_calls\r\n"

    def test_zero_iteration_trace_is_header_only(self, tmp_path):
        records, traces = run_matrix(["sphere_n10"], ["ours"], NoiseModel(), 1.0, [0], keep_traces=True)
        assert records[0].status == "converged" and records[0].iters == 0
        path = tmp_path / "trace.csv"
        write_trace_csv(traces[("sphere_n10", "ours", 0)], path)
        assert path.read_bytes() == b"k,f_bar,g_inf,g_two,mu,alpha,delta,rejections,f_calls,g_calls\r\n"
        assert read_trace_csv(path) == []

    def test_nonfinite_values_round_trip(self, tmp_path):
        records = [rec("p", "s", status="oracle_error", calls=INF, final_f_bar=math.nan, final_g_inf=math.nan)]
        path = tmp_path / "runs.csv"
        emit_csv(records, path)
        assert repr(read_runs_csv(path)) == repr(records)

        # A numpy scalar, such as a column computed with numpy holds, is
        # written as the shortest decimal that reads back to the same bits.
        def bits(record):
            return [float(v).hex() if isinstance(v, float) else v for v in vars(record).values()]

        values = [0.1, -0.0, 5e-324, 1.7976931348623157e308, 1e16, 0.1 + 0.2]
        records = [
            RunRecord("p", "s", np.int64(i), "converged", np.int64(7), np.int64(5), np.int64(4),
                      np.float64(v), np.float64(-v), np.float64(v))
            for i, v in enumerate(values)
        ]
        emit_csv(records, path)
        assert [bits(r) for r in read_runs_csv(path)] == [bits(r) for r in records]
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [row[7:] for row in rows] == [[repr(v), repr(-v), repr(v)] for v in values]
        trace = [
            IterationRecord(np.int64(0), *map(np.float64, values), np.int64(0), np.int64(2), np.int64(1)),
            IterationRecord(np.int64(1), *map(np.float64, [-v for v in values]), np.int64(3), np.int64(9), np.int64(2)),
        ]
        write_trace_csv(trace, tmp_path / "trace.csv")
        assert [bits(r) for r in read_trace_csv(tmp_path / "trace.csv")] == [bits(r) for r in trace]
        with (tmp_path / "trace.csv").open(newline="") as fh:
            assert list(csv.reader(fh))[1][1:7] == [repr(v) for v in values]

    def test_a_file_with_another_header_is_refused(self, tmp_path):
        runs, trace, empty = tmp_path / "runs.csv", tmp_path / "trace.csv", tmp_path / "empty.csv"
        emit_csv([], runs)
        write_trace_csv([], trace)
        empty.write_text("")
        # An older trace file still holds the set column, which mu == 0.0
        # replaced.
        old_trace = tmp_path / "old_trace.csv"
        old_trace.write_text(
            "k,f_bar,g_inf,g_two,mu,alpha,delta,set,rejections,f_calls,g_calls\n"
            "0,1.0,1.0,1.0,0.0,1.0,0.0,K0,0,2,1\n"
        )
        for path in (trace, empty):
            with pytest.raises(ValueError, match="unexpected runs header"):
                read_runs_csv(path)
        for path in (runs, empty, old_trace):
            with pytest.raises(ValueError, match="unexpected trace header"):
                read_trace_csv(path)

    def test_infinity_sentinel_round_trips(self, tmp_path):
        # A failed run read back from runs.csv is still priced infinite.
        records = [rec("p", "s", status="max_iters", calls=INF)]
        path = tmp_path / "runs.csv"
        emit_csv(records, path)
        for metric in METRICS:
            assert aggregate_seeds(read_runs_csv(path), metric) == {("p", "s"): INF}

    def test_a_runs_csv_with_the_old_cost_column_is_refused(self, tmp_path):
        # An older runs.csv still holds oracle_calls: the header check
        # refuses it rather than reading its columns out of place.
        path = tmp_path / "runs.csv"
        path.write_text(
            "problem,solver,seed,status,oracle_calls,f_calls,g_calls,iters,final_f_bar,final_g_inf,wall_ms\n"
            "p,s,0,converged,12.0,7,5,4,0.0,0.0,1.5\n"
        )
        with pytest.raises(ValueError, match="unexpected runs header"):
            read_runs_csv(path)

    RUN_ROW = "p,s,0,converged,7,5,4,0.0,0.0,1.5"
    TRACE_ROW = "0,1.0,1.0,1.0,0.0,1.0,0.0,0,2,1"

    @pytest.mark.parametrize(("bad", "message"), [
        ("p,s,0,converged,7,5", "runs line 3: too few fields (6, the header has 10)"),
        ("p,s,0,converged,7,5,4,0.0,0.0,1.5,9", "runs line 3: too many fields (11, the header has 10)"),
        ("p,s,x,converged,7,5,4,0.0,0.0,1.5", "runs line 3: seed 'x' is not a valid int"),
        ("p,s,0,converged,7.0,5,4,0.0,0.0,1.5", "runs line 3: f_calls '7.0' is not a valid int"),
        ("p,s,0,converged,7,5,4,abc,0.0,1.5", "runs line 3: final_f_bar 'abc' is not a valid float"),
        ("p,s,0,converged,7,5,4,0.0,0.0," + "1" * 200_000, "runs line 3: field larger than field limit (131072)"),
        ('p,s,1,"converged,7,8,3,0.5,0.001,1.0', "runs line 3: a quoted field is not closed"),
        ("p,s,0,converged,-4,5,4,0.0,0.0,1.5", "runs line 3: f_calls '-4' is negative"),
        ("p,s,0,Converged,7,5,4,0.0,0.0,1.5",
         "runs line 3: status 'Converged' is not one of ('converged', 'max_iters', 'oracle_error')"),
    ], ids=["short", "long", "int", "float_as_int", "float", "csv_error", "open_quote", "negative", "status"])
    def test_a_malformed_runs_row_is_refused_by_its_line(self, tmp_path, bad, message):
        path = tmp_path / "runs.csv"
        emit_csv([], path)
        with path.open("a") as fh:
            fh.write(f"{self.RUN_ROW}\n{bad}\n{self.RUN_ROW}\n")
        with pytest.raises(ValueError) as info:
            read_runs_csv(path)
        assert str(info.value) == message

    @pytest.mark.parametrize(("bad", "message"), [
        ("0,1.0,1.0", "trace line 2: too few fields (3, the header has 10)"),
        ("0,1.0,1.0,1.0,0.0,1.0,0.0,0,2,1,", "trace line 2: too many fields (11, the header has 10)"),
        ("0,1.0,1.0,1.0,0.0,1.0,0.0,one,2,1", "trace line 2: rejections 'one' is not a valid int"),
        ("0,1.0,,1.0,0.0,1.0,0.0,0,2,1", "trace line 2: g_inf '' is not a valid float"),
        ('0,1.0,"1.0,1.0,0.0,1.0,0.0,0,2,1', "trace line 2: a quoted field is not closed"),
        ("0,1.0,1.0,1.0,0.0,1.0,0.0,-1,2,1", "trace line 2: rejections '-1' is negative"),
    ], ids=["short", "long", "int", "float", "open_quote", "negative"])
    def test_a_malformed_trace_row_is_refused_by_its_line(self, tmp_path, bad, message):
        path = tmp_path / "trace.csv"
        write_trace_csv([], path)
        with path.open("a") as fh:
            fh.write(f"{bad}\n{self.TRACE_ROW}\n")
        with pytest.raises(ValueError) as info:
            read_trace_csv(path)
        assert str(info.value) == message

    def test_profile_csv(self, tmp_path):
        curves = [ProfileCurve("A", [(1.0, 0.5), (2.0, 1.0)])]
        curves.append(ProfileCurve("B", [(np.float64(1.0), np.float64(0.25)), (np.float64(1.5), np.float64(1.0))]))
        path = tmp_path / "profile.csv"
        emit_csv(curves, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "solver,tau,rho"
        assert lines[1] == "A,1.0,0.5"
        assert lines[3:] == ["B,1.0,0.25", "B,1.5,1.0"]

    def test_trace_round_trip_bit_exact(self, tmp_path):
        _, traces = run_matrix(
            ["beale_n2"], ["ours"], NoiseModel(kind="additive_uniform", level=1e-3),
            1e-2, [3], keep_traces=True, base_cfg=SMALL_CFG,
        )
        trace = traces[("beale_n2", "ours", 3)]
        write_trace_csv(trace, tmp_path / "trace.csv")
        assert read_trace_csv(tmp_path / "trace.csv") == trace


class TestSvg:
    def test_one_polyline_per_curve(self, tmp_path):
        curves = [
            ProfileCurve("A", [(1.0, 0.4), (3.0, 1.0)]),
            ProfileCurve("B", [(1.0, 0.2), (8.0, 0.6)]),
        ]
        path = tmp_path / "profile.svg"
        emit_svg(curves, path)
        text = path.read_text()
        assert text.count("<polyline") == 2
        assert text.startswith("<svg")
        assert "href" not in text  # self-contained
        once = tmp_path / "once.svg"
        emit_svg((c for c in curves), once)
        assert once.read_bytes() == path.read_bytes()

    def test_flat_zero_curve_renders(self, tmp_path):
        path = tmp_path / "flat.svg"
        emit_svg([ProfileCurve("A", [(1.0, 0.0)])], path)
        assert path.read_text().count("<polyline") == 1

    def test_solver_name_is_escaped(self, tmp_path):
        from xml.etree import ElementTree

        path = tmp_path / "named.svg"
        emit_svg([ProfileCurve("a<&>b", [(1.0, 1.0)])], path)
        labels = [t.text for t in ElementTree.parse(path).iter("{http://www.w3.org/2000/svg}text")]
        assert "a<&>b" in labels

    @pytest.mark.parametrize(
        "points", [[], [(1.0, 0.5), (INF, 1.0)], [(0.5, 1.0)], [(1.0, 0.5), (math.nan, 1.0)]],
        ids=["empty", "inf", "below_one", "nan"],
    )
    def test_curve_without_finite_taus_from_one_is_refused(self, tmp_path, points):
        path = tmp_path / "refused.svg"
        with pytest.raises(ValueError, match="finite tau >= 1"):
            emit_svg([ProfileCurve("A", [(1.0, 1.0)]), ProfileCurve("B", points)], path)
        assert not path.exists()


def error_line(output):
    """The line of a usage error that says what is wrong."""
    return next(line for line in output.splitlines() if line.startswith("Error:"))


class TestCli:
    def test_parse_seeds(self):
        assert parse_seeds("7") == [7]
        assert parse_seeds("0,2,5") == [0, 2, 5]
        assert parse_seeds("0..4") == [0, 1, 2, 3, 4]
        # Only the syntax is checked here; run_matrix refuses these lists.
        assert parse_seeds("5..3") == []
        assert parse_seeds("0,-2") == [0, -2]
        for spec in ("abc", "1..", "0,x"):
            with pytest.raises(click.BadParameter):
                parse_seeds(spec)

    def test_negative_seed_is_usage_error(self, tmp_path):
        out = tmp_path / "r.csv"
        args = ["run", "--suite", "sphere_n10", "--seeds", "-3..-1", "--out", str(out)]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2
        assert "outside [0, 2**63)" in result.output
        assert not out.exists()

    def test_empty_seed_range_is_usage_error(self, tmp_path):
        out = tmp_path / "r.csv"
        result = CliRunner().invoke(main, ["run", "--suite", "sphere_n10", "--seeds", "5..3", "--out", str(out)])
        assert result.exit_code == 2
        assert "empty seed list" in result.output
        assert not out.exists()

    def test_profile_of_empty_runs_csv_is_usage_error(self, tmp_path):
        runs = tmp_path / "runs.csv"
        emit_csv([], runs)
        assert read_runs_csv(runs) == []
        prof = tmp_path / "profile.csv"
        result = CliRunner().invoke(main, ["profile", "--in", str(runs), "--out", str(prof)])
        assert result.exit_code == 2
        assert "no run records" in result.output
        assert not prof.exists()

    def test_parse_eps_f(self):
        assert parse_eps_f("auto") == "auto"
        assert parse_eps_f("0") == 0.0
        assert parse_eps_f("0.01") == 0.01
        # The range is SolverConfig's to refuse (see test_cli_usage_error).
        assert (parse_eps_f("1"), parse_eps_f("-0.1")) == (1.0, -0.1)
        for spec in ("abc", ""):
            with pytest.raises(click.BadParameter):
                parse_eps_f(spec)

    def test_solver_help_lists_every_variant(self):
        (param,) = [p for p in main.commands["run"].params if p.name == "solvers"]
        assert all(name in param.help for name in VARIANTS)

    def test_parse_noise(self):
        assert parse_noise("exact") == NoiseModel()
        m = parse_noise("uniform:1e-3:rank1")
        assert m.kind == "additive_uniform" and m.level == 1e-3 and m.grad_mode == "rank1"
        assert parse_noise("uniform:1e-3:percomp") == parse_noise("uniform:1e-3") == NoiseModel(
            kind="additive_uniform", level=1e-3
        )
        m = parse_noise("cast:16")
        assert m.kind == "precision_cast" and m.bits == 16

    def test_run_and_profile_end_to_end(self, tmp_path):
        runner = CliRunner()
        runs = tmp_path / "runs.csv"
        result = runner.invoke(main, [
            "run", "--suite", "sphere_n10,beale_n2", "--solver", "ours,baseline_line",
            "--noise", "uniform:1e-3", "--eps-f", "auto", "--gtol", "1e-2",
            "--kmax", "400", "--seeds", "0..1", "--out", str(runs),
            "--trace-dir", str(tmp_path / "traces"),
        ])
        assert result.exit_code == 0, result.output
        records = read_runs_csv(runs)
        assert len(records) == 8
        assert (tmp_path / "traces" / "sphere_n10__ours__seed0.csv").exists()

        prof = tmp_path / "profile.csv"
        svg = tmp_path / "profile.svg"
        result = runner.invoke(main, ["profile", "--in", str(runs), "--out", str(prof), "--svg", str(svg)])
        assert result.exit_code == 0, result.output
        assert prof.exists() and svg.exists()
        assert "profiled" in result.output

    def test_trace_dir_holds_each_runs_trace(self, tmp_path):
        traces_dir = tmp_path / "traces"
        runs = tmp_path / "runs.csv"
        result = CliRunner().invoke(main, [
            "run", "--suite", "sphere_n10,beale_n2", "--solver", "ours,baseline_line",
            "--noise", "uniform:1e-3", "--gtol", "1e-2", "--kmax", "400", "--seeds", "0..1",
            "--out", str(runs), "--trace-dir", str(traces_dir),
        ])
        assert result.exit_code == 0, result.output
        _, traces = run_matrix(
            ["sphere_n10", "beale_n2"], ["ours", "baseline_line"], NoiseModel(kind="additive_uniform", level=1e-3),
            1e-2, [0, 1], keep_traces=True, base_cfg=SMALL_CFG,
        )
        records = read_runs_csv(runs)
        assert len(records) == len(traces) == 8
        names = {f"{r.problem}__{r.solver}__seed{r.seed}.csv" for r in records}
        assert {p.name for p in traces_dir.iterdir()} == names
        for r in records:
            loaded = read_trace_csv(traces_dir / f"{r.problem}__{r.solver}__seed{r.seed}.csv")
            assert loaded == traces[(r.problem, r.solver, r.seed)]
            assert r.iters == len(loaded) > 0
            assert (loaded[-1].f_calls, loaded[-1].g_calls) == (r.f_calls, r.g_calls)

    def test_output_directories_are_made_after_the_refusals_and_before_the_runs(self, tmp_path):
        # A matrix's results are not lost for want of a directory, and a
        # usage error still writes nothing.
        runs, traces = tmp_path / "a" / "b" / "runs.csv", tmp_path / "t" / "u"
        args = ["run", "--suite", "sphere_n10", "--solver", "ours", "--kmax", "5",
                "--out", str(runs), "--trace-dir", str(traces)]
        result = CliRunner().invoke(main, args + ["--jobs", "0"])
        assert result.exit_code == 2, result.output
        assert list(tmp_path.iterdir()) == []
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 0, result.output
        assert [(r.problem, r.solver, r.seed) for r in read_runs_csv(runs)] == [("sphere_n10", "ours", 0)]
        assert [p.name for p in traces.iterdir()] == ["sphere_n10__ours__seed0.csv"]

    def test_a_run_plans_its_matrix_once(self, monkeypatch, tmp_path):
        # The command runs the plan it makes for its refusals; it does not
        # plan again, whether or not it keeps the traces.
        plans = []
        plan = bench_mod._plan

        def counted(*args, **kwargs):
            plans.append(args)
            return plan(*args, **kwargs)

        for module in (bench_mod, cli_mod):
            monkeypatch.setattr(module, "_plan", counted)
        args = ["run", "--suite", "sphere_n10,beale_n2", "--solver", "ours", "--kmax", "5", "--seeds", "0,1"]
        for extra in ([], ["--trace-dir", str(tmp_path / "traces")]):
            plans.clear()
            result = CliRunner().invoke(main, args + ["--out", str(tmp_path / "runs.csv")] + extra)
            assert result.exit_code == 0, result.output
            assert len(plans) == 1
            assert len(read_runs_csv(tmp_path / "runs.csv")) == 4
        assert len(list((tmp_path / "traces").iterdir())) == 4

    @pytest.mark.parametrize("option, name",[("--out", "runs.csv"), ("--trace-dir", "traces")])
    def test_an_output_below_a_file_fails_before_any_run(self, monkeypatch, tmp_path, option, name):
        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(bench_mod, "_execute", no_run)
        blocker = tmp_path / "file"
        blocker.write_text("kept")
        args = ["run", "--suite", "sphere_n10", "--kmax", "5", "--out", str(tmp_path / "runs.csv"),
                option, str(blocker / name)]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, OSError), result.exception
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
        assert blocker.read_text() == "kept"

    def test_unknown_problem_is_usage_error(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(main, ["run", "--suite", "not_a_problem", "--out", str(tmp_path / "r.csv")])
        assert result.exit_code == 2
        assert "unknown problem 'not_a_problem'" in result.output

    @pytest.mark.parametrize(
        "option, value",
        [
            ("--suite", ","),
            ("--suite", "nope_n1"),
            ("--suite", "sphere_n10,sphere_n10"),
            ("--solver", ","),
            ("--solver", "nope"),
            ("--solver", "ours,ours"),
            ("--solver", "ours,nope"),
            ("--noise", "uniform:abc"),
            ("--noise", "uniform:-1"),
            ("--noise", "cast:8"),
            ("--noise", "cast:64"),
            ("--noise", "uniform:inf"),
            ("--noise", "uniform:1e308"),
            ("--noise", "gaussian"),
            ("--noise", "exact:rank1"),
            ("--noise", "cast:32:rank1"),
            ("--noise", "uniform:1e-3:"),
            ("--noise", "uniform:1e-3:bogus"),
            ("--noise", "uniform:1e-3:rank1:x"),
            ("--kmax", "0"),
            ("--eps-f", "2"),
            ("--eps-f", "abc"),
            ("--seeds", "abc"),
            ("--seeds", "-1"),
            ("--seeds", "0,-2"),
            ("--seeds", str(2**63)),
            ("--seeds", "5..3"),
            ("--seeds", ","),
            ("--seeds", ""),
            ("--seeds", "1,1"),
            ("--seeds", "0,2,0"),
            ("--jobs", "0"),
            ("--jobs", "-3"),
        ],
    )
    def test_bad_run_option_is_usage_error(self, tmp_path, option, value):
        # Every bad option is refused before any run, as a usage error (exit 2)
        # that names the option.
        out = tmp_path / "r.csv"
        args = ["run", "--suite", "sphere_n10", "--kmax", "5", "--out", str(out), option, value]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2, result.output
        assert f"{option}:" in error_line(result.output)
        assert not out.exists()

    def test_error_during_a_run_is_not_a_usage_error(self, monkeypatch, tmp_path):
        # Only refusals made before any run are usage errors (exit 2); a
        # ValueError raised by a run ends in a traceback (exit 1).
        def failing_solve(problem, model, cfg):
            raise ValueError("raised during a run")

        monkeypatch.setattr(bench_mod, "solve", failing_solve)
        out = tmp_path / "r.csv"
        args = ["run", "--suite", "sphere_n10", "--solver", "ours", "--kmax", "5", "--out", str(out)]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, ValueError)
        assert str(result.exception) == "raised during a run"
        assert "Usage:" not in result.output
        assert not out.exists()

    def test_flag_passthrough(self, tmp_path):
        # A solver name and a --noise gradient mode must reach the solver
        # layer. --metric is a profile option (TestProfileCommand), which run
        # refuses; the gradient mode is part of --noise and the fresh
        # objective part of the solver name, neither an option of its own.
        runner = CliRunner()
        plain, fresh, rank1 = tmp_path / "plain.csv", tmp_path / "fresh.csv", tmp_path / "rank1.csv"
        common = ["run", "--suite", "beale_n2", "--solver", "ours", "--noise", "uniform:1e-3",
                  "--gtol", "1e-2", "--kmax", "400", "--seeds", "0"]
        for option in (["--metric", "f_only"], ["--noise-grad-mode", "rank1"], ["--fresh-fk"]):
            result = runner.invoke(main, common + ["--out", str(plain), *option])
            assert result.exit_code == 2 and f"No such option '{option[0]}'" in result.output
            assert not plain.exists()
        assert runner.invoke(main, common + ["--out", str(plain)]).exit_code == 0
        assert runner.invoke(main, common + ["--out", str(fresh), "--solver", "ours_fresh"]).exit_code == 0
        assert runner.invoke(main, common + ["--out", str(rank1), "--noise", "uniform:1e-3:rank1"]).exit_code == 0
        (r_fresh,) = read_runs_csv(fresh)
        # ours_fresh records under its own name, and every iteration beyond
        # the first spends one extra objective call on top of its
        # line-search trials
        assert r_fresh.solver == "ours_fresh"
        assert r_fresh.iters >= 2
        assert r_fresh.f_calls >= 2 * r_fresh.iters

        # --noise uniform:1e-3:rank1 runs the rank1 model: its record is the
        # library's in every column but wall_ms, and not the percomp one.
        model = NoiseModel(kind="additive_uniform", level=1e-3, grad_mode="rank1")
        (expected,) = run_matrix(["beale_n2"], ["ours"], model, 1e-2, [0], base_cfg=SMALL_CFG)
        (r_rank1,) = read_runs_csv(rank1)
        (r_plain,) = read_runs_csv(plain)
        assert replace(r_rank1, wall_ms=expected.wall_ms) == expected
        assert replace(r_plain, wall_ms=expected.wall_ms) != expected


UNIFORM = NoiseModel(kind="additive_uniform", level=1e-3)


# One valid non-default value for each field of the settings that reach
# run_matrix, and its fate there: a "kept" value reaches every task's config
# or noise model unchanged; each run sets the "refused" ones itself, so
# run_matrix refuses them by name before any run.
MATRIX_SETTINGS = [
    (SolverConfig, "memory_size", dict(memory_size=3), "kept"),
    (SolverConfig, "k_max", dict(k_max=200), "kept"),
    (SolverConfig, "eps_gtol", dict(eps_gtol=3.0), "refused"),
    (SolverConfig, "eps_f", dict(eps_f=0.5), "refused"),
    (SolverConfig, "variant", dict(variant="baseline_line_ms"), "refused"),
    (NoiseModel, "kind", dict(kind="precision_cast", bits=32), "kept"),
    (NoiseModel, "level", dict(kind="additive_uniform", level=1e-3), "kept"),
    (NoiseModel, "bits", dict(kind="precision_cast", bits=32), "kept"),
    (NoiseModel, "seed", dict(kind="additive_uniform", level=1e-3, seed=12345), "refused"),
    (NoiseModel, "grad_mode", dict(kind="additive_uniform", level=1e-3, grad_mode="rank1"), "kept"),
]


class TestBadSolverSettings:
    """A bad per-run setting fails before any run: at the config, in
    ``run_matrix`` and as a ``qnbench run`` usage error."""

    @pytest.mark.parametrize(("cls", "name", "kwargs", "fate"), MATRIX_SETTINGS, ids=[row[1] for row in MATRIX_SETTINGS])
    def test_a_setting_reaches_every_run_or_is_refused_before_any(self, monkeypatch, cls, name, kwargs, fate):
        def no_run(*args, **kw):
            raise AssertionError("a run started")

        monkeypatch.setattr(bench_mod, "_execute", no_run)
        setting = cls(**kwargs)
        base_cfg, noise = (setting, NoiseModel()) if cls is SolverConfig else (None, setting)
        matrix = (["sphere_n10", "beale_n2"], ["ours", "baseline_line"], noise, 1e-2, [0, 1])
        if fate == "refused":
            with pytest.raises(ValueError, match=rf"\.{name} "):
                run_matrix(*matrix, base_cfg=base_cfg)
        else:
            tasks = bench_mod._plan(*matrix, 1, eps_f="auto", base_cfg=base_cfg)
            assert len(tasks) == 8
            for task in tasks:
                (part,) = [v for v in task if isinstance(v, cls)]
                assert getattr(part, name) == getattr(setting, name)

    def test_the_matrix_settings_table_classifies_every_field(self):
        # A field added later fails here until MATRIX_SETTINGS says whether
        # run_matrix keeps it or refuses it, so none is overwritten silently.
        for cls in (SolverConfig, NoiseModel):
            assert [name for c, name, _, _ in MATRIX_SETTINGS if c is cls] == [f.name for f in fields(cls)]

    @pytest.mark.parametrize(
        "eps_gtol, eps_f",
        [(-1.0, "auto"), (float("nan"), "auto"), (1e-2, -0.1), (1e-2, 1.0), (1e-2, float("nan"))],
    )
    def test_run_matrix_refuses_before_any_run(self, monkeypatch, eps_gtol, eps_f):
        def no_run(task):
            raise AssertionError("a run started")

        monkeypatch.setattr(bench_mod, "_execute", no_run)
        with pytest.raises(ValueError, match="eps_gtol" if eps_f == "auto" else "eps_f"):
            run_matrix(["sphere_n10"], ["ours"], NoiseModel(), eps_gtol, [0], eps_f=eps_f)

    def test_the_matrix_gives_eps_f_to_the_slack_variants_only(self):
        solvers = ["ours", "ours_ms", "baseline_line", "baseline_line_ms"]
        for eps_f, given in ((0.5, 0.5), ("auto", 1e-2)):
            tasks = bench_mod._plan(["sphere_n10"], solvers, UNIFORM, 1e-2, [0], 1, eps_f=eps_f, base_cfg=None)
            assert [cfg.eps_f for _, _, _, cfg in tasks] == [given, given, 0.0, 0.0]
        # A baseline-only matrix takes "auto" and 0: neither asks for a slack.
        for eps_f in ("auto", 0.0):
            bench_mod._plan(["sphere_n10"], ["baseline_line"], UNIFORM, 1e-2, [0], 1, eps_f=eps_f, base_cfg=None)

    @pytest.mark.parametrize("eps_f", [0.5, -0.1, float("nan"), "0.01", False])
    def test_an_eps_f_no_listed_solver_takes_is_refused_before_any_run(self, monkeypatch, eps_f):
        # A given eps_f is checked even when only baselines are listed, and a
        # nonzero one is refused there, since no run would use it.
        monkeypatch.setattr(bench_mod, "_execute", None)
        with pytest.raises(ValueError, match="eps_f"):
            run_matrix(["sphere_n10"], ["baseline_line", "baseline_line_ms"], UNIFORM, 1e-2, [0], eps_f=eps_f)

    def test_an_eps_f_no_listed_solver_takes_is_a_usage_error(self, monkeypatch, tmp_path):
        monkeypatch.setattr(bench_mod, "_execute", None)
        out = tmp_path / "r.csv"
        args = ["run", "--suite", "sphere_n10", "--solver", "baseline_line", "--eps-f", "0.5", "--out", str(out)]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2, result.output
        assert "Error: --eps-f: eps_f 0.5 " in result.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "option, value, field",
        [
            ("--gtol", "-1", "eps_gtol"),
            ("--gtol", "nan", "eps_gtol"),
            ("--eps-f", "-0.1", "--eps-f"),
            ("--eps-f", "nan", "--eps-f"),
            ("--eps-f", "1", "--eps-f"),
            ("--eps-f", "inf", "--eps-f"),
        ],
    )
    def test_cli_usage_error(self, monkeypatch, tmp_path, option, value, field):
        monkeypatch.setattr(bench_mod, "_execute", None)
        out = tmp_path / "r.csv"
        args = ["run", "--suite", "sphere_n10", "--kmax", "5", "--out", str(out), option, value]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2, result.output
        assert f"Error: {option}: " in result.output
        assert field in result.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("memory_size", True), ("memory_size", 2.0), ("k_max", True), ("k_max", False),
            ("variant", ["ours"]), ("parallelism", True), ("seed", True), ("seed", False),
            ("capacity", True), ("capacity", 2.5),
        ],
        ids=str,
    )
    def test_integer_settings_refuse_bools_and_non_integers(self, monkeypatch, field, value):
        # A bool is an int, but True would run as 1: each integer setting is
        # an int that is not a bool, refused when it is built.
        monkeypatch.setattr(bench_mod, "_execute", None)
        build = {
            "memory_size": lambda v: SolverConfig(memory_size=v),
            "k_max": lambda v: SolverConfig(k_max=v),
            "variant": lambda v: SolverConfig(variant=v),
            "parallelism": lambda v: run_matrix(["sphere_n10"], ["ours"], NoiseModel(), 1e-2, [0], parallelism=v),
            "seed": lambda v: NoiseModel(seed=v),
            "capacity": LbfgsMemory,
        }[field]
        with pytest.raises(ValueError, match=field):
            build(value)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("eps_gtol", True), ("eps_f", False), ("level", True),
            ("eps_gtol", "1e-2"), ("eps_f", "0.01"), ("eps_gtol", None), ("level", "1e-3"),
            ("run_matrix.eps_f", False), ("run_matrix.eps_f", "0.01"),
        ],
        ids=str,
    )
    def test_settings_of_the_wrong_type_are_refused(self, monkeypatch, field, value):
        # Each float setting is an int or float that is not a bool; a string
        # is refused by name, not by the TypeError of a comparison.
        build = {
            "eps_gtol": lambda v: SolverConfig(eps_gtol=v),
            "eps_f": lambda v: SolverConfig(eps_f=v),
            "level": lambda v: NoiseModel(kind="additive_uniform", level=v),
            # run_matrix passes an eps_f other than "auto" on unchanged.
            "run_matrix.eps_f": lambda v: run_matrix(["sphere_n10"], ["ours"], NoiseModel(), 1e-2, [0], eps_f=v),
        }[field]
        monkeypatch.setattr(bench_mod, "_execute", None)
        with pytest.raises(ValueError, match=field.rpartition(".")[2]):
            build(value)

    def test_float_settings_take_ints_and_numpy_floats(self):
        cfg = SolverConfig(eps_gtol=np.float32(1e-2), eps_f=0)
        assert (cfg.eps_gtol, cfg.eps_f) == (np.float32(1e-2), 0)
        # Each is kept as the float it equals, so no numpy width reaches a run.
        assert type(cfg.eps_gtol) is float and type(cfg.eps_f) is float
        assert NoiseModel(kind="additive_uniform", level=np.float64(1e-3)).level == 1e-3
        assert NoiseModel(kind="additive_uniform", level=1).level == 1


PROFILE_RUNS = """\
problem,solver,seed,status,f_calls,g_calls,iters,final_f_bar,final_g_inf,wall_ms
beale_n2,baseline_line,0,converged,100,20,19,0.001,0.009,1.5
beale_n2,baseline_line,1,converged,125,25,24,0.002,0.008,1.5
beale_n2,ours,0,converged,40,20,19,0.001,0.007,1.5
beale_n2,ours,1,max_iters,900,100,100,0.5,0.3,9.0
beale_n2,ours,2,converged,50,25,24,0.001,0.006,1.5
rosenbrock_n2,baseline_line,0,max_iters,1000,101,100,1.0,2.0,9.0
rosenbrock_n2,baseline_line,1,max_iters,1000,101,100,1.0,2.0,9.0
rosenbrock_n2,ours,0,converged,200,100,99,0.0001,0.005,4.0
rosenbrock_n2,ours,1,converged,170,80,79,0.0001,0.005,4.0
sphere_n10,baseline_line,0,converged,8,4,3,0.0,0.0,0.1
sphere_n10,baseline_line,1,converged,8,4,3,0.0,0.0,0.1
sphere_n10,ours,0,converged,6,4,3,0.0,0.0,0.1
sphere_n10,ours,1,converged,7,4,3,0.0,0.0,0.1
wood_n4,baseline_line,0,max_iters,10,5,4,1.0,1.0,600000.0
wood_n4,baseline_line,1,oracle_error,10,5,4,nan,nan,1.0
wood_n4,ours,0,max_iters,10,5,4,1.0,1.0,5.0
wood_n4,ours,1,max_iters,10,5,4,1.0,1.0,5.0
"""


class TestProfileCommand:
    def test_outputs_are_pinned_and_seeds_aggregate_once(self, monkeypatch, tmp_path):
        # The expected bytes are what the command wrote when it aggregated
        # the seeds twice; aggregating them once must not change a byte.
        runs = tmp_path / "runs.csv"
        runs.write_text(PROFILE_RUNS)
        aggregations = []
        aggregate = bench_mod.aggregate_seeds

        def counted(records, metric):
            aggregations.append((len(records), metric))
            return aggregate(records, metric)

        monkeypatch.setattr(bench_mod, "aggregate_seeds", counted)
        prof, svg = tmp_path / "profile.csv", tmp_path / "profile.svg"
        # One problem is dropped, and the summary line alone says so: a
        # warning would be an error here.
        result = CliRunner().invoke(main, ["profile", "--in", str(runs), "--out", str(prof), "--svg", str(svg)])
        assert result.exit_code == 0, result.output
        assert aggregations == [(17, "both")]
        assert result.stdout == (
            "profiled 3 problems (1 dropped: failed for every solver)\n"
            "baseline_line: solves 67% of counted problems\n"
            "ours: solves 100% of counted problems\n"
            f"wrote {svg}\n"
        )
        assert prof.read_text() == (
            "solver,tau,rho\n"
            "baseline_line,1.0,0.0\n"
            "baseline_line,1.1428571428571428,0.3333333333333333\n"
            "baseline_line,2.0,0.6666666666666666\n"
            "ours,1.0,1.0\n"
            "ours,1.1428571428571428,1.0\n"
            "ours,2.0,1.0\n"
        )
        assert hashlib.sha256(svg.read_bytes()).hexdigest() == (
            "bd3a6165f086f627233f6282a167376016a4ef897c3ead9094f88c5ae5a39b12"
        )

    def test_one_run_profiles_under_both_metrics(self, tmp_path):
        records = run_matrix(
            ["sphere_n10", "beale_n2", "dixon_price_n10"], ["ours", "baseline_line"],
            NoiseModel(kind="additive_uniform", level=1e-3), 1e-2, [0], base_cfg=SolverConfig(k_max=40),
        )
        assert {r.status for r in records} == {"converged", "max_iters"}
        # One seed, so each (problem, solver) costs what its one run costs.
        for r in records:
            key = (r.problem, r.solver)
            converged = r.status == "converged"
            assert aggregate_seeds(records, "f_only")[key] == (r.f_calls if converged else INF)
            assert aggregate_seeds(records, "both")[key] == (r.f_calls + r.g_calls if converged else INF)
        runs = tmp_path / "runs.csv"
        emit_csv(records, runs)
        for metric in METRICS:
            prof, expected = tmp_path / f"{metric}.csv", tmp_path / f"{metric}_lib.csv"
            result = CliRunner().invoke(main, ["profile", "--in", str(runs), "--out", str(prof), "--metric", metric])
            assert result.exit_code == 0, result.output
            emit_csv(performance_profile(records, metric), expected)
            assert prof.read_bytes() == expected.read_bytes()
        assert (tmp_path / "f_only.csv").read_bytes() != (tmp_path / "both.csv").read_bytes()

    def test_unknown_metric_is_a_usage_error(self, tmp_path):
        runs, prof = tmp_path / "runs.csv", tmp_path / "profile.csv"
        runs.write_text(PROFILE_RUNS)
        result = CliRunner().invoke(main, ["profile", "--in", str(runs), "--out", str(prof), "--metric", "calls"])
        assert result.exit_code == 2
        assert "--metric" in error_line(result.output) and "'calls' is not one of" in error_line(result.output)
        assert not prof.exists()

    def test_a_run_counted_twice_is_a_usage_error(self, tmp_path):
        runs, joined, prof = tmp_path / "runs.csv", tmp_path / "joined.csv", tmp_path / "profile.csv"
        args = ["run", "--suite", "beale_n2", "--solver", "baseline_line,baseline_line_fresh",
                "--noise", "uniform:1e-3", "--out", str(runs)]
        assert CliRunner().invoke(main, args).exit_code == 0
        plain, fresh = read_runs_csv(runs)
        emit_csv([plain, replace(fresh, solver="baseline_line")], joined)
        result = CliRunner().invoke(main, ["profile", "--in", str(joined), "--out", str(prof)])
        assert result.exit_code == 2
        assert "--in" in error_line(result.output) and "counted twice" in error_line(result.output)
        assert not prof.exists()

    def test_outputs_go_into_new_directories(self, tmp_path):
        runs = tmp_path / "runs.csv"
        runs.write_text(PROFILE_RUNS)
        for out, svg in ((tmp_path / "new" / "p.csv", None), (tmp_path / "p.csv", tmp_path / "nd" / "p.svg")):
            args = ["profile", "--in", str(runs), "--out", str(out)] + (["--svg", str(svg)] if svg else [])
            result = CliRunner().invoke(main, args)
            assert result.exit_code == 0, result.output
            assert out.read_text().startswith("solver,tau,rho\n")
            assert svg is None or svg.read_text().startswith("<svg")

    def test_a_refused_profile_makes_no_directory(self, tmp_path):
        runs = tmp_path / "runs.csv"
        emit_csv([], runs)
        args = ["profile", "--in", str(runs), "--out", str(tmp_path / "a" / "p.csv"), "--svg", str(tmp_path / "b" / "p.svg")]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["runs.csv"]

    @pytest.mark.parametrize(("out", "svg", "options"), [
        ("runs.csv", None, "--in and --out"),
        ("p.csv", "./runs.csv", "--in and --svg"),
        ("p.csv", "sub/../p.csv", "--out and --svg"),
    ], ids=["in_out", "in_svg", "out_svg"])
    def test_two_options_on_one_file_are_a_usage_error(self, tmp_path, out, svg, options):
        # The profile would replace the user's runs file, or the SVG the
        # profile CSV.
        runs = tmp_path / "runs.csv"
        runs.write_text(PROFILE_RUNS)
        before = runs.read_bytes()
        (tmp_path / "sub").mkdir()
        args = ["profile", "--in", str(runs), "--out", str(tmp_path / out)]
        result = CliRunner().invoke(main, args + (["--svg", f"{tmp_path}/{svg}"] if svg else []))
        assert result.exit_code == 2, result.output
        assert f"{options} name the same file" in error_line(result.output)
        assert runs.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["runs.csv", "sub"]

    @pytest.mark.parametrize(("text", "cause"), [
        ("problem,solver,seed,status,oracle_calls\np,s,0,converged,12\n", "unexpected runs header"),
        (PROFILE_RUNS + "beale_n2,ours,2,converged\n", "runs line 19: too few fields"),
        (PROFILE_RUNS.replace("ours,0,converged,40,", "ours,0,converged,forty,"), "runs line 4: f_calls 'forty'"),
        (PROFILE_RUNS.replace("ours,0,converged,40,", "ours,0,converged,-4,"), "runs line 4: f_calls '-4' is negative"),
        (PROFILE_RUNS.replace("ours,0,converged,", "ours,0,Converged,"), "runs line 4: status 'Converged'"),
        (PROFILE_RUNS.replace("ours,0,converged,40,20,", "ours,0,converged,0,0,"),
         "run ('beale_n2', 'ours', 0) converged with f_calls + g_calls = 0"),
    ], ids=["old_header", "short_row", "non_numeric", "negative", "status", "no_calls"])
    def test_a_malformed_runs_csv_is_a_usage_error(self, tmp_path, text, cause):
        runs = tmp_path / "runs.csv"
        runs.write_text(text)
        args = ["profile", "--in", str(runs), "--out", str(tmp_path / "a" / "p.csv"), "--svg", str(tmp_path / "b" / "p.svg")]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2, result.output
        assert "--in" in error_line(result.output) and cause in error_line(result.output)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["runs.csv"]

    def test_one_matrix_profiles_a_variant_against_its_fresh_row(self, tmp_path):
        runs, traces, prof = tmp_path / "runs.csv", tmp_path / "traces", tmp_path / "profile.csv"
        problems, solvers, seeds = ("beale_n2", "rosenbrock_n2"), ("ours", "ours_fresh"), (0, 1)
        args = ["run", "--suite", ",".join(problems), "--solver", ",".join(solvers), "--noise", "uniform:1e-3",
                "--kmax", "400", "--seeds", "0,1", "--out", str(runs), "--trace-dir", str(traces)]
        assert CliRunner().invoke(main, args).exit_code == 0
        # One trace file per run: the fresh row's runs do not overwrite the
        # plain ones, whose objective calls they exceed.
        assert sorted(p.name for p in traces.iterdir()) == [
            f"{p}__{s}__seed{seed}.csv" for p in problems for s in solvers for seed in seeds
        ]
        for p in problems:
            plain, fresh = (read_trace_csv(traces / f"{p}__{s}__seed0.csv") for s in solvers)
            assert fresh[-1].f_calls > plain[-1].f_calls
        result = CliRunner().invoke(main, ["profile", "--in", str(runs), "--out", str(prof)])
        assert result.exit_code == 0, result.output
        assert [line.split(":")[0] for line in result.stdout.splitlines()[1:]] == list(solvers)
