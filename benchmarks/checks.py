"""Correctness checks applied to every benchmark pass.

An operation is one (problem, solver, seed) solve. It fails when any check
below fails for its run record or trace. A ``max_iters``, ``timeout`` or
``oracle_error`` status is a solver outcome, not a failed operation.
"""

from __future__ import annotations

import hashlib

from qnbench.bench import RUNS_HEADER

RESULT_COLUMNS = tuple(c for c in RUNS_HEADER if c != "wall_ms")


def run_key(r) -> tuple[str, str, int]:
    return (r.problem, r.solver, r.seed)


def _row(r, columns) -> tuple[str, ...]:
    # repr keeps every digit and makes nan compare equal to nan.
    return tuple(repr(getattr(r, c)) for c in columns)


def result_rows(records) -> dict[tuple[str, str, int], tuple[str, ...]]:
    """Every ``runs.csv`` column except ``wall_ms``, keyed by operation."""
    return {run_key(r): _row(r, RESULT_COLUMNS) for r in records}


def digest(records) -> str:
    """Short hash of the non-``wall_ms`` columns; equal digests mean equal results."""
    text = "\n".join(",".join(row) for row in result_rows(records).values())
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digest_curves(curves) -> str:
    text = "\n".join(f"{c.solver},{t!r},{r!r}" for c in curves for t, r in c.points)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def profile_errors(curves, solvers) -> list[str]:
    errors = []
    if sorted(c.solver for c in curves) != sorted(solvers):
        errors.append(f"profile covers solvers {[c.solver for c in curves]}, expected {list(solvers)}")
    for c in curves:
        taus = [t for t, _ in c.points]
        rhos = [r for _, r in c.points]
        if taus != sorted(taus) or rhos != sorted(rhos) or not all(0.0 <= r <= 1.0 for r in rhos):
            errors.append(f"profile curve of {c.solver} is not a nondecreasing step in [0, 1]")
    return errors


def failed_operations(records, traces, read_back, gtol, expect_iters=None, reference=None):
    """Return (keys of failed operations, one message per failure).

    ``read_back`` is ``records`` after the ``emit_csv``/``read_runs_csv``
    round trip; ``reference`` holds the result rows of an earlier pass of the
    same code, which this pass must reproduce exactly.
    """
    failed: dict[tuple[str, str, int], str] = {}

    def fail(key, why):
        failed.setdefault(key, why)

    if len(read_back) != len(records):
        for r in records:
            fail(run_key(r), f"CSV round trip returned {len(read_back)} of {len(records)} rows")
    for r, back in zip(records, read_back):
        if _row(r, RUNS_HEADER) != _row(back, RUNS_HEADER):
            fail(run_key(r), "CSV round trip changed the record")
    for r in records:
        key = run_key(r)
        if r.status == "converged" and not r.final_g_inf <= gtol:
            fail(key, f"converged with final_g_inf {r.final_g_inf!r} > gtol {gtol!r}")
        # The solver spends one gradient and one objective call before its loop.
        counts = [(1, 1)] + [(t.f_calls, t.g_calls) for t in traces[key]]
        steps_ok = all(a[0] <= b[0] and a[1] <= b[1] for a, b in zip(counts, counts[1:]))
        if not steps_ok or counts[-1] != (r.f_calls, r.g_calls):
            fail(key, "trace call counts are not nondecreasing up to the record totals")
        if expect_iters is not None and r.iters != expect_iters:
            fail(key, f"{r.iters} iterations, expected exactly {expect_iters}")
        if reference is not None and reference.get(key) != _row(r, RESULT_COLUMNS):
            fail(key, "result columns differ from an earlier pass of the same code")
    if reference is not None and set(reference) != {run_key(r) for r in records}:
        for r in records:
            fail(run_key(r), "the pass ran a different set of operations")
    return set(failed), [f"{'/'.join(map(str, k))}: {why}" for k, why in failed.items()]
