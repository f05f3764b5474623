"""Run one qnbench benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 benchmarks/run.py --workload desk_noisy --seed 0 --seconds 35 --trace 0

``--trace 0`` prints the end-to-end metrics of untraced passes; ``--trace 1``
adds a traced pass after each untraced one and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qnbench" / "__init__.py").is_file():
        print(f"error: no qnbench sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = harness.WORKLOADS[args.workload]
    # Every solver fails every large_n problem by design (eps_gtol = 0).
    warnings.filterwarnings("ignore", message=r".*failed for every solver")
    meta, result = harness.measure(wl, args.seed, args.seconds, bool(args.trace), OUT / wl.name)
    print("meta " + json.dumps(meta))
    for name, m in result["metrics"].items():
        print(f"{wl.name} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
