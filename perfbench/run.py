"""Closed-loop benchmark of the isorkhs package.

Run from the repository root:

    python3 perfbench/run.py --workload inner --seed 1 --seconds 15 --trace 0

Workloads: ``inner`` (exact inner products and norms), ``interp`` (Gram
systems, interpolation, power function), ``geometry`` (polygon and pair
operations), ``verify`` (the seeded verification suites).  ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` replays the same ops with spans
around every public function and prints the per-layer metrics.  Op
latencies are scaled to a reference CPU speed by an interleaved calibration
probe (see ``harness``); the raw wall-clock figures are in the detail record.

The last line of standard output is the result object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
a detail record (environment, op shares, digests, raw figures, failures).  The package is
imported from ``src/`` next to this directory; without it the script exits
with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("inner", "interp", "geometry", "verify")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "isorkhs" / "__init__.py").is_file():
        print(f"perfbench: no isorkhs package under {SRC}", file=sys.stderr)
        return 2

    # Cap BLAS threads at the CPUs this process may use, before numpy loads.
    cap = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(cap)
    sys.path.insert(0, str(SRC))

    import harness

    result, detail = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), str(SRC), cap)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
