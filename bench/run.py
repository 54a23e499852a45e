"""Seeded benchmark of the roadlift CLI.

    python3 bench/run.py --workload eval-dense --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` there, never from an installed copy.  With ``--trace 0`` the
last output line carries the end-to-end metrics; with ``--trace 1`` it
carries the per-layer metrics of a traced run.  The lines before it are
a JSON report: pass times, set-up times, machine and environment.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("eval-dense", "sim-stream", "bank-stream")

# Thread-count variables pinned to 1 so numpy stays on one core; the
# CLI's own ROADLIFT_THREADS pool is turned off by clearing it.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def pin_environment() -> dict:
    """Pin the environment before numpy is imported, put ``src/`` and
    the benchmark first on the import path, and return the values set."""
    os.environ.pop("ROADLIFT_THREADS", None)
    os.environ.update(PINNED_ENV)
    for path in (str(BENCH_DIR), str(SRC_DIR)):
        if path not in sys.path:
            sys.path.insert(0, path)
    return {name: os.environ.get(name) for name in ("ROADLIFT_THREADS", *PINNED_ENV)}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC_DIR / "roadlift" / "__init__.py").is_file():
        print(f"error: no roadlift sources under {SRC_DIR}", file=sys.stderr)
        return 2
    env = pin_environment()
    # Imported here, after pinning, because they import numpy.
    import harness
    import roadlift
    from workloads import WORKLOADS

    if Path(roadlift.__file__).resolve().parent != SRC_DIR / "roadlift":
        print(f"error: roadlift imported from {roadlift.__file__}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    report, result = harness.run_benchmark(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), OUT_DIR
    )
    report["environment"] = env
    print(json.dumps(report, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
