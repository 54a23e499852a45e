"""Record the output digests that the benchmark checks every pass against.

    python3 bench/record_reference.py 0 63 [WORKLOAD ...]

runs one untraced pass of each named workload (default: all) for each
seed in the inclusive range and stores its digests in
bench/reference.json, keeping the other workloads' entries if they
were recorded on the same platform (``harness.platform_key``).  Record
only at a commit whose outputs are known good: a later change that
alters an output byte shows up as failed passes until the reference is
recorded again, on purpose.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main(argv) -> int:
    first, last = int(argv[0]), int(argv[1])
    run.pin_environment()
    import harness
    from workloads import WORKLOADS

    names = argv[2:] or list(WORKLOADS)
    root = run.OUT_DIR / "reference"
    file = harness.REFERENCE_FILE
    reference = json.loads(file.read_text()) if file.is_file() else {}
    if reference.get("platform") != harness.platform_key():
        reference = {"platform": harness.platform_key()}
    try:
        for name in names:
            workload = WORKLOADS[name]
            reference[name] = {}
            for seed in range(first, last + 1):
                case = root / f"{name}-{seed}"
                _, work = harness.timed_setup(workload, case / "in", seed, repeats=1)
                result = harness.run_pass(workload, work, seed, case / "out")
                if result.errors:
                    print(f"{name} seed {seed}: {result.errors}", file=sys.stderr)
                    return 1
                reference[name][str(seed)] = result.digests
                shutil.rmtree(case)
                print(f"{name} seed {seed}: {result.seconds:.2f} s", file=sys.stderr)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    file.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
