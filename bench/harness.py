"""Set-up, timed passes, output checks and metric assembly.

Import this only after ``run.pin_environment()``: it imports numpy.
The benchmark is single-threaded: one process, passes run one after
another in it.
"""

from __future__ import annotations

import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import layers
from roadlift.camera_geometry import GeometryError
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
REFERENCE_FILE = BENCH_DIR / "reference.json"
SETUP_REPEATS = 5

# (name, unit, better, bound) in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("frames_per_s", "frames/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)


@dataclass
class PassResult:
    seconds: float
    traced: bool
    errors: list[str]
    digests: dict[str, str] = field(default_factory=dict)
    spans: tuple[int, int] | None = None
    counters: Counter | None = None


def platform_key() -> str:
    """What output bytes may depend on besides the seed: the numpy
    version and the SIMD targets its float kernels dispatch to here
    (np.exp, np.cos, ... may differ in the last bit between targets)."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
        simd = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]
    except ImportError:
        simd = ["unknown-simd"]
    return " ".join([f"numpy-{np.__version__}", platform.machine(), *simd])


def portable(output: str) -> bool:
    """Whether an output's bytes are the same on every platform: the
    CLI writes every CSV through ``_fmt`` (10 significant digits), which
    hides last-bit differences; label files (``repr`` floats) and the
    bank binary do not."""
    return output.endswith(".csv")


def load_reference(workload: str, seed: int) -> tuple[dict[str, str], str]:
    """Stored output digests for ``seed`` and how they apply: all of them
    on the platform they were recorded on, only the portable ones
    elsewhere, none for a seed that was not recorded.  The outputs left
    out are checked against the first passing pass of the run."""
    stored = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.is_file() else {}
    digests = stored.get(workload, {}).get(str(seed))
    if digests is None:
        return {}, "first passing pass"
    if stored.get("platform") == platform_key():
        return dict(digests), "stored"
    return ({k: v for k, v in digests.items() if portable(k)},
            "stored for CSV outputs, first passing pass for the rest (other platform)")


def time_imports(repeats: int) -> list[float]:
    """Seconds to import the CLI in fresh interpreters (startup excluded)."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import roadlift.cli; print(time.perf_counter() - t)"
    )
    return [
        float(subprocess.run([sys.executable, "-c", code, str(SRC_DIR)], capture_output=True,
                             text=True, check=True, timeout=120).stdout)
        for _ in range(repeats)
    ]


def timed_setup(workload, root: Path, seed: int, repeats: int) -> tuple[list[float], Path]:
    """Make the inputs ``repeats`` times, each in a fresh directory; keep
    the last one."""
    seconds = []
    for i in range(repeats):
        work = root / f"setup{i}"
        work.mkdir(parents=True)
        with redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            workload.setup(work, seed)
            seconds.append(time.perf_counter() - start)
        if i + 1 < repeats:
            shutil.rmtree(work)
    return seconds, work


def run_pass(workload, work: Path, seed: int, out: Path,
             tracer: Tracer | None = None) -> PassResult:
    """One timed pass.  Exceptions and non-zero statuses are recorded as
    errors, never raised; the pass's own console output is captured and
    echoed to stderr only when the pass failed."""
    out.mkdir(parents=True)
    sink = io.StringIO()
    errors, status = [], []
    lo = len(tracer.start) if tracer else 0
    if tracer:
        tracer.counters = Counter()
        tracer.install(layers.TARGETS)
    start = time.perf_counter()
    try:
        with redirect_stdout(sink), redirect_stderr(sink), \
                (tracer.span(layers.PASS_SPAN) if tracer else nullcontext()):
            status = workload.run(work, seed, out)
    except Exception:
        errors.append(traceback.format_exc())
    finally:
        seconds = time.perf_counter() - start
        if tracer:
            tracer.uninstall()
    result = PassResult(seconds, tracer is not None, errors)
    if tracer:
        result.spans = (lo, len(tracer.start))
        result.counters = tracer.counters
    if any(status):
        errors.append(f"step statuses {status}")
    if not errors:
        try:
            result.digests = workload.digests(out)
            errors.extend(workload.problems(out))
        except OSError as exc:
            errors.append(f"output missing: {exc}")
    if errors:
        sys.stderr.write(sink.getvalue())
    return result


def check_digests(result: PassResult, expected: dict[str, str]) -> None:
    for name, want in expected.items():
        got = result.digests.get(name)
        if got is not None and got != want:
            result.errors.append(f"{name}: digest {got[:16]} differs from reference {want[:16]}")


def machine_info() -> dict:
    info = {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
        "llc": None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "output_platform": platform_key(),
    }
    try:
        with open("/proc/cpuinfo") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        if models:
            info["cpu_model"] = models[0]
        caches = Path("/sys/devices/system/cpu/cpu0/cache")
        levels = [(int((d / "level").read_text()), (d / "size").read_text().strip())
                  for d in caches.glob("index*")]
        if levels:
            level, size = max(levels)
            info["llc"] = f"L{level} {size}"
    except (OSError, ValueError):
        pass
    return info


def bank_note(workload) -> str:
    h, w, c = workload.grid_shape()
    size = h * w * c * 8
    return (
        f"the inference bank's {c}-channel grid is {h}x{w}x{c} float64 = {size / 1e6:.1f} MB "
        "(training grids follow the augmented image size), far below the last-level cache "
        "named under machine.llc, so bank traffic is reported as "
        "computed bytes (scene_cue_bank.bytes_computed), with no bandwidth-vs-peak figure"
    )


def _median_figures(figures: list[dict]) -> dict:
    out = {}
    for name in figures[0]:
        values = [f[name] for f in figures]
        if all(isinstance(v, int) for v in values):
            out[name] = statistics.median_low(values)
        else:
            out[name] = float(statistics.median(values))
    return out


def run_benchmark(workload, seed: int, seconds: float, trace: bool, out_root: Path):
    """Set up, run passes for ``seconds``, check every pass, and return
    ``(report, result)``; ``result`` is the benchmark's last output line.

    Throughput is frames over the total time of the untraced passes.
    With ``trace`` the passes alternate untraced / traced; the
    difference of their mean times is the tracing overhead."""
    work_root = out_root / f"{workload.name}-{os.getpid()}"
    tracer = Tracer((GeometryError,)) if trace else None
    try:
        import_s = time_imports(SETUP_REPEATS)
        generate_s, work = timed_setup(workload, work_root, seed, SETUP_REPEATS)
        expected, reference = load_reference(workload.name, seed)
        passes: list[PassResult] = []
        begin = time.perf_counter()
        while True:
            traced = trace and len(passes) % 2 == 1
            out = work_root / f"pass{len(passes)}"
            result = run_pass(workload, work, seed, out, tracer if traced else None)
            check_digests(result, expected)
            if not result.errors:
                expected = {**result.digests, **expected}
            for err in result.errors:
                print(f"pass {len(passes)}: {err}", file=sys.stderr)
            passes.append(result)
            shutil.rmtree(out)
            if time.perf_counter() - begin >= seconds and (not trace or len(passes) >= 2):
                break
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    failed = sum(1 for p in passes if p.errors)
    good = [p for p in passes if not p.errors]
    plain = [p.seconds for p in good if not p.traced]
    report = {
        "workload": workload.name,
        "config": {k: v for k, v in vars(workload).items() if k != "name"},
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "passes": len(passes),
        "traced_passes": sum(p.traced for p in passes),
        "pass_seconds": [round(p.seconds, 6) for p in passes],
        "frames_per_pass": workload.frames,
        "attempted": len(passes),
        "failed": failed,
        "failed_frac": failed / len(passes),
        "reference": reference,
        "setup": {"import_s": import_s, "generate_s": generate_s},
        "machine": machine_info(),
    }
    if hasattr(workload, "grid_shape"):
        report["bank_note"] = bank_note(workload)

    if not trace:
        metrics = {
            "setup_s": statistics.median(import_s) + statistics.median(generate_s),
            "frames_per_s": workload.frames * len(plain) / sum(plain) if plain else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        units = {name: unit for name, unit, _, _ in END_TO_END}
    else:
        cols = tracer.arrays()
        traced = [p for p in good if p.traced]
        figures = [
            layers.pass_figures(cols, tracer.names, *p.spans, p.counters, workload.frames)
            for p in traced
        ]
        metrics = _median_figures(figures) if figures else {}
        if traced:
            metrics["trace.pass_s"] = statistics.mean(p.seconds for p in traced)
            metrics["trace.overhead_s"] = metrics["trace.pass_s"] - (
                statistics.mean(plain) if plain else 0.0)
        spans_file = out_root / f"spans-{workload.name}.npz"
        tracer.save(spans_file)
        report["spans_file"] = str(spans_file.relative_to(BENCH_DIR.parent))
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(passes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return report, result

