"""Tests of the benchmark itself, on tiny workloads.

    python3 -m pytest -q bench/selftest.py

The file name keeps it out of the package's own test collection; the
benchmark's tests run when named.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.pin_environment()

import harness  # noqa: E402
import layers  # noqa: E402
import roadlift.camera_geometry  # noqa: E402
import roadlift.cli  # noqa: E402
import roadlift.evaluation  # noqa: E402
import roadlift.synthetic_world  # noqa: E402
from roadlift.camera_geometry import GeometryError  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, BankStream, EvalDense, SimStream  # noqa: E402

SEED = 3
TINY = {
    "eval-dense": EvalDense(frames=4, objects=12),
    "sim-stream": SimStream(frames=6, objects=3),
    "bank-stream": BankStream(frames=6, objects=5, channels=4, tau=3, embed_size=8),
}


def _setup(workload, root: Path, seed: int = SEED) -> Path:
    _, work = harness.timed_setup(workload, root, seed, repeats=1)
    return work


def _traced_pass(workload, root: Path, seed: int = SEED):
    work = _setup(workload, root / "in", seed)
    tracer = Tracer((GeometryError,))
    result = harness.run_pass(workload, work, seed, root / "out", tracer)
    assert not result.errors
    cols = tracer.arrays()
    figures = layers.pass_figures(cols, tracer.names, *result.spans, result.counters,
                                  workload.frames)
    calls = {name: int((cols["name"] == i).sum()) for i, name in enumerate(tracer.names)}
    return result, figures, calls


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return {
        name: _traced_pass(w, tmp_path_factory.mktemp(name.replace("-", "_")))
        for name, w in TINY.items()
    }


def test_benchmark_json_matches_the_code():
    spec = json.loads((harness.BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == list(
        harness.END_TO_END
    )
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert per_layer == list(layers.PER_LAYER)


def test_every_span_is_exercised_exactly_where_mapped(traced):
    for target in layers.TARGETS:
        hit = {w for w, (_, _, calls) in traced.items() if calls.get(target.span, 0) > 0}
        assert hit == set(target.workloads), target.span


def test_traced_pass_reports_every_per_layer_metric(traced):
    # The run adds the two figures that compare traced and untraced passes.
    names = {name for name, _, _ in layers.PER_LAYER} - {"trace.pass_s", "trace.overhead_s"}
    for _, figures, _ in traced.values():
        assert set(figures) == names


def test_reimported_names_are_wrapped_at_every_binding():
    pairs = [
        (roadlift.camera_geometry, roadlift.synthetic_world, roadlift.cli, "project_to_image"),
        (roadlift.evaluation, roadlift.cli, roadlift.cli, "match"),
    ]
    originals = {name: getattr(home, name) for home, _, _, name in pairs}
    tracer = Tracer((GeometryError,))
    tracer.install(layers.TARGETS)
    try:
        for home, user_a, user_b, name in pairs:
            for module in (home, user_a, user_b):
                bound = getattr(module, name)
                assert bound is not originals[name]
                assert bound.__wrapped__ is originals[name]
    finally:
        tracer.uninstall()
    for home, user_a, user_b, name in pairs:
        for module in (home, user_a, user_b):
            assert getattr(module, name) is originals[name]


def test_tracing_leaves_outputs_unchanged(traced, tmp_path):
    for name, workload in TINY.items():
        work = _setup(workload, tmp_path / name / "in")
        plain = harness.run_pass(workload, work, SEED, tmp_path / name / "out")
        assert not plain.errors
        assert plain.digests == traced[name][0].digests, name


def test_counts_repeat_across_runs_of_one_seed(traced, tmp_path):
    for name, workload in TINY.items():
        _, again, _ = _traced_pass(workload, tmp_path / name)
        first = traced[name][1]
        counts = {k for k, v in first.items() if isinstance(v, int)}
        assert {k: first[k] for k in counts} == {k: again[k] for k in counts}, name


def test_default_seed_matches_the_stored_reference(tmp_path):
    # On another platform only the portable (CSV) digests apply.
    for name, workload in WORKLOADS.items():
        expected, _ = harness.load_reference(name, 0)
        assert any(harness.portable(output) for output in expected), name
        work = _setup(workload, tmp_path / name / "in", seed=0)
        result = harness.run_pass(workload, work, 0, tmp_path / name / "out")
        assert not result.errors
        assert {k: result.digests[k] for k in expected} == expected, name


def test_refuses_to_run_without_the_program(tmp_path):
    bench = Path(harness.BENCH_DIR)
    shutil.copytree(bench, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(bench.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sim-stream", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
