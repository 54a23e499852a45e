"""What the traced run wraps, and the per-layer metrics it derives.

Layer names are roadlift's module names.  ``TARGETS`` lists the public
functions and methods whose calls become spans, with the stats reported
for each; the observers turn arguments and results into counters
(bytes, skipped points, resets, positive IoUs).  ``PER_LAYER`` is the
ordered list of per-layer metrics that ``BENCHMARK.json`` declares;
``pass_figures`` computes all of them for one traced pass.
``loss_functions`` is deliberately absent: no CLI workload spends
measurable time in it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _add(key, amount):
    def observe(counters, args, result):
        counters[key] += amount(args, result)

    return observe


def _placed(counters, args, result):
    counters["synthetic_world.placed"] += len(result.objects)


def _frame_record(counters, args, result):
    counters["synthetic_world.n_dropped"] += result.n_dropped
    counters["synthetic_world.n_lift_failed"] += result.n_lift_failed


def _iou(counters, args, result):
    counters["evaluation.iou_positive"] += result > 0.0


def _make_mask(counters, args, result):
    counters["scene_cue_bank.make_mask.skipped"] += result.skipped
    counters["scene_cue_bank.bytes_computed"] += result.cells.nbytes


# Bytes each bank operation reads and writes, from the grid shapes
# (computed, not measured): a FeatureGrid reads its input and writes a
# float copy; extract_cues reads grid and mask and writes the product; a
# full-grid momentum blend reads memory and cues and writes memory; the
# running mean does the same on the masked cells plus their counters.
def _grid_bytes(args, result):
    return 2 * args[0].values.nbytes


def _extract_bytes(args, result):
    features, mask = args
    return 2 * features.values.nbytes + mask.cells.nbytes


def _momentum_bytes(args, result):
    cues = args[2]
    mask = args[4] if len(args) > 4 else None
    if mask is None:
        return 3 * cues.values.nbytes
    return 3 * int(mask.cells.sum()) * cues.values.shape[2] * cues.values.itemsize


def _running_mean_bytes(args, result):
    cues, mask = args[2], args[3]
    cells = int(mask.cells.sum())
    return 3 * cells * cues.values.shape[2] * cues.values.itemsize + 2 * cells * 8


def _reset_bytes(args, result):
    return 2 * args[2].values.nbytes


_BYTES = "scene_cue_bank.bytes_computed"
_CG, _SW = "roadlift.camera_geometry", "roadlift.synthetic_world"
_EV, _CB = "roadlift.evaluation", "roadlift.scene_cue_bank"
_FM, _SS = "roadlift.formats", "roadlift.scene_scheduler"
_SIM, _BANK, _EVAL = ("sim-stream",), ("bank-stream",), ("eval-dense",)
_LABELS = ("eval-dense", "sim-stream")


@dataclass(frozen=True)
class Target:
    """One traced function or method.

    ``attribute`` is a function name in ``module`` or ``Class.method``.
    ``stats`` are the per-layer metrics reported for the span: calls,
    self_s and failed (raised GeometryError, or a non-zero CLI exit
    code) come from the spans; any other stat is the counter of the
    same full name, which ``observe(counters, args, result)`` feeds.
    ``workloads`` are the workloads whose timed passes call it, and no
    others: the README's layer table rests on this, and the self-test
    checks it.
    """

    span: str
    module: str
    attribute: str
    stats: str
    workloads: tuple[str, ...]
    observe: Callable | None = None


TARGETS = (
    Target("camera_geometry.lift_to_ground", _CG, "lift_to_ground",
           "calls self_s failed", _SIM),
    Target("camera_geometry.project_to_image", _CG, "project_to_image",
           "calls self_s failed", _SIM + _BANK),
    Target("camera_geometry.depth_to_ground", _CG, "depth_to_ground", "calls self_s", _BANK),
    Target("camera_geometry.ground_plane_from_extrinsics", _CG, "ground_plane_from_extrinsics",
           "calls self_s", _SIM + _BANK),
    Target("synthetic_world.generate_scene", _SW, "generate_scene", "self_s", _SIM + _BANK,
           _placed),
    Target("synthetic_world.resample_objects", _SW, "resample_objects", "calls self_s",
           _SIM + _BANK, _placed),
    Target("synthetic_world.simulate_predictions", _SW, "simulate_predictions", "calls self_s",
           _SIM, _frame_record),
    Target("synthetic_world.box2d_of", _SW, "box2d_of", "calls self_s", _SIM),
    Target("synthetic_world.render_cue_grid", _SW, "render_cue_grid", "calls self_s", _BANK),
    Target("formats.parse_labels", _FM, "parse_labels", "calls self_s bytes", _LABELS,
           _add("formats.parse_labels.bytes", lambda a, r: len(a[0].encode()))),
    Target("formats.serialize_labels", _FM, "serialize_labels", "calls self_s bytes", _SIM,
           _add("formats.serialize_labels.bytes", lambda a, r: len(r.encode()))),
    Target("formats.parse_calibration_doc", _FM, "parse_calibration_doc", "calls self_s", _BANK),
    Target("evaluation.match", _EV, "match", "calls self_s", _LABELS),
    Target("evaluation.iou3d", _EV, "iou3d", "calls self_s", _EVAL, _iou),
    Target("evaluation.bev_iou", _EV, "bev_iou", "calls self_s", _SIM, _iou),
    Target("evaluation.frame_detection_stats", _EV, "frame_detection_stats", "calls self_s",
           _LABELS),
    Target("evaluation.pr_curve_from_stats", _EV, "pr_curve_from_stats", "calls self_s",
           _LABELS),
    Target("evaluation.distance_error", _EV, "distance_error", "self_s skipped", _EVAL,
           _add("evaluation.distance_error.skipped", lambda a, r: r.skipped)),
    Target("evaluation.detection_ratio_curve", _EV, "detection_ratio_curve", "self_s", _EVAL),
    Target("scene_cue_bank.FeatureGrid", _CB, "FeatureGrid.__init__", "calls self_s", _BANK,
           _add(_BYTES, _grid_bytes)),
    Target("scene_cue_bank.make_mask", _CB, "make_mask", "calls self_s skipped", _BANK,
           _make_mask),
    Target("scene_cue_bank.extract_cues", _CB, "extract_cues", "calls self_s", _BANK,
           _add(_BYTES, _extract_bytes)),
    Target("scene_cue_bank.SceneBank.update_momentum", _CB, "SceneBank.update_momentum",
           "calls self_s", _BANK, _add(_BYTES, _momentum_bytes)),
    Target("scene_cue_bank.SceneBank.update_running_average", _CB,
           "SceneBank.update_running_average", "calls self_s", _BANK,
           _add(_BYTES, _running_mean_bytes)),
    Target("scene_cue_bank.SceneBank.memorized", _CB, "SceneBank.memorized", "calls self_s",
           _BANK),
    Target("scene_cue_bank.SceneBank.reset_scene", _CB, "SceneBank.reset_scene", "calls",
           _BANK, _add(_BYTES, _reset_bytes)),
    Target("scene_cue_bank.save_bank", _CB, "save_bank", "self_s bytes", _BANK,
           _add("scene_cue_bank.save_bank.bytes", lambda a, r: os.path.getsize(a[1]))),
    Target("scene_cue_bank.load_bank", _CB, "load_bank", "self_s", _BANK),
    Target("scene_scheduler.SceneScheduler.step", _SS, "SceneScheduler.step", "calls resets",
           _BANK, _add("scene_scheduler.SceneScheduler.step.resets", lambda a, r: int(r[1]))),
    Target("scene_scheduler.apply_augmentation", _SS, "apply_augmentation", "calls self_s",
           _BANK),
    Target("position_embedding.embed_depth_map", "roadlift.position_embedding",
           "embed_depth_map", "calls self_s", _BANK),
    Target("cli.command", "roadlift.cli", "run_command", "calls failed", _LABELS + _BANK,
           _add("cli.command.failed", lambda a, r: int(r != 0))),
)

PASS_SPAN = "bench.pass"
_PLACEMENT = ("synthetic_world.generate_scene", "synthetic_world.resample_objects")
_UNITS = {"calls": "count", "self_s": "s", "failed": "count", "bytes": "B", "skipped": "count",
          "resets": "count"}

# Metrics that are not a stat of one span: (name, unit, better).
_DERIVED = (
    ("synthetic_world.placement_accept_ratio", "ratio", "higher"),
    ("synthetic_world.n_dropped", "count", "lower"),
    ("synthetic_world.n_lift_failed", "count", "lower"),
    ("evaluation.match.calls_per_frame", "1/frame", "lower"),
    ("evaluation.iou_positive_ratio", "ratio", "higher"),
    ("scene_cue_bank.bytes_computed", "B", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.pass_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)

# (name, unit, better) in BENCHMARK.json order.
PER_LAYER = tuple(
    (f"{t.span}.{stat}", _UNITS[stat], "lower") for t in TARGETS for stat in t.stats.split()
) + _DERIVED


def _placement_attempts(names, ids, parent, lo):
    """project_to_image spans of the pass that have a placement span
    (generate_scene / resample_objects) among their ancestors."""
    if "camera_geometry.project_to_image" not in names:
        return 0
    local_parent = parent - lo
    has_parent = local_parent >= 0
    up = np.where(has_parent, local_parent, 0)
    # flag: the span is a placement span or descends from one.
    flag = np.isin(ids, [names.index(n) for n in _PLACEMENT if n in names])
    while True:
        widened = flag | (has_parent & flag[up])
        if np.array_equal(widened, flag):
            break
        flag = widened
    project = ids == names.index("camera_geometry.project_to_image")
    return int((project & flag).sum())


def pass_figures(cols, names, lo, hi, counters, frames) -> dict[str, float]:
    """Every per-layer metric except the trace.* ones, for the traced
    pass whose spans are ``lo:hi`` (``lo`` is the pass's root span)."""
    ids = cols["name"][lo:hi]
    n = len(names)
    calls = np.bincount(ids, minlength=n)
    self_s = np.bincount(ids, weights=cols["self"][lo:hi], minlength=n)
    raised = np.bincount(ids, weights=cols["failed"][lo:hi], minlength=n)

    def span_stat(span, stat):
        i = names.index(span) if span in names else None
        if stat == "calls":
            return int(calls[i]) if i is not None else 0
        if stat == "self_s":
            return float(self_s[i]) if i is not None else 0.0
        if stat == "failed":
            return int(raised[i] if i is not None else 0) + counters[f"{span}.failed"]
        return counters[f"{span}.{stat}"]

    out = {
        f"{t.span}.{stat}": span_stat(t.span, stat) for t in TARGETS for stat in t.stats.split()
    }
    attempts = _placement_attempts(names, ids, cols["parent"][lo:hi], lo)
    placed = counters["synthetic_world.placed"]
    ious = out["evaluation.iou3d.calls"] + out["evaluation.bev_iou.calls"]
    out.update({
        "synthetic_world.placement_accept_ratio": placed / attempts if attempts else 0.0,
        "synthetic_world.n_dropped": counters["synthetic_world.n_dropped"],
        "synthetic_world.n_lift_failed": counters["synthetic_world.n_lift_failed"],
        "evaluation.match.calls_per_frame": out["evaluation.match.calls"] / frames,
        "evaluation.iou_positive_ratio": (
            counters["evaluation.iou_positive"] / ious if ious else 0.0),
        "scene_cue_bank.bytes_computed": counters[_BYTES],
        "cli.self_s": span_stat("cli.command", "self_s"),
        "trace.spans": hi - lo,
    })
    return out
