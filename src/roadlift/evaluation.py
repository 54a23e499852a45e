"""Detection metrics: rotated BEV / 3D IoU, greedy score-order matching,
average precision at 40 recall points, binned relative distance error,
and the detected-ratio-vs-distance curve.

Matching follows the usual benchmark convention: predictions claim
ground truths in descending score order, each taking the unmatched GT
with the highest IoU at or above the threshold (ties break toward the
lower GT index).  Each frame's overlaps are one ``overlap_matrix``,
which every metric of that frame can share; per-frame statistics are
merged before the precision/recall sweep.

The frame-level functions take each side's boxes as a ``LabelFrame``
(what ``formats.parse_labels`` returns) or a sequence of ``Box3D``,
turned into a frame once on entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .camera_geometry import Box3D, LabelFrame, _ArrayRecord, _flags, _readonly

DISTANCE_BINS = ((0.0, 50.0), (50.0, 100.0), (100.0, 150.0), (150.0, 200.0))

N_RECALL_POINTS = 40


def footprint_polygon(box: Box3D) -> list[tuple[float, float]]:
    """Counter-clockwise BEV footprint corners of the box."""
    c, s = math.cos(box.theta), math.sin(box.theta)
    hl, hw = box.l / 2.0, box.w / 2.0
    return [
        (box.x + c * dx - s * dy, box.y + s * dx + c * dy)
        for dx, dy in ((hl, -hw), (hl, hw), (-hl, hw), (-hl, -hw))
    ]


def _clip_by_edge(poly, ax, ay, bx, by):
    # Keep the part of poly on the left of the directed edge a -> b.
    ex, ey = bx - ax, by - ay
    out = []
    n = len(poly)
    for i in range(n):
        px, py = poly[i]
        qx, qy = poly[(i + 1) % n]
        sp = ex * (py - ay) - ey * (px - ax)
        sq = ex * (qy - ay) - ey * (qx - ax)
        if sp >= 0.0:
            out.append((px, py))
        if (sp >= 0.0) != (sq >= 0.0):
            t = sp / (sp - sq)
            out.append((px + t * (qx - px), py + t * (qy - py)))
    return out


def _polygon_area(poly) -> float:
    area = 0.0
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        area += x1 * y2 - x2 * y1
    return abs(area) / 2.0


def _footprint_intersection_area(a: Box3D, b: Box3D) -> float:
    poly = footprint_polygon(a)
    clip = footprint_polygon(b)
    for i in range(4):
        if len(poly) < 3:
            return 0.0
        ax, ay = clip[i]
        bx, by = clip[(i + 1) % 4]
        poly = _clip_by_edge(poly, ax, ay, bx, by)
    if len(poly) < 3:
        return 0.0
    return _polygon_area(poly)


def _ratio(inter: float, size_a: float, size_b: float) -> float:
    """Intersection over union of two regions of the given sizes, the
    intersection clamped to the smaller one and the ratio to [0, 1]."""
    inter = min(inter, size_a, size_b)
    union = size_a + size_b - inter
    if union <= 0.0:
        return 0.0
    return min(max(inter / union, 0.0), 1.0)


def bev_iou(a: Box3D, b: Box3D) -> float:
    """Rotated-rectangle IoU of the two BEV footprints.

    The footprint is invariant to a yaw flip of pi (and to pi/2 for
    square footprints), so such flips score 1.0 here even though the
    corner-paired regression loss penalizes them; orientation-sensitive
    metrics are out of scope.
    """
    return _ratio(_footprint_intersection_area(a, b), a.l * a.w, b.l * b.w)


def iou3d(a: Box3D, b: Box3D) -> float:
    """Volume IoU: BEV intersection times the vertical overlap of the
    [z, z+h] extents."""
    overlap_h = min(a.z + a.h, b.z + b.h) - max(a.z, b.z)
    if overlap_h <= 0.0:
        return 0.0
    inter = _footprint_intersection_area(a, b) * overlap_h
    return _ratio(inter, a.l * a.w * a.h, b.l * b.w * b.h)


def box2d_iou(a: tuple[float, float, float, float], b: tuple[float, float, float, float]) -> float:
    """Axis-aligned IoU of two pixel-space (x1, y1, x2, y2) rectangles."""
    ix = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
    iy = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
    inter = ix * iy
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


class MatchPair(NamedTuple):
    """One matched (ground truth, prediction) index pair; its overlap is
    ``overlaps[gt_index, pred_index]`` of the matrix ``match`` scored."""

    gt_index: int
    pred_index: int


@dataclass(frozen=True)
class MatchResult:
    """One matched frame: the pairs refer to the boxes of the ``gts``
    and ``preds`` frames; a box in no pair is unmatched."""

    pairs: tuple[MatchPair, ...]
    gts: LabelFrame
    preds: LabelFrame


_IOU_KINDS = ("bev", "3d", "pixel")

# Relative and absolute slack on the prefilter's reach, so rounding in
# the centre distance can never drop a pair whose footprints touch.
_REACH_SLACK = 1e-9


class _BoxRow:
    """The fields of one box that ``bev_iou`` and ``iou3d`` read, for
    scoring a frame's pairs: far cheaper to build than a ``Box3D``."""

    __slots__ = ("x", "y", "z", "l", "w", "h", "theta")

    def __init__(self, x, y, z, l, w, h, theta):
        self.x, self.y, self.z, self.l, self.w, self.h, self.theta = x, y, z, l, w, h, theta


def _check_kind(iou_kind: str) -> None:
    if iou_kind not in _IOU_KINDS:
        raise ValueError(f"iou_kind must be one of {_IOU_KINDS}, got {iou_kind!r}")


def overlap_matrix(gts, preds, iou_kind: str, gt_boxes_2d=None, pred_boxes_2d=None) -> np.ndarray:
    """(n_gt, n_pred) overlap of every ground truth with every prediction.

    For "bev" and "3d" a numpy prefilter keeps only the pairs whose BEV
    centre distance is within the sum of the two footprints' half
    diagonals (and, for "3d", whose [z, z+h] extents overlap, the test
    ``iou3d`` makes first); only those are scored by ``bev_iou`` /
    ``iou3d``, on one light row per box of each frame (not a
    ``Box3D``).  The pairs dropped are disjoint, which the scalar
    functions score exactly 0, so every entry equals the scalar IoU.
    "pixel" scores every pair with ``box2d_iou`` on the supplied image
    rectangles.
    """
    _check_kind(iou_kind)
    gts, preds = LabelFrame.of(gts), LabelFrame.of(preds)
    out = np.zeros((len(gts), len(preds)))
    if iou_kind == "pixel":
        if gt_boxes_2d is None or pred_boxes_2d is None:
            raise ValueError("pixel matching requires 2D boxes for both sides")
        if len(gt_boxes_2d) != len(gts) or len(pred_boxes_2d) != len(preds):
            raise ValueError("2D box lists must align with the 3D boxes")
        for gi, g2d in enumerate(gt_boxes_2d):
            for pi, p2d in enumerate(pred_boxes_2d):
                out[gi, pi] = box2d_iou(g2d, p2d)
        return out
    if not gts or not preds:
        return out
    gx, gy, gz, gl, gw, gh, _ = gts.params.T
    px, py, pz, pl, pw, ph, _ = preds.params.T
    reach = np.hypot(gl, gw)[:, None] / 2.0 + np.hypot(pl, pw)[None, :] / 2.0
    dist = np.hypot(gx[:, None] - px[None, :], gy[:, None] - py[None, :])
    near = dist <= reach * (1.0 + _REACH_SLACK) + _REACH_SLACK
    if iou_kind == "3d":
        top = np.minimum((gz + gh)[:, None], (pz + ph)[None, :])
        near &= top - np.maximum(gz[:, None], pz[None, :]) > 0.0
        measure = iou3d
    else:
        measure = bev_iou
    gis, pis = np.nonzero(near)
    if gis.size:
        g_rows = [_BoxRow(*row) for row in gts.params.tolist()]
        p_rows = [_BoxRow(*row) for row in preds.params.tolist()]
        for gi, pi in zip(gis.tolist(), pis.tolist()):
            out[gi, pi] = measure(g_rows[gi], p_rows[pi])
    return out


def match(gts, preds, iou_threshold: float, iou_kind: str = "bev", overlaps=None) -> MatchResult:
    """Greedy score-descending matching of predictions to ground truths.

    ``overlaps`` is the ``overlap_matrix`` of these boxes; without it
    the matrix is computed here with ``iou_kind``'s measure.  "bev" and
    "3d" work on the boxes themselves; "pixel" matching needs the image
    rectangles of both sides, so it takes
    ``overlaps=overlap_matrix(gts, preds, "pixel", gt_boxes_2d, pred_boxes_2d)``
    (mirroring benchmarks that associate boxes in the image plane before
    measuring 3D error).  Predictions are taken in descending score
    order, ties in index order; ``gts`` and ``preds`` are frames or
    sequences of ``Box3D`` (see the module docstring).

    Categories are not compared: a car prediction may claim a truck
    ground truth.  Per-class scores come from passing one class on each
    side; the KITTI devkit instead always matches within each class.
    """
    _check_kind(iou_kind)
    gts, preds = LabelFrame.of(gts), LabelFrame.of(preds)
    if np.isnan(preds.scores).any():
        raise ValueError("all predictions must carry a score")
    if overlaps is None:
        overlaps = overlap_matrix(gts, preds, iou_kind)
    elif np.shape(overlaps) != (len(gts), len(preds)):
        raise ValueError(
            f"overlaps must have shape {(len(gts), len(preds))}, got {np.shape(overlaps)}"
        )
    # One row per prediction; a taken ground truth's column becomes -1,
    # so argmax (first maximum, i.e. lowest GT index) only sees free ones.
    free = np.array(overlaps, dtype=float).T
    pairs = []
    if gts:
        for pi in np.argsort(-preds.scores, kind="stable").tolist():
            row = free[pi]
            gi = int(row.argmax())
            iou = float(row[gi])
            if iou >= iou_threshold and iou > 0.0:
                free[:, gi] = -1.0
                pairs.append(MatchPair(gi, pi))
    return MatchResult(tuple(pairs), gts, preds)


@dataclass(frozen=True, eq=False)
class PRCurve(_ArrayRecord):
    """Precision at the 40 evenly spaced recall sample points i/40,
    i = 1..40, and the resulting average precision in percent."""

    precisions: np.ndarray
    ap: float

    def __post_init__(self):
        prec = _readonly(self.precisions)
        if prec.shape != (N_RECALL_POINTS,):
            raise ValueError(f"curves must have {N_RECALL_POINTS} samples")
        if not np.all((prec >= 0) & (prec <= 1)):  # NaN fails too
            raise ValueError("precision must lie in [0, 1]")
        if not 0.0 <= self.ap <= 100.0:
            raise ValueError("AP must lie in [0, 100]")
        object.__setattr__(self, "precisions", prec)


@dataclass(frozen=True, eq=False)
class FrameStats(_ArrayRecord):
    """Mergeable per-frame detection outcome: one (score, is_tp) row per
    prediction plus the ground-truth count."""

    scores: np.ndarray
    is_tp: np.ndarray
    n_gt: int

    def __post_init__(self):
        scores, is_tp = _readonly(self.scores), _flags(self.is_tp, bool, "is_tp entries")
        if len(scores) != len(is_tp):
            raise ValueError(
                f"scores and is_tp need one row per prediction, got {len(scores)} and {len(is_tp)}"
            )
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "is_tp", is_tp)


def frame_detection_stats(
    gts,
    preds,
    iou_threshold: float,
    iou_kind: str = "bev",
    overlaps=None,
) -> FrameStats:
    """Match one frame and reduce it to score/TP rows.  ``overlaps`` is
    the ``overlap_matrix`` of ``gts`` against ``preds``; "pixel" stats
    need it, since the image rectangles go to ``overlap_matrix``.  A
    subset (a class, a difficulty tier) is scored by slicing the frames
    first, with ``LabelFrame.take``."""
    return stats_from_match(match(gts, preds, iou_threshold, iou_kind, overlaps=overlaps))


def stats_from_match(result: MatchResult) -> FrameStats:
    """The score/TP rows of one matched frame."""
    is_tp = np.zeros(len(result.preds), dtype=bool)
    is_tp[[p.pred_index for p in result.pairs]] = True
    return FrameStats(
        scores=result.preds.scores,
        is_tp=is_tp,
        n_gt=len(result.gts),
    )


def pr_curve_from_stats(stats_list) -> PRCurve:
    """Fold per-frame stats into the R40 curve: rank all predictions by
    score, sweep the rank cutoff, and take the max precision to the
    right of each recall sample point.  With no ground truth or no
    prediction the curve is all zeros; a caller tells the two apart by
    the stats' ``n_gt``."""
    stats_list = list(stats_list)
    n_gt = sum(s.n_gt for s in stats_list)
    if n_gt == 0 or not any(s.scores.size for s in stats_list):
        return PRCurve(np.zeros(N_RECALL_POINTS), 0.0)
    scores = np.concatenate([s.scores for s in stats_list])
    is_tp = np.concatenate([s.is_tp for s in stats_list])
    order = np.argsort(-scores, kind="stable")
    tp = np.cumsum(is_tp[order])
    fp = np.cumsum(~is_tp[order])
    precision = tp / (tp + fp)
    recall = tp / n_gt
    # Max precision over all ranks whose recall is >= the query point.
    best_right = np.maximum.accumulate(precision[::-1])[::-1]
    recall_points = np.arange(1, N_RECALL_POINTS + 1) / N_RECALL_POINTS
    idx = np.searchsorted(recall, recall_points, side="left")
    precisions = np.where(idx < len(recall), best_right[np.minimum(idx, len(recall) - 1)], 0.0)
    ap = float(precisions.mean() * 100.0)
    return PRCurve(precisions, ap)


def _paired_frames(gts_per_frame, preds_per_frame):
    """The (gts, preds) pairs of two parallel frame lists."""
    gts_per_frame, preds_per_frame = list(gts_per_frame), list(preds_per_frame)
    if len(gts_per_frame) != len(preds_per_frame):
        raise ValueError("frame lists must have equal length")
    return zip(gts_per_frame, preds_per_frame)


def average_precision_r40(
    gts_per_frame,
    preds_per_frame,
    iou_threshold: float,
    iou_kind: str = "bev",
) -> PRCurve:
    """AP|R40 over a list of frames (parallel lists of GT and prediction
    box lists)."""
    stats = [
        frame_detection_stats(g, p, iou_threshold, iou_kind)
        for g, p in _paired_frames(gts_per_frame, preds_per_frame)
    ]
    return pr_curve_from_stats(stats)


@dataclass(frozen=True)
class DistanceErrorBin:
    lo: float
    hi: float
    mean_error_pct: float | None
    count: int


@dataclass(frozen=True)
class DistanceErrorTable:
    bins: tuple[DistanceErrorBin, ...]
    skipped: int


def distance_error(matches, camera_foot: tuple[float, float] = (0.0, 0.0)) -> DistanceErrorTable:
    """Mean relative range error |d_p - d_g| / d_g * 100% of matched
    pairs, binned by the ground-truth range d_g into ``DISTANCE_BINS``.

    Ranges are BEV distances from the camera's ground foot point, taken
    from the boxes of each result's frames.  ``matches`` is a sequence
    of MatchResults, one per frame; empty bins report ``None``.  A pair
    whose ground truth stands at the foot point (d_g = 0) has no
    relative error: it is skipped and counted.
    """
    sums = [0.0] * len(DISTANCE_BINS)
    counts = [0] * len(DISTANCE_BINS)
    skipped = 0
    fx, fy = camera_foot
    for result in matches:
        g_xy = result.gts.params[:, :2].tolist()
        p_xy = result.preds.params[:, :2].tolist()
        for pair in result.pairs:
            (gx, gy), (px, py) = g_xy[pair.gt_index], p_xy[pair.pred_index]
            d_g = math.hypot(gx - fx, gy - fy)
            d_p = math.hypot(px - fx, py - fy)
            if d_g <= 0.0:
                skipped += 1
                continue
            err = abs(d_p - d_g) / d_g * 100.0
            for bi, (lo, hi) in enumerate(DISTANCE_BINS):
                if lo <= d_g < hi:
                    sums[bi] += err
                    counts[bi] += 1
                    break
    table = tuple(
        DistanceErrorBin(lo, hi, (sums[i] / counts[i]) if counts[i] else None, counts[i])
        for i, (lo, hi) in enumerate(DISTANCE_BINS)
    )
    return DistanceErrorTable(table, skipped)


def detection_ratio_curve(gts_per_frame, preds_per_frame, thresholds) -> list[float]:
    """Fraction of ground truths whose nearest prediction (BEV center
    distance, within the same frame) lies within each threshold.
    Non-decreasing in the threshold by construction."""
    nearest = []
    for gts, preds in _paired_frames(gts_per_frame, preds_per_frame):
        gts, preds = LabelFrame.of(gts), LabelFrame.of(preds)
        if not gts:
            continue
        if not preds:
            nearest.append(np.full(len(gts), math.inf))
            continue
        g, p = gts.params, preds.params
        dist = np.hypot(g[:, 0, None] - p[None, :, 0], g[:, 1, None] - p[None, :, 1])
        nearest.append(dist.min(axis=1))
    if not nearest:
        return [0.0 for _ in thresholds]
    arr = np.concatenate(nearest)
    return [float(np.mean(arr <= t)) for t in thresholds]
