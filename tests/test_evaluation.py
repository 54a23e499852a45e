import itertools
import math

import numpy as np
import pytest

from roadlift import evaluation
from roadlift.camera_geometry import Box3D
from roadlift.evaluation import (
    average_precision_r40,
    bev_iou,
    box2d_iou,
    box2d_overlap_matrix,
    detection_ratio_curve,
    distance_error,
    footprint_polygon,
    frame_detection_stats,
    FrameStats,
    MatchPair,
    iou3d,
    match,
    overlap_matrix,
    pr_curve_from_stats,
)
from roadlift.evaluation import PRCurve


def box(x=0.0, y=0.0, z=0.0, l=1.0, w=1.0, h=1.0, theta=0.0, score=None):
    return Box3D(x, y, z, l, w, h, theta, score=score)


def bev_match(gts, preds, iou_threshold):
    """``match`` on the frame's BEV overlap matrix."""
    return match(gts, preds, overlap_matrix(gts, preds, "bev"), iou_threshold)


def unmatched(result) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The GT and the prediction indices that no pair of ``result`` holds."""
    gts = {p.gt_index for p in result.pairs}
    preds = {p.pred_index for p in result.pairs}
    return (
        tuple(i for i in range(len(result.gts)) if i not in gts),
        tuple(i for i in range(len(result.preds)) if i not in preds),
    )


def monte_carlo_bev_iou(a: Box3D, b: Box3D, n: int, seed: int) -> float:
    """Area-sampling oracle: throw points over the union bounding box and
    test membership in each rotated footprint analytically."""
    pa = np.array(footprint_polygon(a))
    pb = np.array(footprint_polygon(b))
    lo = np.minimum(pa.min(axis=0), pb.min(axis=0))
    hi = np.maximum(pa.max(axis=0), pb.max(axis=0))
    rng = np.random.default_rng(seed)
    pts = rng.uniform(lo, hi, size=(n, 2))

    def inside(box_, pts_):
        c, s = math.cos(box_.theta), math.sin(box_.theta)
        dx = pts_[:, 0] - box_.x
        dy = pts_[:, 1] - box_.y
        local_x = c * dx + s * dy
        local_y = -s * dx + c * dy
        return (np.abs(local_x) <= box_.l / 2) & (np.abs(local_y) <= box_.w / 2)

    bbox_area = float(np.prod(hi - lo))
    inter = bbox_area * float(np.mean(inside(a, pts) & inside(b, pts)))
    union = a.l * a.w + b.l * b.w - inter
    return inter / union


def axis_aligned_iou_closed_form(a: Box3D, b: Box3D) -> float:
    ix = max(0.0, min(a.x + a.l / 2, b.x + b.l / 2) - max(a.x - a.l / 2, b.x - b.l / 2))
    iy = max(0.0, min(a.y + a.w / 2, b.y + b.w / 2) - max(a.y - a.w / 2, b.y - b.w / 2))
    inter = ix * iy
    union = a.l * a.w + b.l * b.w - inter
    return inter / union if union > 0 else 0.0


def brute_force_match_oracle(gts, preds, threshold, measure):
    """Enumerate every injective assignment and pick the one that
    lexicographically maximizes (iou, lower-gt-index) down the
    score-sorted prediction list; equivalent to the greedy rule."""
    order = sorted(range(len(preds)), key=lambda i: (-preds[i].score, i))
    candidates = [list(range(len(gts))) + [None] for _ in order]
    best_key, best_assign = None, None
    for combo in itertools.product(*candidates):
        chosen = [c for c in combo if c is not None]
        if len(chosen) != len(set(chosen)):
            continue
        key = []
        ok = True
        for pi, gi in zip(order, combo):
            if gi is None:
                key.append((-1.0, 0))
                continue
            iou = measure(gts[gi], preds[pi])
            if iou < threshold:
                ok = False
                break
            key.append((iou, -gi))
        if ok:
            key_t = tuple(key)
            if best_key is None or key_t > best_key:
                best_key = key_t
                best_assign = dict(zip(order, combo))
    return {pi: gi for pi, gi in best_assign.items() if gi is not None}


class TestBevIoU:
    def test_identical(self):
        b = box(theta=0.4, l=4, w=2)
        assert bev_iou(b, b) == pytest.approx(1.0)

    def test_far_apart(self):
        assert bev_iou(box(), box(x=100.0)) == 0.0

    def test_half_offset_squares(self):
        assert bev_iou(box(), box(x=0.5)) == pytest.approx(1.0 / 3.0)

    def test_rotated_45_concentric(self):
        # Unit square vs itself rotated 45 degrees: IoU = sqrt(2)/2.
        assert bev_iou(box(), box(theta=math.pi / 4)) == pytest.approx(
            math.sqrt(2) / 2, abs=1e-12
        )

    def test_monte_carlo_oracle(self):
        cases = [
            (box(), box(theta=math.pi / 4)),
            (box(l=4, w=2, theta=0.3), box(x=1.0, y=0.5, l=3, w=2, theta=-0.5)),
            (box(l=2, w=1), box(x=0.4, y=0.2, l=2, w=1, theta=0.9)),
        ]
        for i, (a, b) in enumerate(cases):
            mc = monte_carlo_bev_iou(a, b, n=2_000_000, seed=100 + i)
            assert bev_iou(a, b) == pytest.approx(mc, abs=2e-3)

    def test_axis_aligned_closed_form(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a = box(x=rng.uniform(-5, 5), y=rng.uniform(-5, 5), l=rng.uniform(1, 6), w=rng.uniform(1, 4))
            b = box(x=rng.uniform(-5, 5), y=rng.uniform(-5, 5), l=rng.uniform(1, 6), w=rng.uniform(1, 4))
            assert bev_iou(a, b) == pytest.approx(axis_aligned_iou_closed_form(a, b), abs=1e-12)

    def test_pi_flip_has_identical_footprint(self):
        b = box(l=4, w=2, theta=0.3)
        flipped = box(l=4, w=2, theta=0.3 + math.pi)
        assert bev_iou(b, flipped) == pytest.approx(1.0)

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a = box(
                x=rng.uniform(-3, 3), y=rng.uniform(-3, 3),
                l=rng.uniform(0.5, 5), w=rng.uniform(0.5, 3), theta=rng.uniform(-3, 3),
            )
            b = box(
                x=rng.uniform(-3, 3), y=rng.uniform(-3, 3),
                l=rng.uniform(0.5, 5), w=rng.uniform(0.5, 3), theta=rng.uniform(-3, 3),
            )
            iou = bev_iou(a, b)
            assert 0.0 <= iou <= 1.0
            assert iou == pytest.approx(bev_iou(b, a), abs=1e-12)


class TestIoU3D:
    def test_identical(self):
        b = box(z=0.5, theta=1.0)
        assert iou3d(b, b) == pytest.approx(1.0)

    def test_vertically_disjoint(self):
        assert iou3d(box(z=0.0, h=1.0), box(z=2.0, h=1.0)) == 0.0

    def test_half_vertical_overlap(self):
        assert iou3d(box(h=2.0), box(z=1.0, h=2.0)) == pytest.approx(1.0 / 3.0)

    def test_reduces_to_bev_when_heights_align(self):
        a = box(l=4, w=2, theta=0.3)
        b = box(x=0.7, l=4, w=2, theta=0.3)
        assert iou3d(a, b) == pytest.approx(bev_iou(a, b), abs=1e-12)


class TestMatch:
    def test_perfect_predictions_all_matched(self):
        gts = [box(x=10 * i, l=4, w=2) for i in range(3)]
        preds = [box(x=10 * i, l=4, w=2, score=0.9 - 0.1 * i) for i in range(3)]
        result = bev_match(gts, preds, 0.5)
        assert len(result.pairs) == 3
        assert unmatched(result) == ((), ())

    def test_no_predictions(self):
        gts = [box(), box(x=5)]
        result = bev_match(gts, [], 0.5)
        assert result.pairs == ()
        assert unmatched(result) == ((0, 1), ())

    def test_higher_score_wins_contested_gt(self):
        gts = [box(l=4, w=2)]
        preds = [
            box(x=0.2, l=4, w=2, score=0.6),
            box(x=0.1, l=4, w=2, score=0.9),
        ]
        result = bev_match(gts, preds, 0.3)
        assert len(result.pairs) == 1
        assert result.pairs[0].pred_index == 1
        assert unmatched(result) == ((), (0,))

    def test_missing_scores_rejected(self):
        with pytest.raises(ValueError, match="score"):
            bev_match([box()], [box()], 0.5)

    def test_agrees_with_brute_force_enumeration(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n_gt = int(rng.integers(0, 5))
            n_pred = int(rng.integers(0, 5))
            gts = [
                box(x=rng.uniform(-4, 4), y=rng.uniform(-4, 4), l=4, w=2,
                    theta=rng.uniform(-0.4, 0.4))
                for _ in range(n_gt)
            ]
            preds = [
                box(x=rng.uniform(-4, 4), y=rng.uniform(-4, 4), l=4, w=2,
                    theta=rng.uniform(-0.4, 0.4), score=round(rng.uniform(0.1, 0.99), 3))
                for _ in range(n_pred)
            ]
            got = {p.pred_index: p.gt_index for p in bev_match(gts, preds, 0.1).pairs}
            want = brute_force_match_oracle(gts, preds, 0.1, bev_iou)
            assert got == want

    def test_pixel_kind_matches_on_2d_boxes(self):
        gts = [box(x=100.0, l=4, w=2)]  # BEV overlap with the pred is zero
        preds = [box(x=0.0, l=4, w=2, score=0.9)]
        gt2d = [(10.0, 10.0, 50.0, 40.0)]
        pred2d = [(12.0, 11.0, 52.0, 41.0)]
        result = match(gts, preds, box2d_overlap_matrix(gt2d, pred2d), 0.5)
        assert result.pairs == (MatchPair(0, 0),)

    def test_bad_kind_rejected(self):
        # Image-plane overlaps have their own builder, so "pixel" is no kind.
        for kind in ("volumetric", "pixel"):
            with pytest.raises(ValueError, match="iou_kind"):
                overlap_matrix([], [], kind)


def _reference_match(gts, preds, iou_threshold, measure):
    """The O(n*m) greedy loop ``match`` ran before it matched on an
    overlap matrix, kept verbatim as the behaviour to preserve."""
    order = sorted(range(len(preds)), key=lambda i: (-preds[i].score, i))
    taken = [False] * len(gts)
    pairs = []
    for pi in order:
        best_gi = -1
        best_iou = 0.0
        for gi in range(len(gts)):
            if taken[gi]:
                continue
            iou = measure(gts[gi], preds[pi])
            if iou >= iou_threshold and iou > best_iou:
                best_iou = iou
                best_gi = gi
        if best_gi >= 0:
            taken[best_gi] = True
            pairs.append(MatchPair(best_gi, pi))
    matched_gt = {p.gt_index for p in pairs}
    matched_pred = {p.pred_index for p in pairs}
    return (
        tuple(pairs),
        tuple(i for i in range(len(gts)) if i not in matched_gt),
        tuple(i for i in range(len(preds)) if i not in matched_pred),
    )


_CATEGORY_DIMS = {"car": (4.5, 1.8, 1.5), "truck": (10.0, 2.5, 3.2), "ped": (0.6, 0.6, 1.7)}


def _random_frame(rng, sparse: bool):
    """GTs of mixed categories, predictions jittered around them (some
    edge- or face-touching, some with a swapped category), false
    positives, and scores from a small set so ties are common."""
    gts = []
    for _ in range(int(rng.integers(0, 9))):
        cat = str(rng.choice(list(_CATEGORY_DIMS)))
        l, w, h = _CATEGORY_DIMS[cat]
        if sparse:
            r, a = rng.uniform(5, 250), rng.uniform(-math.pi, math.pi)
            x, y = r * math.cos(a), r * math.sin(a)
        else:
            x, y = rng.uniform(-6, 6), rng.uniform(-6, 6)
        theta = float(rng.choice([0.0, rng.uniform(-math.pi, math.pi)]))
        gts.append(Box3D(x, y, rng.uniform(-0.2, 0.2), l, w, h, theta, category=cat))
    preds = []
    for g in gts:
        if rng.uniform() < 0.15:
            continue
        cat = g.category if rng.uniform() < 0.8 else str(rng.choice(list(_CATEGORY_DIMS)))
        l, w, h = _CATEGORY_DIMS[cat]
        x, y, z = g.x, g.y, g.z
        style = rng.uniform()
        if style < 0.15:  # footprints share an edge
            x += math.cos(g.theta) * (g.l + l) / 2
            y += math.sin(g.theta) * (g.l + l) / 2
        elif style < 0.25:  # boxes share a horizontal face
            z += g.h
        else:
            x += rng.normal(0, 0.8)
            y += rng.normal(0, 0.8)
            z += rng.normal(0, 0.2)
        score = float(rng.choice([0.3, 0.5, 0.5, 0.9]))
        preds.append(Box3D(x, y, z, l, w, h, g.theta + rng.normal(0, 0.2),
                           category=cat, score=score))
    for _ in range(int(rng.integers(0, 4))):
        cat = str(rng.choice(list(_CATEGORY_DIMS)))
        l, w, h = _CATEGORY_DIMS[cat]
        span = 250 if sparse else 8
        preds.append(Box3D(rng.uniform(-span, span), rng.uniform(-span, span), 0.0, l, w, h,
                           rng.uniform(-math.pi, math.pi), category=cat,
                           score=float(rng.choice([0.3, 0.5, 0.9]))))
    order = rng.permutation(len(preds))
    return gts, [preds[i] for i in order]


class TestMatchPinnedToReference:
    @pytest.mark.parametrize("kind", ["bev", "3d"])
    @pytest.mark.parametrize("sparse", [True, False], ids=["sparse", "dense"])
    def test_identical_to_reference_loop(self, kind, sparse):
        measure = bev_iou if kind == "bev" else iou3d
        rng = np.random.default_rng([7, kind == "3d", sparse])
        for _ in range(60):
            gts, preds = _random_frame(rng, sparse)
            for threshold in (0.0, 0.1, 0.5):
                got = match(gts, preds, overlap_matrix(gts, preds, kind), threshold)
                want = _reference_match(gts, preds, threshold, measure)
                assert (got.pairs, *unmatched(got)) == want


class TestOverlapMatrix:
    @pytest.mark.parametrize("kind", ["bev", "3d"])
    @pytest.mark.parametrize("sparse", [True, False], ids=["sparse", "dense"])
    def test_zero_entries_have_zero_scalar_iou(self, kind, sparse):
        measure = bev_iou if kind == "bev" else iou3d
        rng = np.random.default_rng([8, kind == "3d", sparse])
        for _ in range(60):
            gts, preds = _random_frame(rng, sparse)
            m = overlap_matrix(gts, preds, kind)
            assert m.shape == (len(gts), len(preds))
            for gi, pi in itertools.product(range(len(gts)), range(len(preds))):
                assert m[gi, pi] == measure(gts[gi], preds[pi])

    def test_touching_footprints_survive_the_prefilter(self, monkeypatch):
        # Corner to corner along the diagonal: the centre distance equals
        # the sum of the half diagonals exactly.  The scalar IoU is looked
        # up as a module global, so a replacement sees every scored pair.
        scored = []

        def recording_bev_iou(a, b):
            scored.append(b.x)
            return bev_iou(a, b)

        monkeypatch.setattr(evaluation, "bev_iou", recording_bev_iou)
        a = box(l=4, w=2)
        touching = box(x=4.0, y=2.0, l=4, w=2, score=0.5)
        apart = box(x=4.0 + 1e-6, y=2.0 + 1e-6, l=4, w=2, score=0.5)
        m = overlap_matrix([a], [touching, apart], "bev")
        assert scored == [4.0]
        assert m[0, 0] == bev_iou(a, touching) and m[0, 1] == 0.0

    @pytest.mark.parametrize("kind", ["bev", "3d", "pixel"])
    def test_empty_sides(self, kind):
        boxes = [box(), box(x=1.0)]
        preds = [box(score=0.5)]
        if kind == "pixel":
            assert box2d_overlap_matrix([], [(0, 0, 1, 1)]).shape == (0, 1)
            assert box2d_overlap_matrix([(0, 0, 1, 1)] * 2, []).shape == (2, 0)
        else:
            assert overlap_matrix([], preds, kind).shape == (0, 1)
            assert overlap_matrix(boxes, [], kind).shape == (2, 0)
        empty_gt = match([], preds, np.zeros((0, 1)), 0.5)
        assert empty_gt.pairs == () and unmatched(empty_gt) == ((), (0,))
        empty_pred = match(boxes, [], np.zeros((2, 0)), 0.5)
        assert empty_pred.pairs == () and unmatched(empty_pred) == ((0, 1), ())

    def test_pixel_kind_is_the_box2d_matrix(self):
        rng = np.random.default_rng(9)
        gt2d = []
        for _ in range(5):
            x1, y1 = rng.uniform(0, 100, 2)
            gt2d.append((x1, y1, x1 + rng.uniform(5, 40), y1 + rng.uniform(5, 40)))
        pred2d = [(x1 + rng.normal(0, 5), y1 + rng.normal(0, 5), x2, y2)
                  for x1, y1, x2, y2 in gt2d[:4]]
        # Reference: one scalar box2d_iou per pair, filled in a loop.
        want = np.zeros((len(gt2d), len(pred2d)))
        for gi, pi in itertools.product(range(len(gt2d)), range(len(pred2d))):
            want[gi, pi] = box2d_iou(gt2d[gi], pred2d[pi])
        m = box2d_overlap_matrix(gt2d, pred2d)
        assert m.dtype == want.dtype and np.array_equal(m, want)

    def test_pixel_kind_stats_take_the_box2d_matrix(self):
        rng = np.random.default_rng(10)
        gt2d = []
        for _ in range(6):
            x1, y1 = rng.uniform(0, 100, 2)
            gt2d.append((x1, y1, x1 + rng.uniform(5, 40), y1 + rng.uniform(5, 40)))
        pred2d = [(x1 + rng.normal(0, 4), y1 + rng.normal(0, 4), x2, y2)
                  for x1, y1, x2, y2 in gt2d[:5]]
        gts = [box(x=100.0 * i) for i in range(6)]
        preds = [box(score=round(rng.uniform(0.1, 0.99), 3)) for _ in range(5)]
        got = frame_detection_stats(match(gts, preds, box2d_overlap_matrix(gt2d, pred2d), 0.7))
        assert 0 < got.is_tp.sum() < len(preds)
        assert np.array_equal(got.scores, [p.score for p in preds])
        assert got.n_gt == 6

    def test_pixel_kind_requires_aligned_boxes(self):
        # One ground truth but no ground-truth rectangle: the matrix has
        # the wrong shape for the frame.
        with pytest.raises(ValueError, match="shape"):
            match([box()], [box(score=0.5)], box2d_overlap_matrix([], [(0, 0, 1, 1)]), 0.5)

    def test_match_rejects_misshapen_overlaps(self):
        with pytest.raises(ValueError, match="shape"):
            match([box()], [box(score=0.5)], np.zeros((2, 1)), 0.5)

    @pytest.mark.parametrize("kind", ["bev", "3d"])
    def test_class_slice_equals_direct_stats(self, kind):
        rng = np.random.default_rng([10, kind == "3d"])
        for _ in range(40):
            gts, preds = _random_frame(rng, sparse=False)
            m = overlap_matrix(gts, preds, kind)
            for cls in _CATEGORY_DIMS:
                rows = [i for i, b in enumerate(gts) if b.category == cls]
                cols = [i for i, b in enumerate(preds) if b.category == cls]
                class_gts, class_preds = [gts[i] for i in rows], [preds[i] for i in cols]
                got = frame_detection_stats(match(class_gts, class_preds, m[rows][:, cols], 0.3))
                want = frame_detection_stats(
                    match(class_gts, class_preds, overlap_matrix(class_gts, class_preds, kind), 0.3)
                )
                assert np.array_equal(got.scores, want.scores)
                assert np.array_equal(got.is_tp, want.is_tp)
                assert got.n_gt == want.n_gt


class TestAveragePrecision:
    def test_perfect(self):
        gts = [[box(x=10 * i, l=4, w=2) for i in range(4)]]
        preds = [[box(x=10 * i, l=4, w=2, score=0.9) for i in range(4)]]
        assert average_precision_r40(gts, preds, 0.5).ap == 100.0

    def test_empty_predictions(self):
        gts = [[box(), box(x=5)]]
        assert average_precision_r40(gts, [[]], 0.5).ap == 0.0

    def test_zero_gt_flagged(self):
        curve = average_precision_r40([[]], [[box(score=0.9)]], 0.5)
        assert curve.ap == 0.0

    def test_hand_unrolled_two_gt_case(self):
        # One TP at score 0.9, one FP at 0.8, two GT: precision 1.0 holds for
        # the 20 recall points up to 0.5 and is 0 beyond -> AP = 50.0.
        gts = [[box(l=4, w=2), box(x=50, l=4, w=2)]]
        preds = [[box(l=4, w=2, score=0.9), box(x=200.0, l=4, w=2, score=0.8)]]
        curve = average_precision_r40(gts, preds, 0.5)
        assert curve.ap == pytest.approx(50.0)
        np.testing.assert_allclose(curve.precisions[:20], 1.0)
        np.testing.assert_allclose(curve.precisions[20:], 0.0)

    def test_adding_high_score_tp_never_decreases(self):
        gts = [[box(x=10 * i, l=4, w=2) for i in range(3)]]
        preds_base = [[box(x=0, l=4, w=2, score=0.8), box(x=200, l=4, w=2, score=0.7)]]
        base = average_precision_r40(gts, preds_base, 0.5).ap
        preds_more = [preds_base[0] + [box(x=10, l=4, w=2, score=0.95)]]
        assert average_precision_r40(gts, preds_more, 0.5).ap >= base

    def test_adding_low_score_fp_never_increases(self):
        gts = [[box(x=10 * i, l=4, w=2) for i in range(3)]]
        preds_base = [[box(x=10 * i, l=4, w=2, score=0.8) for i in range(3)]]
        base = average_precision_r40(gts, preds_base, 0.5).ap
        preds_more = [preds_base[0] + [box(x=500, l=4, w=2, score=0.01)]]
        assert average_precision_r40(gts, preds_more, 0.5).ap <= base

    def test_merge_equals_single_pass(self):
        rng = np.random.default_rng(3)
        gts, preds = [], []
        for _ in range(6):
            gts.append([box(x=rng.uniform(-20, 20), l=4, w=2) for _ in range(3)])
            preds.append(
                [box(x=rng.uniform(-20, 20), l=4, w=2, score=rng.uniform(0.1, 1)) for _ in range(3)]
            )
        whole = average_precision_r40(gts, preds, 0.1).ap
        stats = [frame_detection_stats(bev_match(g, p, 0.1)) for g, p in zip(gts, preds)]
        assert pr_curve_from_stats(stats).ap == whole


class TestDistanceError:
    def test_simple_arithmetic(self):
        # Long boxes so the 10 m offset still clears the match threshold.
        gts = [box(x=100.0, l=30, w=2)]
        preds = [box(x=110.0, l=30, w=2, score=0.9)]
        table = distance_error([bev_match(gts, preds, 0.1)])
        assert [b.count for b in table.bins] == [0, 0, 1, 0]
        assert table.bins[2].mean_error_pct == pytest.approx(10.0)

    def test_exact_predictions_zero_error(self):
        gts = [box(x=40.0, l=4, w=2), box(x=120.0, l=4, w=2)]
        preds = [box(x=40.0, l=4, w=2, score=0.9), box(x=120.0, l=4, w=2, score=0.8)]
        table = distance_error([bev_match(gts, preds, 0.5)])
        populated = [b for b in table.bins if b.count]
        assert len(populated) == 2
        assert all(b.mean_error_pct == pytest.approx(0.0) for b in populated)

    def test_empty_bin_marker(self):
        gts = [box(x=40.0, l=4, w=2)]
        preds = [box(x=40.0, l=4, w=2, score=0.9)]
        table = distance_error([bev_match(gts, preds, 0.5)])
        assert table.bins[-1].mean_error_pct is None
        assert table.bins[-1].count == 0

    def test_ground_truth_at_camera_foot_is_skipped(self):
        # d_g = 0 leaves the relative error undefined: that pair is
        # counted in ``skipped`` and in no bin; the other pair is binned.
        gts = [box(l=4, w=2), box(x=60.0, l=4, w=2)]
        preds = [box(x=0.5, l=4, w=2, score=0.9), box(x=63.0, l=4, w=2, score=0.8)]
        result = bev_match(gts, preds, 0.1)
        assert len(result.pairs) == 2
        table = distance_error([result])
        assert table.skipped == 1
        assert [b.count for b in table.bins] == [0, 1, 0, 0]
        assert table.bins[1].mean_error_pct == pytest.approx(5.0)

    def test_matches_flat_recomputation(self):
        rng = np.random.default_rng(4)
        results = []
        for _ in range(5):
            gts, preds = [], []
            for _ in range(6):
                d = rng.uniform(5, 260)
                angle = rng.uniform(-math.pi, math.pi)
                gt = box(x=d * math.cos(angle), y=d * math.sin(angle), l=4, w=2)
                noise = rng.normal(0, 1.0, 2)
                preds.append(
                    box(x=gt.x + noise[0], y=gt.y + noise[1], l=4, w=2, score=rng.uniform(0.5, 1))
                )
                gts.append(gt)
            results.append(bev_match(gts, preds, 0.01))
        table = distance_error(results)
        # Flat oracle: recompute every pair error and bin by hand.
        bins = {(lo, hi): [] for lo, hi in ((0, 50), (50, 100), (100, 150), (150, 200))}
        for res in results:
            for pair in res.pairs:
                gt, pred = res.gts[pair.gt_index], res.preds[pair.pred_index]
                d_g = math.hypot(gt.x, gt.y)
                d_p = math.hypot(pred.x, pred.y)
                for lo, hi in bins:
                    if lo <= d_g < hi:
                        bins[(lo, hi)].append(abs(d_p - d_g) / d_g * 100.0)
        for entry in table.bins:
            samples = bins[(entry.lo, entry.hi)]
            if samples:
                assert entry.mean_error_pct == pytest.approx(np.mean(samples))
                assert entry.count == len(samples)
            else:
                assert entry.mean_error_pct is None
        # A pair whose ground truth stands at 200 m or more joins no bin
        # and is not counted as skipped either.
        near = [
            pair for res in results for pair in res.pairs
            if math.hypot(res.gts[pair.gt_index].x, res.gts[pair.gt_index].y) < 200.0
        ]
        n_pairs = sum(len(res.pairs) for res in results)
        assert sum(b.count for b in table.bins) == len(near) < n_pairs
        assert table.skipped == 0


class TestDetectionRatio:
    def test_perfect_predictions(self):
        gts = [[box(x=10 * i, l=4, w=2) for i in range(3)]]
        preds = [[box(x=10 * i, l=4, w=2, score=0.9) for i in range(3)]]
        assert detection_ratio_curve(gts, preds, [0.5, 1.0, 5.0]) == [1.0, 1.0, 1.0]

    def test_no_predictions(self):
        gts = [[box(), box(x=5)]]
        assert detection_ratio_curve(gts, [[]], [0.5, 1.0]) == [0.0, 0.0]

    def test_hand_counted_thresholds(self):
        gts = [[box(x=0), box(x=10), box(x=20)]]
        preds = [[
            box(x=0.2, score=0.9),
            box(x=10.7, score=0.9),
            box(x=23.0, score=0.9),
        ]]
        ratios = detection_ratio_curve(gts, preds, [0.5, 1.0, 5.0])
        assert ratios == pytest.approx([1 / 3, 2 / 3, 1.0])

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(5)
        gts = [[box(x=rng.uniform(-50, 50), y=rng.uniform(-50, 50)) for _ in range(10)]]
        preds = [[
            box(x=rng.uniform(-50, 50), y=rng.uniform(-50, 50), score=0.5) for _ in range(8)
        ]]
        thresholds = [0.1, 0.5, 1, 2, 5, 10, 50]
        ratios = detection_ratio_curve(gts, preds, thresholds)
        assert all(a <= b for a, b in zip(ratios, ratios[1:]))

    def test_matches_scalar_loop(self):
        # Frames with no GT or no predictions mixed in; the scalar loop
        # is the per-GT definition the vectorised version replaced.
        rng = np.random.default_rng(11)
        gts, preds = [], []
        for _ in range(30):
            gts.append([box(x=rng.uniform(-50, 50), y=rng.uniform(-50, 50))
                        for _ in range(int(rng.integers(0, 6)))])
            preds.append([box(x=rng.uniform(-50, 50), y=rng.uniform(-50, 50), score=0.5)
                          for _ in range(int(rng.integers(0, 6)))])
        nearest = [
            min((math.hypot(g.x - p.x, g.y - p.y) for p in frame_preds), default=math.inf)
            for frame_gts, frame_preds in zip(gts, preds)
            for g in frame_gts
        ]
        thresholds = [0.5, 1, 2, 5, 10, 20]
        want = [float(np.mean(np.array(nearest) <= t)) for t in thresholds]
        assert detection_ratio_curve(gts, preds, thresholds) == want


class TestStructuralInvariants:
    def test_no_gt_assigned_twice(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            gts = [box(x=rng.uniform(-3, 3), l=4, w=2) for _ in range(4)]
            preds = [
                box(x=rng.uniform(-3, 3), l=4, w=2, score=rng.uniform(0, 1)) for _ in range(6)
            ]
            overlaps = overlap_matrix(gts, preds, "bev")
            result = match(gts, preds, overlaps, 0.05)
            gt_idx = [p.gt_index for p in result.pairs]
            pred_idx = [p.pred_index for p in result.pairs]
            assert len(gt_idx) == len(set(gt_idx))
            assert len(pred_idx) == len(set(pred_idx))
            assert all(overlaps[p.gt_index, p.pred_index] >= 0.05 for p in result.pairs)


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: PRCurve(np.zeros(39), 0.0), "curves must have 40 samples"),
        (lambda: PRCurve(np.full(40, 1.5), 0.0), r"precision must lie in \[0, 1\]"),
        (lambda: PRCurve(np.full(40, math.nan), 0.0), r"precision must lie in \[0, 1\]"),
        (lambda: PRCurve(np.zeros(40), 100.5), r"AP must lie in \[0, 100\]"),
        (lambda: average_precision_r40([[]], [], 0.5), "frame lists must have equal length"),
        (lambda: detection_ratio_curve([], [[]], [1.0]), "frame lists must have equal length"),
        (lambda: FrameStats([0.9], [True, True, True], 2), "got 1 and 3"),
        (lambda: FrameStats([0.9, 0.8, 0.7], [True], 2), "got 3 and 1"),
        (lambda: FrameStats([0.9, 0.8], [True, True], 1), "n_gt must be an integer >= the 2"),
        (lambda: FrameStats([0.9, 0.8], [True, False], 1.5), "n_gt must be an integer"),
        (lambda: FrameStats([], [], -1), "n_gt must be an integer >= the 0"),
        (lambda: FrameStats([0.9], [True], True), "n_gt must be an integer"),
    ],
    ids=["sample-count", "precision-above-one", "nan-precision", "ap-above-100",
         "ap-unequal-frames", "ratio-unequal-frames", "stats-short-scores", "stats-short-tp",
         "stats-fewer-gt-than-tp", "stats-fractional-gt", "stats-negative-gt", "stats-bool-gt"],
)
def test_rejects_bad_values(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_detection_ratio_without_ground_truth_is_zero():
    preds = [box(score=0.9)]
    assert detection_ratio_curve([[], []], [preds, []], [1.0, 5.0]) == [0.0, 0.0]
