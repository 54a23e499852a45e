"""Acceptance suite: quantitative exit criteria for the whole package.

Each test prints one `[criterion N] PASS/FAIL` line with the measured
numbers (run pytest with -s to see them on success) and then asserts.
All tolerances are fixed here, not tuned at runtime.
"""

import math
import time

import numpy as np

from roadlift.camera_geometry import (
    Box3D,
    GeometryError,
    ground_plane_from_extrinsics,
    height_sensitivity,
    lift_to_ground,
    project_to_image,
    rig_from_pose,
)
from roadlift.evaluation import (
    average_precision_r40,
    bev_iou,
    detection_ratio_curve,
    distance_error,
    footprint_polygon,
    match,
    overlap_matrix,
)
from roadlift.loss_functions import (
    Box3DParams,
    gradient_descent_fit,
    loss_gradient,
    loss_of_vector,
    random_smooth_case,
)
from roadlift.scene_cue_bank import CueMask, FeatureGrid, SceneBank, bank_memory_elements
from roadlift.scene_scheduler import SceneScheduler, SchedulerConfig
from roadlift.synthetic_world import (
    GroundField,
    NoiseModel,
    SceneConfig,
    SyntheticScene,
    generate_scene,
    render_cue_grid,
    resample_objects,
    simulate_predictions,
)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_height_sensitivity_claim():
    start = time.perf_counter()
    formula = height_sensitivity(7.0, 0.0, 200.0, 0.5)
    in_band = 13.5 <= formula <= 15.5

    rig = rig_from_pose(7.0, 10.0, f_x=1400.0, f_y=1400.0)
    u, v = project_to_image(rig, (200.0, 0.0, 0.0))
    p0 = lift_to_ground(rig, u, v, 0.0)
    p1 = lift_to_ground(rig, u, v, 0.5)
    foot = rig.camera_center_ground()[:2]
    r0 = math.hypot(p0[0] - foot[0], p0[1] - foot[1])
    numeric = math.hypot(p1[0] - p0[0], p1[1] - p0[1])
    predicted = height_sensitivity(7.0, 0.0, r0, 0.5)
    agreement = abs(numeric - predicted) / predicted
    elapsed = time.perf_counter() - start
    report(
        1,
        in_band and agreement < 0.02 and elapsed < 1.0,
        f"formula {formula:.2f} m in [13.5, 15.5]; lift replication off by "
        f"{agreement * 100:.4f}% (<2%); {elapsed:.2f}s",
    )


def test_criterion_2_bank_memory_claim():
    start = time.perf_counter()
    elements = bank_memory_elements(1024, 1536, 256)
    elapsed = time.perf_counter() - start
    report(
        2,
        elements == 6_291_456 and elapsed < 1e-3,
        f"(1024/8)*(1536/8)*256 = {elements} (= 6.3M); {elapsed * 1000:.3f}ms",
    )


def test_criterion_3_lifting_round_trip():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    samples = 0
    while samples < 10_000:
        rig = rig_from_pose(
            camera_height=rng.uniform(4.0, 12.0),
            pitch_deg=rng.uniform(5.0, 60.0),
            yaw_deg=rng.uniform(-180.0, 180.0),
            roll_deg=rng.uniform(-3.0, 3.0),
            f_x=(f := rng.uniform(900.0, 2200.0)),
            f_y=f,
        )
        plane = ground_plane_from_extrinsics(rig)
        taken = 0
        for _ in range(1000):
            if taken >= 100 or samples >= 10_000:
                break
            u = rng.uniform(0.0, rig.image_width)
            v = rng.uniform(0.0, rig.image_height)
            h_r = rng.uniform(0.0, plane.camera_height - 1.0)
            try:
                point = lift_to_ground(rig, u, v, h_r)
                u2, v2 = project_to_image(rig, point)
                recovered = lift_to_ground(rig, u2, v2, h_r)
            except GeometryError:
                continue
            worst = max(worst, float(np.abs(recovered - point).max()))
            taken += 1
            samples += 1
    elapsed = time.perf_counter() - start
    report(
        3,
        worst < 1e-6 and elapsed < 10.0,
        f"{samples} project->lift round trips, max error {worst:.2e} m (<1e-6); {elapsed:.1f}s",
    )


def test_criterion_4_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    step = 1e-5
    worst = 0.0
    for _ in range(1000):
        pred, gt, pred_hr = random_smooth_case(rng)
        analytic = loss_gradient(pred, gt, pred_hr=pred_hr)
        vec = np.array(
            [*pred.location, *pred.dims, pred.yaw_sin, pred.yaw_cos, pred_hr], dtype=float
        )
        numeric = np.zeros(9)
        for i in range(9):  # central differences, written out independently
            hi, lo = vec.copy(), vec.copy()
            hi[i] += step
            lo[i] -= step
            numeric[i] = (loss_of_vector(hi, gt) - loss_of_vector(lo, gt)) / (2 * step)
        rel = np.abs(analytic - numeric) / np.maximum(
            np.maximum(np.abs(analytic), np.abs(numeric)), 1.0
        )
        worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - start
    report(
        4,
        worst < 1e-4 and elapsed < 30.0,
        f"1000 smooth configs, max gradient rel. error {worst:.2e} (<1e-4); {elapsed:.1f}s",
    )


def test_criterion_5_loss_descent():
    start = time.perf_counter()
    gt = Box3D(1.0, 2.0, 0.3, 4.0, 2.0, 1.5, 0.4)

    init_loc = Box3DParams.from_box(Box3D(1.5, 2.0, 0.3, 4.0, 2.0, 1.5, 0.4))
    fit_loc = gradient_descent_fit(init_loc, gt, lr=1e-3)
    loc_err = float(np.abs(fit_loc.location - np.array([1.0, 2.0, 0.3])).max())

    init_yaw = Box3DParams(
        np.array([1.0, 2.0, 0.3]), np.array([4.0, 2.0, 1.5]), math.sin(0.7), math.cos(0.7)
    )
    fit_yaw = gradient_descent_fit(init_yaw, gt, lr=2e-4)
    yaw_err = abs(fit_yaw.theta - 0.4)
    elapsed = time.perf_counter() - start
    report(
        5,
        loc_err < 0.01 and yaw_err < 0.01 and elapsed < 5.0,
        f"0.5 m offset -> {loc_err:.4f} m; 0.3 rad offset -> {yaw_err:.4f} rad "
        f"(both <0.01 in <=500 steps); {elapsed:.1f}s",
    )


def test_criterion_6_bank_semantics():
    start = time.perf_counter()
    rng = np.random.default_rng(11)

    # Running average is invariant to the order of observations.
    observations = [
        (
            FeatureGrid(rng.standard_normal((6, 7, 3))),
            CueMask((rng.random((6, 7)) < 0.6).astype(np.uint8)),
        )
        for _ in range(15)
    ]
    reference = None
    max_dev = 0.0
    for shuffle_seed in range(100):
        order = np.random.default_rng(shuffle_seed).permutation(len(observations))
        bank = SceneBank()
        for idx in order:
            bank.update_running_average("s", *observations[idx])
        mem = bank.memorized("s").values
        if reference is None:
            reference = mem
        else:
            max_dev = max(max_dev, float(np.abs(mem - reference).max()))
    perm_ok = max_dev < 1e-9

    # Momentum updates stay on the segment between old and new per cell.
    convex_ok = True
    for _ in range(50):
        old = FeatureGrid(rng.standard_normal((5, 4, 2)))
        new = FeatureGrid(rng.standard_normal((5, 4, 2)))
        lam = rng.uniform(0.0, 1.0)
        bank = SceneBank()
        bank.reset_scene("s", old)
        bank.update_momentum("s", new, momentum=lam)
        mem = bank.memorized("s").values
        lo = np.minimum(old.values, new.values) - 1e-12
        hi = np.maximum(old.values, new.values) + 1e-12
        convex_ok &= bool(np.all(mem >= lo) and np.all(mem <= hi))

    # Schedule: floor(n/tau) resets, bitwise-identical params inside windows.
    tau, n = 7, 100
    sched = SceneScheduler(SchedulerConfig(tau=tau, seed=5))
    resets = 0
    window: list = []
    windows_ok = True
    for _ in range(n):
        params, did_reset = sched.step("scene")
        if did_reset:
            resets += 1
            window = []
        window.append(params)
        windows_ok &= all(p == window[0] for p in window)
    schedule_ok = resets == n // tau and windows_ok
    elapsed = time.perf_counter() - start
    report(
        6,
        perm_ok and convex_ok and schedule_ok and elapsed < 10.0,
        f"permutation dev {max_dev:.1e} (<1e-9); convexity {convex_ok}; "
        f"{resets} resets == floor({n}/{tau}); windows stable {windows_ok}; {elapsed:.1f}s",
    )


def _monte_carlo_bev_iou(a: Box3D, b: Box3D, n: int, seed: int) -> float:
    pa = np.array(footprint_polygon(a))
    pb = np.array(footprint_polygon(b))
    lo = np.minimum(pa.min(axis=0), pb.min(axis=0))
    hi = np.maximum(pa.max(axis=0), pb.max(axis=0))
    rng = np.random.default_rng(seed)
    hits = 0
    done = 0
    while done < n:
        chunk = min(2_000_000, n - done)
        pts = rng.uniform(lo, hi, size=(chunk, 2))
        inside = np.ones(chunk, dtype=bool)
        for box_ in (a, b):
            c, s = math.cos(box_.theta), math.sin(box_.theta)
            dx = pts[:, 0] - box_.x
            dy = pts[:, 1] - box_.y
            inside &= np.abs(c * dx + s * dy) <= box_.l / 2
            inside &= np.abs(-s * dx + c * dy) <= box_.w / 2
        hits += int(inside.sum())
        done += chunk
    bbox_area = float(np.prod(hi - lo))
    inter = bbox_area * hits / n
    union = a.l * a.w + b.l * b.w - inter
    return inter / union


def _brute_force_match(gts, preds, threshold):
    import itertools

    order = sorted(range(len(preds)), key=lambda i: (-preds[i].score, i))
    best_key, best_assign = None, None
    for combo in itertools.product(*([list(range(len(gts))) + [None]] * len(preds))):
        chosen = [c for c in combo if c is not None]
        if len(chosen) != len(set(chosen)):
            continue
        key, ok = [], True
        for pi, gi in zip(order, combo):
            if gi is None:
                key.append((-1.0, 0))
                continue
            iou = bev_iou(gts[gi], preds[pi])
            if iou < threshold:
                ok = False
                break
            key.append((iou, -gi))
        if ok and (best_key is None or tuple(key) > best_key):
            best_key, best_assign = tuple(key), dict(zip(order, combo))
    return {pi: gi for pi, gi in best_assign.items() if gi is not None}


def test_criterion_7_metric_oracle_equivalence():
    start = time.perf_counter()
    # Rotated IoU against a 10^7-sample Monte Carlo area estimate.
    a = Box3D(0, 0, 0, 1, 1, 1, 0)
    b = Box3D(0, 0, 0, 1, 1, 1, math.pi / 4)
    mc = _monte_carlo_bev_iou(a, b, 10_000_000, seed=99)
    mc_err = abs(bev_iou(a, b) - mc)
    mc_ok = mc_err < 1e-3

    # Axis-aligned footprints against the closed form.
    rng = np.random.default_rng(13)
    aa_err = 0.0
    for _ in range(200):
        p = Box3D(rng.uniform(-4, 4), rng.uniform(-4, 4), 0, rng.uniform(1, 6), rng.uniform(1, 4), 1, 0)
        q = Box3D(rng.uniform(-4, 4), rng.uniform(-4, 4), 0, rng.uniform(1, 6), rng.uniform(1, 4), 1, 0)
        ix = max(0.0, min(p.x + p.l / 2, q.x + q.l / 2) - max(p.x - p.l / 2, q.x - q.l / 2))
        iy = max(0.0, min(p.y + p.w / 2, q.y + q.w / 2) - max(p.y - p.w / 2, q.y - q.w / 2))
        inter = ix * iy
        closed = inter / (p.l * p.w + q.l * q.w - inter)
        aa_err = max(aa_err, abs(bev_iou(p, q) - closed))
    aa_ok = aa_err < 1e-12

    # Hand-unrolled R40 values on tiny scenarios.
    gt_frame = [Box3D(0, 0, 0, 4, 2, 1.5, 0), Box3D(50, 0, 0, 4, 2, 1.5, 0)]
    pred_frame = [
        Box3D(0, 0, 0, 4, 2, 1.5, 0, score=0.9),
        Box3D(200, 0, 0, 4, 2, 1.5, 0, score=0.8),
    ]
    ap_half = average_precision_r40([gt_frame], [pred_frame], 0.5).ap
    ap_perfect = average_precision_r40(
        [gt_frame], [[Box3D(0, 0, 0, 4, 2, 1.5, 0, score=0.9),
                      Box3D(50, 0, 0, 4, 2, 1.5, 0, score=0.8)]], 0.5
    ).ap
    ap_empty = average_precision_r40([gt_frame], [[]], 0.5).ap
    ap_ok = ap_half == 50.0 and ap_perfect == 100.0 and ap_empty == 0.0

    # Greedy matching vs exhaustive assignment enumeration on <=5-box cases.
    match_ok = True
    for _ in range(300):
        n_gt, n_pred = int(rng.integers(0, 5)), int(rng.integers(0, 5))
        gts = [
            Box3D(rng.uniform(-4, 4), rng.uniform(-4, 4), 0, 4, 2, 1.5, rng.uniform(-0.4, 0.4))
            for _ in range(n_gt)
        ]
        preds = [
            Box3D(
                rng.uniform(-4, 4), rng.uniform(-4, 4), 0, 4, 2, 1.5,
                rng.uniform(-0.4, 0.4), score=round(float(rng.uniform(0.1, 0.99)), 3),
            )
            for _ in range(n_pred)
        ]
        got = {p.pred_index: p.gt_index for p in match(gts, preds, 0.1).pairs}
        match_ok &= got == _brute_force_match(gts, preds, 0.1)
    elapsed = time.perf_counter() - start
    report(
        7,
        mc_ok and aa_ok and ap_ok and match_ok and elapsed < 60.0,
        f"MC IoU err {mc_err:.1e} (<1e-3); axis-aligned err {aa_err:.1e} (<1e-12); "
        f"hand AP {{50: {ap_half}, 100: {ap_perfect}, 0: {ap_empty}}}; "
        f"greedy==brute-force {match_ok}; {elapsed:.1f}s",
    )


SWEEP_CONFIG = SceneConfig(
    n_objects=8,
    range_band=(15.0, 230.0),
    height_band=(6.0, 9.0),
    pitch_band_deg=(8.0, 20.0),
    focal_band=(1000.0, 1600.0),
    field_amplitude=1.0,
)


def test_criterion_8_end_to_end_pipeline():
    start = time.perf_counter()

    # Zero noise: exact reconstruction, perfect AP and detection ratio
    # over 100 scenes.
    zero_noise = NoiseModel()
    gts, preds = [], []
    worst_loc = 0.0
    for i in range(100):
        scene = generate_scene(SWEEP_CONFIG, 50_000 + i)
        record = simulate_predictions(scene, zero_noise, seed=0)
        for pred, gt in zip(record.pred_boxes, record.gt_boxes):
            worst_loc = max(worst_loc, float(np.abs(pred.bottom_center - gt.bottom_center).max()))
        gts.append(list(record.gt_boxes))
        preds.append(list(record.pred_boxes))
    ap_clean = average_precision_r40(gts, preds, 0.5, "3d").ap
    thresholds = (0.25, 0.5, 1.0, 2.0, 5.0)
    ratios = detection_ratio_curve(gts, preds, thresholds)
    clean_ok = ap_clean == 100.0 and all(r == 1.0 for r in ratios) and worst_loc < 1e-6

    # Height-noise sweep: AP non-increasing, long-range E grows >= 3x.
    sigmas = (0.0, 0.1, 0.25, 0.5)
    monotone_ok = True
    ratio_ok = True
    ap_rows = []
    e_rows = []
    for seed in range(3):
        scenes = [generate_scene(SWEEP_CONFIG, 1000 * seed + i) for i in range(125)]
        records = {
            sigma: [
                simulate_predictions(s, NoiseModel(sigma_hr=sigma), seed=seed) for s in scenes
            ]
            for sigma in sigmas
        }
        aps = [
            average_precision_r40(
                [r.gt_boxes for r in records[sigma]],
                [r.pred_boxes for r in records[sigma]],
                0.5,
                "3d",
            ).ap
            for sigma in sigmas
        ]
        ap_rows.append(aps)
        monotone_ok &= all(a >= b for a, b in zip(aps, aps[1:]))

        # Distance error, matched in the image plane as the error tables do.
        def far_bin_error(sigma):
            results = [
                match(
                    r.gt_boxes,
                    r.pred_boxes,
                    0.5,
                    "pixel",
                    overlaps=overlap_matrix(
                        r.gt_boxes,
                        r.pred_boxes,
                        "pixel",
                        r.gt_boxes_2d,
                        r.pred_boxes_2d,
                    ),
                )
                for r in records[sigma]
            ]
            table = distance_error(results)
            far = table.bins[-1]
            assert far.lo == 150.0 and far.hi == 200.0
            return far

        lo_bin, hi_bin = far_bin_error(0.1), far_bin_error(0.5)
        populated = lo_bin.count > 0 and hi_bin.count > 0
        growth = hi_bin.mean_error_pct / lo_bin.mean_error_pct if populated else 0.0
        e_rows.append((lo_bin.mean_error_pct, hi_bin.mean_error_pct, growth))
        ratio_ok &= populated and growth >= 3.0

    elapsed = time.perf_counter() - start
    report(
        8,
        clean_ok and monotone_ok and ratio_ok and elapsed < 120.0,
        f"clean AP3D {ap_clean} (=100), ratios {ratios}, max loc err {worst_loc:.1e} (<1e-6); "
        f"AP sweep per seed {ap_rows} non-increasing {monotone_ok}; "
        f"[150,200] m E growth x{[f'{g:.1f}' for *_, g in e_rows]} (>=3); {elapsed:.1f}s",
    )


def test_criterion_9_scene_cue_frame_invariance():
    start = time.perf_counter()
    cfg = SWEEP_CONFIG
    scene = generate_scene(cfg, 77)
    frame_a = render_cue_grid(scene, 4)
    frame_b = render_cue_grid(resample_objects(scene, cfg, 3), 4)
    invariant = np.array_equal(frame_a.values, frame_b.values)

    base = SyntheticScene(
        rig=scene.rig,
        field=GroundField.constant(0.2),
        objects=(),
        scene_id="a",
        seed=scene.seed,
    )
    other = SyntheticScene(
        rig=scene.rig,
        field=GroundField.constant(0.8),
        objects=(),
        scene_id="b",
        seed=scene.seed,
    )
    differs = not np.array_equal(
        render_cue_grid(base, 1).values[:, :, 0], render_cue_grid(other, 1).values[:, :, 0]
    )
    elapsed = time.perf_counter() - start
    report(
        9,
        invariant and differs and elapsed < 1.0,
        f"two frames bitwise identical: {invariant}; different fields differ: {differs}; "
        f"{elapsed:.2f}s",
    )
