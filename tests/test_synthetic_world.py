import math

import numpy as np
import pytest

from roadlift.camera_geometry import (
    CameraRig,
    RigidTransform,
    ground_plane_from_extrinsics,
    height_sensitivity,
    lift_to_ground,
    project_to_image,
    ray_ground,
    rig_from_pose,
)
from roadlift.formats import check_json
from roadlift.synthetic_world import (
    _SALT_CUE,
    Box3D,
    CueField,
    GroundField,
    NoiseModel,
    SceneConfig,
    SyntheticScene,
    box2d_of,
    generate_scene,
    render_cue_grid,
    resample_objects,
    simulate_predictions,
)
from roadlift.scene_cue_bank import STRIDE, FeatureGrid, cell_centers, grid_dims_for_image
from roadlift.scene_cue_bank import MAX_CHANNELS

CFG = SceneConfig(
    n_objects=6,
    range_band=(10.0, 200.0),
    height_band=(5.0, 10.0),
    pitch_band_deg=(8.0, 25.0),
)


def single_object_scene(r=200.0, field=None, h=7.0, pitch=10.0, f=1400.0):
    rig = rig_from_pose(h, pitch, f_x=f, f_y=f)
    plane = ground_plane_from_extrinsics(rig)
    field = field or GroundField.constant(0.0)
    box = Box3D(r, 0.0, field.evaluate(r, 0.0), 4.5, 1.8, 1.5, 0.2)
    return SyntheticScene(rig, plane, field, (box,), "single", seed=0)


class TestGroundField:
    def test_constant_field(self):
        field = GroundField.constant(0.3)
        assert field.evaluate(0, 0) == 0.3
        assert field.evaluate(123.4, -56.7) == 0.3

    def test_random_field_respects_bound(self):
        rng = np.random.default_rng(0)
        for amplitude in (0.5, 1.0, 2.0):
            field = GroundField.random(rng, amplitude=amplitude)
            xs = np.linspace(-300, 300, 31)
            grid = field.evaluate(*np.meshgrid(xs, xs))
            assert np.abs(grid).max() <= amplitude + 1e-9

    def test_out_of_bound_surface_rejected(self):
        coeffs = (5.0,) + (0.0,) * 9
        with pytest.raises(ValueError, match="bound"):
            GroundField(coeffs=coeffs)

    def test_nan_max_abs_rejected(self):
        with pytest.raises(ValueError, match="max_abs"):
            GroundField(coeffs=(0.5,) + (0.0,) * 9, max_abs=math.nan)

    @pytest.mark.parametrize("xy_scale", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_xy_scale_rejected(self, xy_scale):
        with pytest.raises(ValueError, match="xy_scale"):
            GroundField(coeffs=(0.5,) + (0.0,) * 9, xy_scale=xy_scale)

    def test_infinite_max_abs_means_unbounded(self):
        field = GroundField(coeffs=(5.0,) + (0.0,) * 9, max_abs=math.inf)
        assert field.evaluate(1.0, 2.0) == 5.0

    def test_evaluate_saturates_outside_roi(self):
        rng = np.random.default_rng(1)
        field = GroundField.random(rng, amplitude=2.0, roi=((-50, 50), (-50, 50)))
        assert abs(field.evaluate(5000.0, 5000.0)) <= 2.0

    def test_smooth_fields_vary(self):
        rng = np.random.default_rng(2)
        f1 = GroundField.random(rng, amplitude=1.0)
        f2 = GroundField.random(rng, amplitude=1.0)
        assert f1.evaluate(30.0, 40.0) != f2.evaluate(30.0, 40.0)

    @pytest.mark.parametrize("seed", [0, 1, 7, 123])
    @pytest.mark.parametrize(
        "amplitude,roi,n_bumps",
        [(1.0, ((-300.0, 300.0), (-300.0, 300.0)), 2), (0.3, ((-50.0, 80.0), (-20.0, 10.0)), 0),
         (2.0, ((-270.0, 270.0), (-270.0, 270.0)), 5)],
        ids=["default", "small-roi", "many-bumps"],
    )
    def test_random_equals_reference(self, seed, amplitude, roi, n_bumps):
        got = GroundField.random(np.random.default_rng(seed), amplitude, roi, n_bumps)
        want = _reference_ground_field_random(np.random.default_rng(seed), amplitude, roi, n_bumps)
        assert got == want

    @pytest.mark.parametrize("seed", [0, 3])
    def test_generate_scene_scans_roi_twice(self, seed, monkeypatch):
        calls = []
        scan = GroundField._roi_peak

        def counting(self):
            calls.append(self.max_abs)
            return scan(self)

        monkeypatch.setattr(GroundField, "_roi_peak", counting)
        generate_scene(CFG, seed)
        assert len(calls) == 2


class TestGenerateScene:
    def test_deterministic(self):
        a = generate_scene(CFG, 5)
        b = generate_scene(CFG, 5)
        assert a == b

    def test_different_seeds_differ(self):
        assert generate_scene(CFG, 5) != generate_scene(CFG, 6)

    def test_objects_in_image_and_range(self):
        scene = generate_scene(CFG, 9)
        foot = scene.rig.camera_center_ground()[:2]
        for box in scene.objects:
            u, v = project_to_image(scene.rig, box.bottom_center)
            assert 0 <= u < scene.rig.image_width and 0 <= v < scene.rig.image_height
            r = math.hypot(box.x - foot[0], box.y - foot[1])
            assert CFG.range_band[0] <= r <= CFG.range_band[1]

    def test_constant_field_sets_hr(self):
        scene = single_object_scene(field=GroundField.constant(0.3))
        assert all(b.z == pytest.approx(0.3) for b in scene.objects)

    def test_objects_sit_on_surface(self):
        scene = generate_scene(CFG, 11)
        for box in scene.objects:
            assert box.z == pytest.approx(scene.field.evaluate(box.x, box.y), abs=1e-12)

    def test_gt_round_trip_through_lifting(self):
        scene = generate_scene(CFG, 13)
        for box in scene.objects:
            u, v = project_to_image(scene.rig, box.bottom_center)
            recovered = lift_to_ground(scene.rig, scene.plane, u, v, box.z)
            assert np.abs(recovered - box.bottom_center).max() < 1e-6

    def test_infeasible_config_raises(self):
        # A range band far beyond what a steep camera can see.
        cfg = SceneConfig(
            n_objects=1,
            range_band=(240.0, 250.0),
            pitch_band_deg=(60.0, 60.0),
            height_band=(4.0, 4.0),
            max_attempts=50,
        )
        with pytest.raises(ValueError, match="infeasible"):
            generate_scene(cfg, 0)

    def test_resample_objects_keeps_scene(self):
        scene = generate_scene(CFG, 17)
        other = resample_objects(scene, CFG, 1)
        assert other.rig == scene.rig
        assert other.field == scene.field
        assert other.objects != scene.objects


class TestSimulatePredictions:
    def test_zero_noise_reproduces_gt(self):
        scene = generate_scene(CFG, 21)
        record = simulate_predictions(scene, NoiseModel(), seed=0)
        assert len(record.pred_boxes) == len(scene.objects)
        for pred, gt in zip(record.pred_boxes, record.gt_boxes):
            assert np.abs(pred.bottom_center - gt.bottom_center).max() < 1e-6
            assert pred.score == 1.0
            assert (pred.l, pred.w, pred.h, pred.theta) == (gt.l, gt.w, gt.h, gt.theta)

    def test_drop_rate_one_empties_predictions(self):
        scene = generate_scene(CFG, 23)
        record = simulate_predictions(scene, NoiseModel(drop_rate=1.0), seed=0)
        assert record.pred_boxes == ()
        assert record.n_dropped == len(scene.objects)

    def test_deterministic_given_seed(self):
        scene = generate_scene(CFG, 25)
        noise = NoiseModel(sigma_hr=0.3, sigma_center_px=2.0, drop_rate=0.2)
        assert simulate_predictions(scene, noise, 7) == simulate_predictions(scene, noise, 7)

    def test_height_noise_matches_sensitivity_model(self):
        # Mean horizontal error over many draws ~ sensitivity * E|N(0,1)|.
        scene = single_object_scene(r=200.0)
        sigma = 0.5
        noise = NoiseModel(sigma_hr=sigma)
        errors = []
        for seed in range(1000):
            record = simulate_predictions(scene, noise, seed)
            pred, gt = record.pred_boxes[0], record.gt_boxes[0]
            errors.append(math.hypot(pred.x - gt.x, pred.y - gt.y))
        expected = height_sensitivity(7.0, 0.0, 200.0, sigma) * math.sqrt(2.0 / math.pi)
        assert np.mean(errors) == pytest.approx(expected, rel=0.2)

    def test_false_positives_added(self):
        scene = generate_scene(CFG, 27)
        record = simulate_predictions(scene, NoiseModel(false_positive_rate=1.0), seed=3)
        assert len(record.pred_boxes) > len(scene.objects)
        assert len(record.detections_2d) == len(record.pred_boxes)

    def test_scores_decrease_with_perturbation(self):
        scene = single_object_scene()
        quiet = simulate_predictions(scene, NoiseModel(sigma_hr=0.05), seed=5)
        loud = simulate_predictions(scene, NoiseModel(sigma_hr=0.8), seed=5)
        assert loud.pred_boxes[0].score < quiet.pred_boxes[0].score

    def test_gt_2d_boxes_cover_bottom_centers(self):
        scene = generate_scene(CFG, 29)
        record = simulate_predictions(scene, NoiseModel(), seed=0)
        for (x1, y1, x2, y2), (u, v) in zip(record.gt_boxes_2d, record.gt_bottom_centers):
            assert x1 <= u <= x2 and y1 <= v <= y2


def _reference_render_channel0(scene):
    """Channel 0 of render_cue_grid as its inline vectorised lift computed
    it before the shared ray-ground kernel; kept verbatim as the oracle."""
    rig, plane = scene.rig, scene.plane
    h_cells, w_cells = grid_dims_for_image(rig.image_height, rig.image_width)
    u = (np.arange(w_cells) + 0.5) * STRIDE
    v = (np.arange(h_cells) + 0.5) * STRIDE
    uu, vv = np.meshgrid(u, v)
    rays = np.stack(
        [(uu - rig.a_x) / rig.f_x, (vv - rig.a_y) / rig.f_y, np.ones_like(uu)], axis=-1
    )
    p_v = rays @ plane.cam_to_virtual.T
    y_v = p_v[..., 1]
    valid = y_v > 1e-9
    scale = np.where(valid, plane.camera_height / np.where(valid, y_v, 1.0), 0.0)
    v2g = plane.virtual_to_ground
    ground = (scale[..., None] * p_v) @ v2g.rotation.T + v2g.translation
    return np.where(valid, scene.field.evaluate(ground[..., 0], ground[..., 1]), 0.0)


def _reference_ground_field_random(rng, amplitude=1.0, roi=((-300.0, 300.0), (-300.0, 300.0)),
                                   n_bumps=2):
    """GroundField.random as it was while its probe scanned the ROI in
    its own constructor; kept verbatim as the oracle."""
    if not 0 < amplitude <= 2.0:
        raise ValueError("amplitude must lie in (0, 2]")
    scale = max(abs(v) for band in roi for v in band)
    coeffs = rng.standard_normal(10)
    bumps = [
        (
            rng.standard_normal(),
            rng.uniform(*roi[0]),
            rng.uniform(*roi[1]),
            rng.uniform(scale / 10.0, scale / 2.0),
        )
        for _ in range(n_bumps)
    ]
    # Probe with an effectively unbounded max_abs, then rescale to fit.
    probe = GroundField(coeffs=tuple(coeffs), xy_scale=scale, bumps=tuple(bumps), roi=roi,
                        max_abs=1e9)
    peak = probe._roi_peak()
    factor = amplitude / peak if peak > 0 else 0.0
    return GroundField(
        coeffs=tuple(factor * c for c in coeffs),
        xy_scale=scale,
        bumps=tuple((factor * a, cx, cy, s) for a, cx, cy, s in bumps),
        roi=roi,
    )


def _reference_render_cue_grid(scene, channels):
    """render_cue_grid as it was while each cos channel multiplied two
    full meshgrids; kept verbatim as the oracle."""
    if channels < 1:
        raise ValueError("at least one channel is required")
    rig = scene.rig
    _, ground = ray_ground(rig, scene.plane, *cell_centers(rig.image_height, rig.image_width))
    h_cells, w_cells = ground.shape[:2]
    values = np.zeros((h_cells, w_cells, channels))
    height = scene.field.evaluate(ground[..., 0], ground[..., 1])
    values[:, :, 0] = np.where(np.isnan(height), 0.0, height)
    col = np.arange(w_cells) / w_cells
    row = np.arange(h_cells) / h_cells
    xx, yy = np.meshgrid(col, row)
    for ci in range(1, channels):
        rng = np.random.default_rng([_SALT_CUE, scene.seed, ci])
        layer = np.zeros_like(xx)
        for _ in range(3):
            amp = rng.uniform(0.1, 0.5)
            fx, fy = rng.uniform(0.5, 3.0, size=2)
            phase = rng.uniform(0.0, math.tau)
            layer += amp * np.cos(math.tau * (fx * xx + fy * yy) + phase)
        values[:, :, ci] = layer
    return FeatureGrid(values)


def _pin_scenes():
    """Generated scenes plus hand-made rigs: nadir, rolled, horizon in
    view, and an augmented (non-default) image size."""
    field = GroundField.random(np.random.default_rng(11), amplitude=1.5)
    nadir = CameraRig(
        1000.0, 1000.0, 768.0, 512.0,
        RigidTransform(np.diag([1.0, -1.0, -1.0]), np.array([0.0, 0.0, 10.0])), 1536, 1024,
    )
    rigs = [
        nadir,
        rig_from_pose(6.0, 30.0, yaw_deg=-40.0, roll_deg=25.0),
        rig_from_pose(7.0, 8.0, yaw_deg=120.0, f_x=1400.0, f_y=1400.0),
        rig_from_pose(8.0, 12.0, roll_deg=2.0, f_x=1190.0, f_y=1190.0, a_x=652.3,
                      a_y=431.9, image_width=1304, image_height=872),
    ]
    scenes = [generate_scene(CFG, seed) for seed in (0, 1, 2, 31)]
    for i, rig in enumerate(rigs):
        plane = ground_plane_from_extrinsics(rig)
        scenes.append(SyntheticScene(rig, plane, field, (), f"pin-{i}", seed=i))
    return scenes


@pytest.fixture(scope="module")
def pin_scenes():
    return _pin_scenes()


class TestRenderCueGrid:
    @pytest.mark.parametrize("channels", [1, 4, 64])
    @pytest.mark.parametrize("index", range(8))
    def test_cue_field_at_cells_equals_render_bytes(self, pin_scenes, index, channels):
        scene = pin_scenes[index]
        grid = render_cue_grid(scene, channels).values
        rows = grid.reshape(-1, channels)
        n = rows.shape[0]
        field = CueField(scene, channels)
        assert field.shape == grid.shape
        picks = {
            "empty": np.array([], dtype=np.intp),
            "first": np.array([0]),
            "last": np.array([n - 1]),
            "random": np.sort(np.random.default_rng(index).choice(n, n // 7, replace=False)),
            "all": np.arange(n),
        }
        for name, cells in picks.items():
            got = field.at(cells)
            assert got.shape == (cells.size, channels), name
            assert got.tobytes() == rows[cells].tobytes(), name

    def test_cue_field_rejects_cells_outside_the_grid(self, pin_scenes):
        field = CueField(pin_scenes[0], 2)
        n = field.shape[0] * field.shape[1]
        for cells in ([n], [-1]):
            with pytest.raises(ValueError, match="out of range"):
                field.at(cells)

    def test_grid_over_the_cap_fails_before_any_grid(self, pin_scenes, monkeypatch):
        from roadlift import synthetic_world

        grids = []
        monkeypatch.setattr(synthetic_world, "cell_centers", lambda *a: grids.append(a))
        # 128 x 192 cells x 683 channels is just over 2**24 values.
        for build in (CueField, render_cue_grid):
            with pytest.raises(ValueError, match="128x192-cell grid with 683 channels exceeds"):
                build(pin_scenes[0], 683)
        assert grids == []

    def test_channel_rule_fails_before_any_grid(self, pin_scenes, monkeypatch):
        from roadlift import synthetic_world

        grids = []
        monkeypatch.setattr(synthetic_world, "cell_centers", lambda *a: grids.append(a))
        cases = [(0, "channels must be at least 1, got 0"),
                 (MAX_CHANNELS + 1, f"channels must be at most {MAX_CHANNELS}, got 4097")]
        for channels, message in cases:
            with pytest.raises(ValueError) as info:
                CueField(pin_scenes[0], channels)
            assert str(info.value) == message
        assert grids == []

    @pytest.mark.parametrize("channels", [1, 4, 64])
    @pytest.mark.parametrize("index", range(8))
    def test_all_channels_equal_reference_bytes(self, pin_scenes, index, channels):
        scene = pin_scenes[index]
        got = render_cue_grid(scene, channels).values
        want = _reference_render_cue_grid(scene, channels).values
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    @pytest.mark.parametrize("index", range(8))
    def test_channel0_equals_reference_inline_lift(self, index):
        scene = _pin_scenes()[index]
        ch0 = render_cue_grid(scene, 2).values[:, :, 0]
        expected = _reference_render_channel0(scene)
        assert np.array_equal(ch0, expected)
        assert (ch0 != 0.0).any()

    def test_constant_field_channel0(self):
        scene = single_object_scene(field=GroundField.constant(0.3))
        grid = render_cue_grid(scene, 2)
        ch0 = grid.values[:, :, 0]
        ground_cells = ch0 != 0.0
        assert ground_cells.any()
        np.testing.assert_allclose(ch0[ground_cells], 0.3, atol=1e-12)

    def test_frame_invariance_under_object_resampling(self):
        scene = generate_scene(CFG, 31)
        grid = render_cue_grid(scene, 3)
        other = resample_objects(scene, CFG, 9)
        grid2 = render_cue_grid(other, 3)
        assert np.array_equal(grid.values, grid2.values)

    def test_repeated_render_bitwise_identical(self):
        scene = generate_scene(CFG, 33)
        a = render_cue_grid(scene, 4)
        b = render_cue_grid(scene, 4)
        assert np.array_equal(a.values, b.values)

    def test_sloped_field_matches_lift_then_evaluate(self):
        rng = np.random.default_rng(4)
        field = GroundField.random(rng, amplitude=1.5, roi=((-300, 300), (-300, 300)))
        scene = single_object_scene(r=100.0, field=field)
        grid = render_cue_grid(scene, 1)
        rig, plane = scene.rig, scene.plane
        for _ in range(50):
            r = int(rng.integers(0, grid.height_cells))
            c = int(rng.integers(0, grid.width_cells))
            u, v = (c + 0.5) * 8, (r + 0.5) * 8
            try:
                ground = lift_to_ground(rig, plane, u, v, 0.0)
            except Exception:
                assert grid.values[r, c, 0] == 0.0
                continue
            assert grid.values[r, c, 0] == pytest.approx(
                field.evaluate(ground[0], ground[1]), abs=1e-9
            )

    def test_different_fields_differ(self):
        a = single_object_scene(field=GroundField.constant(0.2))
        b = single_object_scene(field=GroundField.constant(0.8))
        ga = render_cue_grid(a, 1)
        gb = render_cue_grid(b, 1)
        assert not np.array_equal(ga.values[:, :, 0], gb.values[:, :, 0])


class TestBox2D:
    def test_bbox_contains_all_corner_projections(self):
        scene = generate_scene(CFG, 35)
        from roadlift.camera_geometry import corners_of

        for box in scene.objects:
            x1, y1, x2, y2 = box2d_of(scene.rig, box)
            for corner in corners_of(box):
                u, v = project_to_image(scene.rig, corner)
                assert x1 - 1e-9 <= u <= x2 + 1e-9
                assert y1 - 1e-9 <= v <= y2 + 1e-9


class TestConfigParsing:
    def test_unknown_scene_key_rejected(self):
        with pytest.raises(ValueError, match="unknown scene config"):
            check_json({"n_object": 3}, SceneConfig(), "scene")

    def test_unknown_noise_key_rejected(self):
        with pytest.raises(ValueError, match="unknown noise config"):
            check_json({"sigma": 0.1}, NoiseModel(), "noise")

    def test_mapping_round_trip(self):
        cfg = check_json(
            {"n_objects": 4, "range_band": [10, 100], "pitch_band_deg": [8, 20]},
            SceneConfig(), "scene",
        )
        assert cfg.n_objects == 4
        assert cfg.range_band == (10, 100)

    def test_noise_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(drop_rate=1.5)
        with pytest.raises(ValueError):
            NoiseModel(sigma_hr=-0.1)


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: GroundField(coeffs=(0.0,) * 3), "expected 10 polynomial coefficients"),
        (lambda: GroundField(coeffs=(math.nan,) + (0.0,) * 9), "coefficients must be finite"),
        (lambda: GroundField.random(np.random.default_rng(0), amplitude=3.0),
         r"amplitude must lie in \(0, 2\]"),
        (lambda: SceneConfig(n_objects=-1), "n_objects must be non-negative"),
        (lambda: SceneConfig(height_band=(12.0, 4.0)), r"height_band must be ordered"),
        (lambda: SceneConfig(range_band=(0.0, 100.0)), "range band must start above zero"),
        (lambda: SceneConfig(field_amplitude=3.0), r"field amplitude must lie in \(0, 2\]"),
        (lambda: SceneConfig(categories=()), "at least one category is required"),
    ],
    ids=["coefficient-count", "nan-coefficient", "random-amplitude", "negative-objects",
         "unordered-band", "range-from-zero", "field-amplitude", "no-categories"],
)
def test_rejects_bad_values(build, message):
    with pytest.raises(ValueError, match=message):
        build()
