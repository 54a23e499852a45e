import dataclasses
import hashlib
import math
import unittest.mock
import warnings

import numpy as np
import pytest

from roadlift import synthetic_world
from roadlift.camera_geometry import (
    CameraRig,
    GeometryError,
    RigidTransform,
    corners_of,
    height_sensitivity,
    lift_to_ground,
    project_to_image,
    ray_ground,
    rig_from_pose,
)
from roadlift.formats import check_json
from roadlift.scene_scheduler import SchedulerConfig
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
    field = field or GroundField.constant(0.0)
    box = Box3D(r, 0.0, field.evaluate(r, 0.0), 4.5, 1.8, 1.5, 0.2)
    return SyntheticScene(rig, field, (box,), "single", seed=0)


# GroundField.random's (amplitude, roi, n_bumps) cases.  The program draws
# RANDOM_BUMPS = 2 bumps; the other counts are set on the module constant
# (``_random_field``) to cover a surface without bumps and one with more.
_RANDOM_CASES = {
    "default": (1.0, ((-300.0, 300.0), (-300.0, 300.0)), 2),
    "small-roi": (0.3, ((-50.0, 80.0), (-20.0, 10.0)), 0),
    "many-bumps": (2.0, ((-270.0, 270.0), (-270.0, 270.0)), 5),
}


def _random_field(seed, amplitude, roi, n_bumps):
    with unittest.mock.patch.object(synthetic_world, "RANDOM_BUMPS", n_bumps):
        return GroundField.random(np.random.default_rng(seed), amplitude, roi)


def _pinned_fields(case):
    """The fields GroundField.random draws for seeds 0-9 in one
    ``_RANDOM_CASES`` case, or ``constant(0.3)`` for "constant"."""
    if case == "constant":
        return [GroundField.constant(0.3)]
    return [_random_field(seed, *_RANDOM_CASES[case]) for seed in range(10)]


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

    @pytest.mark.parametrize(
        "band", [(math.nan, math.nan), (0.0, math.inf), (1.0, -1.0), (5.0, 5.0)],
        ids=["nan", "inf", "reversed", "zero-width"],
    )
    def test_bad_roi_rejected(self, band):
        with pytest.raises(ValueError, match="roi bands must be finite with lo < hi"):
            GroundField(coeffs=(0.5,) + (0.0,) * 9, roi=(band, (0.0, 1.0)))
        with pytest.raises(ValueError, match="roi bands must be finite with lo < hi"):
            GroundField.random(np.random.default_rng(0), roi=((0.0, 1.0), band))

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
    @pytest.mark.parametrize("amplitude,roi,n_bumps", _RANDOM_CASES.values(), ids=_RANDOM_CASES)
    def test_random_equals_reference(self, seed, amplitude, roi, n_bumps):
        got = _random_field(seed, amplitude, roi, n_bumps)
        want = _reference_ground_field_random(np.random.default_rng(seed), amplitude, roi, n_bumps)
        assert got == want

    # sha256 of the coefficients and bumps of _pinned_fields(case), and of
    # their heights on a 41 x 41 grid reaching past every ROI and at 20
    # scalar points, recorded while random's probe was a GroundField with
    # an unbounded max_abs, xy_scale was a constructor argument and the
    # bump count an argument of random.
    DRAWS_SHA256 = {
        "default": "1684b19c3d729e7645ad8dfd969d5a2edcc293c1b9f1666b4db783f49189671f",
        "small-roi": "94f0bef5d005232cc69842a15ea2fd5988510c9f8b2a3150d1d2fb294f2dee38",
        "many-bumps": "75741a47fcdadc3ac5c8aaa697b31d98637ad9019ee29e16810c7a8944243c2f",
    }
    HEIGHTS_SHA256 = {
        "default": "cb4429f9b62ed0d26f4fddb1eec50471796f738897a8a07cc1136a1c61967614",
        "small-roi": "f2040fb4470f6b149bc8b3ca215ebb4fd12b76b79e8fe28a1ee3c73f9439c04c",
        "many-bumps": "4770403ac5b249fa2e48d31034ab46ad8976764e2349f1bdeea14e4de9bc7d77",
        "constant": "2ffb2e369550d9b12219887328861b329a9258a455308cc907a332b85336ec39",
    }

    @pytest.mark.parametrize("case", list(_RANDOM_CASES))
    def test_random_draws_match_recorded_bytes(self, case):
        digest = hashlib.sha256()
        for field in _pinned_fields(case):
            digest.update(np.array(field.coeffs, dtype=float).tobytes())
            digest.update(np.array(field.bumps, dtype=float).tobytes())
        assert digest.hexdigest() == self.DRAWS_SHA256[case]

    @pytest.mark.parametrize("case", [*_RANDOM_CASES, "constant"])
    def test_heights_match_recorded_bytes(self, case):
        xs = np.linspace(-400.0, 400.0, 41)
        points = np.random.default_rng(2024).uniform(-400.0, 400.0, size=(20, 2)).tolist()
        digest = hashlib.sha256()
        for field in _pinned_fields(case):
            digest.update(field.evaluate(*np.meshgrid(xs, xs)).tobytes())
            heights = [field.evaluate(x, y) for x, y in points]
            assert all(type(h) is float for h in heights)
            digest.update(np.array(heights).tobytes())
        assert digest.hexdigest() == self.HEIGHTS_SHA256[case]

    def test_scalar_and_array_evaluation_agree(self):
        # Not bit for bit (see GroundField.evaluate): with the benchmark's
        # scene config, 170 of these 19,200 points differ, by at most
        # 2.2e-16 m (numpy 2.4, x86-64).
        cfg = SceneConfig(n_objects=0, pitch_band_deg=(8.0, 12.0))
        worst = 0.0
        for seed in range(64):
            field = generate_scene(cfg, seed).field
            (x0, x1), (y0, y1) = field.roi
            rng = np.random.default_rng(seed)
            xs, ys = rng.uniform(x0, x1, 300), rng.uniform(y0, y1, 300)
            scalars = [field.evaluate(x, y) for x, y in zip(xs.tolist(), ys.tolist())]
            worst = max(worst, float(np.abs(field.evaluate(xs, ys) - scalars).max()))
        assert worst <= 1e-12

    @pytest.mark.parametrize("seed", [0, 3])
    def test_generate_scene_scans_roi_twice(self, seed, monkeypatch):
        calls = []
        scan = synthetic_world._roi_peak

        def counting(coeffs, bumps, roi):
            calls.append(roi)
            return scan(coeffs, bumps, roi)

        monkeypatch.setattr(synthetic_world, "_roi_peak", counting)
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
            recovered = lift_to_ground(scene.rig, u, v, box.z)
            assert np.abs(recovered - box.bottom_center).max() < 1e-6

    def test_infeasible_config_raises(self):
        # A range band far beyond what a steep camera can see.
        cfg = SceneConfig(
            n_objects=1,
            range_band=(240.0, 250.0),
            pitch_band_deg=(60.0, 60.0),
            height_band=(4.0, 4.0),
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

    def test_lift_failures_are_counted(self):
        # A 1 km spread of h_r puts some objects' heights above the camera,
        # where no ray lifts to them.
        scene = generate_scene(SceneConfig(n_objects=20), 31)
        record = simulate_predictions(scene, NoiseModel(sigma_hr=1e3, drop_rate=0.2), seed=0)
        assert record.n_lift_failed > 0 and record.n_dropped > 0
        kept = len(record.pred_boxes)
        assert record.n_dropped + record.n_lift_failed + kept == len(scene.objects)

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
        assert len(record.pred_boxes_2d) == len(record.pred_boxes)

    def test_scores_decrease_with_perturbation(self):
        scene = single_object_scene()
        quiet = simulate_predictions(scene, NoiseModel(sigma_hr=0.05), seed=5)
        loud = simulate_predictions(scene, NoiseModel(sigma_hr=0.8), seed=5)
        assert loud.pred_boxes[0].score < quiet.pred_boxes[0].score

    def test_gt_2d_boxes_cover_bottom_centers(self):
        scene = generate_scene(CFG, 29)
        record = simulate_predictions(scene, NoiseModel(), seed=0)
        for (x1, y1, x2, y2), box in zip(record.gt_boxes_2d, record.gt_boxes):
            u, v = project_to_image(scene.rig, box.bottom_center)
            assert x1 <= u <= x2 and y1 <= v <= y2

    # sha256 of the repr of the list of prediction rectangles, recorded
    # while each rectangle still sat in a per-detection record beside a
    # score and a bottom-center pixel: dropping those two fields moves no
    # rectangle.
    PRED_BOXES_2D_SHA256 = (
        "fceb1ec7e2f35133b229d601704a87d02af0c1d5c8ebb1f0b08fec2719484dc5",
        "df1dc45ee84b46cfdfea4576908661f32bc5d49da3e7cead698847bcc0db941e",
        "d6217630d5598e63f319074a7c4c362eb1fd6feb86edf382ec3b11f27b570df7",
    )

    @pytest.mark.parametrize("seed", range(3))
    def test_pred_boxes_2d_match_recorded_bytes(self, seed):
        noise = NoiseModel(sigma_hr=0.1, sigma_dims=0.05, sigma_yaw=0.05, sigma_center_px=1.0,
                           drop_rate=0.1, false_positive_rate=1.0)
        record = simulate_predictions(generate_scene(SceneConfig(n_objects=6), seed), noise, seed)
        assert len(record.pred_boxes) > len(record.gt_boxes) - record.n_dropped
        digest = hashlib.sha256(repr(list(record.pred_boxes_2d)).encode()).hexdigest()
        assert digest == self.PRED_BOXES_2D_SHA256[seed]


def _reference_render_channel0(scene):
    """Channel 0 of render_cue_grid as its inline vectorised lift computed
    it before the shared ray-ground kernel; kept verbatim as the oracle."""
    rig, plane = scene.rig, scene.rig.plane
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
    """GroundField.random as it was while its probe was a GroundField
    with an unbounded max_abs; the probe's scan is kept verbatim as the
    oracle."""
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

    # The probe's _raw and _roi_peak, with self.coeffs, self.xy_scale,
    # self.bumps and self.roi as tuple(coeffs), scale, tuple(bumps), roi.
    _POLY_POWERS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2),
                    (0, 3))

    def _raw(x, y):
        xn = np.asarray(x, dtype=float) / scale
        yn = np.asarray(y, dtype=float) / scale
        out = np.zeros(np.broadcast(xn, yn).shape)
        for coef, (px, py) in zip(tuple(coeffs), _POLY_POWERS):
            if coef:
                out += coef * xn**px * yn**py
        for amp, cx, cy, sigma in tuple(bumps):
            dx = np.asarray(x, dtype=float) - cx
            dy = np.asarray(y, dtype=float) - cy
            out += amp * np.exp(-(dx * dx + dy * dy) / (2.0 * sigma * sigma))
        return out

    xs, ys = (np.linspace(lo, hi, 41) for lo, hi in roi)
    peak = float(np.abs(_raw(*np.meshgrid(xs, ys))).max())
    factor = amplitude / peak if peak > 0 else 0.0
    return GroundField(
        coeffs=tuple(factor * c for c in coeffs),
        bumps=tuple((factor * a, cx, cy, s) for a, cx, cy, s in bumps),
        roi=roi,
    )


def _reference_render_cue_grid(scene, channels):
    """render_cue_grid as it was while each cos channel multiplied two
    full meshgrids; kept verbatim as the oracle."""
    if channels < 1:
        raise ValueError("at least one channel is required")
    rig = scene.rig
    _, ground = ray_ground(rig, *cell_centers(rig.image_height, rig.image_width))
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
        dataclasses.replace(
            rig_from_pose(8.0, 12.0, roll_deg=2.0, f_x=1190.0, f_y=1190.0, image_width=1304,
                          image_height=872),
            a_x=652.3, a_y=431.9,
        ),
    ]
    scenes = [generate_scene(CFG, seed) for seed in (0, 1, 2, 31)]
    for i, rig in enumerate(rigs):
        scenes.append(SyntheticScene(rig, field, (), f"pin-{i}", seed=i))
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
        rig = scene.rig
        for _ in range(50):
            r = int(rng.integers(0, grid.values.shape[0]))
            c = int(rng.integers(0, grid.values.shape[1]))
            u, v = (c + 0.5) * 8, (r + 0.5) * 8
            try:
                ground = lift_to_ground(rig, u, v, 0.0)
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


# The eval-dense benchmark's scene: 30 objects in three categories seen
# by a camera pitched 8-12 degrees down.
DENSE_CFG = SceneConfig(
    n_objects=30,
    pitch_band_deg=(8.0, 12.0),
    categories=(
        ("car", ((3.8, 5.2), (1.6, 2.0), (1.3, 1.8))),
        ("truck", ((7.0, 12.0), (2.3, 2.6), (2.8, 3.8))),
        ("ped", ((0.4, 0.9), (0.4, 0.9), (1.5, 1.9))),
    ),
)


def _reference_surface(coeffs, bumps, xy_scale, x, y):
    """synthetic_world._surface as it was while it took every input
    through np.asarray and summed into np.zeros; kept verbatim as the
    oracle."""
    xn = np.asarray(x, dtype=float) / xy_scale
    yn = np.asarray(y, dtype=float) / xy_scale
    out = np.zeros(np.broadcast(xn, yn).shape)
    for coef, (px, py) in zip(coeffs, synthetic_world._POLY_POWERS):
        if coef:
            out += coef * xn**px * yn**py
    for amp, cx, cy, sigma in bumps:
        dx = np.asarray(x, dtype=float) - cx
        dy = np.asarray(y, dtype=float) - cy
        out += amp * np.exp(-(dx * dx + dy * dy) / (2.0 * sigma * sigma))
    return out


def _reference_evaluate(field, x, y):
    """GroundField.evaluate of the same time, on ``_reference_surface``."""
    raw = _reference_surface(field.coeffs, field.bumps, field.xy_scale, x, y)
    out = np.clip(raw, -synthetic_world.MAX_SURFACE_HEIGHT, synthetic_world.MAX_SURFACE_HEIGHT)
    return float(out) if out.ndim == 0 else out


def _reference_box2d_of(rig, box):
    """box2d_of as it was while it took one box and projected its eight
    corners one call at a time; kept verbatim as the oracle."""
    us, vs = [], []
    for corner in corners_of(box):
        u, v = project_to_image(rig, corner)
        us.append(u)
        vs.append(v)
    return (min(us), min(vs), max(us), max(vs))


def _reference_sample_objects(rng, rig, field, config):
    """synthetic_world._sample_objects as it was while each value had its
    own rng call; kept verbatim as the oracle, except that heights come
    from ``_reference_evaluate``."""
    foot = rig.camera_center_ground()[:2]
    forward = rig.extrinsic.rotation.T @ np.array([0.0, 0.0, 1.0])
    az0 = math.atan2(forward[1], forward[0])
    az_half = math.atan((rig.image_width / 2.0) / rig.f_x) * 0.9
    margin = synthetic_world.EDGE_MARGIN_PX
    objects = []
    for _ in range(config.n_objects):
        for _ in range(synthetic_world.MAX_PLACEMENT_ATTEMPTS):
            r = rng.uniform(*config.range_band)
            az = az0 + rng.uniform(-az_half, az_half)
            x = foot[0] + r * math.cos(az)
            y = foot[1] + r * math.sin(az)
            z = _reference_evaluate(field, x, y)
            name, bands = config.categories[rng.integers(len(config.categories))]
            l, w, h = (rng.uniform(lo, hi) for lo, hi in bands)
            box = Box3D(x, y, z, l, w, h, theta=rng.uniform(-math.pi, math.pi), category=name)
            try:
                u, v = project_to_image(rig, box.bottom_center)
            except GeometryError:
                continue
            if (margin <= u < rig.image_width - margin
                    and margin <= v < rig.image_height - margin):
                objects.append(box)
                break
        else:
            raise ValueError("infeasible scene config")
    return tuple(objects)


def _reference_simulate_predictions(scene, noise, seed):
    """simulate_predictions as it was while each object drew its noise in
    five calls and computed its perturbations and score on its own; kept
    verbatim as the oracle, except that rectangles and heights come from
    ``_reference_box2d_of`` and ``_reference_evaluate``."""
    rng = np.random.default_rng([synthetic_world._SALT_SIM, scene.seed, seed])
    rig = scene.rig
    gt2d = tuple(_reference_box2d_of(rig, b) for b in scene.objects)
    gt_bc = tuple(project_to_image(rig, b.bottom_center) for b in scene.objects)

    preds: list[Box3D] = []
    preds_2d: list[tuple[float, float, float, float]] = []
    n_dropped = 0
    n_lift_failed = 0
    for i, box in enumerate(scene.objects):
        # Draw every noise component unconditionally so the stream stays
        # aligned across noise configurations sharing a seed.
        u_drop = rng.random()
        eps_hr = rng.standard_normal()
        eps_dims = rng.standard_normal(3)
        eps_yaw = rng.standard_normal()
        eps_uv = rng.standard_normal(2)
        if u_drop < noise.drop_rate:
            n_dropped += 1
            continue
        hr_n = box.z + noise.sigma_hr * eps_hr
        dims_n = np.maximum(
            np.array([box.l, box.w, box.h]) * (1.0 + noise.sigma_dims * eps_dims), 0.1
        )
        yaw_n = box.theta + noise.sigma_yaw * eps_yaw
        u_n = gt_bc[i][0] + noise.sigma_center_px * eps_uv[0]
        v_n = gt_bc[i][1] + noise.sigma_center_px * eps_uv[1]
        try:
            loc = lift_to_ground(rig, u_n, v_n, hr_n)
        except GeometryError:
            n_lift_failed += 1
            continue
        penalty = (
            abs(noise.sigma_hr * eps_hr) / synthetic_world._SCORE_SCALES["hr"]
            + float(np.abs(noise.sigma_dims * eps_dims).sum()) / synthetic_world._SCORE_SCALES["dims"]
            + abs(noise.sigma_yaw * eps_yaw) / synthetic_world._SCORE_SCALES["yaw"]
            + abs(noise.sigma_center_px) * float(np.abs(eps_uv).sum()) / synthetic_world._SCORE_SCALES["center"]
        )
        score = float(math.exp(-penalty))
        preds.append(
            Box3D(
                x=float(loc[0]),
                y=float(loc[1]),
                z=float(loc[2]),
                l=float(dims_n[0]),
                w=float(dims_n[1]),
                h=float(dims_n[2]),
                theta=yaw_n,
                category=box.category,
                score=score,
            )
        )
        du, dv = u_n - gt_bc[i][0], v_n - gt_bc[i][1]
        x1, y1, x2, y2 = gt2d[i]
        preds_2d.append((x1 + du, y1 + dv, x2 + du, y2 + dv))

    n_fp = int(rng.binomial(len(scene.objects), noise.false_positive_rate)) if scene.objects else 0
    for _ in range(n_fp):
        for _ in range(50):
            u = rng.uniform(synthetic_world.EDGE_MARGIN_PX, rig.image_width - synthetic_world.EDGE_MARGIN_PX)
            v = rng.uniform(synthetic_world.EDGE_MARGIN_PX, rig.image_height - synthetic_world.EDGE_MARGIN_PX)
            try:
                flat = lift_to_ground(rig, u, v, 0.0)
                z = _reference_evaluate(scene.field, flat[0], flat[1])
                loc = lift_to_ground(rig, u, v, z)
            except GeometryError:
                continue
            # Borrow dimensions/category from a random true object.
            donor = scene.objects[rng.integers(len(scene.objects))]
            score = float(math.exp(-(1.0 + abs(rng.standard_normal()))))
            fp_box = Box3D(
                x=float(loc[0]),
                y=float(loc[1]),
                z=float(loc[2]),
                l=donor.l,
                w=donor.w,
                h=donor.h,
                theta=rng.uniform(-math.pi, math.pi),
                category=donor.category,
                score=score,
            )
            try:
                fp2d = _reference_box2d_of(rig, fp_box)
            except GeometryError:
                continue
            preds.append(fp_box)
            preds_2d.append(fp2d)
            break

    return synthetic_world.FrameRecord(
        gt_boxes=scene.objects,
        gt_boxes_2d=gt2d,
        pred_boxes=tuple(preds),
        pred_boxes_2d=tuple(preds_2d),
        n_dropped=n_dropped,
        n_lift_failed=n_lift_failed,
    )


def _exact(values):
    """Every number in a nest of tuples, lists, boxes and frame records
    as float.hex: equal strings mean equal bits, -0.0 and 0.0 apart."""
    if isinstance(values, (tuple, list)):
        return tuple(_exact(v) for v in values)
    if isinstance(values, (Box3D, synthetic_world.FrameRecord)):
        return _exact([getattr(values, f.name) for f in dataclasses.fields(values)])
    if values is None or isinstance(values, str):
        return values
    return float(values).hex()


@pytest.fixture(scope="module")
def dense_scenes():
    return [generate_scene(DENSE_CFG, seed) for seed in range(64)]


class TestSimulateOracles:
    """Surface heights, placements and image rectangles against the
    forms they replaced, bit for bit, on the eval-dense scene over seeds
    0-63."""

    def test_scalar_heights_equal_reference(self, dense_scenes):
        for seed, scene in enumerate(dense_scenes):
            field = scene.field
            (lo, hi), _ = field.roi
            # 150 points in and around the ROI, as Python floats and as
            # np.float64 (the type placement passes).
            rng = np.random.default_rng(seed)
            for x, y in (1.2 * rng.uniform(lo, hi, size=(150, 2))).tolist():
                for px, py in ((x, y), (np.float64(x), np.float64(y))):
                    got = field.evaluate(px, py)
                    assert type(got) is float
                    assert _exact(got) == _exact(_reference_evaluate(field, px, py)), seed

    def test_array_heights_equal_reference(self, dense_scenes):
        for seed, scene in enumerate(dense_scenes):
            (lo, hi), _ = scene.field.roi
            xs, ys = np.meshgrid(np.linspace(1.2 * lo, 1.2 * hi, 40), np.linspace(lo, hi, 30))
            got = scene.field.evaluate(xs, ys)
            want = _reference_evaluate(scene.field, xs, ys)
            assert got.shape == want.shape == (30, 40)
            assert got.tobytes() == want.tobytes(), seed

    def test_placements_equal_reference(self, dense_scenes):
        for seed, scene in enumerate(dense_scenes):
            for k in (1, 2):
                rng = np.random.default_rng([synthetic_world._SALT_OBJECTS, seed, k])
                want_rng = np.random.default_rng([synthetic_world._SALT_OBJECTS, seed, k])
                got = synthetic_world._sample_objects(rng, scene.rig, scene.field, DENSE_CFG)
                want = _reference_sample_objects(want_rng, scene.rig, scene.field, DENSE_CFG)
                assert _exact(got) == _exact(want), seed
                # The two consumed the same draws.
                assert rng.bit_generator.state == want_rng.bit_generator.state, seed

    @pytest.mark.parametrize("noise", [
        NoiseModel(sigma_hr=0.25, drop_rate=0.05, false_positive_rate=0.1),
        NoiseModel(sigma_hr=0.2, sigma_dims=0.5, sigma_yaw=0.3, sigma_center_px=1.5,
                   drop_rate=0.1, false_positive_rate=0.3),
        NoiseModel(),
    ], ids=["eval-dense", "all-noise", "no-noise"])
    def test_frame_records_equal_reference(self, dense_scenes, noise):
        for seed, scene in enumerate(dense_scenes):
            got = simulate_predictions(scene, noise, seed)
            want = _reference_simulate_predictions(scene, noise, seed)
            assert _exact(got) == _exact(want), seed
            # Rectangles keep their types too (np.float64 for a detection's).
            assert [list(map(type, r)) for r in got.pred_boxes_2d] == [
                list(map(type, r)) for r in want.pred_boxes_2d], seed

    def test_rectangles_equal_reference(self, dense_scenes):
        for seed, scene in enumerate(dense_scenes):
            boxes = resample_objects(scene, DENSE_CFG, 1).objects + scene.objects
            got = box2d_of(scene.rig, boxes)
            want = tuple(_reference_box2d_of(scene.rig, b) for b in boxes)
            assert _exact(got) == _exact(want), seed
            assert all(type(v) is float for rect in got for v in rect)


class TestBox2D:
    def test_bbox_contains_all_corner_projections(self):
        scene = generate_scene(CFG, 35)
        rects = box2d_of(scene.rig, scene.objects)
        assert len(rects) == len(scene.objects)
        for box, (x1, y1, x2, y2) in zip(scene.objects, rects):
            for corner in corners_of(box):
                u, v = project_to_image(scene.rig, corner)
                assert x1 - 1e-9 <= u <= x2 + 1e-9
                assert y1 - 1e-9 <= v <= y2 + 1e-9

    def test_no_boxes_give_no_rectangles(self):
        assert box2d_of(rig_from_pose(7.0, 10.0), ()) == ()
        assert box2d_of(rig_from_pose(7.0, 10.0), []) == ()

    def test_one_corner_behind_the_camera_fails_the_whole_call(self):
        # The camera stands over the origin looking along +x; a 20 m box
        # centred under it has half its corners behind it.
        rig = rig_from_pose(7.0, 10.0)
        ahead = Box3D(40.0, 0.0, 0.0, 4.5, 1.8, 1.5, 0.2)
        straddling = Box3D(0.0, 0.0, 0.0, 20.0, 1.8, 1.5, 0.0)
        with pytest.raises(GeometryError, match="behind camera"):
            project_to_image(rig, corners_of(straddling)[0])
        assert len(box2d_of(rig, [ahead, ahead])) == 2
        with pytest.raises(GeometryError, match="behind camera"):
            box2d_of(rig, [ahead, straddling, ahead])

    def test_rectangles_equal_per_corner_projection_on_random_rigs(self):
        rng = np.random.default_rng(20)
        behind = 0
        for _ in range(2000):
            height, pitch, yaw, roll = rng.uniform((2, -5, -180, -20), (30, 80, 180, 20))
            f = rng.uniform(300.0, 4000.0)
            rig = dataclasses.replace(rig_from_pose(height, pitch, yaw, roll, f, f * 1.01),
                                      a_x=rng.uniform(0, 1536), a_y=rng.uniform(0, 1024))
            r, az = rng.uniform(1.0, 150.0), math.radians(yaw) + rng.uniform(-1.0, 1.0)
            boxes = [Box3D(r * math.cos(az), r * math.sin(az), rng.uniform(-2, 2),
                           *rng.uniform(0.2, 12.0, 3), rng.uniform(-4, 4)) for _ in range(2)]
            try:
                want = tuple(_reference_box2d_of(rig, b) for b in boxes)
            except GeometryError:
                behind += 1
                with pytest.raises(GeometryError):
                    box2d_of(rig, boxes)
                continue
            assert _exact(box2d_of(rig, boxes)) == _exact(want)
        # Both branches ran, the exact one most of the time.
        assert 0 < behind < 1000


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
        (lambda: GroundField(coeffs=(0.0,) * 10, bumps=((math.nan, 0.0, 0.0, 10.0),)),
         "bumps need a finite amplitude and centre and a finite sigma > 0"),
        (lambda: GroundField(coeffs=(0.0,) * 10, bumps=((0.1, math.inf, 0.0, 10.0),)),
         "bumps need a finite amplitude and centre"),
        (lambda: GroundField(coeffs=(0.0,) * 10, bumps=((0.1, 0.0, 0.0, -10.0),)),
         "bumps need a finite amplitude and centre"),
        (lambda: GroundField(coeffs=(0.0,) * 10, bumps=((0.1, 0.0, 0.0, 0.0),)),
         "bumps need a finite amplitude and centre"),
        (lambda: GroundField(coeffs=(0.0,) * 10, bumps=((0.1, 0.0, 0.0, math.inf),)),
         "bumps need a finite amplitude and centre"),
        (lambda: GroundField.random(np.random.default_rng(0), amplitude=3.0),
         r"amplitude must lie in \(0, 2\]"),
        (lambda: SceneConfig(n_objects=-1), "n_objects must be non-negative"),
        (lambda: SceneConfig(height_band=(12.0, 4.0)), r"height_band must be ordered"),
        (lambda: SceneConfig(height_band=(-5.0, -4.0)),
         r"height_band must start at a camera height of at least 1e-06 m, got -5.0"),
        (lambda: SceneConfig(height_band=(0.0, 4.0)), r"height_band must start at a camera height"),
        (lambda: SceneConfig(range_band=(0.0, 100.0)), "range band must start above zero"),
        (lambda: SceneConfig(field_amplitude=3.0), r"field amplitude must lie in \(0, 2\]"),
        (lambda: SceneConfig(categories=()), "at least one category is required"),
        (lambda: SceneConfig(categories=(("#car", ((4.0, 5.0), (1.6, 2.0), (1.3, 1.8))),)),
         "category must be a non-empty string without whitespace"),
        # Non-finite numbers were accepted and failed later, or not at all:
        # an infinite sigma_hr made every prediction a lift failure,
        # sigma_roll_deg failed at the first scheduler step and an infinite
        # height band overflowed in generate_scene.
        (lambda: NoiseModel(sigma_hr=math.inf), "noise sigmas must be non-negative and finite"),
        (lambda: NoiseModel(sigma_center_px=math.inf), "noise sigmas must be non-negative and"),
        (lambda: SchedulerConfig(sigma_roll_deg=math.inf),
         "^sigma_roll_deg must be a finite number >= 0, got inf$"),
        (lambda: SchedulerConfig(clamp_hi=math.inf),
         "clamp interval must satisfy 0 < lo <= hi < inf"),
        (lambda: SceneConfig(height_band=(4.0, math.inf)),
         r"^height_band must be ordered \(lo <= hi\) and finite, got \[4.0, inf\]$"),
        (lambda: SceneConfig(range_band=(-math.inf, 5.0)), "range_band must be ordered"),
        (lambda: SceneConfig(categories=(("car", ((4.0, math.inf), (1.6, 2.0), (1.3, 1.8))),)),
         r"categories\[0\] dimension bands must satisfy 0 < lo <= hi < inf, got \[4.0, inf\]"),
    ],
    ids=["coefficient-count", "nan-coefficient", "nan-bump-amplitude", "infinite-bump-centre",
         "negative-bump-sigma", "zero-bump-sigma", "infinite-bump-sigma", "random-amplitude",
         "negative-objects", "unordered-band", "below-ground-band", "on-ground-band",
         "range-from-zero",
         "field-amplitude", "no-categories", "comment-category",
         "infinite-noise-sigma-hr", "infinite-noise-sigma-center", "infinite-scheduler-sigma-roll",
         "infinite-scheduler-clamp-hi", "infinite-height-band", "infinite-range-band",
         "infinite-category-band"],
)
def test_rejects_bad_values(build, message):
    with pytest.raises(ValueError, match=message):
        build()


_FLAT = (0.0,) * 10


@pytest.mark.parametrize(
    "kwargs,message",
    [
        ({"coeffs": _FLAT, "bumps": ((1.0, 1e200, 0.0, 10.0),)}, "bumps need"),
        ({"coeffs": _FLAT, "bumps": ((1.0, 0.0, 0.0, 1e-200),)}, "bumps need"),
        ({"coeffs": (1e308,) * 10}, "coefficients must be finite, at most 1e\\+50"),
        ({"coeffs": _FLAT, "bumps": ((1e308, 0.0, 0.0, 10.0),) * 2}, "bumps need"),
        ({"coeffs": _FLAT, "bumps": ((1.0, 1e300, 0.0, 1e299),),
          "roi": ((0.0, 1e300), (0.0, 1e300))}, "roi bands must be finite with lo < hi"),
    ],
    ids=["far-bump-centre", "tiny-bump-sigma", "huge-coefficients", "huge-bump-amplitudes",
         "huge-roi"],
)
def test_extreme_finite_fields_rejected_without_warning(kwargs, message):
    # Each overflowed (or divided by zero) in _surface with a
    # RuntimeWarning while the field's peak was scanned.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            GroundField(**kwargs)
