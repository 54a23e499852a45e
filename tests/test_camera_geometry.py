import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, assume, settings
from hypothesis import strategies as st

from roadlift.camera_geometry import (
    MIN_FOCAL_PX,
    Box3D,
    CameraRig,
    GeometryError,
    LabelFrame,
    RigidTransform,
    corners_of,
    depth_to_ground,
    ground_plane_from_extrinsics,
    height_sensitivity,
    lift_to_ground,
    project_to_image,
    ray_ground,
    rig_from_pose,
)
from roadlift.scene_cue_bank import cell_centers


def nadir_rig(height=10.0):
    """Camera looking straight down from `height`: rotation diag(1,-1,-1)."""
    ext = RigidTransform(np.diag([1.0, -1.0, -1.0]), np.array([0.0, 0.0, height]))
    return CameraRig(1000.0, 1000.0, 768.0, 512.0, ext, 1536, 1024)


def plane_fit_oracle(rig):
    """Independent plane estimate: push three ground points through the
    extrinsic and fit the plane through them, oriented so the camera
    center evaluates negative."""
    pts = [rig.extrinsic.apply(p) for p in ((0, 0, 0), (1, 0, 0), (0, 1, 0))]
    n = np.cross(pts[1] - pts[0], pts[2] - pts[0])
    n = n / np.linalg.norm(n)
    d = -float(n @ pts[0])
    if d > 0:
        n, d = -n, -d
    return n, d


class TestGroundPlane:
    def test_nadir(self):
        plane = ground_plane_from_extrinsics(nadir_rig())
        assert (plane.a, plane.b, plane.c, plane.d) == (0.0, 0.0, 1.0, -10.0)
        assert plane.camera_height == 10.0
        assert plane.camera_height == -plane.d

    def test_camera_on_plane_rejected(self):
        ext = RigidTransform(np.eye(3), np.zeros(3))
        rig = CameraRig(1000.0, 1000.0, 768.0, 512.0, ext, 1536, 1024)
        with pytest.raises(GeometryError, match="camera on ground plane"):
            ground_plane_from_extrinsics(rig)

    def test_pitched_matches_three_point_fit(self):
        rig = rig_from_pose(7.0, 30.0, yaw_deg=25.0, roll_deg=1.5)
        plane = ground_plane_from_extrinsics(rig)
        n, d = plane_fit_oracle(rig)
        np.testing.assert_allclose([plane.a, plane.b, plane.c], n, atol=1e-12)
        assert plane.d == pytest.approx(d, abs=1e-12)
        assert plane.camera_height == pytest.approx(7.0, abs=1e-9)

    def test_virtual_frame_parallel_to_ground(self):
        plane = ground_plane_from_extrinsics(rig_from_pose(9.0, 40.0, yaw_deg=-60.0))
        rot = plane.virtual_to_ground.rotation
        # Virtual x and z axes stay horizontal; virtual y points straight down.
        assert abs(rot[2, 0]) < 1e-12 and abs(rot[2, 2]) < 1e-12
        np.testing.assert_allclose(rot[:, 1], [0, 0, -1], atol=1e-12)


class TestRigPlane:
    def test_is_the_plane_of_the_extrinsics(self):
        rig = rig_from_pose(7.0, 20.0, yaw_deg=10.0, roll_deg=-1.0)
        assert rig.plane == ground_plane_from_extrinsics(rig)

    def test_built_once_per_rig(self):
        rig = rig_from_pose(7.0, 20.0)
        assert rig.plane is rig.plane

    def test_replaced_rig_gets_its_own_plane(self):
        rig = rig_from_pose(7.0, 20.0)
        wider = dataclasses.replace(rig, f_x=2.0 * rig.f_x)
        assert wider.plane is not rig.plane
        assert wider.plane == rig.plane
        moved = dataclasses.replace(rig, extrinsic=rig_from_pose(9.0, 35.0).extrinsic)
        assert moved.plane == ground_plane_from_extrinsics(moved)
        assert moved.plane.camera_height == pytest.approx(9.0)

    @pytest.mark.parametrize("use", [
        lambda rig: rig.plane,
        lambda rig: lift_to_ground(rig, rig.a_x, rig.a_y, 0.0),
        lambda rig: depth_to_ground(rig, rig.a_x, rig.a_y),
        lambda rig: ray_ground(rig, rig.a_x, rig.a_y),
    ], ids=["plane", "lift", "depth", "ray"])
    def test_below_ground_rig_constructs_and_raises_on_first_use(self, use):
        rig = rig_from_pose(-5.0, 30.0)
        with pytest.raises(GeometryError, match="camera below ground plane"):
            use(rig)


class TestDepthToGround:
    def test_nadir_principal_ray(self):
        rig = nadir_rig()
        assert depth_to_ground(rig, rig.a_x, rig.a_y) == pytest.approx(10.0)

    def test_nadir_constant_everywhere(self):
        rig = nadir_rig()
        for u, v in [(0, 0), (1535, 1023), (100, 900)]:
            assert depth_to_ground(rig, u, v) == pytest.approx(10.0)

    def test_matches_parametric_ray_oracle(self):
        rig = rig_from_pose(7.0, 20.0, yaw_deg=10.0, roll_deg=-1.0)
        plane = ground_plane_from_extrinsics(rig)
        rng = np.random.default_rng(0)
        for _ in range(50):
            u = rng.uniform(0, rig.image_width)
            v = rng.uniform(rig.a_y + 30, rig.image_height)  # safely below horizon
            direction = np.array([(u - rig.a_x) / rig.f_x, (v - rig.a_y) / rig.f_y, 1.0])
            n = np.array([plane.a, plane.b, plane.c])
            t = -plane.d / float(n @ direction)
            expected = t * direction[2]
            got = depth_to_ground(rig, u, v)
            assert got == pytest.approx(expected, rel=1e-9)

    def test_horizon_ray_rejected(self):
        rig = rig_from_pose(7.0, 20.0, f_y=1000.0)
        plane = ground_plane_from_extrinsics(rig)
        # Solve the pixel row where the denominator vanishes (the horizon).
        v_horizon = rig.a_y - rig.f_y * plane.c / plane.b
        with pytest.raises(GeometryError, match="ray parallel to ground"):
            depth_to_ground(rig, rig.a_x, v_horizon)

    def test_sky_ray_rejected(self):
        rig = rig_from_pose(7.0, 10.0)
        with pytest.raises(GeometryError, match="plane behind camera"):
            depth_to_ground(rig, rig.a_x, 0.0)


class TestLiftToGround:
    def test_nadir_principal_point(self):
        rig = nadir_rig()
        np.testing.assert_allclose(
            lift_to_ground(rig, rig.a_x, rig.a_y, 0.0), [0, 0, 0], atol=1e-12
        )

    def test_projection_round_trip(self):
        rig = rig_from_pose(8.0, 25.0, yaw_deg=40.0, roll_deg=2.0)
        rng = np.random.default_rng(1)
        for _ in range(100):
            h_r = rng.uniform(0.0, 2.0)
            u = rng.uniform(0, rig.image_width)
            v = rng.uniform(rig.a_y + 40, rig.image_height)
            point = lift_to_ground(rig, u, v, h_r)
            u2, v2 = project_to_image(rig, point)
            recovered = lift_to_ground(rig, u2, v2, h_r)
            assert np.abs(recovered - point).max() < 1e-6
            assert point[2] == pytest.approx(h_r, abs=1e-9)

    def test_long_range_height_error_matches_paper_scale(self):
        # At 200 m with a 7 m camera, a 0.5 m height error moves the lifted
        # point by roughly 14.3 m (the order-15 m effect).
        rig = rig_from_pose(7.0, 10.0, f_x=1400.0, f_y=1400.0)
        u, v = project_to_image(rig, (200.0, 0.0, 0.0))
        p0 = lift_to_ground(rig, u, v, 0.0)
        p1 = lift_to_ground(rig, u, v, 0.5)
        foot = rig.camera_center_ground()[:2]
        shift = math.hypot(p1[0] - p0[0], p1[1] - p0[1])
        assert 13.5 <= shift <= 15.5
        r0 = math.hypot(p0[0] - foot[0], p0[1] - foot[1])
        assert shift == pytest.approx(height_sensitivity(7.0, 0.0, r0, 0.5), rel=0.02)

    def test_height_above_camera_rejected(self):
        rig = nadir_rig()
        with pytest.raises(GeometryError, match="relative height above camera"):
            lift_to_ground(rig, 700.0, 600.0, 10.5)

    def test_sky_pixel_rejected(self):
        rig = rig_from_pose(7.0, 10.0)
        with pytest.raises(GeometryError):
            lift_to_ground(rig, rig.a_x, 0.0, 0.0)


RAY_RIGS = {
    "nadir": nadir_rig(),
    "rolled": rig_from_pose(6.0, 30.0, yaw_deg=-40.0, roll_deg=25.0),
    "horizon": rig_from_pose(7.0, 8.0, yaw_deg=120.0, f_x=1400.0, f_y=1400.0),
}


class TestRayGround:
    """The array kernel against the scalar functions it batches."""

    @pytest.mark.parametrize("name", sorted(RAY_RIGS))
    def test_scalar_pixels_equal_scalar_functions(self, name):
        rig = RAY_RIGS[name]
        rng = np.random.default_rng(5)
        pixels = [(rig.a_x, rig.a_y), (0.0, 0.0), (1535.5, 1023.5), (-400.0, -2000.0)]
        pixels += [tuple(p) for p in rng.uniform((-200, -600), (1736, 1224), (400, 2))]
        missed = 0
        for u, v in pixels:
            depth, point = ray_ground(rig, u, v)
            assert depth.shape == () and point.shape == (3,)
            try:
                assert depth == depth_to_ground(rig, u, v)
            except GeometryError:
                assert np.isnan(depth)
            try:
                assert np.array_equal(point, lift_to_ground(rig, u, v, 0.0))
            except GeometryError:
                assert np.isnan(point).all()
                missed += 1
        assert missed < len(pixels)
        assert (missed > 0) == (name != "nadir")

    @pytest.mark.parametrize("name", sorted(RAY_RIGS))
    def test_cell_grid_matches_per_cell_scalar(self, name):
        rig = RAY_RIGS[name]
        us, vs = cell_centers(rig.image_height, rig.image_width)
        depth, points = ray_ground(rig, us, vs)
        assert depth.shape == us.shape and points.shape == us.shape + (3,)
        for (r, c), u in np.ndenumerate(us):
            v = vs[r, c]
            try:
                assert depth[r, c] == depth_to_ground(rig, u, v)
            except GeometryError:
                assert np.isnan(depth[r, c])
            try:
                expected = lift_to_ground(rig, u, v, 0.0)
            except GeometryError:
                assert np.isnan(points[r, c]).all()
                continue
            # A batched (N, 3) @ R.T may round the last bit differently.
            assert np.abs(points[r, c] - expected).max() <= 1e-9


class TestProjectToImage:
    def test_nadir_origin_hits_principal_point(self):
        rig = nadir_rig()
        assert project_to_image(rig, (0, 0, 0)) == pytest.approx((768.0, 512.0))

    def test_lateral_offset_similar_triangles(self):
        # Camera coordinates (1, 0, 10) with f_x = 1000 -> 100 px offset.
        rig = nadir_rig()
        # Ground point mapping to camera coords (1, 0, 10): x_g = 1, y_g = 0, z_g = 0.
        u, v = project_to_image(rig, (1.0, 0.0, 0.0))
        assert u == pytest.approx(rig.a_x + 100.0)
        assert v == pytest.approx(rig.a_y)

    def test_point_behind_camera_rejected(self):
        rig = rig_from_pose(7.0, 10.0)  # looks along +x
        with pytest.raises(GeometryError, match="point behind camera"):
            project_to_image(rig, (-50.0, 0.0, 0.0))


class TestHeightSensitivity:
    def test_paper_figure_value(self):
        value = height_sensitivity(7.0, 0.0, 200.0, 0.5)
        assert value == pytest.approx(200.0 * 0.5 / 7.0)
        assert 13.5 <= value <= 15.5

    def test_zero_error(self):
        assert height_sensitivity(7.0, 0.0, 200.0, 0.0) == 0.0

    def test_linear_in_delta_and_range(self):
        base = height_sensitivity(9.0, 0.5, 120.0, 0.2)
        assert height_sensitivity(9.0, 0.5, 120.0, 0.4) == pytest.approx(2 * base)
        assert height_sensitivity(9.0, 0.5, 240.0, 0.2) == pytest.approx(2 * base)

    def test_doubling_camera_height_halves(self):
        assert height_sensitivity(14.0, 0.0, 200.0, 0.5) == pytest.approx(
            height_sensitivity(7.0, 0.0, 200.0, 0.5) / 2
        )

    def test_matches_two_lift_differencing(self):
        rig = rig_from_pose(7.0, 9.0, f_x=1600.0, f_y=1600.0)
        u, v = project_to_image(rig, (200.0, 30.0, 0.3))
        delta = 0.4
        p0 = lift_to_ground(rig, u, v, 0.3)
        p1 = lift_to_ground(rig, u, v, 0.3 + delta)
        foot = rig.camera_center_ground()[:2]
        r0 = math.hypot(p0[0] - foot[0], p0[1] - foot[1])
        measured = math.hypot(p1[0] - p0[0], p1[1] - p0[1])
        assert measured == pytest.approx(height_sensitivity(7.0, 0.3, r0, delta), rel=0.02)

    def test_invalid_height_rejected(self):
        with pytest.raises(GeometryError):
            height_sensitivity(2.0, 1.5, 100.0, 0.6)

    @pytest.mark.parametrize("h_r", [2.0, 3.0])
    def test_base_height_at_or_above_camera_rejected(self, h_r):
        # A negative delta_h keeps h_r + delta_h below the camera; h_r = 2
        # divided by zero, and h_r = 3 gave a number for a box above it.
        with pytest.raises(GeometryError, match="relative height above camera"):
            height_sensitivity(2.0, h_r, 100.0, -1.5)

    @pytest.mark.parametrize("args,got", [
        ((1e308, 0.0, 1e308, 1e307), "inf"),
        ((1e308, -1e308, 1e308, 1e308), "nan"),
    ])
    def test_result_past_float_range_rejected(self, args, got):
        with pytest.raises(ValueError, match=f"^location error is not a finite number, got {got}$"):
            height_sensitivity(*args)


class TestCorners:
    def test_unit_cube(self):
        corners = corners_of(Box3D(0, 0, 0, 2, 2, 2, 0))
        expected = {(sx, sy, sz) for sx in (-1, 1) for sy in (-1, 1) for sz in (0, 2)}
        got = {tuple(np.round(c, 12)) for c in corners}
        assert got == expected

    def test_quarter_turn_swaps_axes(self):
        corners = corners_of(Box3D(0, 0, 0, 4, 2, 1, math.pi / 2))
        xs = sorted(round(c[0], 9) for c in corners)
        ys = sorted(round(c[1], 9) for c in corners)
        assert xs[0] == -1 and xs[-1] == 1
        assert ys[0] == -2 and ys[-1] == 2

    def test_centroid_and_edge_lengths(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            box = Box3D(
                x=rng.uniform(-50, 50),
                y=rng.uniform(-50, 50),
                z=rng.uniform(-2, 2),
                l=rng.uniform(0.5, 6),
                w=rng.uniform(0.5, 3),
                h=rng.uniform(0.5, 3),
                theta=rng.uniform(-math.pi, math.pi),
            )
            corners = corners_of(box)
            np.testing.assert_allclose(
                corners.mean(axis=0), [box.x, box.y, box.z + box.h / 2], atol=1e-9
            )
            # The 12 edges connect corners whose sign patterns differ in one bit.
            lengths = []
            for i in range(8):
                for j in range(i + 1, 8):
                    if bin(i ^ j).count("1") == 1:
                        lengths.append(np.linalg.norm(corners[i] - corners[j]))
            expected = sorted([box.l] * 4 + [box.w] * 4 + [box.h] * 4)
            np.testing.assert_allclose(sorted(lengths), expected, atol=1e-9)

    def test_translation_equivariance(self):
        box = Box3D(1, 2, 0.5, 4, 2, 1.5, 0.7)
        shifted = Box3D(1 + 3, 2 - 4, 0.5 + 1, 4, 2, 1.5, 0.7)
        np.testing.assert_allclose(
            corners_of(shifted), corners_of(box) + np.array([3, -4, 1]), atol=1e-9
        )

    def test_full_turn_invariance(self):
        box = Box3D(1, 2, 0.5, 4, 2, 1.5, 0.7)
        turned = Box3D(1, 2, 0.5, 4, 2, 1.5, 0.7 + math.tau)
        np.testing.assert_allclose(corners_of(turned), corners_of(box), atol=1e-9)

    def test_theta_normalized(self):
        assert Box3D(0, 0, 0, 1, 1, 1, 3 * math.pi).theta == pytest.approx(math.pi)
        assert Box3D(0, 0, 0, 1, 1, 1, -math.pi).theta == pytest.approx(math.pi)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_theta_rejected(self, theta):
        with pytest.raises(ValueError, match="box fields must be finite"):
            Box3D(0, 0, 0, 1, 1, 1, theta)

    @pytest.mark.parametrize(
        "category", ["", "#car", "my car", " car", "car\n", "\x85", "a\u3000b", None, 3],
        ids=["empty", "comment", "inner-space", "leading-space", "newline", "nel",
             "ideographic-space", "none", "int"],
    )
    def test_category_must_be_one_label_token(self, category):
        with pytest.raises(ValueError, match="category must be a non-empty string"):
            Box3D(0, 0, 0, 1, 1, 1, 0, category=category)

    def test_category_grammar_allows_non_ascii_and_inner_hash(self):
        for category in ("traffic_cone", "über", "a#b", "٣"):
            assert Box3D(0, 0, 0, 1, 1, 1, 0, category=category).category == category


class TestLabelFrame:
    BOXES = [
        Box3D(1.0, 2.0, 0.5, 4.0, 2.0, 1.5, 0.7, category="car", score=0.9),
        Box3D(-3.0, 8.0, 0.0, 0.6, 0.6, 1.7, -math.pi, category="ped"),
        Box3D(30.0, 0.0, 0.1, 10.0, 2.5, 3.2, 2.0, category="truck", score=0.0),
    ]

    def test_of_boxes_is_a_sequence_of_the_same_boxes(self):
        frame = LabelFrame.of(self.BOXES)
        assert len(frame) == 3 and bool(frame)
        assert list(frame) == self.BOXES
        assert frame[1] == self.BOXES[1] and frame[-1] == self.BOXES[2]
        assert frame.categories == ("car", "ped", "truck")
        np.testing.assert_array_equal(frame.params[0], [1.0, 2.0, 0.5, 4.0, 2.0, 1.5, 0.7])
        assert frame.params[1, 6] == math.pi
        np.testing.assert_array_equal(frame.scores, [0.9, math.nan, 0.0])
        assert LabelFrame.of(frame) is frame

    def test_arrays_are_read_only(self):
        frame = LabelFrame.of(self.BOXES)
        for array in (frame.params, frame.scores):
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_take_and_empty(self):
        frame = LabelFrame.of(self.BOXES)
        assert list(frame.take([2, 0])) == [self.BOXES[2], self.BOXES[0]]
        empty = frame.take([])
        assert len(empty) == 0 and not empty and list(empty) == []
        assert empty.params.shape == (0, 7) and LabelFrame.of([]).params.shape == (0, 7)

    def test_fields_must_agree_in_length(self):
        with pytest.raises(ValueError, match="one entry per box"):
            LabelFrame(np.zeros((2, 7)), ("car",), np.zeros(2))


@st.composite
def rigs(draw):
    return rig_from_pose(
        camera_height=draw(st.floats(4.0, 12.0)),
        pitch_deg=draw(st.floats(5.0, 60.0)),
        yaw_deg=draw(st.floats(-180.0, 180.0)),
        roll_deg=draw(st.floats(-3.0, 3.0)),
        f_x=(f := draw(st.floats(800.0, 2400.0))),
        f_y=f,
    )


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        rig=rigs(),
        u=st.floats(0.0, 1536.0),
        v=st.floats(0.0, 1024.0),
        hr_frac=st.floats(0.0, 0.999),
    )
    def test_round_trip(self, rig, u, v, hr_frac):
        plane = ground_plane_from_extrinsics(rig)
        assert plane.camera_height == -plane.d
        h_r = hr_frac * (plane.camera_height - 1.0)
        try:
            point = lift_to_ground(rig, u, v, h_r)
        except GeometryError:
            assume(False)
        u2, v2 = project_to_image(rig, point)
        recovered = lift_to_ground(rig, u2, v2, h_r)
        assert np.abs(recovered - point).max() < 1e-6
        assert abs(point[2] - h_r) < 1e-9

    @settings(max_examples=100, deadline=None)
    @given(rig=rigs(), u=st.floats(0.0, 1536.0), v=st.floats(0.0, 1024.0))
    def test_depth_equals_lift_camera_z(self, rig, u, v):
        try:
            depth = depth_to_ground(rig, u, v)
            point = lift_to_ground(rig, u, v, 0.0)
        except GeometryError:
            assume(False)
        cam_z = rig.extrinsic.apply(point)[2]
        assert cam_z == pytest.approx(depth, rel=1e-9)


def _tilted_plane():
    return ground_plane_from_extrinsics(rig_from_pose(10.0, 30.0))


def _rig(**change):
    return dataclasses.replace(nadir_rig(), **change)


def _plane(**change):
    return dataclasses.replace(_tilted_plane(), **change)


@pytest.mark.parametrize(
    "build,error,message",
    [
        (lambda: RigidTransform(np.eye(2), np.zeros(3)), ValueError, "rotation must be 3x3"),
        (lambda: RigidTransform(np.eye(3), np.zeros(2)), ValueError,
         "translation must be a 3-vector"),
        (lambda: RigidTransform(np.eye(3), [0.0, math.nan, 0.0]), ValueError,
         "transform contains non-finite values"),
        (lambda: RigidTransform(2.0 * np.eye(3), np.zeros(3)), ValueError,
         "rotation is not orthonormal"),
        (lambda: RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3)), ValueError,
         r"rotation determinant is not \+1"),
        (lambda: _rig(f_y=0.0), ValueError, "focal lengths must be positive"),
        (lambda: _rig(f_x=math.inf), ValueError, "focal lengths must be positive"),
        (lambda: _rig(a_x=math.nan), ValueError, "principal point must be finite"),
        (lambda: _rig(image_height=0), ValueError, "image dimensions must be positive"),
        (lambda: _plane(a=0.5), ValueError, "plane normal is not unit length"),
        (lambda: _plane(d=0.0), ValueError, "camera height must be positive"),
        (lambda: _plane(cam_to_virtual=2.0 * _tilted_plane().cam_to_virtual), ValueError,
         "cam_to_virtual is not orthonormal"),
        (lambda: _plane(cam_to_virtual=np.eye(3)), ValueError,
         r"cam_to_virtual must map the down normal to \+y"),
        (lambda: _plane(virtual_to_ground=RigidTransform(np.eye(3), np.zeros(3))), ValueError,
         "virtual x/z plane is not parallel to the ground"),
        (lambda: _plane(a=math.nan, b=math.nan, c=math.nan, d=math.nan), ValueError,
         "plane normal is not unit length"),
        (lambda: ground_plane_from_extrinsics(rig_from_pose(-5.0, 30.0)), GeometryError,
         "camera below ground plane"),
    ],
    ids=["rotation-shape", "translation-shape", "non-finite", "not-orthonormal",
         "reflection", "zero-focal", "infinite-focal", "nan-principal-point", "zero-height-px",
         "normal-not-unit", "zero-offset", "cam-to-virtual-scaled",
         "cam-to-virtual-misses-normal", "virtual-plane-tilted", "nan-plane",
         "camera-below-ground"],
)
def test_constructors_reject_bad_values(build, error, message):
    with pytest.raises(error, match=message):
        build()


@pytest.mark.parametrize("focal", [5e-324, 1e-300, math.nextafter(MIN_FOCAL_PX, 0.0)])
@pytest.mark.parametrize("axis", ["f_x", "f_y"])
def test_focal_length_below_the_floor_rejected(axis, focal):
    with pytest.raises(ValueError, match="focal lengths must be .* at least 1 px"):
        _rig(**{axis: focal})


def test_shortest_focal_length_lifts_the_corner_pixels_without_overflow():
    # At MIN_FOCAL_PX the ray directions of the largest image's corner
    # pixels stay finite; the suite turns numpy overflow warnings into
    # errors.
    side = 16_384
    rig = rig_from_pose(7.0, 60.0, f_x=MIN_FOCAL_PX, f_y=MIN_FOCAL_PX,
                        image_width=side, image_height=side)
    us, vs = np.meshgrid([0.5, side / 2.0, side - 0.5], [0.5, side / 2.0, side - 0.5])
    depth, ground = ray_ground(rig, us, vs)
    hit = ~np.isnan(depth)
    assert hit.any()
    assert np.isfinite(ground[hit]).all()
    assert np.isfinite(lift_to_ground(rig, us[hit][0], vs[hit][0], 0.0)).all()


@pytest.mark.parametrize(
    "roll_deg,v_offset,cam_to_virtual",
    [(0.0, 200.0, np.eye(3)), (180.0, -200.0, np.diag([-1.0, -1.0, 1.0]))],
    ids=["level-normal-along-y", "upside-down-normal-against-y"],
)
def test_minimal_rotation_branches_lift_and_project_back(roll_deg, v_offset, cam_to_virtual):
    rig = rig_from_pose(8.0, 0.0, roll_deg=roll_deg)
    plane = ground_plane_from_extrinsics(rig)
    assert np.allclose(plane.cam_to_virtual, cam_to_virtual, atol=1e-12)
    assert plane.camera_height == pytest.approx(8.0)
    u, v = rig.a_x + 50.0, rig.a_y + v_offset
    point = lift_to_ground(rig, u, v, 0.0)
    assert point[2] == pytest.approx(0.0, abs=1e-9)
    assert project_to_image(rig, point) == pytest.approx((u, v), abs=1e-6)
