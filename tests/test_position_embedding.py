import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from roadlift.camera_geometry import (
    RAY_PARALLEL_TOL,
    CameraRig,
    GeometryError,
    RigidTransform,
    depth_to_ground,
    rig_from_pose,
)
from roadlift.position_embedding import TEMPERATURE, embed_depth_map, sine_encode
from roadlift.scene_cue_bank import STRIDE, grid_dims_for_image


def nadir_rig(height=10.0):
    ext = RigidTransform(np.diag([1.0, -1.0, -1.0]), np.array([0.0, 0.0, height]))
    return CameraRig(1000.0, 1000.0, 768.0, 512.0, ext, 1536, 1024)


class TestSineEncode:
    def test_zero_value_alternates(self):
        out = sine_encode(0.0, 8)
        np.testing.assert_array_equal(out, [0, 1, 0, 1, 0, 1, 0, 1])

    def test_matches_direct_trig(self):
        assert TEMPERATURE == 10000.0
        out = sine_encode(1.0, 4)
        expected = [math.sin(1.0), math.cos(1.0), math.sin(0.01), math.cos(0.01)]
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_periodicity_at_finest_frequency(self):
        v = 3.7
        a = sine_encode(v, 16)
        b = sine_encode(v + 2 * math.pi, 16)
        assert abs(a[0] - b[0]) < 1e-9 and abs(a[1] - b[1]) < 1e-9

    def test_magnitudes_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            out = sine_encode(rng.uniform(-500, 500), 32)
            assert np.all(np.abs(out) <= 1.0)

    def test_arrays_encoded_elementwise(self):
        values = np.array([[0.0, 1.0, -2.5], [3.7, 120.0, 1e4]])
        out = sine_encode(values, 6)
        assert out.shape == (2, 3, 6)
        for idx, value in np.ndenumerate(values):
            assert np.array_equal(out[idx], sine_encode(float(value), 6))

    def test_odd_size_rejected(self):
        with pytest.raises(ValueError):
            sine_encode(1.0, 5)

    def test_distinct_depths_get_distinct_codes(self):
        rng = np.random.default_rng(1)
        depths = rng.uniform(1.0, 300.0, 1000)
        codes = np.stack([sine_encode(d, 32) for d in depths])
        # L-inf separation of every pair; O(n^2) but small.
        diffs = np.abs(codes[:, None, :] - codes[None, :, :]).max(axis=2)
        np.fill_diagonal(diffs, 1.0)
        assert diffs.min() > 1e-6

    @pytest.mark.parametrize("d_e", [2, 8, 64])
    @pytest.mark.parametrize("kind", ["scalar", "0-d", "1-D", "2-D"])
    def test_equals_reference_broadcast_formula(self, kind, d_e):
        rng = np.random.default_rng(d_e)
        values = {
            "scalar": 37.25,
            "0-d": np.array(-4.5),
            "1-D": np.concatenate([rng.uniform(-300.0, 300.0, 40), [np.nan, 0.0, -0.0, 1e6]]),
            "2-D": np.where(rng.random((16, 24)) < 0.2, np.nan, rng.uniform(0.0, 500.0, (16, 24))),
        }[kind]
        got = sine_encode(values, d_e)
        want = _reference_sine_encode(values, d_e)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def _reference_sine_encode(value, d_e):
    """sine_encode as one broadcast over a trailing frequency axis,
    verbatim."""
    freq = TEMPERATURE ** (2.0 * np.arange(d_e // 2) / d_e)
    ang = np.asarray(value, dtype=float)[..., None] / freq
    out = np.empty(ang.shape[:-1] + (d_e,))
    out[..., 0::2] = np.sin(ang)
    out[..., 1::2] = np.cos(ang)
    return out


def _reference_embed_depth_map(rig, plane, d_e, temperature):
    """embed_depth_map as its inline depth and encoding computed it before
    the shared ray-ground kernel and while the temperature was an
    argument; kept verbatim as the oracle."""
    if d_e <= 0 or d_e % 2:
        raise ValueError(f"embedding size must be a positive even integer, got {d_e}")
    h_cells, w_cells = grid_dims_for_image(rig.image_height, rig.image_width)
    u = (np.arange(w_cells) + 0.5) * STRIDE
    v = (np.arange(h_cells) + 0.5) * STRIDE
    uu, vv = np.meshgrid(u, v)
    den = plane.a * (uu - rig.a_x) / rig.f_x + plane.b * (vv - rig.a_y) / rig.f_y + plane.c
    with np.errstate(divide="ignore", invalid="ignore"):
        depth = np.where(np.abs(den) > RAY_PARALLEL_TOL, -plane.d / den, np.nan)
    valid = np.isfinite(depth) & (depth > 0)
    freq = temperature ** (2.0 * np.arange(d_e // 2) / d_e)
    ang = np.where(valid, depth, 0.0)[:, :, None] / freq
    out = np.empty((h_cells, w_cells, d_e))
    out[:, :, 0::2] = np.sin(ang)
    out[:, :, 1::2] = np.cos(ang)
    out[~valid] = 0.0
    return out


PIN_RIGS = {
    "nadir": nadir_rig(),
    "rolled": rig_from_pose(6.0, 30.0, yaw_deg=-40.0, roll_deg=25.0),
    "horizon": rig_from_pose(7.0, 8.0, yaw_deg=120.0, f_x=1400.0, f_y=1400.0),
    "augmented": dataclasses.replace(
        rig_from_pose(8.0, 12.0, roll_deg=2.0, f_x=1190.0, f_y=1190.0, image_width=1304,
                      image_height=872),
        a_x=652.3, a_y=431.9,
    ),
}


class TestEmbedDepthMap:
    @pytest.mark.parametrize("name", sorted(PIN_RIGS))
    # The reference runs at the program's temperature, 10000.
    @pytest.mark.parametrize("d_e,temperature", [(2, 10000.0), (6, 10000.0), (64, 10000.0)])
    def test_equals_reference_inline_encoding(self, name, d_e, temperature):
        rig = PIN_RIGS[name]
        grid = embed_depth_map(rig, d_e)
        assert np.array_equal(grid, _reference_embed_depth_map(rig, rig.plane, d_e, temperature))

    def test_nadir_constant(self):
        rig = nadir_rig()
        grid = embed_depth_map(rig, 8)
        assert grid.shape == (128, 192, 8)
        np.testing.assert_allclose(grid, np.broadcast_to(grid[0, 0], grid.shape), atol=1e-12)

    def test_horizon_cells_are_zero_sentinels(self):
        rig = rig_from_pose(7.0, 8.0)  # sky occupies the upper image
        grid = embed_depth_map(rig, 4)
        assert not grid[0].any()  # topmost row is above the horizon
        assert grid[-1].any()

    def test_cells_match_per_pixel_recomputation(self):
        rig = rig_from_pose(9.0, 25.0, yaw_deg=30.0)
        d_e = 6
        grid = embed_depth_map(rig, d_e)
        rng = np.random.default_rng(2)
        for _ in range(50):
            r = int(rng.integers(0, 128))
            c = int(rng.integers(0, 192))
            u, v = (c + 0.5) * 8, (r + 0.5) * 8
            try:
                depth = depth_to_ground(rig, u, v)
            except GeometryError:
                np.testing.assert_array_equal(grid[r, c], np.zeros(d_e))
                continue
            from roadlift.position_embedding import sine_encode as enc

            np.testing.assert_allclose(grid[r, c], enc(depth, d_e), atol=1e-12)

    def test_depth_monotone_down_columns_below_horizon(self):
        rig = rig_from_pose(7.0, 20.0)
        depths = []
        for r in range(40, 128):
            u, v = (96 + 0.5) * 8, (r + 0.5) * 8
            depths.append(depth_to_ground(rig, u, v))
        assert all(a > b for a, b in zip(depths, depths[1:]))

    def test_traced_peak_is_about_one_output_grid(self):
        # sine_encode fills one sin/cos pair at a time through
        # depth-sized temporaries.  On this 1536x1024 rig at d_e 64 that
        # measured 1.09 output grids; the broadcast encoding, which held
        # full angle, sin and cos arrays beside the output, 2.06 (Python
        # 3.11, numpy 2).
        rig = nadir_rig()
        tracemalloc.start()
        try:
            grid = embed_depth_map(rig, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid.shape == (128, 192, 64)
        assert peak / grid.nbytes < 1.25
