import struct
import tracemalloc
import types
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from roadlift import scene_cue_bank
from roadlift.camera_geometry import MAX_IMAGE_SIDE
from roadlift.scene_cue_bank import (
    MAX_GRID_VALUES,
    CueMask,
    FeatureGrid,
    SceneBank,
    bank_memory_elements,
    cell_centers,
    extract_cues,
    grid_dims_for_image,
    load_bank,
    make_mask,
    save_bank,
)
from roadlift.scene_cue_bank import MAX_CHANNELS, _scattered_grid, check_channels


def grid_from(values):
    return FeatureGrid(np.asarray(values, dtype=float))


def random_grid(rng, h=4, w=5, d=2):
    return FeatureGrid(rng.standard_normal((h, w, d)))


def full_mask(h=4, w=5):
    return CueMask(np.ones((h, w), dtype=np.uint8))


def _reference_extract_cues(features: FeatureGrid, mask: CueMask) -> FeatureGrid:
    """extract_cues as the full-grid product with the 0-1 mask, verbatim."""
    if mask.cells.shape != features.values.shape[:2]:
        raise ValueError(
            f"mask shape {mask.cells.shape} does not match grid "
            f"{features.values.shape[:2]}"
        )
    return FeatureGrid(features.values * mask.cells[:, :, None])


def _reference_update_momentum(memorized: np.ndarray, cues: FeatureGrid, momentum: float):
    """The full-grid momentum blend, out of place, verbatim."""
    return (1.0 - momentum) * memorized + momentum * cues.values


def pin_masks(rng, h, w):
    """Random masks plus masks whose blocks are clipped at every border."""
    corners = [(0.0, 0.0), (w * 8 - 1.0, 0.0), (0.0, h * 8 - 1.0), (w * 8 - 1.0, h * 8 - 1.0)]
    edges = [(w * 4.0, 0.0), (0.0, h * 4.0), (w * 8 - 0.5, h * 4.0), (w * 4.0, h * 8 - 0.5)]
    return [
        make_mask(corners, (h, w)),
        make_mask(edges, (h, w)),
        make_mask(corners + edges, (h, w)),
        CueMask((rng.random((h, w)) < 0.3).astype(np.uint8)),
        CueMask(np.zeros((h, w), dtype=np.uint8)),
        full_mask(h, w),
    ]


class TestMakeMask:
    def test_interior_point_gives_nine_cells(self):
        mask = make_mask([(84.0, 84.0)], (20, 20))  # cell (10, 10)
        assert mask.cells.sum() == 9
        assert mask.cells[9:12, 9:12].sum() == 9

    def test_corner_point_clipped_to_four(self):
        mask = make_mask([(0.0, 0.0)], (20, 20))
        assert mask.cells.sum() == 4
        assert mask.cells[0:2, 0:2].sum() == 4

    def test_two_overlapping_blocks_union(self):
        # Cells (10, 10) and (10, 12): 3x3 blocks share one column of 3 cells.
        mask = make_mask([(84.0, 84.0), (100.0, 84.0)], (20, 20))
        assert mask.cells.sum() == 15

    def test_out_of_image_points_skipped(self):
        mask = make_mask([(84.0, 84.0), (-1.0, 5.0), (160.0, 5.0)], (20, 20))
        assert mask.skipped == 2
        assert mask.cells.sum() == 9

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(0, 159.99), st.floats(0, 159.99)), min_size=0, max_size=10
        )
    )
    def test_count_bounded_by_nine_per_point(self, points):
        mask = make_mask(points, (20, 20))
        assert mask.cells.sum() <= 9 * len(points)

    def test_interior_spread_points_hit_the_bound(self):
        points = [(40.0, 40.0), (80.0, 80.0), (120.0, 40.0)]
        assert make_mask(points, (20, 20)).cells.sum() == 27


class TestExtractCues:
    def test_all_ones_identity(self):
        rng = np.random.default_rng(0)
        grid = random_grid(rng)
        out = extract_cues(grid, full_mask())
        np.testing.assert_array_equal(out.values, grid.values)

    def test_all_zeros(self):
        rng = np.random.default_rng(0)
        grid = random_grid(rng)
        out = extract_cues(grid, CueMask(np.zeros((4, 5), dtype=np.uint8)))
        assert not out.values.any()

    def test_elementwise_against_loop(self):
        rng = np.random.default_rng(1)
        grid = random_grid(rng, 4, 4, 2)
        mask = CueMask((rng.random((4, 4)) < 0.5).astype(np.uint8))
        out = extract_cues(grid, mask)
        for i in range(4):
            for j in range(4):
                for k in range(2):
                    assert out.values[i, j, k] == grid.values[i, j, k] * mask.cells[i, j]

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        grid = random_grid(rng)
        mask = CueMask((rng.random((4, 5)) < 0.4).astype(np.uint8))
        once = extract_cues(grid, mask)
        twice = extract_cues(once, mask)
        np.testing.assert_array_equal(once.values, twice.values)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            extract_cues(FeatureGrid(np.zeros((4, 5, 2))), CueMask(np.zeros((5, 5), np.uint8)))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("shape", [(1, 1, 1), (3, 7, 2), (9, 6, 4), (16, 24, 8)])
    def test_equals_reference_product(self, seed, shape):
        rng = np.random.default_rng(seed)
        grid = FeatureGrid(rng.standard_normal(shape) * 10.0)
        for mask in pin_masks(rng, *shape[:2]):
            out = extract_cues(grid, mask)
            ref = _reference_extract_cues(grid, mask)
            assert np.array_equal(out.values, ref.values)
            sel = mask.cells.astype(bool)
            assert out.values[sel].tobytes() == ref.values[sel].tobytes()

    def test_off_mask_cells_are_positive_zero(self):
        grid = grid_from(-np.ones((3, 3, 2)))
        mask = CueMask(np.eye(3, dtype=np.uint8))
        out = extract_cues(grid, mask)
        assert not np.signbit(out.values[~mask.cells.astype(bool)]).any()
        np.testing.assert_array_equal(out.values[mask.cells.astype(bool)], -1.0)

    def test_result_is_read_only(self):
        out = extract_cues(random_grid(np.random.default_rng(3)), full_mask())
        with pytest.raises(ValueError):
            out.values[0, 0, 0] = 1.0


def _reference_scattered_grid(values: np.ndarray, cells: np.ndarray, shape) -> np.ndarray:
    """_scattered_grid's grid as the np.zeros construction it replaced."""
    grid = np.zeros(shape)
    grid.reshape(-1, shape[2])[cells] = values
    return grid


class TestScatteredGrid:
    @pytest.mark.parametrize("seed", range(8))
    def test_equals_np_zeros_construction(self, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(int(n) for n in rng.integers(1, 12, size=3))
        n_cells = shape[0] * shape[1]
        some = np.sort(rng.choice(n_cells, size=rng.integers(1, n_cells + 1), replace=False))
        for cells in (np.arange(0), some, np.arange(n_cells)):
            values = rng.standard_normal((cells.size, shape[2]))
            values[::3] = -0.0  # sign bits must survive the scatter
            grid = _scattered_grid(values, cells, shape).values
            assert grid.dtype == np.float64 and grid.flags.c_contiguous
            assert not grid.flags.writeable
            assert grid.shape == shape
            assert grid.tobytes() == _reference_scattered_grid(values, cells, shape).tobytes()

    @pytest.mark.parametrize("shape", [(0, 5, 3), (4, 0, 3), (0, 0, 1)])
    def test_zero_size_shape(self, shape):
        values = np.empty((0, shape[2]))
        grid = _scattered_grid(values, np.arange(0), shape).values
        assert grid.shape == shape and grid.dtype == np.float64 and grid.flags.c_contiguous
        assert grid.tobytes() == b""


class TestMomentumUpdate:
    def test_momentum_one_replaces(self):
        rng = np.random.default_rng(3)
        bank = SceneBank()
        bank.reset_scene("s", FeatureGrid(np.zeros((4, 5, 2))))
        cues = random_grid(rng)
        bank.update_momentum("s", cues, momentum=1.0)
        np.testing.assert_array_equal(bank.memorized("s").values, cues.values)

    def test_momentum_zero_keeps(self):
        rng = np.random.default_rng(4)
        init = random_grid(rng)
        bank = SceneBank()
        bank.reset_scene("s", init)
        bank.update_momentum("s", random_grid(rng), momentum=0.0)
        np.testing.assert_array_equal(bank.memorized("s").values, init.values)

    def test_unrolled_two_steps(self):
        rng = np.random.default_rng(5)
        g1, g2 = random_grid(rng), random_grid(rng)
        bank = SceneBank()
        bank.reset_scene("s", FeatureGrid(np.zeros((4, 5, 2))))
        bank.update_momentum("s", g1, momentum=0.5)
        bank.update_momentum("s", g2, momentum=0.5)
        np.testing.assert_allclose(
            bank.memorized("s").values, 0.25 * g1.values + 0.5 * g2.values, atol=1e-12
        )

    def test_lazy_init_uses_first_frame(self):
        rng = np.random.default_rng(6)
        cues = random_grid(rng)
        bank = SceneBank()
        bank.update_momentum("fresh", cues, momentum=0.25)
        np.testing.assert_array_equal(bank.memorized("fresh").values, cues.values)
        assert bank.frames_seen("fresh") == 1

    def test_invalid_momentum(self):
        bank = SceneBank()
        with pytest.raises(ValueError):
            bank.update_momentum("s", FeatureGrid(np.zeros((2, 2, 1))), momentum=1.5)

    @settings(max_examples=50, deadline=None)
    @given(lam=st.floats(0.0, 1.0), seed=st.integers(0, 10_000))
    def test_convexity_per_cell(self, lam, seed):
        rng = np.random.default_rng(seed)
        old, new = random_grid(rng), random_grid(rng)
        bank = SceneBank()
        bank.reset_scene("s", old)
        bank.update_momentum("s", new, momentum=lam)
        mem = bank.memorized("s").values
        lo = np.minimum(old.values, new.values) - 1e-12
        hi = np.maximum(old.values, new.values) + 1e-12
        assert np.all(mem >= lo) and np.all(mem <= hi)


    @pytest.mark.parametrize("momentum", [0.0, 0.1, 0.3, 0.5, 1.0])
    def test_equals_reference_blend(self, momentum):
        rng = np.random.default_rng(11)
        init = FeatureGrid(rng.standard_normal((6, 7, 3)))
        bank = SceneBank()
        bank.reset_scene("s", init)
        expected = init.values
        for mask in pin_masks(rng, 6, 7):
            cues = extract_cues(FeatureGrid(rng.standard_normal((6, 7, 3))), mask)
            bank.update_momentum("s", cues, momentum)
            expected = _reference_update_momentum(expected, cues, momentum)
            assert bank.memorized("s").values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("momentum", [0.0, 0.1, 0.3, 0.5, 1.0])
    def test_masked_blend_equals_full_blend(self, momentum):
        rng = np.random.default_rng(19)
        init = FeatureGrid(rng.standard_normal((6, 7, 3)))
        full, masked = SceneBank(), SceneBank()
        full.reset_scene("s", init)
        masked.reset_scene("s", init)
        for mask in pin_masks(rng, 6, 7):
            cues = extract_cues(FeatureGrid(rng.standard_normal((6, 7, 3))), mask)
            full.update_momentum("s", cues, momentum)
            masked.update_momentum("s", cues, momentum, mask)
            want, got = full.memorized("s").values, masked.memorized("s").values
            # Equal as numbers; as bytes wherever no product rounds to -0.0
            # (momentum 1 zeroes negative memory off the mask).
            np.testing.assert_array_equal(got, want)
            if momentum < 1.0:
                assert got.tobytes() == want.tobytes()
        assert masked.frames_seen("s") == full.frames_seen("s")

    def test_every_mask_caller_gives_the_same_shape_error(self):
        grid, mask = FeatureGrid(np.zeros((4, 5, 2))), full_mask(5, 4)
        bank = SceneBank()
        bank.reset_scene("s", grid)
        calls = (
            lambda: extract_cues(grid, mask),
            lambda: bank.update_momentum("s", grid, 0.5, mask),
            lambda: bank.update_running_average("s", grid, mask),
        )
        messages = []
        for call in calls:
            with pytest.raises(ValueError) as info:
                call()
            messages.append(str(info.value))
        assert messages == ["mask shape (5, 4) does not match grid (4, 5)"] * 3

    def test_masked_blend_checks_the_mask_shape(self):
        bank = SceneBank()
        bank.reset_scene("s", FeatureGrid(np.zeros((4, 5, 2))))
        with pytest.raises(ValueError, match="mask shape"):
            bank.update_momentum("s", FeatureGrid(np.zeros((4, 5, 2))), 0.5, full_mask(5, 4))

    def test_memorized_at_cells_copies_those_rows(self):
        rng = np.random.default_rng(20)
        bank = SceneBank()
        bank.reset_scene("s", random_grid(rng))
        cells = np.array([0, 3, 7, 19])
        got = bank.memorized("s", cells)
        assert got.tobytes() == bank.memorized("s").values.reshape(-1, 2)[cells].tobytes()
        got[:] = 99.0
        assert not np.any(bank.memorized("s").values == 99.0)
        assert bank.memorized("s", np.array([], dtype=np.intp)).shape == (0, 2)

    def test_memorized_channel_at_cells_copies_that_channel(self):
        rng = np.random.default_rng(21)
        bank = SceneBank()
        bank.reset_scene("s", random_grid(rng))
        cells = np.array([19, 0, 7, 3])
        for channel in (0, 1):
            got = bank.memorized("s", cells, channel)
            assert got.shape == (4,)
            assert got.tobytes() == bank.memorized("s", cells)[:, channel].tobytes()
            got[:] = 99.0
        assert not np.any(bank.memorized("s").values == 99.0)
        assert bank.memorized("s", np.array([], dtype=np.intp), 0).shape == (0,)
        with pytest.raises(ValueError, match="only together with cells"):
            bank.memorized("s", channel=0)

    def test_memorized_grid_is_a_snapshot(self):
        rng = np.random.default_rng(12)
        bank = SceneBank()
        bank.reset_scene("s", random_grid(rng))
        snap = bank.memorized("s")
        before = snap.values.copy()
        bank.update_momentum("s", random_grid(rng), 0.5)
        bank.update_running_average("s", random_grid(rng), full_mask())
        np.testing.assert_array_equal(snap.values, before)
        assert not np.array_equal(bank.memorized("s").values, before)

    def test_reset_does_not_alias_init(self):
        rng = np.random.default_rng(13)
        init = random_grid(rng)
        before = init.values.copy()
        bank = SceneBank()
        bank.reset_scene("s", init)
        bank.update_momentum("s", random_grid(rng), 0.5)
        np.testing.assert_array_equal(init.values, before)

    def test_lazy_init_does_not_alias_first_cues(self):
        rng = np.random.default_rng(14)
        cues = random_grid(rng)
        before = cues.values.copy()
        bank = SceneBank()
        bank.update_momentum("s", cues, 0.5)
        bank.update_momentum("s", random_grid(rng), 0.5)
        np.testing.assert_array_equal(cues.values, before)


class TestRunningAverage:
    def test_first_observation_sets_value(self):
        rng = np.random.default_rng(8)
        cues = random_grid(rng)
        bank = SceneBank()
        bank.update_running_average("s", cues, full_mask())
        np.testing.assert_allclose(bank.memorized("s").values, cues.values, atol=1e-15)
        assert np.all(bank.counter("s") == 1)

    def test_mean_of_two(self):
        a = grid_from(np.full((1, 1, 1), 3.0))
        b = grid_from(np.full((1, 1, 1), 7.0))
        mask = CueMask(np.ones((1, 1), np.uint8))
        bank = SceneBank()
        bank.update_running_average("s", a, mask)
        bank.update_running_average("s", b, mask)
        assert bank.memorized("s").values[0, 0, 0] == pytest.approx(5.0)

    def test_five_observations_match_direct_mean(self):
        rng = np.random.default_rng(9)
        obs = [random_grid(rng) for _ in range(5)]
        bank = SceneBank()
        for g in obs:
            bank.update_running_average("s", g, full_mask())
        direct = np.mean([g.values for g in obs], axis=0)
        np.testing.assert_allclose(bank.memorized("s").values, direct, atol=1e-12)

    def test_unmasked_cells_and_counters_untouched(self):
        rng = np.random.default_rng(10)
        init = random_grid(rng)
        bank = SceneBank()
        bank.reset_scene("s", init)
        baseline_counter = bank.counter("s")
        mask_cells = np.zeros((4, 5), np.uint8)
        mask_cells[1, 1] = 1
        for _ in range(3):
            bank.update_running_average("s", random_grid(rng), CueMask(mask_cells))
        mem = bank.memorized("s").values
        untouched = ~mask_cells.astype(bool)
        np.testing.assert_array_equal(mem[untouched], init.values[untouched])
        np.testing.assert_array_equal(bank.counter("s")[untouched], baseline_counter[untouched])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        observations = []
        for _ in range(12):
            mask = CueMask((rng.random((4, 5)) < 0.6).astype(np.uint8))
            observations.append((random_grid(rng), mask))
        reference = None
        for shuffle_seed in range(20):
            order = np.random.default_rng(shuffle_seed).permutation(len(observations))
            bank = SceneBank()
            for idx in order:
                bank.update_running_average("s", *observations[idx])
            mem = bank.memorized("s").values
            if reference is None:
                reference = mem
            else:
                np.testing.assert_allclose(mem, reference, atol=1e-9)


class TestResetScene:
    def test_reset_then_read(self):
        rng = np.random.default_rng(12)
        init = random_grid(rng)
        bank = SceneBank()
        bank.reset_scene("s", init)
        np.testing.assert_array_equal(bank.memorized("s").values, init.values)
        assert bank.frames_seen("s") == 0

    def test_reset_with_zero_grid_zeroes_counters(self):
        bank = SceneBank()
        bank.reset_scene("s", FeatureGrid(np.zeros((4, 5, 2))))
        assert not bank.counter("s").any()

    def test_reset_midstream_equals_fresh(self):
        rng = np.random.default_rng(13)
        update = (random_grid(rng), full_mask())
        dirty = SceneBank()
        for _ in range(4):
            dirty.update_running_average("s", random_grid(rng), full_mask())
        dirty.reset_scene("s", FeatureGrid(np.zeros((4, 5, 2))))
        dirty.update_running_average("s", *update)
        fresh = SceneBank()
        fresh.update_running_average("s", *update)
        np.testing.assert_allclose(
            dirty.memorized("s").values, fresh.memorized("s").values, atol=1e-12
        )
        np.testing.assert_array_equal(dirty.counter("s"), fresh.counter("s"))

    def test_reset_over_a_scene_equals_reset_of_a_fresh_bank(self):
        rng = np.random.default_rng(15)
        bank = SceneBank()
        bank.update_running_average("s", random_grid(rng), full_mask())
        bank.update_momentum("s", random_grid(rng), 0.5)
        # The same shape, then an augmentation scale change.
        for shape in ((4, 5, 2), (3, 6, 2)):
            values = rng.standard_normal(shape)
            values[rng.random(shape[:2]) < 0.5] = 0.0
            init = grid_from(values)
            old = weakref.ref(bank._scenes["s"].memorized)
            bank.reset_scene("s", init)
            assert old() is None
            fresh = SceneBank()
            fresh.reset_scene("s", init)
            assert bank.memorized("s").values.tobytes() == fresh.memorized("s").values.tobytes()
            np.testing.assert_array_equal(bank.counter("s"), fresh.counter("s"))
            assert bank.frames_seen("s") == fresh.frames_seen("s") == 0
            bank.update_momentum("s", random_grid(rng, *shape), 0.5)

    def test_reset_frees_the_old_memory_before_copying_init(self):
        # numpy reports its allocations to tracemalloc: a reset that copied
        # init while the old memory was alive would peak one grid higher.
        init = FeatureGrid(np.ones((32, 48, 16)))
        grid_bytes = init.values.nbytes
        bank = SceneBank()
        tracemalloc.start()
        try:
            bank.reset_scene("s", init)
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            bank.reset_scene("s", init)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < grid_bytes / 2

    def test_nonzero_init_counters_mark_support(self):
        values = np.zeros((2, 3, 2))
        values[0, 1, 0] = 4.0
        bank = SceneBank()
        bank.reset_scene("s", grid_from(values))
        expected = np.zeros((2, 3), dtype=np.int64)
        expected[0, 1] = 1
        np.testing.assert_array_equal(bank.counter("s"), expected)


class TestBankMemoryElements:
    def test_published_buffer_size(self):
        # 1024 x 1536 images at 1/8 resolution with 256 channels: ~6.3M floats.
        assert bank_memory_elements(1024, 1536, 256) == 6_291_456

    def test_single_cell(self):
        assert bank_memory_elements(8, 8, 1) == 1

    def test_doubling_height_doubles(self):
        assert bank_memory_elements(2048, 1536, 256) == 12_582_912

    def test_indivisible_dims_rejected(self):
        with pytest.raises(ValueError):
            bank_memory_elements(1020, 1536, 256)

    def test_grid_values_capped(self):
        # 128 x 192 cells: 682 channels fit under 2**24 values, 683 do not.
        assert bank_memory_elements(1024, 1536, 682) == 128 * 192 * 682 <= MAX_GRID_VALUES
        with pytest.raises(ValueError, match="exceeds 16777216 values"):
            bank_memory_elements(1024, 1536, 683)
        assert bank_memory_elements(8, 8, MAX_GRID_VALUES) == MAX_GRID_VALUES
        with pytest.raises(ValueError, match="1x1-cell grid with 16777217 channels"):
            bank_memory_elements(8, 8, MAX_GRID_VALUES + 1)


class TestCheckChannels:
    def test_bounds_are_inclusive(self):
        for channels in (1, MAX_CHANNELS):
            check_channels(channels)
        for channels in (0, MAX_CHANNELS + 1):
            with pytest.raises(ValueError, match="^channels must be at"):
                check_channels(channels)


class TestCellCenters:
    def test_centers_of_a_small_grid(self):
        us, vs = cell_centers(16, 24)
        np.testing.assert_array_equal(us, [[4.0, 12.0, 20.0]] * 2)
        np.testing.assert_array_equal(vs, [[4.0] * 3, [12.0] * 3])

    def test_indivisible_dims_rejected(self):
        with pytest.raises(ValueError, match="image_height must be a multiple of 8 px, got 1020"):
            cell_centers(1020, 1536)

    def test_image_side_capped(self):
        assert grid_dims_for_image(MAX_IMAGE_SIDE, MAX_IMAGE_SIDE) == (2048, 2048)
        for dims in ((MAX_IMAGE_SIDE + 8, 1536), (1024, MAX_IMAGE_SIDE + 8)):
            with pytest.raises(ValueError, match="must be an integer from 1 to 16384 px"):
                grid_dims_for_image(*dims)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(16)
        bank = SceneBank()
        for sid in ("alpha", "beta"):
            for _ in range(3):
                mask = CueMask((rng.random((4, 5)) < 0.5).astype(np.uint8))
                bank.update_running_average(sid, random_grid(rng), mask)
        path = tmp_path / "bank.bin"
        save_bank(bank, path)
        loaded = load_bank(path)
        assert sorted(loaded.scene_ids()) == ["alpha", "beta"]
        for sid in bank.scene_ids():
            np.testing.assert_array_equal(
                loaded.memorized(sid).values, bank.memorized(sid).values
            )
            np.testing.assert_array_equal(loaded.counter(sid), bank.counter(sid))
            assert loaded.frames_seen(sid) == bank.frames_seen(sid)

    @staticmethod
    def _inference_bank(rng):
        # Sparse masks on a grid of several pages: the memory is a
        # mapped zero grid that the masks write a few cells of.
        bank = SceneBank()
        for _ in range(5):
            mask = make_mask(rng.uniform(0.0, 8 * 48, (6, 2)) * [1.0, 32 / 48], (32, 48))
            bank.update_running_average("inference", random_grid(rng, 32, 48, 16), mask)
        return bank

    @staticmethod
    def _momentum_bank(rng):
        # A reset from cues holding -0.0 rows, then masked blends, which
        # keep -0.0 off their masks.
        values = rng.standard_normal((6, 7, 3))
        values[rng.random((6, 7)) < 0.3] = -0.0
        bank = SceneBank()
        bank.reset_scene("momentum", grid_from(values))
        for _ in range(3):
            mask = CueMask((rng.random((6, 7)) < 0.3).astype(np.uint8))
            bank.update_momentum("momentum", extract_cues(random_grid(rng, 6, 7, 3), mask),
                                 0.1, mask)
        return bank

    @staticmethod
    def _two_scene_bank(rng):
        bank = SceneBank()
        for sid in ("zeta", "alpha"):
            for _ in range(2):
                mask = CueMask((rng.random((3, 4)) < 0.5).astype(np.uint8))
                bank.update_running_average(sid, random_grid(rng, 3, 4, 2), mask)
        return bank

    @pytest.mark.parametrize("build", ["_inference_bank", "_momentum_bank", "_two_scene_bank"])
    def test_save_load_save_is_byte_identical(self, tmp_path, build):
        bank = getattr(self, build)(np.random.default_rng(330))
        first, second = tmp_path / "first.bin", tmp_path / "second.bin"
        save_bank(bank, first)
        loaded = load_bank(first)
        save_bank(loaded, second)
        assert second.read_bytes() == first.read_bytes()
        assert sorted(loaded.scene_ids()) == sorted(bank.scene_ids())
        for sid in bank.scene_ids():
            values = loaded.memorized(sid).values
            assert values.dtype == np.float64 and values.flags.c_contiguous
            assert values.tobytes() == bank.memorized(sid).values.tobytes()
            assert loaded.counter(sid).dtype == np.int64
            assert loaded.counter(sid).tobytes() == bank.counter(sid).tobytes()
            assert loaded.frames_seen(sid) == bank.frames_seen(sid)
        if build == "_momentum_bank":
            values = loaded.memorized("momentum").values
            assert ((values == 0.0) & np.signbit(values)).any()

    def test_big_endian_host_swaps_the_little_endian_file(self, tmp_path, monkeypatch):
        # On a big-endian host the bytes read into a native array are
        # swapped in place; here the swap shows as a byte-reversed value.
        # Dyadic values, whose swapped bytes are still finite.
        bank = SceneBank()
        bank.update_running_average("s", grid_from([[[1.5, -2.0], [0.25, 3.0]]]), full_mask(1, 2))
        path = tmp_path / "bank.bin"
        save_bank(bank, path)
        monkeypatch.setattr(scene_cue_bank, "sys", types.SimpleNamespace(byteorder="big"))
        loaded = load_bank(path)
        assert loaded.memorized("s").values.tobytes() == np.array(
            [[[1.5, -2.0], [0.25, 3.0]]], dtype=">f8").tobytes()
        assert loaded.counter("s").tobytes() == np.ones((1, 2), dtype=">i8").tobytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(ValueError, match="magic"):
            load_bank(path)

    @pytest.mark.parametrize(
        "corrupt,message",
        [
            (lambda raw: raw[:10], "truncated bank file: header needs 20 bytes at offset 4"),
            (lambda raw: raw[:33],
             "truncated bank file: scene 'a' frame count needs 8 bytes at offset 29"),
            (lambda raw: raw[:-4],
             "truncated bank file: scene 'b' counters needs 8 bytes at offset 90"),
            (lambda raw: raw + b"\x00", "1 trailing bytes after the last scene"),
            (lambda raw: raw[:37] + struct.pack("<d", np.nan) + raw[45:],
             "scene 'a': memory contains non-finite values"),
            (lambda raw: raw[:-8] + struct.pack("<q", -1),
             "scene 'b': negative observation counter"),
            (lambda raw: raw[:65] + b"a" + raw[66:], "duplicate scene 'a'"),
            (lambda raw: raw[:3], "not a scene bank file (bad magic)"),
            (lambda raw: raw[:27],
             "truncated bank file: scene id length needs 4 bytes at offset 24"),
            (lambda raw: raw[:40],
             "truncated bank file: scene 'a' values needs 16 bytes at offset 37"),
            (lambda raw: raw[:24] + struct.pack("<I", 2**32 - 1) + raw[28:],
             "truncated bank file: scene id needs 4294967295 bytes at offset 28"),
        ],
        ids=["short-header", "short-frames", "short-counters", "trailing", "nan", "negative",
             "duplicate", "short-magic", "short-id-length", "short-values", "huge-id-length"],
    )
    def test_malformed_file_rejected(self, tmp_path, corrupt, message):
        # The whole message, as the whole-file reader gave it.
        bank = SceneBank()
        for sid in ("a", "b"):
            bank.update_running_average(sid, grid_from([[[1.5, -2.0]]]), full_mask(1, 1))
        path = tmp_path / "bank.bin"
        save_bank(bank, path)
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(ValueError) as info:
            load_bank(path)
        assert str(info.value) == message

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        edits=st.lists(st.tuples(st.integers(0, 200), st.integers(0, 255)), max_size=4),
        cut=st.none() | st.integers(0, 160),
        tail=st.binary(max_size=12),
        noise=st.booleans(),
    )
    def test_any_bytes_round_trip_or_value_error(self, tmp_path, edits, cut, tail, noise):
        # Bytes of a valid two-scene bank with a few bytes changed, cut
        # short or extended; sometimes a valid header before pure noise.
        bank = SceneBank()
        for sid in ("b", "a"):
            bank.update_running_average(sid, grid_from([[[1.5, -2.0], [0.25, 3.0]]]),
                                        full_mask(1, 2))
        path = tmp_path / "bank.bin"
        save_bank(bank, path)
        raw = bytearray(path.read_bytes()[:24] + tail if noise else path.read_bytes())
        for pos, value in edits:
            if pos < len(raw):
                raw[pos] = value
        path.write_bytes(bytes(raw[:cut]) + tail)
        try:
            loaded = load_bank(path)
        except ValueError:
            return
        again_path = tmp_path / "again.bin"
        save_bank(loaded, again_path)
        again = load_bank(again_path)
        assert sorted(again.scene_ids()) == sorted(loaded.scene_ids())
        for sid in loaded.scene_ids():
            assert again.memorized(sid).values.tobytes() == loaded.memorized(sid).values.tobytes()
            np.testing.assert_array_equal(again.counter(sid), loaded.counter(sid))
            assert again.frames_seen(sid) == loaded.frames_seen(sid)

    def test_loaded_bank_accepts_both_updates(self, tmp_path):
        rng = np.random.default_rng(17)
        bank = SceneBank()
        bank.update_running_average("s", random_grid(rng), full_mask())
        path = tmp_path / "bank.bin"
        save_bank(bank, path)
        loaded = load_bank(path)
        start = loaded.memorized("s").values
        cues = random_grid(rng)
        loaded.update_momentum("s", cues, 0.25)
        expected = _reference_update_momentum(start, cues, 0.25)
        assert loaded.memorized("s").values.tobytes() == expected.tobytes()
        loaded.update_running_average("s", cues, full_mask())
        np.testing.assert_array_equal(loaded.counter("s"), np.full((4, 5), 2))
        assert loaded.frames_seen("s") == 3

    def test_save_reads_each_scene_at_most_once(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(18)
        bank = SceneBank()
        for sid in ("b", "a"):
            bank.update_running_average(sid, random_grid(rng, 2, 3, 2), full_mask(2, 3))
        expected = [b"RLSB", struct.pack("<5I", 1, 2, 2, 3, 2)]
        for sid in ("a", "b"):
            expected += [
                struct.pack("<I", 1), sid.encode(), struct.pack("<Q", 1),
                bank.memorized(sid).values.astype("<f8").tobytes(),
                bank.counter(sid).astype("<i8").tobytes(),
            ]
        reads = []
        memorized = SceneBank.memorized
        monkeypatch.setattr(
            SceneBank, "memorized", lambda self, sid: reads.append(sid) or memorized(self, sid)
        )
        path = tmp_path / "bank.bin"
        save_bank(bank, path)
        assert path.read_bytes() == b"".join(expected)
        assert max(map(reads.count, ("a", "b"))) <= 1

    def test_mixed_shapes_rejected(self, tmp_path):
        bank = SceneBank()
        bank.reset_scene("a", FeatureGrid(np.zeros((4, 5, 2))))
        bank.reset_scene("b", FeatureGrid(np.zeros((2, 5, 2))))
        with pytest.raises(ValueError, match="mixed"):
            save_bank(bank, tmp_path / "bank.bin")


class TestFeatureGrid:
    def test_memorized_is_read_only(self):
        bank = SceneBank()
        bank.reset_scene("s", FeatureGrid(np.zeros((2, 2, 1))))
        with pytest.raises(ValueError):
            bank.memorized("s").values[0, 0, 0] = 1.0

    def test_public_constructor_copies(self):
        raw = np.zeros((2, 2, 1))
        grid = FeatureGrid(raw)
        raw[0, 0, 0] = 5.0
        assert grid.values[0, 0, 0] == 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            grid_from([[[np.nan]]])

    def test_zeros_shape_properties(self):
        grid = FeatureGrid(np.zeros((128, 192, 3)))
        assert grid.values.shape == (128, 192, 3) and not grid.values.any()

    def test_shape_mismatch_on_update(self):
        bank = SceneBank()
        bank.reset_scene("s", FeatureGrid(np.zeros((4, 5, 2))))
        with pytest.raises(ValueError):
            bank.update_momentum("s", FeatureGrid(np.zeros((4, 4, 2))), momentum=0.5)


def buffer_owner(array):
    """The object whose memory ``array`` views."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array.base.obj if isinstance(array.base, memoryview) else array.base


class TestHeapGrid:
    # numpy advises huge pages on each buffer of 4 MiB or more that it
    # allocates, and the advice stays on the heap range after the array is
    # freed; the package's grid-sized heap arrays are bytearray buffers.
    @pytest.mark.parametrize("shape", [(2, 3, 4), (0, 5, 2), (128, 192, 64)])
    def test_zero_float_grid_in_a_bytearray(self, shape):
        grid = scene_cue_bank.heap_grid(shape)
        assert grid.shape == shape and grid.dtype == np.float64
        assert grid.flags.c_contiguous and grid.flags.writeable and not grid.any()
        assert isinstance(buffer_owner(grid), bytearray)

    def test_feature_grid_copies_into_a_bytearray(self):
        grid = FeatureGrid(np.ones((4, 5, 2)))
        assert isinstance(buffer_owner(grid.values), bytearray)
        assert not grid.values.flags.writeable


def _bank_file_with_version(path, version):
    bank = SceneBank()
    bank.reset_scene("s", FeatureGrid(np.zeros((2, 2, 1))))
    save_bank(bank, path)
    data = bytearray(path.read_bytes())
    data[4:8] = struct.pack("<I", version)
    path.write_bytes(bytes(data))
    return path


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda tmp: FeatureGrid(np.zeros((2, 2))), "feature grid must be 3-dimensional, got 2"),
        (lambda tmp: CueMask(np.zeros((2, 2, 1))), "mask must be 2-dimensional"),
        (lambda tmp: CueMask([[0, 2]]), "mask entries must be 0 or 1"),
        (lambda tmp: load_bank(_bank_file_with_version(tmp / "bank.bin", 2)),
         "unsupported bank version 2"),
    ],
    ids=["grid-ndim", "mask-ndim", "mask-entry", "bank-version"],
)
def test_rejects_bad_values(tmp_path, build, message):
    with pytest.raises(ValueError, match=message):
        build(tmp_path)
