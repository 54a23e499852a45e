import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadlift.camera_geometry import RigidTransform, ground_plane_from_extrinsics, rig_from_pose
from roadlift.scene_scheduler import (
    AugmentationParams,
    SceneScheduler,
    SchedulerConfig,
    apply_augmentation,
    sample_augmentation,
)
from roadlift.scene_scheduler import scaled_image_size


def quaternion_oracle_rotation(roll_deg, pitch_deg):
    """Independent rotation composition: unit quaternions for roll about z
    then pitch about x, composed and converted to a matrix."""

    def axis_quat(axis, angle):
        half = angle / 2.0
        return np.array([math.cos(half), *(math.sin(half) * np.asarray(axis))])

    def qmul(q1, q2):
        w1, x1, y1, z1 = q1
        w2, x2, y2, z2 = q2
        return np.array(
            [
                w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
                w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
                w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
                w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
            ]
        )

    def to_matrix(q):
        w, x, y, z = q
        return np.array(
            [
                [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
            ]
        )

    q_roll = axis_quat((0, 0, 1), math.radians(roll_deg))
    q_pitch = axis_quat((1, 0, 0), math.radians(pitch_deg))
    return to_matrix(qmul(q_pitch, q_roll))  # roll first, then pitch


class TestSampleAugmentation:
    def test_zero_sigma_is_identity_with_wide_clamp(self):
        config = SchedulerConfig(
            sigma_scale=0.0, sigma_roll_deg=0.0, sigma_pitch_deg=0.0, clamp_lo=0.5, clamp_hi=1.5
        )
        params = sample_augmentation(np.random.default_rng(0), config)
        assert params == AugmentationParams(1.0, 0.0, 0.0)

    def test_zero_sigma_saturates_at_default_clamp(self):
        # The stock clamp interval (0.8, 0.9) sits below the sampler mean,
        # so a noiseless draw pins to the upper bound.
        config = SchedulerConfig(sigma_scale=0.0, sigma_roll_deg=0.0, sigma_pitch_deg=0.0)
        params = sample_augmentation(np.random.default_rng(0), config)
        assert params.intrinsic_scale == 0.9

    def test_scales_always_inside_clamp(self):
        config = SchedulerConfig()
        rng = np.random.default_rng(1)
        scales = [sample_augmentation(rng, config).intrinsic_scale for _ in range(10_000)]
        assert min(scales) >= config.clamp_lo
        assert max(scales) <= config.clamp_hi

    def test_deterministic_given_seed(self):
        config = SchedulerConfig()
        rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
        a = [sample_augmentation(rng_a, config) for _ in range(50)]
        b = [sample_augmentation(rng_b, config) for _ in range(50)]
        assert a == b


class TestApplyAugmentation:
    def test_identity_params_keep_rig(self):
        rig = rig_from_pose(7.0, 20.0, yaw_deg=15.0)
        out = apply_augmentation(rig, AugmentationParams(1.0, 0.0, 0.0))
        assert out.f_x == rig.f_x and out.f_y == rig.f_y
        assert (out.image_width, out.image_height) == (rig.image_width, rig.image_height)
        np.testing.assert_allclose(out.extrinsic.rotation, rig.extrinsic.rotation, atol=1e-15)
        np.testing.assert_allclose(
            out.extrinsic.translation, rig.extrinsic.translation, atol=1e-15
        )

    def test_half_scale(self):
        rig = rig_from_pose(7.0, 20.0, f_x=1000.0, f_y=1100.0)
        out = apply_augmentation(rig, AugmentationParams(0.5, 0.0, 0.0))
        assert out.f_x == 500.0 and out.f_y == 550.0
        assert out.a_x == rig.a_x * 0.5 and out.a_y == rig.a_y * 0.5
        assert (out.image_width, out.image_height) == (768, 512)

    def test_dims_stay_multiples_of_eight(self):
        rig = rig_from_pose(7.0, 20.0)
        for scale in (0.8, 0.83, 0.9, 1.07):
            out = apply_augmentation(rig, AugmentationParams(scale, 0.0, 0.0))
            assert out.image_width % 8 == 0 and out.image_height % 8 == 0

    def test_scaled_image_size_is_the_augmented_size(self):
        # bank-sim sizes every augmented grid from clamp_lo and clamp_hi
        # alone, so the size must equal apply_augmentation's and never
        # shrink as the scale grows.
        rig = rig_from_pose(7.0, 20.0)
        sizes = []
        for scale in np.linspace(0.005, 4.0, 800):
            out = apply_augmentation(rig, AugmentationParams(float(scale), 0.0, 0.0))
            size = scaled_image_size(rig.image_height, rig.image_width, float(scale))
            assert size == (out.image_height, out.image_width)
            sizes.append(size)
        assert all(h2 >= h1 and w2 >= w1 for (h1, w1), (h2, w2) in zip(sizes, sizes[1:]))

    def test_scale_past_float_range_rejected(self):
        # bank-sim's config bound keeps such a scale out of the CLI.
        with pytest.raises(ValueError, match="intrinsic scale 1e\\+308 takes the image size past"):
            scaled_image_size(1024, 1536, 1e308)

    def test_camera_center_fixed(self):
        # A camera over (3, -4), not over the ground origin.
        pose = rig_from_pose(9.0, 30.0, yaw_deg=100.0)
        rot = pose.extrinsic.rotation
        rig = dataclasses.replace(
            pose, extrinsic=RigidTransform(rot, -rot @ np.array([3.0, -4.0, 9.0]))
        )
        out = apply_augmentation(rig, AugmentationParams(0.85, 2.0, -1.0))
        np.testing.assert_allclose(
            out.camera_center_ground(), rig.camera_center_ground(), atol=1e-12
        )

    def test_noise_rotation_matches_quaternion_oracle(self):
        rig = rig_from_pose(10.0, 90.0)  # nadir
        roll, pitch = 2.0, 1.0
        out = apply_augmentation(rig, AugmentationParams(1.0, roll, pitch))
        oracle = quaternion_oracle_rotation(roll, pitch)
        np.testing.assert_allclose(
            out.extrinsic.rotation, oracle @ rig.extrinsic.rotation, atol=1e-12
        )
        # The recomputed plane normal tilts exactly as the composed rotation says.
        plane = ground_plane_from_extrinsics(rig)
        plane_aug = ground_plane_from_extrinsics(out)
        np.testing.assert_allclose(
            [plane_aug.a, plane_aug.b, plane_aug.c],
            oracle @ [plane.a, plane.b, plane.c],
            atol=1e-12,
        )


class TestSchedulerStep:
    def test_tau_three_window(self):
        sched = SceneScheduler(SchedulerConfig(tau=3, seed=0))
        p1, r1 = sched.step("s")
        p2, r2 = sched.step("s")
        p3, r3 = sched.step("s")
        assert (r1, r2, r3) == (False, False, True)
        assert p1 == p2
        assert p3 != p1

    def test_tau_one_always_resets(self):
        sched = SceneScheduler(SchedulerConfig(tau=1, seed=0))
        assert all(sched.step("s")[1] for _ in range(10))

    def test_reset_count_is_floor_n_over_tau(self):
        sched = SceneScheduler(SchedulerConfig(tau=1000, seed=0))
        resets = sum(sched.step("s")[1] for _ in range(3000))
        assert resets == 3

    def test_params_bitwise_stable_within_window(self):
        sched = SceneScheduler(SchedulerConfig(tau=50, seed=3))
        windows = []
        current = []
        for _ in range(150):
            params, did_reset = sched.step("s")
            if did_reset:
                windows.append(current)
                current = []
            current.append(params)
        for window in windows:
            assert all(p == window[0] for p in window)

    def test_counter_bounded_between_steps(self):
        config = SchedulerConfig(tau=4, seed=0)
        sched = SceneScheduler(config)
        # The window's counter never passes tau: it rolls over exactly at
        # steps tau, 2*tau, ...
        for i in range(1, 21):
            _, did_reset = sched.step("s")
            assert did_reset == (i % config.tau == 0)

    def test_schedule_reproducible_across_instances(self):
        def run():
            sched = SceneScheduler(SchedulerConfig(tau=5, seed=11))
            return [sched.step("scene-a") for _ in range(23)]

        assert run() == run()

    def test_scenes_independent_of_interleaving(self):
        solo = SceneScheduler(SchedulerConfig(tau=4, seed=5))
        solo_seq = [solo.step("a") for _ in range(12)]
        mixed = SceneScheduler(SchedulerConfig(tau=4, seed=5))
        mixed_seq = []
        for i in range(12):
            mixed_seq.append(mixed.step("a"))
            mixed.step(f"other-{i % 3}")
        assert solo_seq == mixed_seq

    @settings(max_examples=30, deadline=None)
    @given(tau=st.integers(1, 20), n=st.integers(0, 200))
    def test_reset_count_property(self, tau, n):
        sched = SceneScheduler(SchedulerConfig(tau=tau, seed=1))
        resets = sum(sched.step("s")[1] for _ in range(n))
        assert resets == n // tau


class TestConfigValidation:
    def test_bad_tau(self):
        with pytest.raises(ValueError):
            SchedulerConfig(tau=0)

    def test_bad_clamp(self):
        with pytest.raises(ValueError):
            SchedulerConfig(clamp_lo=1.0, clamp_hi=0.5)

    @pytest.mark.parametrize("name", ["sigma_scale", "sigma_roll_deg", "sigma_pitch_deg"])
    @pytest.mark.parametrize("value", [-0.1, math.nan])
    def test_bad_sigma_names_field(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be non-negative, got {value}$"):
            SchedulerConfig(**{name: value})

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            AugmentationParams(0.0, 0.0, 0.0)


@pytest.mark.parametrize(
    "args", [(math.nan, 0.0, 0.0), (1.0, math.inf, 0.0), (1.0, 0.0, -math.inf)],
    ids=["nan-scale", "inf-roll", "inf-pitch"],
)
def test_augmentation_rejects_non_finite_values(args):
    with pytest.raises(ValueError, match="augmentation parameters must be finite"):
        AugmentationParams(*args)
