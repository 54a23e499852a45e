import math

import numpy as np
import pytest

from roadlift.camera_geometry import Box3D
from roadlift.loss_functions import (
    Box3DParams,
    LossBreakdown,
    bottom_center_loss,
    corner_l1,
    disentangled_reg_loss,
    finite_difference_gradient,
    gradient_descent_fit,
    loss_gradient,
    random_smooth_case,
    relative_height_loss,
    total_loss,
)


def reference_corners(x, y, z, l, w, h, theta):
    """Independent corner enumeration used as the test oracle."""
    out = []
    for sl in (-1, 1):
        for sw in (-1, 1):
            for sh in (-1, 1):
                px, py, pz = sl * l / 2, sw * w / 2, sh * h / 2
                rx = math.cos(theta) * px - math.sin(theta) * py
                ry = math.sin(theta) * px + math.cos(theta) * py
                out.append((rx + x, ry + y, pz + z + h / 2))
    return np.array(out)


def reference_corner_l1(a: Box3D, b: Box3D) -> float:
    ca = reference_corners(a.x, a.y, a.z, a.l, a.w, a.h, a.theta)
    cb = reference_corners(b.x, b.y, b.z, b.l, b.w, b.h, b.theta)
    return float(np.abs(ca - cb).sum())


class TestCornerL1:
    def test_identical_boxes(self):
        box = Box3D(1, 2, 0.3, 4, 2, 1.5, 0.4)
        assert corner_l1(box, box) == 0.0

    def test_pure_translation(self):
        gt = Box3D(0, 0, 0, 4, 2, 1.5, 0.3)
        pred = Box3D(1, 0, 0, 4, 2, 1.5, 0.3)
        assert corner_l1(pred, gt) == pytest.approx(8.0)

    def test_yaw_perturbation_matches_enumeration_oracle(self):
        gt = Box3D(2, -1, 0.2, 4, 2, 1, 0.5)
        pred = Box3D(2, -1, 0.2, 4, 2, 1, 0.6)
        assert corner_l1(pred, gt) == pytest.approx(reference_corner_l1(pred, gt), abs=1e-9)

    def test_random_boxes_match_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = Box3D(*rng.uniform(-10, 10, 3), *rng.uniform(0.5, 5, 3), rng.uniform(-3, 3))
            b = Box3D(*rng.uniform(-10, 10, 3), *rng.uniform(0.5, 5, 3), rng.uniform(-3, 3))
            assert corner_l1(a, b) == pytest.approx(reference_corner_l1(a, b), abs=1e-9)

    def test_positive_unless_corners_coincide(self):
        # A pi yaw flip keeps the footprint but permutes the corner order,
        # so the paired loss stays strictly positive.
        base = Box3D(0, 0, 0, 4, 2, 1.5, 0.3)
        flipped = Box3D(0, 0, 0, 4, 2, 1.5, 0.3 + math.pi)
        assert corner_l1(flipped, base) > 1.0
        nudged = Box3D(1e-7, 0, 0, 4, 2, 1.5, 0.3)
        assert 0.0 < corner_l1(nudged, base) < 1e-5

    def test_common_shift_invariance(self):
        rng = np.random.default_rng(1)
        a = Box3D(1, 2, 0.1, 4, 2, 1.5, 0.7)
        b = Box3D(0.5, 2.5, 0.4, 3.5, 1.8, 1.2, 0.9)
        shift = rng.uniform(-20, 20, 3)
        a2 = Box3D(a.x + shift[0], a.y + shift[1], a.z + shift[2], a.l, a.w, a.h, a.theta)
        b2 = Box3D(b.x + shift[0], b.y + shift[1], b.z + shift[2], b.l, b.w, b.h, b.theta)
        assert corner_l1(a, b) == pytest.approx(corner_l1(a2, b2), abs=1e-9)


class TestDisentangledRegLoss:
    def test_exact_prediction_is_zero(self):
        gt = Box3D(1, 2, 0.3, 4, 2, 1.5, 0.4)
        assert disentangled_reg_loss(Box3DParams.from_box(gt), gt) == (0.0, 0.0, 0.0)

    def test_location_only_isolated(self):
        gt = Box3D(1, 2, 0.3, 4, 2, 1.5, 0.4)
        pred = Box3DParams.from_box(Box3D(1, 3, 0.3, 4, 2, 1.5, 0.4))
        parts = disentangled_reg_loss(pred, gt)
        assert parts == pytest.approx((8.0, 0.0, 0.0))

    def test_each_part_matches_substituted_corner_l1(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            gt = Box3D(*rng.uniform(-10, 10, 3), *rng.uniform(0.5, 5, 3), rng.uniform(-3, 3))
            pred_box = Box3D(
                gt.x + rng.normal(0, 0.5),
                gt.y + rng.normal(0, 0.5),
                gt.z + rng.normal(0, 0.2),
                gt.l * rng.uniform(0.8, 1.2),
                gt.w * rng.uniform(0.8, 1.2),
                gt.h * rng.uniform(0.8, 1.2),
                gt.theta + rng.normal(0, 0.3),
            )
            pred = Box3DParams.from_box(pred_box)
            loc, dims, yaw = disentangled_reg_loss(pred, gt)
            assert loc == pytest.approx(
                corner_l1(Box3D(pred_box.x, pred_box.y, pred_box.z, gt.l, gt.w, gt.h, gt.theta), gt)
            )
            assert dims == pytest.approx(
                corner_l1(Box3D(gt.x, gt.y, gt.z, pred_box.l, pred_box.w, pred_box.h, gt.theta), gt)
            )
            assert yaw == pytest.approx(
                corner_l1(Box3D(gt.x, gt.y, gt.z, gt.l, gt.w, gt.h, pred_box.theta), gt)
            )

    def test_dims_only_perturbation_isolated(self):
        gt = Box3D(1, 2, 0.3, 4, 2, 1.5, 0.4)
        pred = Box3DParams.from_box(Box3D(1, 2, 0.3, 4.4, 2, 1.5, 0.4))
        loc, dims, yaw = disentangled_reg_loss(pred, gt)
        assert loc == 0.0 and yaw == 0.0 and dims > 0


class TestScalarLosses:
    def test_relative_height(self):
        assert relative_height_loss(0.5, 0.5) == 0.0
        assert relative_height_loss(0.7, 0.2) == pytest.approx(0.5)

    def test_relative_height_batch_mean(self):
        rng = np.random.default_rng(3)
        pred = rng.normal(0, 1, 100)
        gt = rng.normal(0, 1, 100)
        batch = relative_height_loss(pred, gt)
        scalar_mean = np.mean([relative_height_loss(p, g) for p, g in zip(pred, gt)])
        assert np.mean(batch) == pytest.approx(scalar_mean)

    def test_bottom_center(self):
        assert bottom_center_loss((10, 10), (10, 10)) == 0.0
        assert bottom_center_loss((10, 10), (13, 14)) == pytest.approx(7.0)


class TestTotalLoss:
    def test_all_zero(self):
        assert total_loss((0, 0, 0), 0, 0).total == 0.0

    def test_mean_of_equal_parts(self):
        out = total_loss((3, 3, 3), 0.0, 0.0, lambda1=1.0, lambda2=0.0)
        assert out.total == pytest.approx(3.0)

    def test_weighted_sum(self):
        rng = np.random.default_rng(4)
        parts = tuple(rng.uniform(0, 5, 3))
        l_hr, center = rng.uniform(0, 2), rng.uniform(0, 10)
        out = total_loss(parts, l_hr, center, lambda1=2.0, lambda2=0.5)
        assert out.total == pytest.approx(2.0 * sum(parts) / 3 + 0.5 * l_hr + center)

    def test_monotone_in_weights(self):
        base = total_loss((1, 2, 3), 0.5, 1.0, lambda1=1.0, lambda2=1.0).total
        assert total_loss((1, 2, 3), 0.5, 1.0, lambda1=2.0, lambda2=1.0).total > base
        assert total_loss((1, 2, 3), 0.5, 1.0, lambda1=1.0, lambda2=3.0).total > base

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            total_loss((1, 1, 1), 0, 0, lambda1=-1.0)

    def test_breakdown_validation(self):
        with pytest.raises(ValueError):
            LossBreakdown(-1, 0, 0, 0, 0, 0)


class TestLossGradient:
    def test_pure_x_offset_gradient(self):
        gt = Box3D(0, 0, 0, 4, 2, 1.5, 0.3)
        pred = Box3DParams.from_box(Box3D(1, 0, 0, 4, 2, 1.5, 0.3))
        lambda1 = 1.7
        grad = loss_gradient(pred, gt, lambda1=lambda1)
        assert grad[0] == pytest.approx(8.0 * lambda1 / 3.0)
        assert grad[1] == 0.0 and grad[2] == 0.0

    def test_dims_part_insensitive_to_z(self):
        # The dims-substituted part uses the GT location, so perturbing z
        # moves only the location part; the analytic z partial must match a
        # location-only finite difference regardless of the dims error.
        gt = Box3D(0, 0, 0, 4, 2, 1.5, 0.3)
        pred = Box3DParams(
            np.array([0.0, 0.0, 0.2]), np.array([4.5, 2.2, 1.9]), math.sin(0.3), math.cos(0.3)
        )
        grad = loss_gradient(pred, gt, lambda1=3.0)
        assert grad[2] == pytest.approx(3.0 / 3.0 * 8.0)  # location part only

    def test_hr_subgradient(self):
        gt = Box3D(0, 0, 0.4, 4, 2, 1.5, 0.3)
        pred = Box3DParams.from_box(gt)
        assert loss_gradient(pred, gt, lambda2=2.5, pred_hr=0.9)[8] == pytest.approx(2.5)
        assert loss_gradient(pred, gt, lambda2=2.5, pred_hr=0.1)[8] == pytest.approx(-2.5)
        assert loss_gradient(pred, gt, lambda2=2.5, pred_hr=0.4)[8] == 0.0

    def test_matches_finite_differences_on_random_smooth_points(self):
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(100):
            pred, gt, pred_hr = random_smooth_case(rng)
            analytic = loss_gradient(pred, gt, lambda1=1.3, lambda2=0.7, pred_hr=pred_hr)
            numeric = finite_difference_gradient(
                pred, gt, lambda1=1.3, lambda2=0.7, pred_hr=pred_hr
            )
            rel = np.abs(analytic - numeric) / np.maximum(
                np.maximum(np.abs(analytic), np.abs(numeric)), 1.0
            )
            worst = max(worst, float(rel.max()))
        assert worst < 1e-4


class TestGradientDescentFit:
    def test_already_at_gt(self):
        gt = Box3D(1, 2, 0.3, 4, 2, 1.5, 0.4)
        fit = gradient_descent_fit(Box3DParams.from_box(gt), gt, steps=10, lr=1e-3)
        np.testing.assert_allclose(fit.location, [1, 2, 0.3], atol=1e-12)
        assert fit.theta == pytest.approx(0.4)

    def test_location_offset_recovered(self):
        gt = Box3D(1, 2, 0.3, 4, 2, 1.5, 0.4)
        init = Box3DParams.from_box(Box3D(1.5, 2, 0.3, 4, 2, 1.5, 0.4))
        fit = gradient_descent_fit(init, gt, steps=500, lr=1e-3)
        assert np.abs(fit.location - np.array([1, 2, 0.3])).max() < 0.01

    def test_yaw_offset_recovered(self):
        gt = Box3D(1, 2, 0.3, 4, 2, 1.5, 0.4)
        init = Box3DParams(
            np.array([1.0, 2.0, 0.3]), np.array([4.0, 2.0, 1.5]), math.sin(0.7), math.cos(0.7)
        )
        fit = gradient_descent_fit(init, gt, steps=500, lr=2e-4)
        assert abs(fit.theta - 0.4) < 0.01

    def test_invalid_steps(self):
        gt = Box3D(0, 0, 0, 1, 1, 1, 0)
        with pytest.raises(ValueError):
            gradient_descent_fit(Box3DParams.from_box(gt), gt, steps=0)


class TestBox3DParams:
    def test_yaw_encoding_validated(self):
        with pytest.raises(ValueError):
            Box3DParams(np.zeros(3), np.ones(3), 0.9, 0.9)

    def test_round_trip_through_box(self):
        box = Box3D(1, 2, 0.3, 4, 2, 1.5, -2.1, category="car", score=0.5)
        again = Box3DParams.from_box(box).to_box(category="car", score=0.5)
        assert again == box


@pytest.mark.parametrize(
    "args,message",
    [
        (([1.0, 2.0], [4.0, 2.0, 1.5], 0.0, 1.0), "location and dims must be 3-vectors"),
        (([1.0, 2.0, math.inf], [4.0, 2.0, 1.5], 0.0, 1.0), "parameters must be finite"),
        (([1.0, 2.0, 3.0], [4.0, 0.0, 1.5], 0.0, 1.0), "dimensions must be positive"),
        (([1.0, 2.0, 3.0], [4.0, 2.0, 1.5], 0.5, 0.5),
         "yaw encoding must be approximately unit length"),
        (([1.0, 2.0, 3.0], [4.0, 2.0, 1.5], math.nan, math.nan),
         "yaw encoding must be approximately unit length"),
        (([1.0, 2.0, 3.0], [1.0, 1.0, 1.0], 1e200, 0.0),
         "yaw encoding must be approximately unit length"),
    ],
    ids=["location-shape", "non-finite", "zero-dimension", "yaw-not-unit", "nan-yaw",
         "overflowing-yaw"],
)
def test_box_params_reject_bad_values(args, message):
    with pytest.raises(ValueError, match=message):
        Box3DParams(*args)
