import math

import numpy as np
import pytest

from roadlift.camera_geometry import CORNER_SIGNS, Box3D, corners_from_parts, corners_of, rot_z
from roadlift.loss_functions import (
    KINK_MARGIN,
    SMOOTH_CASE_TRIES,
    Box3DParams,
    _gradient_of_vector,
    _part_diffs,
    _vector,
    finite_difference_gradient,
    gradient_descent_fit,
    loss_gradient,
    loss_of_vector,
    random_smooth_case,
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


def substituted_boxes(pred: Box3DParams, gt: Box3D) -> list[Box3D]:
    """``gt`` with, in turn, only the location, only the dimensions and
    only the yaw taken from ``pred``."""
    (x, y, z), (l, w, h) = pred.location, pred.dims
    return [
        Box3D(x, y, z, gt.l, gt.w, gt.h, gt.theta),
        Box3D(gt.x, gt.y, gt.z, l, w, h, gt.theta),
        Box3D(gt.x, gt.y, gt.z, gt.l, gt.w, gt.h, pred.theta),
    ]


def reg_sum(pred: Box3DParams, gt: Box3D) -> float:
    """The corner terms of ``loss_of_vector`` alone: an h_r at ground
    truth drops its term, and three times their mean is their sum."""
    return 3.0 * loss_of_vector(_vector(pred, gt.z), gt)


class TestDisentangledRegLoss:
    def test_exact_prediction_is_zero(self):
        gt = Box3D(1, 2, 0.3, 4, 2, 1.5, 0.4)
        assert loss_of_vector(_vector(Box3DParams.from_box(gt), None), gt) == 0.0

    def test_location_only_isolated(self):
        gt = Box3D(1, 2, 0.3, 4, 2, 1.5, 0.4)
        pred = Box3DParams.from_box(Box3D(1, 3, 0.3, 4, 2, 1.5, 0.4))
        assert reg_sum(pred, gt) == pytest.approx(8.0)

    def test_each_part_matches_substituted_corner_l1(self):
        # Each part pins the other two to ground truth, so the sum is
        # the corner L1 of the three substituted boxes, not of ``pred``.
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
            boxes = substituted_boxes(pred, gt)
            parts = [reference_corner_l1(b, gt) for b in boxes]
            for part, box in zip(parts, boxes):
                assert reg_sum(Box3DParams.from_box(box), gt) == pytest.approx(part)
            assert reg_sum(pred, gt) == pytest.approx(sum(parts))

    def test_dims_only_perturbation_isolated(self):
        gt = Box3D(1, 2, 0.3, 4, 2, 1.5, 0.4)
        pred_box = Box3D(1, 2, 0.3, 4.4, 2, 1.5, 0.4)
        loss = reg_sum(Box3DParams.from_box(pred_box), gt)
        assert loss > 0 and loss == pytest.approx(reference_corner_l1(pred_box, gt))


class TestLossGradient:
    def test_pure_x_offset_gradient(self):
        gt = Box3D(0, 0, 0, 4, 2, 1.5, 0.3)
        pred = Box3DParams.from_box(Box3D(1, 0, 0, 4, 2, 1.5, 0.3))
        grad = loss_gradient(pred, gt)
        assert grad[0] == pytest.approx(8.0 / 3.0)
        assert grad[1] == 0.0 and grad[2] == 0.0

    def test_dims_part_insensitive_to_z(self):
        # The dims-substituted part uses the GT location, so perturbing z
        # moves only the location part; the analytic z partial must match a
        # location-only finite difference regardless of the dims error.
        gt = Box3D(0, 0, 0, 4, 2, 1.5, 0.3)
        pred = Box3DParams(
            np.array([0.0, 0.0, 0.2]), np.array([4.5, 2.2, 1.9]), math.sin(0.3), math.cos(0.3)
        )
        grad = loss_gradient(pred, gt)
        assert grad[2] == pytest.approx(8.0 / 3.0)  # location part only

    def test_hr_subgradient(self):
        gt = Box3D(0, 0, 0.4, 4, 2, 1.5, 0.3)
        pred = Box3DParams.from_box(gt)
        assert loss_gradient(pred, gt, pred_hr=0.9)[8] == 1.0
        assert loss_gradient(pred, gt, pred_hr=0.1)[8] == -1.0
        assert loss_gradient(pred, gt, pred_hr=0.4)[8] == 0.0

    def test_matches_finite_differences_on_random_smooth_points(self):
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(100):
            pred, gt, pred_hr = random_smooth_case(rng)
            analytic = loss_gradient(pred, gt, pred_hr=pred_hr)
            numeric = finite_difference_gradient(pred, gt, pred_hr=pred_hr)
            rel = np.abs(analytic - numeric) / np.maximum(
                np.maximum(np.abs(analytic), np.abs(numeric)), 1.0
            )
            worst = max(worst, float(rel.max()))
        assert worst < 1e-4


# Verbatim copies of ``_gradient_of_vector`` and ``random_smooth_case``
# as they were before the three part-corner sets got one builder
# (``_part_diffs``) and while the loss weights and the GT h_r were
# arguments: the program, whose weights are both 1 and whose GT h_r is
# gt.z, must give the same values bit for bit.
def _reference_gradient_of_vector(
    vec: np.ndarray, gt: Box3D, lambda1: float, lambda2: float, gt_hr: float
) -> np.ndarray:
    loc, dims = vec[0:3], vec[3:6]
    s, c = vec[6], vec[7]
    theta = math.atan2(s, c)
    gt_corners = corners_of(gt)
    scale = lambda1 / 3.0
    grad = np.zeros(9)

    # Location part: corner offsets are the same translation at all 8 corners.
    c_loc = corners_from_parts(loc[0], loc[1], loc[2], gt.l, gt.w, gt.h, gt.theta)
    grad[0:3] = scale * np.sign(c_loc - gt_corners).sum(axis=0)

    # Dimension part: d corner / d(l, w, h) = sign/2 * rotated axis, plus the
    # +h/2 bottom-to-center shift for h.
    c_dims = corners_from_parts(gt.x, gt.y, gt.z, dims[0], dims[1], dims[2], gt.theta)
    signs = np.sign(c_dims - gt_corners)
    rot = rot_z(gt.theta)
    for k in range(3):
        jac = CORNER_SIGNS[:, k : k + 1] / 2.0 * rot[:, k]
        if k == 2:
            jac = jac + np.array([0.0, 0.0, 0.5])
        grad[3 + k] = scale * float((signs * jac).sum())

    # Yaw part through theta = atan2(sin, cos).
    c_yaw = corners_from_parts(gt.x, gt.y, gt.z, gt.l, gt.w, gt.h, theta)
    half = CORNER_SIGNS * np.array([gt.l / 2.0, gt.w / 2.0, gt.h / 2.0])
    ct, st = math.cos(theta), math.sin(theta)
    drot = np.array([[-st, -ct, 0.0], [ct, -st, 0.0], [0.0, 0.0, 0.0]])
    g_theta = float((np.sign(c_yaw - gt_corners) * (half @ drot.T)).sum())
    norm_sq = s * s + c * c
    grad[6] = scale * g_theta * c / norm_sq
    grad[7] = scale * g_theta * (-s) / norm_sq

    grad[8] = lambda2 * np.sign(vec[8] - gt_hr)
    return grad


def _reference_random_smooth_case(rng: np.random.Generator) -> tuple[Box3DParams, Box3D, float]:
    for _ in range(SMOOTH_CASE_TRIES):
        gt = Box3D(
            x=rng.uniform(-30, 30),
            y=rng.uniform(-30, 30),
            z=rng.uniform(-1, 1),
            l=rng.uniform(3.0, 5.5),
            w=rng.uniform(1.5, 2.2),
            h=rng.uniform(1.2, 2.0),
            theta=rng.uniform(-math.pi, math.pi),
        )
        theta_p = gt.theta + 0.2 * rng.standard_normal()
        pred = Box3DParams(
            location=np.array([gt.x, gt.y, gt.z]) + 0.3 * rng.standard_normal(3),
            dims=np.maximum(
                np.array([gt.l, gt.w, gt.h]) * (1.0 + 0.1 * rng.standard_normal(3)), 0.3
            ),
            yaw_sin=math.sin(theta_p),
            yaw_cos=math.cos(theta_p),
        )
        pred_hr = gt.z + 0.3 * rng.standard_normal()
        gt_corners = corners_of(gt)
        loc_diff = pred.location - np.array([gt.x, gt.y, gt.z])
        dims_xy = (
            corners_from_parts(gt.x, gt.y, gt.z, *pred.dims, gt.theta) - gt_corners
        )[:, :2]
        yaw_xy = (
            corners_from_parts(gt.x, gt.y, gt.z, gt.l, gt.w, gt.h, theta_p) - gt_corners
        )[:, :2]
        if (
            np.abs(loc_diff).min() > KINK_MARGIN
            and np.abs(dims_xy).min() > KINK_MARGIN
            and abs(pred.dims[2] - gt.h) > KINK_MARGIN
            and np.abs(yaw_xy).min() > KINK_MARGIN
            and abs(pred_hr - gt.z) > KINK_MARGIN
        ):
            return pred, gt, pred_hr
    raise RuntimeError("could not sample a smooth configuration")


# A verbatim copy of ``loss_of_vector`` while it summed its terms in a
# separate helper that built a breakdown record (the helper's body
# inlined, with its bottom-center pixel term of 0.0): the direct sum must
# give the same value bit for bit.
def _reference_loss_of_vector(vec: np.ndarray, gt: Box3D) -> float:
    diffs = _part_diffs(vec[0:3], vec[3:6], math.atan2(vec[6], vec[7]), gt)
    parts = tuple(float(np.abs(d).sum()) for d in diffs)
    l_hr, l_center_px = abs(vec[8] - gt.z), 0.0
    reg_location, reg_dims, reg_yaw = (float(v) for v in parts)
    return (reg_location + reg_dims + reg_yaw) / 3.0 + float(l_hr) + float(l_center_px)


class TestPinnedToReference:
    SEEDS = range(500)
    # The program's loss weights, passed to the references.
    WEIGHTS = ((1.0, 1.0),)

    def test_smooth_cases_equal_the_reference(self):
        for seed in self.SEEDS:
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            assert random_smooth_case(rng) == _reference_random_smooth_case(ref)
            assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("lambda1,lambda2", WEIGHTS)
    def test_gradients_equal_the_reference(self, lambda1, lambda2):
        for seed in self.SEEDS:
            pred, gt, pred_hr = random_smooth_case(np.random.default_rng(seed))
            vec = _vector(pred, pred_hr)
            assert np.array_equal(
                _gradient_of_vector(vec, gt),
                _reference_gradient_of_vector(vec, gt, lambda1, lambda2, gt.z),
            )

    @pytest.mark.parametrize("lambda1,lambda2", WEIGHTS)
    def test_loss_of_vector_is_the_total_loss(self, lambda1, lambda2):
        for seed in self.SEEDS:
            pred, gt, pred_hr = random_smooth_case(np.random.default_rng(seed))
            parts = [reference_corner_l1(b, gt) for b in substituted_boxes(pred, gt)]
            want = lambda1 * sum(parts) / 3.0 + lambda2 * abs(pred_hr - gt.z)
            assert loss_of_vector(_vector(pred, pred_hr), gt) == pytest.approx(
                want, rel=1e-12, abs=1e-12
            )

    def test_loss_of_vector_equals_the_reference(self):
        # On each seed's smooth vector, and on one perturbed off it that
        # may cross kinks or leave the unit yaw circle.
        for seed in self.SEEDS:
            rng = np.random.default_rng(seed)
            pred, gt, pred_hr = random_smooth_case(rng)
            smooth = _vector(pred, pred_hr)
            for vec in (smooth, smooth + rng.standard_normal(9)):
                assert loss_of_vector(vec, gt) == _reference_loss_of_vector(vec, gt)


class TestGradientDescentFit:
    def test_already_at_gt(self):
        gt = Box3D(1, 2, 0.3, 4, 2, 1.5, 0.4)
        fit = gradient_descent_fit(Box3DParams.from_box(gt), gt, lr=1e-3)
        np.testing.assert_allclose(fit.location, [1, 2, 0.3], atol=1e-12)
        assert fit.theta == pytest.approx(0.4)

    def test_location_offset_recovered(self):
        gt = Box3D(1, 2, 0.3, 4, 2, 1.5, 0.4)
        init = Box3DParams.from_box(Box3D(1.5, 2, 0.3, 4, 2, 1.5, 0.4))
        fit = gradient_descent_fit(init, gt, lr=1e-3)
        assert np.abs(fit.location - np.array([1, 2, 0.3])).max() < 0.01

    def test_yaw_offset_recovered(self):
        gt = Box3D(1, 2, 0.3, 4, 2, 1.5, 0.4)
        init = Box3DParams(
            np.array([1.0, 2.0, 0.3]), np.array([4.0, 2.0, 1.5]), math.sin(0.7), math.cos(0.7)
        )
        fit = gradient_descent_fit(init, gt, lr=2e-4)
        assert abs(fit.theta - 0.4) < 0.01

    def test_non_finite_loss_raises(self):
        # Every term is non-negative, so the total is finite exactly when
        # each term is; a NaN step size makes the first iterate NaN.
        gt = Box3D(1, 2, 0.3, 4, 2, 1.5, 0.4)
        with pytest.raises(ValueError, match="finite"):
            loss_of_vector(np.full(9, np.nan), gt)
        with pytest.raises(ValueError, match="finite"):
            gradient_descent_fit(Box3DParams.from_box(gt), gt, lr=math.nan)

    @pytest.mark.parametrize("lr", [-1.0, 0.0, math.inf, math.nan])
    def test_step_size_outside_open_interval_rejected(self, lr):
        # Unchecked, -1 and 0 would return the start unchanged and inf would overflow.
        gt = Box3D(1, 2, 0.3, 4, 2, 1.5, 0.4)
        init = Box3DParams.from_box(Box3D(1.5, 2, 0.3, 4, 2, 1.5, 0.4))
        with pytest.raises(ValueError, match=f"lr must be a finite number > 0, got {lr}"):
            gradient_descent_fit(init, gt, lr=lr)


class TestBox3DParams:
    def test_yaw_encoding_validated(self):
        with pytest.raises(ValueError):
            Box3DParams(np.zeros(3), np.ones(3), 0.9, 0.9)


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
