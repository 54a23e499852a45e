"""Corner-based 3D regression losses with disentangled parts and exact
subgradients.

The regression loss is the L1 distance between the eight predicted and
ground-truth box corners, evaluated three times with two of
{location, dimensions, yaw} pinned to ground truth so each part is
optimized in isolation.  A separate L1 term supervises the relative
height h_r and another the bottom-center pixel.

Gradients are taken over the 9-vector
(x, y, z, l, w, h, sin_yaw, cos_yaw, h_r); yaw decodes as
atan2(sin, cos), and the L1 subgradient at zero is defined as 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .camera_geometry import (
    CORNER_SIGNS,
    Box3D,
    _ArrayRecord,
    _readonly,
    corners_from_parts,
    corners_of,
    rot_z,
)


@dataclass(frozen=True, eq=False)
class Box3DParams(_ArrayRecord):
    """Regression-head output: location, dimensions, and encoded yaw."""

    location: np.ndarray
    dims: np.ndarray
    yaw_sin: float
    yaw_cos: float

    def __post_init__(self):
        loc = _readonly(self.location)
        dims = _readonly(self.dims)
        if loc.shape != (3,) or dims.shape != (3,):
            raise ValueError("location and dims must be 3-vectors")
        if not (np.all(np.isfinite(loc)) and np.all(np.isfinite(dims))):
            raise ValueError("parameters must be finite")
        if np.any(dims <= 0):
            raise ValueError("dimensions must be positive")
        # Products, not ``**``: a huge float squares to inf instead of
        # raising OverflowError.  Inf and NaN fail the bound.
        norm_sq = self.yaw_sin * self.yaw_sin + self.yaw_cos * self.yaw_cos
        if not abs(norm_sq - 1.0) <= 1e-6:
            raise ValueError("yaw encoding must be approximately unit length")
        object.__setattr__(self, "location", loc)
        object.__setattr__(self, "dims", dims)

    @property
    def theta(self) -> float:
        return math.atan2(self.yaw_sin, self.yaw_cos)

    @classmethod
    def from_box(cls, box: Box3D) -> "Box3DParams":
        return cls(
            location=np.array([box.x, box.y, box.z]),
            dims=np.array([box.l, box.w, box.h]),
            yaw_sin=math.sin(box.theta),
            yaw_cos=math.cos(box.theta),
        )

    def to_box(self, category: str = "car", score: float | None = None) -> Box3D:
        return Box3D(
            x=float(self.location[0]),
            y=float(self.location[1]),
            z=float(self.location[2]),
            l=float(self.dims[0]),
            w=float(self.dims[1]),
            h=float(self.dims[2]),
            theta=self.theta,
            category=category,
            score=score,
        )


@dataclass(frozen=True)
class LossBreakdown:
    reg_location: float
    reg_dims: float
    reg_yaw: float
    l_hr: float
    l_center_px: float
    total: float

    def __post_init__(self):
        for name in ("reg_location", "reg_dims", "reg_yaw", "l_hr", "l_center_px", "total"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {v}")


def corner_l1(pred: Box3D, gt: Box3D) -> float:
    """Sum of absolute differences over the 8 paired corners (24 scalars)."""
    return float(np.abs(corners_of(pred) - corners_of(gt)).sum())


def _part_corner_sums(
    loc: np.ndarray, dims: np.ndarray, theta: float, gt: Box3D, gt_corners: np.ndarray
) -> tuple[float, float, float]:
    c_loc = corners_from_parts(loc[0], loc[1], loc[2], gt.l, gt.w, gt.h, gt.theta)
    c_dims = corners_from_parts(gt.x, gt.y, gt.z, dims[0], dims[1], dims[2], gt.theta)
    c_yaw = corners_from_parts(gt.x, gt.y, gt.z, gt.l, gt.w, gt.h, theta)
    return (
        float(np.abs(c_loc - gt_corners).sum()),
        float(np.abs(c_dims - gt_corners).sum()),
        float(np.abs(c_yaw - gt_corners).sum()),
    )


def disentangled_reg_loss(pred: Box3DParams, gt: Box3D) -> tuple[float, float, float]:
    """Three corner-L1 values with, in turn, only the location, only the
    dimensions, and only the yaw taken from the prediction (the other
    two parts pinned to ground truth).  Unscaled; the 1/3 averaging
    happens in total_loss."""
    gt_corners = corners_of(gt)
    return _part_corner_sums(pred.location, pred.dims, pred.theta, gt, gt_corners)


def relative_height_loss(pred_hr, gt_hr):
    """L1 on the relative height; accepts scalars or arrays elementwise."""
    out = np.abs(np.asarray(pred_hr, dtype=float) - np.asarray(gt_hr, dtype=float))
    return float(out) if out.ndim == 0 else out


def bottom_center_loss(pred_uv, gt_uv) -> float:
    """L1 on the bottom-center pixel, summed over u and v."""
    p = np.asarray(pred_uv, dtype=float)
    g = np.asarray(gt_uv, dtype=float)
    return float(np.abs(p - g).sum())


def total_loss(
    reg_parts: tuple[float, float, float],
    l_hr: float,
    l_center_px: float,
    lambda1: float = 1.0,
    lambda2: float = 1.0,
) -> LossBreakdown:
    """Weighted total: lambda1 * mean(reg parts) + lambda2 * l_hr + l_center."""
    if lambda1 < 0 or lambda2 < 0:
        raise ValueError("loss weights must be non-negative")
    reg_location, reg_dims, reg_yaw = (float(v) for v in reg_parts)
    total = (
        lambda1 * (reg_location + reg_dims + reg_yaw) / 3.0
        + lambda2 * float(l_hr)
        + float(l_center_px)
    )
    return LossBreakdown(reg_location, reg_dims, reg_yaw, float(l_hr), float(l_center_px), total)


# -- gradient machinery over the 9-parameter vector ----------------------

VECTOR_PARAM_NAMES = ("x", "y", "z", "l", "w", "h", "sin_yaw", "cos_yaw", "h_r")

# Central differences step each parameter by FD_STEP either way, and
# random_smooth_case (in at most SMOOTH_CASE_TRIES draws) keeps every L1
# kink more than KINK_MARGIN away: the margin must exceed the step, so
# that no difference straddles a kink.
FD_STEP = 1e-5
KINK_MARGIN = 1e-4
SMOOTH_CASE_TRIES = 200


def _vector_and_gt_hr(
    pred: Box3DParams, gt: Box3D, pred_hr: float | None, gt_hr: float | None
) -> tuple[np.ndarray, float]:
    """The 9-vector and the GT h_r, with the defaults ``loss_gradient`` documents."""
    if pred_hr is None:
        pred_hr = float(pred.location[2])
    vec = np.array(
        [*pred.location, *pred.dims, pred.yaw_sin, pred.yaw_cos, pred_hr], dtype=float
    )
    return vec, gt.z if gt_hr is None else gt_hr


def loss_of_vector(
    vec: np.ndarray, gt: Box3D, lambda1: float, lambda2: float, gt_hr: float
) -> float:
    """Total loss as a plain function of the 9-vector (bottom-center term
    excluded: it depends on a separate pixel head, not these parameters)."""
    loc, dims = vec[0:3], vec[3:6]
    theta = math.atan2(vec[6], vec[7])
    parts = _part_corner_sums(loc, dims, theta, gt, corners_of(gt))
    return lambda1 * sum(parts) / 3.0 + lambda2 * abs(vec[8] - gt_hr)


def loss_gradient(
    pred: Box3DParams,
    gt: Box3D,
    lambda1: float = 1.0,
    lambda2: float = 1.0,
    pred_hr: float | None = None,
    gt_hr: float | None = None,
) -> np.ndarray:
    """Analytic subgradient of the total loss over
    (x, y, z, l, w, h, sin_yaw, cos_yaw, h_r).

    ``pred_hr`` defaults to the predicted bottom-center z and ``gt_hr``
    to the ground-truth one (relative height equals bottom z in the
    ground frame).
    """
    vec, gt_hr = _vector_and_gt_hr(pred, gt, pred_hr, gt_hr)
    return _gradient_of_vector(vec, gt, lambda1, lambda2, gt_hr)


def _gradient_of_vector(
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


def finite_difference_gradient(
    pred: Box3DParams,
    gt: Box3D,
    lambda1: float = 1.0,
    lambda2: float = 1.0,
    pred_hr: float | None = None,
    gt_hr: float | None = None,
) -> np.ndarray:
    """Central finite differences of the total loss over the 9-vector,
    at ``FD_STEP``."""
    vec, gt_hr = _vector_and_gt_hr(pred, gt, pred_hr, gt_hr)
    grad = np.zeros(9)
    for i in range(9):
        hi, lo = vec.copy(), vec.copy()
        hi[i] += FD_STEP
        lo[i] -= FD_STEP
        grad[i] = (
            loss_of_vector(hi, gt, lambda1, lambda2, gt_hr)
            - loss_of_vector(lo, gt, lambda1, lambda2, gt_hr)
        ) / (2.0 * FD_STEP)
    return grad


def random_smooth_case(rng: np.random.Generator) -> tuple[Box3DParams, Box3D, float]:
    """Draw a (prediction, ground truth, predicted h_r) triple away from
    every L1 kink: each corner-coordinate difference that varies with
    some parameter exceeds ``KINK_MARGIN`` in magnitude, so finite
    differences at ``FD_STEP`` never cross a non-smooth point.

    Corner z differences are structurally constant in the dims part
    (bottom corners) and the yaw part (rotation is about z), so those
    entries are exempt; they contribute a constant, not a kink.
    """
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


def gradient_descent_fit(
    init: Box3DParams,
    gt: Box3D,
    steps: int = 500,
    lr: float = 1e-3,
    lambda1: float = 1.0,
    lambda2: float = 1.0,
) -> Box3DParams:
    """Fixed-step subgradient descent of the total loss from ``init``
    toward ``gt``; returns the best iterate seen.

    The loss is piecewise linear, so iterates settle into a band of
    width ~ lr * |gradient| around the optimum; pick lr so that band is
    inside the required accuracy.  Dimensions are floored at 1 mm to
    stay valid.
    """
    if steps <= 0:
        raise ValueError("steps must be positive")
    vec, gt_hr = _vector_and_gt_hr(init, gt, None, None)
    best_vec = vec.copy()
    best_loss = loss_of_vector(vec, gt, lambda1, lambda2, gt_hr)
    for _ in range(steps):
        vec = vec - lr * _gradient_of_vector(vec, gt, lambda1, lambda2, gt_hr)
        vec[3:6] = np.maximum(vec[3:6], 1e-3)
        loss = loss_of_vector(vec, gt, lambda1, lambda2, gt_hr)
        if loss < best_loss:
            best_loss = loss
            best_vec = vec.copy()
    norm = math.hypot(best_vec[6], best_vec[7])
    return Box3DParams(
        location=best_vec[0:3],
        dims=best_vec[3:6],
        yaw_sin=best_vec[6] / norm,
        yaw_cos=best_vec[7] / norm,
    )
