"""Corner-based 3D regression losses with disentangled parts and exact
subgradients.

The regression loss is the L1 distance between the eight predicted and
ground-truth box corners, evaluated three times with two of
{location, dimensions, yaw} pinned to ground truth so each part is
optimized in isolation.  The total adds the L1 term on the relative
height h_r.  Every term has weight 1: the corner parts enter as their
mean.  MOSE's bottom-center pixel L1 term belongs to a 2-D pixel head
that this package does not model, not to the 9-vector below.

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


def _part_diffs(
    loc: np.ndarray, dims: np.ndarray, theta: float, gt: Box3D
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three (8, 3) corner differences from ``gt``'s corners with, in
    turn, only the location, only the dimensions and only the yaw taken
    from the prediction (the other two parts pinned to ground truth)."""
    gt_corners = corners_of(gt)
    return (
        corners_from_parts(loc[0], loc[1], loc[2], gt.l, gt.w, gt.h, gt.theta) - gt_corners,
        corners_from_parts(gt.x, gt.y, gt.z, dims[0], dims[1], dims[2], gt.theta) - gt_corners,
        corners_from_parts(gt.x, gt.y, gt.z, gt.l, gt.w, gt.h, theta) - gt_corners,
    )


# -- gradient machinery over the 9-parameter vector ----------------------

VECTOR_PARAM_NAMES = ("x", "y", "z", "l", "w", "h", "sin_yaw", "cos_yaw", "h_r")

# gradient_descent_fit takes this many steps.
FIT_STEPS = 500

# Central differences step each parameter by FD_STEP either way, and
# random_smooth_case (in at most SMOOTH_CASE_TRIES draws) keeps every L1
# kink more than KINK_MARGIN away: the margin must exceed the step, so
# that no difference straddles a kink.
FD_STEP = 1e-5
KINK_MARGIN = 1e-4
SMOOTH_CASE_TRIES = 200


def _vector(pred: Box3DParams, pred_hr: float | None) -> np.ndarray:
    """The 9-vector, with the ``pred_hr`` default ``loss_gradient`` documents."""
    if pred_hr is None:
        pred_hr = float(pred.location[2])
    return np.array(
        [*pred.location, *pred.dims, pred.yaw_sin, pred.yaw_cos, pred_hr], dtype=float
    )


def loss_of_vector(vec: np.ndarray, gt: Box3D) -> float:
    """Total loss as a plain function of the 9-vector: the mean of the
    three corner parts plus the h_r term, whose ground truth is ``gt.z``.
    ValueError if it is not finite, so a diverging fit stops."""
    diffs = _part_diffs(vec[0:3], vec[3:6], math.atan2(vec[6], vec[7]), gt)
    parts = tuple(float(np.abs(d).sum()) for d in diffs)
    total = (parts[0] + parts[1] + parts[2]) / 3.0 + float(abs(vec[8] - gt.z))
    if not math.isfinite(total):
        raise ValueError(f"loss must be finite, got {total}")
    return total


def loss_gradient(pred: Box3DParams, gt: Box3D, pred_hr: float | None = None) -> np.ndarray:
    """Analytic subgradient of the total loss over
    (x, y, z, l, w, h, sin_yaw, cos_yaw, h_r).

    ``pred_hr`` defaults to the predicted bottom-center z; the
    ground-truth h_r is always ``gt.z`` (relative height equals bottom z
    in the ground frame).
    """
    return _gradient_of_vector(_vector(pred, pred_hr), gt)


def _gradient_of_vector(vec: np.ndarray, gt: Box3D) -> np.ndarray:
    s, c = vec[6], vec[7]
    theta = math.atan2(s, c)
    loc_diff, dims_diff, yaw_diff = _part_diffs(vec[0:3], vec[3:6], theta, gt)
    scale = 1.0 / 3.0
    grad = np.zeros(9)

    # Location part: corner offsets are the same translation at all 8 corners.
    grad[0:3] = scale * np.sign(loc_diff).sum(axis=0)

    # Dimension part: d corner / d(l, w, h) = sign/2 * rotated axis, plus the
    # +h/2 bottom-to-center shift for h.
    signs = np.sign(dims_diff)
    rot = rot_z(gt.theta)
    for k in range(3):
        jac = CORNER_SIGNS[:, k : k + 1] / 2.0 * rot[:, k]
        if k == 2:
            jac = jac + np.array([0.0, 0.0, 0.5])
        grad[3 + k] = scale * float((signs * jac).sum())

    # Yaw part through theta = atan2(sin, cos).
    half = CORNER_SIGNS * np.array([gt.l / 2.0, gt.w / 2.0, gt.h / 2.0])
    ct, st = math.cos(theta), math.sin(theta)
    drot = np.array([[-st, -ct, 0.0], [ct, -st, 0.0], [0.0, 0.0, 0.0]])
    g_theta = float((np.sign(yaw_diff) * (half @ drot.T)).sum())
    norm_sq = s * s + c * c
    grad[6] = scale * g_theta * c / norm_sq
    grad[7] = scale * g_theta * (-s) / norm_sq

    grad[8] = np.sign(vec[8] - gt.z)
    return grad


def finite_difference_gradient(pred: Box3DParams, gt: Box3D, pred_hr: float | None) -> np.ndarray:
    """Central finite differences of the total loss over the 9-vector,
    at ``FD_STEP``."""
    vec = _vector(pred, pred_hr)
    grad = np.zeros(9)
    for i in range(9):
        hi, lo = vec.copy(), vec.copy()
        hi[i] += FD_STEP
        lo[i] -= FD_STEP
        grad[i] = (loss_of_vector(hi, gt) - loss_of_vector(lo, gt)) / (2.0 * FD_STEP)
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
        loc_diff = pred.location - np.array([gt.x, gt.y, gt.z])
        _, dims_diff, yaw_diff = _part_diffs(pred.location, pred.dims, theta_p, gt)
        if (
            np.abs(loc_diff).min() > KINK_MARGIN
            and np.abs(dims_diff[:, :2]).min() > KINK_MARGIN
            and abs(pred.dims[2] - gt.h) > KINK_MARGIN
            and np.abs(yaw_diff[:, :2]).min() > KINK_MARGIN
            and abs(pred_hr - gt.z) > KINK_MARGIN
        ):
            return pred, gt, pred_hr
    raise RuntimeError("could not sample a smooth configuration")


def gradient_descent_fit(init: Box3DParams, gt: Box3D, lr: float) -> Box3DParams:
    """``FIT_STEPS`` fixed-size subgradient descent steps of the total
    loss from ``init`` toward ``gt``; returns the best iterate seen.

    The loss is piecewise linear, so iterates settle into a band of
    width ~ lr * |gradient| around the optimum; pick lr so that band is
    inside the required accuracy.  Dimensions are floored at 1 mm to
    stay valid.  ValueError unless 0 < lr < inf.
    """
    if not 0.0 < lr < math.inf:  # NaN fails too
        raise ValueError(f"lr must be a finite number > 0, got {lr}")
    vec = _vector(init, None)
    best_vec = vec.copy()
    best_loss = loss_of_vector(vec, gt)
    for _ in range(FIT_STEPS):
        vec = vec - lr * _gradient_of_vector(vec, gt)
        vec[3:6] = np.maximum(vec[3:6], 1e-3)
        loss = loss_of_vector(vec, gt)
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
