"""Synthetic roadside scenes with analytically exact ground truth.

A scene is a camera rig, a smooth road-surface height field over the
virtual ground plane, and a set of cuboid objects resting on that
surface.  Ground truth (3D boxes, 2D boxes, bottom-center pixels,
per-object relative heights) comes straight from the geometry, and
"predictions" are produced by perturbing the quantities a real detector
would regress (relative height, dimensions, yaw, bottom-center pixel)
and re-running the same lifting path the detector would use.

The relative height h_r of an object is the z coordinate of its
bottom-face center in the ground frame, i.e. the surface height at its
footprint.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, replace

import numpy as np

from .camera_geometry import (
    MIN_CAMERA_HEIGHT,
    Box3D,
    CameraRig,
    GeometryError,
    _project_rows,
    check_category,
    corners_of,
    lift_to_ground,
    project_to_image,
    ray_ground,
    rig_from_pose,
)
from .scene_cue_bank import (
    CELL_BLOCK,
    FeatureGrid,
    bank_memory_elements,
    cell_centers,
    check_channels,
    grid_dims_for_image,
    zero_grid,
)

# Salt values keeping the generation / simulation / cue-noise streams apart.
_SALT_SCENE, _SALT_SIM, _SALT_CUE, _SALT_OBJECTS = 1, 2, 3, 4

# Objects' bottom centers and false-positive pixels are placed at least
# this far inside the image border.
EDGE_MARGIN_PX = 8.0

# Draws per object before a scene config is declared infeasible.
MAX_PLACEMENT_ATTEMPTS = 1000

# Objects per frame.  Each object costs up to MAX_PLACEMENT_ATTEMPTS
# placement draws, and matching a frame is quadratic in its objects.
MAX_OBJECTS = 1_000

# Bound on |surface height| over a field's region of interest; evaluation
# saturates at it outside the ROI.
MAX_SURFACE_HEIGHT = 2.0

# Gaussian bumps in a GroundField.random surface.
RANDOM_BUMPS = 2

# Largest magnitude of a GroundField's ROI bounds, coefficients and bump
# amplitudes, centres and sigmas, and the inverse of its smallest sigma.
# Within it no term of ``_surface`` overflows over the ROI: a squared
# distance to a bump centre is at most 8e100, and 2 sigma^2 at least
# 2e-100.
MAX_FIELD_MAGNITUDE = 1e50

_POLY_POWERS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3))


def _roi_scale(roi) -> float:
    """Largest |coordinate| of the ROI, the unit of the polynomial's x
    and y; ValueError unless each band has lo < hi, both within
    ``MAX_FIELD_MAGNITUDE``."""
    for lo, hi in roi:
        if not (-MAX_FIELD_MAGNITUDE <= lo < hi <= MAX_FIELD_MAGNITUDE):  # NaN fails too
            raise ValueError(
                f"roi bands must be finite with lo < hi, within +-{MAX_FIELD_MAGNITUDE:g}, "
                f"got {roi}"
            )
    return max(abs(v) for band in roi for v in band)


def _surface(coeffs, bumps, xy_scale, x, y):
    """Unclipped surface height at (x, y): the cubic in (x, y) / xy_scale
    plus the Gaussian bumps.  One body serves scalars and arrays, with no
    conversion: a scalar stays a scalar and arrays broadcast."""
    xn = x / xy_scale
    yn = y / xy_scale
    # xn**0 * yn**0 is 1 at every point, NaN and inf included, so the sum
    # starts from 0.0 in the broadcast shape of x and y.
    out = 0.0 * (xn**0 * yn**0)
    for coef, (px, py) in zip(coeffs, _POLY_POWERS):
        if coef:
            out = out + coef * xn**px * yn**py
    for amp, cx, cy, sigma in bumps:
        dx = x - cx
        dy = y - cy
        out = out + amp * np.exp(-(dx * dx + dy * dy) / (2.0 * sigma * sigma))
    return out


def _roi_peak(coeffs, bumps, roi) -> float:
    """Largest unclipped |height| on a 41 x 41 grid over the ROI."""
    xs, ys = (np.linspace(lo, hi, 41) for lo, hi in roi)
    return float(np.abs(_surface(coeffs, bumps, _roi_scale(roi), *np.meshgrid(xs, ys))).max())


@dataclass(frozen=True)
class GroundField:
    """Smooth road-surface height over the virtual ground plane: a cubic
    bivariate polynomial in (x, y) scaled by the ROI's largest
    |coordinate|, plus optional Gaussian bumps (amplitude, x, y, sigma;
    sigma > 0), bounded by
    ``MAX_SURFACE_HEIGHT`` over the region of interest (checked on a
    sample grid; evaluation saturates at the bound outside it).  Every
    number, the ROI's bounds included, is at most
    ``MAX_FIELD_MAGNITUDE`` in magnitude, and a sigma at least its
    inverse, so that the surface stays finite over the ROI."""

    coeffs: tuple[float, ...]
    bumps: tuple[tuple[float, float, float, float], ...] = ()
    roi: tuple[tuple[float, float], tuple[float, float]] = ((-300.0, 300.0), (-300.0, 300.0))
    xy_scale: float = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        if len(self.coeffs) != len(_POLY_POWERS):
            raise ValueError(f"expected {len(_POLY_POWERS)} polynomial coefficients")
        object.__setattr__(self, "xy_scale", _roi_scale(self.roi))
        if not all(abs(c) <= MAX_FIELD_MAGNITUDE for c in self.coeffs):  # NaN fails too
            raise ValueError(
                f"coefficients must be finite, at most {MAX_FIELD_MAGNITUDE:g} in magnitude"
            )
        for amp, cx, cy, sigma in self.bumps:
            if not (
                all(abs(v) <= MAX_FIELD_MAGNITUDE for v in (amp, cx, cy))
                and 1.0 / MAX_FIELD_MAGNITUDE <= sigma <= MAX_FIELD_MAGNITUDE
            ):
                raise ValueError(
                    "bumps need a finite amplitude and centre and a finite sigma > 0, "
                    f"at most {MAX_FIELD_MAGNITUDE:g} in magnitude with sigma at least "
                    f"{1.0 / MAX_FIELD_MAGNITUDE:g}, got {(amp, cx, cy, sigma)}"
                )
        if (peak := _roi_peak(self.coeffs, self.bumps, self.roi)) > MAX_SURFACE_HEIGHT + 1e-9:
            raise ValueError(
                f"surface height reaches {peak:.3f} m, beyond the {MAX_SURFACE_HEIGHT:g} m bound"
            )

    def evaluate(self, x, y):
        """Surface height h_r at ground coordinates (x, y); scalar in,
        scalar out, numpy arrays broadcast.

        A point can read differently as a scalar and inside an array, by
        one unit in the last place: after its first division a scalar is
        a ``float`` or an ``np.float64``, whose ``** 3`` calls libm
        ``pow``, while an array's calls numpy's SIMD ``power``.  The two
        forms agree within 1e-12 m; a caller that batches scalar
        evaluations changes bytes.
        """
        raw = _surface(self.coeffs, self.bumps, self.xy_scale, x, y)
        if isinstance(raw, np.ndarray):
            return np.clip(raw, -MAX_SURFACE_HEIGHT, MAX_SURFACE_HEIGHT)
        return float(min(max(raw, -MAX_SURFACE_HEIGHT), MAX_SURFACE_HEIGHT))

    @classmethod
    def constant(cls, value: float) -> "GroundField":
        coeffs = (float(value),) + (0.0,) * (len(_POLY_POWERS) - 1)
        return cls(coeffs=coeffs)

    @classmethod
    def random(
        cls,
        rng: np.random.Generator,
        amplitude: float = 1.0,
        roi: tuple[tuple[float, float], tuple[float, float]] = ((-300.0, 300.0), (-300.0, 300.0)),
    ) -> "GroundField":
        """Draw a random surface of ``RANDOM_BUMPS`` bumps whose peak |h_r|
        over the ROI equals ``amplitude`` (coefficients are rescaled to
        hit it exactly)."""
        if not 0 < amplitude <= MAX_SURFACE_HEIGHT:
            raise ValueError(f"amplitude must lie in (0, {MAX_SURFACE_HEIGHT:g}]")
        scale = _roi_scale(roi)
        coeffs = rng.standard_normal(len(_POLY_POWERS))
        bumps = [
            (
                rng.standard_normal(),
                rng.uniform(*roi[0]),
                rng.uniform(*roi[1]),
                rng.uniform(scale / 10.0, scale / 2.0),
            )
            for _ in range(RANDOM_BUMPS)
        ]
        peak = _roi_peak(coeffs, bumps, roi)
        factor = amplitude / peak if peak > 0 else 0.0
        return cls(
            coeffs=tuple(factor * c for c in coeffs),
            bumps=tuple((factor * a, cx, cy, s) for a, cx, cy, s in bumps),
            roi=roi,
        )


@dataclass(frozen=True)
class SceneConfig:
    n_objects: int = 8
    range_band: tuple[float, float] = (5.0, 250.0)
    height_band: tuple[float, float] = (4.0, 12.0)
    pitch_band_deg: tuple[float, float] = (5.0, 60.0)
    roll_band_deg: tuple[float, float] = (-3.0, 3.0)
    focal_band: tuple[float, float] = (1000.0, 2200.0)
    image_width: int = 1536
    image_height: int = 1024
    field_amplitude: float = 1.0
    categories: tuple[tuple[str, tuple[tuple[float, float], ...]], ...] = (
        ("car", ((3.8, 5.2), (1.6, 2.0), (1.3, 1.8))),
    )

    def __post_init__(self):
        if self.n_objects < 0:
            raise ValueError("n_objects must be non-negative")
        if self.n_objects > MAX_OBJECTS:
            raise ValueError(f"n_objects must be at most {MAX_OBJECTS}, got {self.n_objects}")
        for name in ("range_band", "height_band", "pitch_band_deg", "roll_band_deg", "focal_band"):
            lo, hi = getattr(self, name)
            if not lo <= hi:
                raise ValueError(f"{name} must be ordered (lo <= hi)")
        if self.height_band[0] < MIN_CAMERA_HEIGHT:
            raise ValueError(
                f"height_band must start at a camera height of at least {MIN_CAMERA_HEIGHT:g} m, "
                f"got {self.height_band[0]}"
            )
        for i, (name, dims) in enumerate(self.categories):
            check_category(name)
            for lo, hi in dims:
                if not 0 < lo <= hi:  # NaN fails too
                    raise ValueError(
                        f"categories[{i}] dimension bands must satisfy 0 < lo <= hi, "
                        f"got {[lo, hi]}"
                    )
        if self.range_band[0] <= 0:
            raise ValueError("range band must start above zero")
        grid_dims_for_image(self.image_height, self.image_width)
        if not 0 < self.field_amplitude <= MAX_SURFACE_HEIGHT:
            raise ValueError(f"field amplitude must lie in (0, {MAX_SURFACE_HEIGHT:g}]")
        if not self.categories:
            raise ValueError("at least one category is required")


@dataclass(frozen=True)
class NoiseModel:
    """Detector-error stand-in; sigmas of the per-quantity perturbations
    plus drop / false-positive probabilities."""

    sigma_hr: float = 0.0
    sigma_dims: float = 0.0
    sigma_yaw: float = 0.0
    sigma_center_px: float = 0.0
    drop_rate: float = 0.0
    false_positive_rate: float = 0.0

    def __post_init__(self):
        sigmas = (self.sigma_hr, self.sigma_dims, self.sigma_yaw, self.sigma_center_px)
        if not all(s >= 0 for s in sigmas):  # NaN fails too
            raise ValueError("noise sigmas must be non-negative")
        if not (0 <= self.drop_rate <= 1 and 0 <= self.false_positive_rate <= 1):
            raise ValueError("rates must lie in [0, 1]")


@dataclass(frozen=True)
class SyntheticScene:
    rig: CameraRig
    field: GroundField
    objects: tuple[Box3D, ...]
    scene_id: str
    seed: int


@dataclass(frozen=True)
class FrameRecord:
    """One frame flowing through the pipeline: ground truth plus the
    simulated detector output.  ``pred_boxes_2d`` holds one image
    rectangle (x1, y1, x2, y2) per entry of ``pred_boxes``."""

    gt_boxes: tuple[Box3D, ...]
    gt_boxes_2d: tuple[tuple[float, float, float, float], ...]
    pred_boxes: tuple[Box3D, ...]
    pred_boxes_2d: tuple[tuple[float, float, float, float], ...]
    n_dropped: int = 0
    n_lift_failed: int = 0


def box2d_of(rig: CameraRig, boxes) -> tuple[tuple[float, float, float, float], ...]:
    """Pixel-space bounding rectangle (x1, y1, x2, y2) of each box's eight
    projected corners, one per box of the sequence (``()`` for none),
    equal bit for bit to the min and max of per-corner
    ``project_to_image`` calls.  GeometryError if any corner of any box
    is behind the camera."""
    if not boxes:
        return ()
    us, vs = _project_rows(rig, np.stack([corners_of(b) for b in boxes]))
    x1, y1, x2, y2 = (a.tolist() for a in (us.min(1), vs.min(1), us.max(1), vs.max(1)))
    return tuple(zip(x1, y1, x2, y2))


def _sample_objects(
    rng: np.random.Generator,
    rig: CameraRig,
    field: GroundField,
    config: SceneConfig,
) -> tuple[Box3D, ...]:
    """``config.n_objects`` boxes resting on ``field``, each drawn within
    90% of the rig's half field of view around its forward azimuth and
    redrawn until its bottom center images inside the margin.  The rig's
    foot point, azimuth and field of view are computed once per call.

    Each attempt draws range and azimuth offset in one ``rng.random(2)``
    call, the category, then length, width, height and yaw in one
    ``rng.random(4)`` call.  numpy's ``uniform(lo, hi)`` is
    ``lo + (hi - lo) * random()`` (and hi - lo is exactly 2a for the band
    (-a, a)), so these are the doubles, in the order, that one
    ``rng.uniform`` call per value gave."""
    foot = rig.camera_center_ground()[:2]
    forward = rig.extrinsic.rotation.T @ np.array([0.0, 0.0, 1.0])
    az0 = math.atan2(forward[1], forward[0])
    az_half = math.atan((rig.image_width / 2.0) / rig.f_x) * 0.9
    r_lo, r_hi = config.range_band
    place_lo = np.array([r_lo, -az_half])
    place_span = np.array([r_hi - r_lo, 2.0 * az_half])
    # (lo, span) of each category's length, width, height and yaw.
    shape_draws = [
        (name, np.array([lo for lo, _ in bands] + [-math.pi]),
         np.array([hi - lo for lo, hi in bands] + [math.tau]))
        for name, bands in config.categories
    ]
    objects = []
    for _ in range(config.n_objects):
        for _ in range(MAX_PLACEMENT_ATTEMPTS):
            r, d_az = (place_lo + place_span * rng.random(2)).tolist()
            az = az0 + d_az
            x = foot[0] + r * math.cos(az)
            y = foot[1] + r * math.sin(az)
            z = field.evaluate(x, y)
            name, lo, span = shape_draws[rng.integers(len(shape_draws))]
            l, w, h, theta = (lo + span * rng.random(4)).tolist()
            box = Box3D(x, y, z, l, w, h, theta=theta, category=name)
            try:
                u, v = project_to_image(rig, box.bottom_center)
            except GeometryError:
                continue
            if (EDGE_MARGIN_PX <= u < rig.image_width - EDGE_MARGIN_PX
                    and EDGE_MARGIN_PX <= v < rig.image_height - EDGE_MARGIN_PX):
                objects.append(box)
                break
        else:
            raise ValueError(
                "infeasible scene config: no in-image placement found in "
                f"{MAX_PLACEMENT_ATTEMPTS} attempts"
            )
    return tuple(objects)


def generate_scene(config: SceneConfig, seed: int) -> SyntheticScene:
    """Sample a rig, a ground field, and resting objects; deterministic in
    ``seed``.  Every object's bottom center projects inside the image."""
    rng = np.random.default_rng([_SALT_SCENE, seed])
    rig = rig_from_pose(
        camera_height=rng.uniform(*config.height_band),
        pitch_deg=rng.uniform(*config.pitch_band_deg),
        yaw_deg=rng.uniform(-180.0, 180.0),
        roll_deg=rng.uniform(*config.roll_band_deg),
        f_x=(f := rng.uniform(*config.focal_band)),
        f_y=f,
        image_width=config.image_width,
        image_height=config.image_height,
    )
    reach = config.range_band[1] + 20.0
    field = GroundField.random(
        rng, amplitude=config.field_amplitude, roi=((-reach, reach), (-reach, reach))
    )
    objects = _sample_objects(rng, rig, field, config)
    return SyntheticScene(
        rig=rig, field=field, objects=objects, scene_id=f"scene-{seed:08x}", seed=seed
    )


def resample_objects(scene: SyntheticScene, config: SceneConfig, seed: int) -> SyntheticScene:
    """New object draw on the same rig and surface: another frame of the
    same scene."""
    rng = np.random.default_rng([_SALT_OBJECTS, scene.seed, seed])
    return replace(scene, objects=_sample_objects(rng, scene.rig, scene.field, config))


# Reference scales turning perturbations into the score penalty exponent.
_SCORE_SCALES = {"hr": 0.5, "dims": 0.2, "yaw": 0.3, "center": 4.0}


def simulate_predictions(scene: SyntheticScene, noise: NoiseModel, seed: int) -> FrameRecord:
    """Perturb each surviving ground-truth object per the noise model and
    rebuild its 3D location from the noisy (u_c, v_c, h_r) through the
    same lifting path the detector uses.  Scores decay exponentially
    with the total applied perturbation, so exact predictions score 1.

    A frame's perturbations and scores are computed as arrays, element
    by element in the order of one object's scalar arithmetic (its
    three dimension terms summed left to right, as numpy sums three
    values), so each prediction is the same to the bit; each object is
    still lifted by its own ``lift_to_ground`` call.
    """
    rng = np.random.default_rng([_SALT_SIM, scene.seed, seed])
    rig, objects = scene.rig, scene.objects
    gt2d = box2d_of(rig, objects)
    centers = np.array([(b.x, b.y, b.z) for b in objects]).reshape(-1, 3)
    bc = np.stack(_project_rows(rig, centers), axis=-1)

    # Draw every noise component unconditionally so the stream stays
    # aligned across noise configurations sharing a seed: per object, the
    # drop draw, then normals for h_r, the three dimensions, yaw and the
    # two pixel offsets, in that order.
    u_drop = np.empty(len(objects))
    eps = np.empty((len(objects), 7))
    for i in range(len(objects)):
        u_drop[i] = rng.random()
        rng.standard_normal(out=eps[i])
    parts = np.array([(b.z, b.l, b.w, b.h, b.theta) for b in objects]).reshape(-1, 5)
    hr_n = parts[:, 0] + noise.sigma_hr * eps[:, 0]
    dims_n = np.maximum(parts[:, 1:4] * (1.0 + noise.sigma_dims * eps[:, 1:4]), 0.1)
    yaw_n = parts[:, 4] + noise.sigma_yaw * eps[:, 4]
    uv_n = bc + noise.sigma_center_px * eps[:, 5:]
    dims_err = np.abs(noise.sigma_dims * eps[:, 1:4])
    uv_err = np.abs(eps[:, 5:])
    penalty = (
        np.abs(noise.sigma_hr * eps[:, 0]) / _SCORE_SCALES["hr"]
        + (dims_err[:, 0] + dims_err[:, 1] + dims_err[:, 2]) / _SCORE_SCALES["dims"]
        + np.abs(noise.sigma_yaw * eps[:, 4]) / _SCORE_SCALES["yaw"]
        + abs(noise.sigma_center_px) * (uv_err[:, 0] + uv_err[:, 1]) / _SCORE_SCALES["center"]
    )

    preds: list[Box3D] = []
    preds_2d: list[tuple[float, float, float, float]] = []
    n_dropped = 0
    n_lift_failed = 0
    # uv_n - bc stays an array, so that its rows give np.float64 offsets
    # and the prediction rectangles keep their type.
    rows = zip(objects, gt2d, u_drop.tolist(), hr_n.tolist(), dims_n.tolist(), yaw_n.tolist(),
               uv_n.tolist(), uv_n - bc, penalty.tolist())
    for box, (x1, y1, x2, y2), drop, hr, (l, w, h), yaw, (u, v), (du, dv), pen in rows:
        if drop < noise.drop_rate:
            n_dropped += 1
            continue
        try:
            loc = lift_to_ground(rig, u, v, hr)
        except GeometryError:
            n_lift_failed += 1
            continue
        preds.append(
            Box3D(
                x=float(loc[0]),
                y=float(loc[1]),
                z=float(loc[2]),
                l=l,
                w=w,
                h=h,
                theta=yaw,
                category=box.category,
                score=math.exp(-pen),
            )
        )
        preds_2d.append((x1 + du, y1 + dv, x2 + du, y2 + dv))

    n_fp = int(rng.binomial(len(scene.objects), noise.false_positive_rate)) if scene.objects else 0
    for _ in range(n_fp):
        for _ in range(50):
            u = rng.uniform(EDGE_MARGIN_PX, rig.image_width - EDGE_MARGIN_PX)
            v = rng.uniform(EDGE_MARGIN_PX, rig.image_height - EDGE_MARGIN_PX)
            try:
                flat = lift_to_ground(rig, u, v, 0.0)
                z = scene.field.evaluate(flat[0], flat[1])
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
                (fp2d,) = box2d_of(rig, [fp_box])
            except GeometryError:
                continue
            preds.append(fp_box)
            preds_2d.append(fp2d)
            break

    return FrameRecord(
        gt_boxes=scene.objects,
        gt_boxes_2d=gt2d,
        pred_boxes=tuple(preds),
        pred_boxes_2d=tuple(preds_2d),
        n_dropped=n_dropped,
        n_lift_failed=n_lift_failed,
    )


class CueField:
    """Scene-cue values of one scene at 1/8 resolution, evaluated at any
    set of cells.

    Channel 0 holds the surface height h_r at the virtual-plane point
    imaged by each cell center (zero above the horizon), computed here
    for the whole grid with one ``ray_ground`` call.  Each remaining
    channel is a sum of three cosine waves over the cell's normalised
    (column, row), standing in for the learned feature content; their
    parameters are drawn here, once, from a stream seeded by the scene
    seed and the channel.  Depends only on the rig, the field, and the
    scene seed, never on the object list.
    """

    def __init__(self, scene: SyntheticScene, channels: int):
        check_channels(channels)
        rig = scene.rig
        bank_memory_elements(rig.image_height, rig.image_width, channels)
        _, ground = ray_ground(rig, *cell_centers(rig.image_height, rig.image_width))
        self.shape = (*ground.shape[:2], channels)
        height = scene.field.evaluate(ground[..., 0], ground[..., 1])
        self._height = np.where(np.isnan(height), 0.0, height).reshape(-1)
        # _waves[k, :, ci - 1] = (amp, fx, fy, phase) of channel ci's wave k.
        self._waves = np.empty((3, 4, channels - 1))
        for ci in range(1, channels):
            rng = np.random.default_rng([_SALT_CUE, scene.seed, ci])
            for k in range(3):
                amp = rng.uniform(0.1, 0.5)
                fx, fy = rng.uniform(0.5, 3.0, size=2)
                phase = rng.uniform(0.0, math.tau)
                self._waves[k, :, ci - 1] = amp, fx, fy, phase

    def at(self, cells) -> np.ndarray:
        """Every channel at the given flat (row-major) cell indices, as a
        new (len(cells), channels) array.  Each value is computed by the
        same operations in the same order whichever cells are asked for,
        so it does not depend on the set.  The array is a ``zero_grid``
        mapping: ``render_cue_grid``'s full-grid result, which
        ``FeatureGrid`` copies and drops, then goes back to the OS instead
        of staying resident on the allocator's heap.  A small call pays
        the mapping and its page faults too (about 50 us for 300 cells
        of 64 channels, against 6 us from the heap)."""
        h_cells, w_cells, channels = self.shape
        cells = np.asarray(cells, dtype=np.intp).reshape(-1)
        if cells.size and not (0 <= cells.min() and cells.max() < h_cells * w_cells):
            raise ValueError(f"cell index out of range for a {h_cells}x{w_cells} grid")
        out = zero_grid((cells.size, channels))
        out[:, 0] = self._height[cells]
        for lo in range(0, cells.size, CELL_BLOCK):
            block = cells[lo : lo + CELL_BLOCK]
            col = (block % w_cells / w_cells)[:, None]
            row = (block // w_cells / h_cells)[:, None]
            layer = out[lo : lo + block.size, 1:]
            layer.fill(0.0)
            for amp, fx, fy, phase in self._waves:
                # amp * cos(tau * (fx * x + fy * y) + phase), one step at
                # a time in place.
                wave = fx * col
                wave += fy * row
                wave *= math.tau
                wave += phase
                np.cos(wave, out=wave)
                wave *= amp
                layer += wave
        return out


def render_cue_grid(scene: SyntheticScene, channels: int) -> FeatureGrid:
    """Scene-cue grid at 1/8 resolution: ``CueField`` evaluated at every
    cell.  Two frames of one scene render identically."""
    cues = CueField(scene, channels)
    h_cells, w_cells, _ = cues.shape
    return FeatureGrid(cues.at(np.arange(h_cells * w_cells)).reshape(cues.shape))
