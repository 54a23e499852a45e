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

import math
from dataclasses import dataclass, replace

import numpy as np

from .camera_geometry import (
    Box3D,
    CameraRig,
    GeometryError,
    GroundPlane,
    corners_of,
    ground_plane_from_extrinsics,
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
)

# Salt values keeping the generation / simulation / cue-noise streams apart.
_SALT_SCENE, _SALT_SIM, _SALT_CUE, _SALT_OBJECTS = 1, 2, 3, 4

# Objects' bottom centers and false-positive pixels are placed at least
# this far inside the image border.
EDGE_MARGIN_PX = 8.0

_POLY_POWERS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3))


@dataclass(frozen=True)
class GroundField:
    """Smooth road-surface height over the virtual ground plane: a cubic
    bivariate polynomial plus optional Gaussian bumps, bounded by
    ``max_abs`` over the region of interest (checked on a sample grid;
    evaluation saturates at the bound outside it)."""

    coeffs: tuple[float, ...]
    xy_scale: float = 100.0
    bumps: tuple[tuple[float, float, float, float], ...] = ()
    roi: tuple[tuple[float, float], tuple[float, float]] = ((-300.0, 300.0), (-300.0, 300.0))
    max_abs: float = 2.0

    def __post_init__(self):
        if len(self.coeffs) != len(_POLY_POWERS):
            raise ValueError(f"expected {len(_POLY_POWERS)} polynomial coefficients")
        if not all(math.isfinite(c) for c in self.coeffs):
            raise ValueError("coefficients must be finite")
        if not (math.isfinite(self.xy_scale) and self.xy_scale > 0):
            raise ValueError(f"xy_scale must be a finite number > 0, got {self.xy_scale}")
        if not self.max_abs > 0:  # NaN fails too; inf means unbounded
            raise ValueError(f"max_abs must be a number > 0, got {self.max_abs}")
        # An infinite bound cannot be exceeded, so its scan is skipped.
        if math.isfinite(self.max_abs) and (peak := self._roi_peak()) > self.max_abs + 1e-9:
            raise ValueError(
                f"surface height reaches {peak:.3f} m, beyond the {self.max_abs} m bound"
            )

    def _roi_peak(self) -> float:
        """Largest unclipped |height| on a 41 x 41 grid over the ROI."""
        xs, ys = (np.linspace(lo, hi, 41) for lo, hi in self.roi)
        return float(np.abs(self._raw(*np.meshgrid(xs, ys))).max())

    def _raw(self, x, y):
        xn = np.asarray(x, dtype=float) / self.xy_scale
        yn = np.asarray(y, dtype=float) / self.xy_scale
        out = np.zeros(np.broadcast(xn, yn).shape)
        for coef, (px, py) in zip(self.coeffs, _POLY_POWERS):
            if coef:
                out += coef * xn**px * yn**py
        for amp, cx, cy, sigma in self.bumps:
            dx = np.asarray(x, dtype=float) - cx
            dy = np.asarray(y, dtype=float) - cy
            out += amp * np.exp(-(dx * dx + dy * dy) / (2.0 * sigma * sigma))
        return out

    def evaluate(self, x, y):
        """Surface height h_r at ground coordinates (x, y); scalar in,
        scalar out, arrays broadcast."""
        out = np.clip(self._raw(x, y), -self.max_abs, self.max_abs)
        return float(out) if out.ndim == 0 else out

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
        n_bumps: int = 2,
    ) -> "GroundField":
        """Draw a random surface whose peak |h_r| over the ROI equals
        ``amplitude`` (coefficients are rescaled to hit it exactly)."""
        if not 0 < amplitude <= 2.0:
            raise ValueError("amplitude must lie in (0, 2]")
        scale = max(abs(v) for band in roi for v in band)
        coeffs = rng.standard_normal(len(_POLY_POWERS))
        bumps = [
            (
                rng.standard_normal(),
                rng.uniform(*roi[0]),
                rng.uniform(*roi[1]),
                rng.uniform(scale / 10.0, scale / 2.0),
            )
            for _ in range(n_bumps)
        ]
        # Probe unbounded (its constructor skips the scan), then rescale to fit.
        probe = cls(
            coeffs=tuple(coeffs), xy_scale=scale, bumps=tuple(bumps), roi=roi, max_abs=math.inf
        )
        peak = probe._roi_peak()
        factor = amplitude / peak if peak > 0 else 0.0
        return cls(
            coeffs=tuple(factor * c for c in coeffs),
            xy_scale=scale,
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
    max_attempts: int = 1000

    def __post_init__(self):
        if self.n_objects < 0:
            raise ValueError("n_objects must be non-negative")
        for name in ("range_band", "height_band", "pitch_band_deg", "roll_band_deg", "focal_band"):
            lo, hi = getattr(self, name)
            if not lo <= hi:
                raise ValueError(f"{name} must be ordered (lo <= hi)")
        if self.range_band[0] <= 0:
            raise ValueError("range band must start above zero")
        grid_dims_for_image(self.image_height, self.image_width)
        if not 0 < self.field_amplitude <= 2.0:
            raise ValueError("field amplitude must lie in (0, 2]")
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
    plane: GroundPlane
    field: GroundField
    objects: tuple[Box3D, ...]
    scene_id: str
    seed: int


@dataclass(frozen=True)
class Detection2D:
    box2d: tuple[float, float, float, float]
    score: float
    bottom_center: tuple[float, float]


@dataclass(frozen=True)
class FrameRecord:
    """One frame flowing through the pipeline: ground truth plus the
    simulated detector output."""

    scene_id: str
    gt_boxes: tuple[Box3D, ...]
    gt_boxes_2d: tuple[tuple[float, float, float, float], ...]
    gt_bottom_centers: tuple[tuple[float, float], ...]
    pred_boxes: tuple[Box3D, ...]
    detections_2d: tuple[Detection2D, ...]
    n_dropped: int = 0
    n_lift_failed: int = 0


def box2d_of(rig: CameraRig, box: Box3D) -> tuple[float, float, float, float]:
    """Pixel-space bounding rectangle of the box's eight projected corners."""
    us, vs = [], []
    for corner in corners_of(box):
        u, v = project_to_image(rig, corner)
        us.append(u)
        vs.append(v)
    return (min(us), min(vs), max(us), max(vs))


def _sample_object(
    rng: np.random.Generator,
    rig: CameraRig,
    field: GroundField,
    config: SceneConfig,
) -> Box3D:
    foot = rig.camera_center_ground()[:2]
    forward = rig.extrinsic.rotation.T @ np.array([0.0, 0.0, 1.0])
    az0 = math.atan2(forward[1], forward[0])
    az_half = math.atan((rig.image_width / 2.0) / rig.f_x) * 0.9
    for _ in range(config.max_attempts):
        r = rng.uniform(*config.range_band)
        az = az0 + rng.uniform(-az_half, az_half)
        x = foot[0] + r * math.cos(az)
        y = foot[1] + r * math.sin(az)
        z = field.evaluate(x, y)
        name, bands = config.categories[rng.integers(len(config.categories))]
        l, w, h = (rng.uniform(lo, hi) for lo, hi in bands)
        box = Box3D(x, y, z, l, w, h, theta=rng.uniform(-math.pi, math.pi), category=name)
        try:
            u, v = project_to_image(rig, box.bottom_center)
        except GeometryError:
            continue
        if (EDGE_MARGIN_PX <= u < rig.image_width - EDGE_MARGIN_PX
                and EDGE_MARGIN_PX <= v < rig.image_height - EDGE_MARGIN_PX):
            return box
    raise ValueError(
        "infeasible scene config: no in-image placement found in "
        f"{config.max_attempts} attempts"
    )


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
    plane = ground_plane_from_extrinsics(rig)
    reach = config.range_band[1] + 20.0
    field = GroundField.random(
        rng, amplitude=config.field_amplitude, roi=((-reach, reach), (-reach, reach))
    )
    objects = tuple(_sample_object(rng, rig, field, config) for _ in range(config.n_objects))
    return SyntheticScene(
        rig=rig, plane=plane, field=field, objects=objects, scene_id=f"scene-{seed:08x}", seed=seed
    )


def resample_objects(scene: SyntheticScene, config: SceneConfig, seed: int) -> SyntheticScene:
    """New object draw on the same rig and surface: another frame of the
    same scene."""
    rng = np.random.default_rng([_SALT_OBJECTS, scene.seed, seed])
    objects = tuple(
        _sample_object(rng, scene.rig, scene.field, config) for _ in range(config.n_objects)
    )
    return replace(scene, objects=objects)


# Reference scales turning perturbations into the score penalty exponent.
_SCORE_SCALES = {"hr": 0.5, "dims": 0.2, "yaw": 0.3, "center": 4.0}


def simulate_predictions(scene: SyntheticScene, noise: NoiseModel, seed: int) -> FrameRecord:
    """Perturb each surviving ground-truth object per the noise model and
    rebuild its 3D location from the noisy (u_c, v_c, h_r) through the
    same lifting path the detector uses.  Scores decay exponentially
    with the total applied perturbation, so exact predictions score 1.
    """
    rng = np.random.default_rng([_SALT_SIM, scene.seed, seed])
    rig, plane = scene.rig, scene.plane
    gt2d = tuple(box2d_of(rig, b) for b in scene.objects)
    gt_bc = tuple(project_to_image(rig, b.bottom_center) for b in scene.objects)

    preds: list[Box3D] = []
    dets: list[Detection2D] = []
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
            loc = lift_to_ground(rig, plane, u_n, v_n, hr_n)
        except GeometryError:
            n_lift_failed += 1
            continue
        penalty = (
            abs(noise.sigma_hr * eps_hr) / _SCORE_SCALES["hr"]
            + float(np.abs(noise.sigma_dims * eps_dims).sum()) / _SCORE_SCALES["dims"]
            + abs(noise.sigma_yaw * eps_yaw) / _SCORE_SCALES["yaw"]
            + abs(noise.sigma_center_px) * float(np.abs(eps_uv).sum()) / _SCORE_SCALES["center"]
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
        dets.append(Detection2D((x1 + du, y1 + dv, x2 + du, y2 + dv), score, (u_n, v_n)))

    n_fp = int(rng.binomial(len(scene.objects), noise.false_positive_rate)) if scene.objects else 0
    for _ in range(n_fp):
        for _ in range(50):
            u = rng.uniform(EDGE_MARGIN_PX, rig.image_width - EDGE_MARGIN_PX)
            v = rng.uniform(EDGE_MARGIN_PX, rig.image_height - EDGE_MARGIN_PX)
            try:
                flat = lift_to_ground(rig, plane, u, v, 0.0)
                z = scene.field.evaluate(flat[0], flat[1])
                loc = lift_to_ground(rig, plane, u, v, z)
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
                fp2d = box2d_of(rig, fp_box)
                bc = project_to_image(rig, fp_box.bottom_center)
            except GeometryError:
                continue
            preds.append(fp_box)
            dets.append(Detection2D(fp2d, score, bc))
            break

    return FrameRecord(
        scene_id=scene.scene_id,
        gt_boxes=scene.objects,
        gt_boxes_2d=gt2d,
        gt_bottom_centers=gt_bc,
        pred_boxes=tuple(preds),
        detections_2d=tuple(dets),
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
        _, ground = ray_ground(rig, scene.plane, *cell_centers(rig.image_height, rig.image_width))
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
        so it does not depend on the set."""
        h_cells, w_cells, channels = self.shape
        cells = np.asarray(cells, dtype=np.intp).reshape(-1)
        if cells.size and not (0 <= cells.min() and cells.max() < h_cells * w_cells):
            raise ValueError(f"cell index out of range for a {h_cells}x{w_cells} grid")
        out = np.empty((cells.size, channels))
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
