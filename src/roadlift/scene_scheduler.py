"""Scene-based camera-parameter augmentation schedule.

Each scene holds one augmentation fixed until its frame counter reaches
the threshold tau, then resamples and signals the caller to reset that
scene's cue bank memory.  Augmentations scale the intrinsics (image
resize semantics) and add small roll/pitch noise to the extrinsics.

Note on the intrinsic-scale clamp: the default interval is (0.8, 0.9),
which sits below the sampler mean of 1.0, so most draws saturate at the
upper bound.  Override ``clamp_lo``/``clamp_hi`` for a symmetric band.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .camera_geometry import CameraRig, RigidTransform, rot_z
from .scene_cue_bank import STRIDE


def _rot_x(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


@dataclass(frozen=True)
class AugmentationParams:
    """One camera-parameter augmentation; angles in degrees."""

    intrinsic_scale: float
    roll_noise: float
    pitch_noise: float

    def __post_init__(self):
        if not all(
            math.isfinite(v)
            for v in (self.intrinsic_scale, self.roll_noise, self.pitch_noise)
        ):
            raise ValueError("augmentation parameters must be finite")
        if self.intrinsic_scale <= 0:
            raise ValueError("intrinsic scale must be positive")


@dataclass(frozen=True)
class SchedulerConfig:
    tau: int = 1000
    clamp_lo: float = 0.8
    clamp_hi: float = 0.9
    sigma_scale: float = 0.2
    sigma_roll_deg: float = 2.0
    sigma_pitch_deg: float = 0.67

    def __post_init__(self):
        if self.tau < 1:
            raise ValueError("tau must be at least 1")
        if not 0 < self.clamp_lo <= self.clamp_hi < math.inf:  # NaN fails too
            raise ValueError("clamp interval must satisfy 0 < lo <= hi < inf")
        for name in ("sigma_scale", "sigma_roll_deg", "sigma_pitch_deg"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be a finite number >= 0, got {value}")


def sample_augmentation(rng: np.random.Generator, config: SchedulerConfig) -> AugmentationParams:
    """Draw one augmentation: scale ~ N(1, sigma_scale^2) clamped to the
    configured interval, roll/pitch ~ centered normals in degrees."""
    scale = 1.0 + config.sigma_scale * rng.standard_normal()
    scale = min(max(scale, config.clamp_lo), config.clamp_hi)
    roll = config.sigma_roll_deg * rng.standard_normal()
    pitch = config.sigma_pitch_deg * rng.standard_normal()
    return AugmentationParams(scale, roll, pitch)


def scaled_image_size(image_height: int, image_width: int, scale: float) -> tuple[int, int]:
    """(height, width) of an image resized by ``scale``, each rounded to
    a multiple of the cue-grid stride.  Neither side shrinks as the scale
    grows.  Raises ValueError below one grid cell or past float range."""
    w_cells, h_cells = image_width * scale / STRIDE, image_height * scale / STRIDE
    if not math.isfinite(w_cells + h_cells):
        raise ValueError(f"intrinsic scale {scale} takes the image size past float range")
    new_w = int(round(w_cells)) * STRIDE
    new_h = int(round(h_cells)) * STRIDE
    if new_w < STRIDE or new_h < STRIDE:
        raise ValueError("intrinsic scale shrinks the image below one grid cell")
    return new_h, new_w


def apply_augmentation(rig: CameraRig, params: AugmentationParams) -> CameraRig:
    """Apply an augmentation to a rig.

    Intrinsics and image dimensions scale together (resize semantics),
    with dimensions sized by ``scaled_image_size`` so the grid stays
    exact.  The extrinsic is pre-rotated by roll, then pitch, about the
    camera's own axes; the camera center stays put.
    """
    s = params.intrinsic_scale
    new_h, new_w = scaled_image_size(rig.image_height, rig.image_width, s)
    noise = _rot_x(math.radians(params.pitch_noise)) @ rot_z(math.radians(params.roll_noise))
    ext = rig.extrinsic
    return CameraRig(
        f_x=rig.f_x * s,
        f_y=rig.f_y * s,
        a_x=rig.a_x * s,
        a_y=rig.a_y * s,
        extrinsic=RigidTransform(noise @ ext.rotation, noise @ ext.translation),
        image_width=new_w,
        image_height=new_h,
    )


def _scene_key(scene_id: str) -> int:
    return int.from_bytes(hashlib.sha256(scene_id.encode("utf-8")).digest()[:8], "little")


@dataclass
class _SceneState:
    params: AugmentationParams
    frames: int
    rng: np.random.Generator


class SceneScheduler:
    """Per-scene augmentation state with the tau-frame replacement rule.

    Every scene draws from its own generator seeded by (``seed``, scene
    id), so schedules are reproducible regardless of how steps of
    different scenes interleave.
    """

    def __init__(self, config: SchedulerConfig, seed: int):
        self.config = config
        self.seed = seed
        self._scenes: dict[str, _SceneState] = {}

    def _state(self, scene_id: str) -> _SceneState:
        state = self._scenes.get(scene_id)
        if state is None:
            rng = np.random.default_rng([self.seed, _scene_key(scene_id)])
            state = _SceneState(sample_augmentation(rng, self.config), 0, rng)
            self._scenes[scene_id] = state
        return state

    def step(self, scene_id: str) -> tuple[AugmentationParams, bool]:
        """Count one frame for the scene.  Returns the augmentation to use
        and whether the window just rolled over; on rollover the caller
        must reset the scene's bank memory."""
        state = self._state(scene_id)
        state.frames += 1
        if state.frames < self.config.tau:
            return state.params, False
        state.params = sample_augmentation(state.rng, self.config)
        state.frames = 0
        return state.params, True
