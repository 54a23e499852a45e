"""Sine position encodings for per-pixel ground depth.

Depth is encoded raw in meters (no normalization) at the fixed
``TEMPERATURE`` of 10000, the usual transformer convention.  Cells whose
ray never reaches the ground carry an all-zero sentinel embedding.
"""

from __future__ import annotations

import numpy as np

from .camera_geometry import CameraRig, ray_ground
from .scene_cue_bank import bank_memory_elements, cell_centers, heap_grid

TEMPERATURE = 10000.0


def sine_encode(value, d_e: int) -> np.ndarray:
    """Interleaved sin/cos encoding: entry 2i is
    sin(value / TEMPERATURE^(2i/d_e)), entry 2i+1 the matching cos.

    Arrays are encoded elementwise: an input of shape S gives (*S, d_e).
    The output is filled one sin/cos pair at a time through two
    temporaries of the input's shape, so the peak is about one output
    plus two inputs, not the output plus full angle, sin and cos arrays.
    The output is a ``scene_cue_bank.heap_grid``: a depth embedding is
    grid-sized.
    """
    if d_e <= 0 or d_e % 2:
        raise ValueError(f"embedding size must be a positive even integer, got {d_e}")
    freq = TEMPERATURE ** (2.0 * np.arange(d_e // 2) / d_e)
    value = np.asarray(value, dtype=float)
    out = heap_grid(value.shape + (d_e,))
    ang = np.empty(value.shape)
    trig = np.empty(value.shape)
    for i, f in enumerate(freq):
        np.divide(value, f, out=ang)
        out[..., 2 * i] = np.sin(ang, out=trig)
        out[..., 2 * i + 1] = np.cos(ang, out=trig)
    return out


def embed_depth_map(rig: CameraRig, d_e: int) -> np.ndarray:
    """Per-cell sine embedding of the ground depth d(u, v) at 1/8 image
    resolution, evaluated at cell-center pixels.

    Returns an (H/8, W/8, d_e) array; cells above the horizon (ray
    parallel to the plane or intersecting behind the camera) are all
    zeros.  A grid over ``scene_cue_bank.MAX_GRID_VALUES`` raises
    ValueError before anything is allocated.
    """
    bank_memory_elements(rig.image_height, rig.image_width, d_e)
    depth, _ = ray_ground(rig, *cell_centers(rig.image_height, rig.image_width))
    out = sine_encode(depth, d_e)
    out[np.isnan(depth)] = 0.0
    return out
