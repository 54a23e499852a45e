"""Per-scene feature memory at 1/8 image resolution.

Cues are extracted from a feature grid through a 0-1 mask activating the
3x3 neighborhood of each reference point, then folded into a per-scene
buffer: a convex momentum update for training streams, or a per-pixel
counted running mean for inference streams.

Banks serialize to a little-endian binary container:

    magic b"RLSB" | u32 version=1 | u32 n_scenes | u32 height_cells |
    u32 width_cells | u32 channels, then per scene:
    u32 id_len | id utf-8 | u64 frames_seen |
    f64 values (row-major, height*width*channels) |
    i64 counters (row-major, height*width)

All scenes in one container share the grid shape.
"""

from __future__ import annotations

import math
import mmap
import os
import struct
import sys
from dataclasses import dataclass

import numpy as np

from .camera_geometry import _ArrayRecord, _flags, _readonly

STRIDE = 8
# Cells per block wherever a per-cell pass over a grid is cut into
# blocks (CueField.at, cli._observe): a temporary then holds one block's
# cells x channels, not the whole grid's.
CELL_BLOCK = 1024
# Largest accepted image side in pixels, checked before any grid is
# allocated.  The Rope3D and DAIR-V2X-I frames are 1920x1080.
MAX_IMAGE_SIDE = 16_384
# Largest accepted cells x channels of one grid, checked by
# bank_memory_elements before the grid is allocated: 128 MiB of float64,
# 10.7x the 128x192x64 grid of a 1536x1024 image with 64 channels.
MAX_GRID_VALUES = 2**24
# Largest accepted channel count of a cue grid, checked by
# check_channels before any work: a CueField draws a wave table per
# channel (about 54 us each), and MAX_GRID_VALUES alone admits 2^24
# channels on a one-cell grid.  64x the 64 channels of a bank-stream run.
MAX_CHANNELS = 4096

_MAGIC = b"RLSB"
_VERSION = 1


@dataclass(frozen=True, eq=False)
class FeatureGrid(_ArrayRecord):
    """Dense (height_cells, width_cells, channels) float grid."""

    values: np.ndarray

    def __post_init__(self):
        vals = _readonly(self.values)
        if vals.ndim != 3:
            raise ValueError(f"feature grid must be 3-dimensional, got {vals.ndim}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("feature grid contains non-finite values")
        object.__setattr__(self, "values", vals)


def _frozen_grid(values: np.ndarray) -> FeatureGrid:
    """Wrap a float grid built inside the package from validated grids:
    set it read-only in place, without the public constructor's copy and
    finiteness scan."""
    values.setflags(write=False)
    grid = object.__new__(FeatureGrid)
    object.__setattr__(grid, "values", values)
    return grid


def zero_grid(shape) -> np.ndarray:
    """A writable C-order float64 array of +0.0 in ``shape``, backed by
    its own private anonymous ``mmap`` (``ACCESS_COPY``).  The OS
    zero-fills a page when it is first written, so only written pages
    become resident, and they go back to the OS when the array is
    freed.  Reading a page never written maps the kernel's shared zero
    page, which is not resident memory of the process; in a shared map
    (``mmap``'s default) the same read faults in a fresh page, so a
    full read such as ``save_bank``'s would make the whole grid
    resident.  ``np.zeros`` gives no such promise: once glibc has freed
    one grid-sized block it serves the next ones from its heap, memsets
    every page and keeps freed pages resident.  Each array costs one
    mapping and at least one page (a zero-size shape too, since
    ``mmap`` refuses length 0)."""
    return np.ndarray(
        shape, buffer=mmap.mmap(-1, max(8 * math.prod(shape), 1), access=mmap.ACCESS_COPY)
    )


def _scattered_grid(values: np.ndarray, cells: np.ndarray, shape) -> FeatureGrid:
    """A read-only grid of ``shape`` that holds ``values`` (one row of
    channels per flat row-major cell in ``cells``) and +0.0 elsewhere.
    The grid comes from ``zero_grid``, so only the pages written at
    ``cells`` become resident (a masked cue grid writes a few hundred
    cells of tens of thousands), whatever later reads the grid, at the
    cost of one mapping per grid."""
    grid = zero_grid(shape)
    grid.reshape(-1, shape[2])[cells] = values
    return _frozen_grid(grid)


@dataclass(frozen=True, eq=False)
class CueMask(_ArrayRecord):
    """0-1 grid marking cells near reference points.  ``skipped`` counts
    points that fell outside the image and were ignored."""

    cells: np.ndarray
    skipped: int = 0

    def __post_init__(self):
        cells = _flags(self.cells, np.uint8, "mask entries")
        if cells.ndim != 2:
            raise ValueError("mask must be 2-dimensional")
        object.__setattr__(self, "cells", cells)


def grid_dims_for_image(image_height: int, image_width: int) -> tuple[int, int]:
    if image_height > MAX_IMAGE_SIDE or image_width > MAX_IMAGE_SIDE:
        raise ValueError(
            f"image sides must be at most {MAX_IMAGE_SIDE} px, "
            f"got {image_height}x{image_width}"
        )
    if image_height % STRIDE or image_width % STRIDE:
        raise ValueError(
            f"image dimensions must be divisible by {STRIDE}, "
            f"got {image_height}x{image_width}"
        )
    return image_height // STRIDE, image_width // STRIDE


def cell_centers(image_height: int, image_width: int) -> tuple[np.ndarray, np.ndarray]:
    """Pixel (u, v) of every feature cell's center, as two (H/8, W/8) arrays."""
    h, w = grid_dims_for_image(image_height, image_width)
    return tuple(np.meshgrid((np.arange(w) + 0.5) * STRIDE, (np.arange(h) + 0.5) * STRIDE))


def bank_memory_elements(image_height: int, image_width: int, channels: int) -> int:
    """Element count of one scene's buffer, cue grid or depth embedding:
    (H/8) * (W/8) * channels.  Raises ValueError above ``MAX_GRID_VALUES``."""
    h, w = grid_dims_for_image(image_height, image_width)
    if h * w * channels > MAX_GRID_VALUES:
        raise ValueError(
            f"a {h}x{w}-cell grid with {channels} channels exceeds "
            f"{MAX_GRID_VALUES} values"
        )
    return h * w * channels


def check_channels(channels: int) -> None:
    """Raise ValueError unless a cue grid's ``channels`` lies in
    [1, ``MAX_CHANNELS``]."""
    if channels < 1:
        raise ValueError(f"channels must be at least 1, got {channels}")
    if channels > MAX_CHANNELS:
        raise ValueError(f"channels must be at most {MAX_CHANNELS}, got {channels}")


def make_mask(points, grid_dims: tuple[int, int]) -> CueMask:
    """Activate the 3x3 cell neighborhood around each pixel reference
    point, clipped at grid borders.

    ``points`` are (u, v) pixel coordinates; each maps to feature cell
    (floor(v/8), floor(u/8)).  Out-of-image points are skipped and
    counted in the returned ``skipped`` field.
    """
    h_cells, w_cells = grid_dims
    cells = np.zeros((h_cells, w_cells), dtype=np.uint8)
    skipped = 0
    for u, v in points:
        if not (0 <= u < w_cells * STRIDE and 0 <= v < h_cells * STRIDE):
            skipped += 1
            continue
        col = int(u // STRIDE)
        row = int(v // STRIDE)
        cells[max(0, row - 1) : row + 2, max(0, col - 1) : col + 2] = 1
    return CueMask(cells, skipped=skipped)


def _check_mask_shape(mask: CueMask, grid: FeatureGrid) -> None:
    if mask.cells.shape != grid.values.shape[:2]:
        raise ValueError(
            f"mask shape {mask.cells.shape} does not match grid {grid.values.shape[:2]}"
        )


def extract_cues(features: FeatureGrid, mask: CueMask) -> FeatureGrid:
    """The features at masked cells; off-mask cells are +0.0.  The
    result is read-only.  Only the masked cells are read: they are
    gathered by flat index and scattered into a fresh zero grid."""
    _check_mask_shape(mask, features)
    shape = features.values.shape
    cells = np.flatnonzero(mask.cells)
    return _scattered_grid(features.values.reshape(-1, shape[2])[cells], cells, shape)


@dataclass
class _SceneSlot:
    memorized: np.ndarray
    counter: np.ndarray
    frames_seen: int = 0


class SceneBank:
    """Map from scene id to memorized cue grid, per-pixel observation
    counters, and a frame count.

    Mutation requires exclusive access per scene; distinct scenes are
    independent.
    """

    def __init__(self):
        self._scenes: dict[str, _SceneSlot] = {}

    def scene_ids(self) -> list[str]:
        return list(self._scenes)

    def memorized(
        self, scene_id: str, cells=None, channel: int | slice = slice(None)
    ) -> FeatureGrid | np.ndarray:
        """A read-only copy of the scene's memory as a ``FeatureGrid``.  With
        ``cells`` (flat row-major indices into the height x width grid),
        only those cells are copied: a (len(cells), channels) array, one
        row per cell in the given order, or with an integer ``channel``
        that channel's (len(cells),) values alone.  Neither is
        re-validated: the memory only holds blends of validated grids or
        values that ``load_bank`` checked."""
        memory = self._scenes[scene_id].memorized
        if cells is None:
            if channel != slice(None):
                raise ValueError("memorized selects a channel only together with cells")
            return _frozen_grid(memory.copy())
        return memory.reshape(-1, memory.shape[2])[cells, channel]

    def counter(self, scene_id: str) -> np.ndarray:
        return self._scenes[scene_id].counter.copy()

    def frames_seen(self, scene_id: str) -> int:
        return self._scenes[scene_id].frames_seen

    def reset_scene(self, scene_id: str, init: FeatureGrid) -> None:
        """Replace the scene's memory with ``init``; counters become the
        indicator of init's per-pixel nonzero support; frame count 0.
        The old slot is dropped before ``init`` is copied, so a reset
        never holds two memories of the scene.  The copy goes into a
        ``zero_grid``, so a memory the next reset drops goes back to the
        OS; from glibc's heap a freed block of its size may stay
        resident and add to the next one."""
        self._scenes.pop(scene_id, None)
        memorized = zero_grid(init.values.shape)
        memorized[...] = init.values
        self._scenes[scene_id] = _SceneSlot(
            memorized=memorized,
            counter=np.any(init.values != 0, axis=2).astype(np.int64),
            frames_seen=0,
        )

    def _slot_for_update(self, scene_id: str, cues: FeatureGrid) -> _SceneSlot:
        slot = self._scenes.get(scene_id)
        if slot is not None:
            if slot.memorized.shape != cues.values.shape:
                raise ValueError(
                    f"cue shape {cues.values.shape} does not match bank "
                    f"{slot.memorized.shape} for scene {scene_id!r}"
                )
        return slot

    def update_momentum(
        self, scene_id: str, cues: FeatureGrid, momentum: float = 0.1, mask: CueMask | None = None
    ) -> None:
        """Training-mode update: memory <- (1-momentum)*memory + momentum*cues
        at every cell.  Cues from ``extract_cues`` are zero off the mask,
        so unmasked cells decay toward zero.  Given that ``mask``, cues
        are read at its cells only: the memory is scaled in place and
        momentum*cues is added at the masked cells, with no full-grid
        temporary.  Off-mask cells then skip adding a +0.0 cue, which
        changes only a -0.0 product, left as -0.0.  The first update of
        an unknown scene initializes the memory to that frame's cues.
        """
        if not 0.0 <= momentum <= 1.0:
            raise ValueError(f"momentum must lie in [0, 1], got {momentum}")
        if mask is not None:
            _check_mask_shape(mask, cues)
        slot = self._slot_for_update(scene_id, cues)
        if slot is None:
            self.reset_scene(scene_id, cues)
            self._scenes[scene_id].frames_seen = 1
            return
        # In place, same operations as (1-m)*memory + m*cues; every slot
        # owns its array (reset_scene copies, load_bank reads into a new
        # one).  Without a mask the selection is every cell.
        sel = ... if mask is None else np.nonzero(mask.cells)
        slot.memorized *= 1.0 - momentum
        slot.memorized[sel] += momentum * cues.values[sel]
        slot.frames_seen += 1

    def update_running_average(
        self, scene_id: str, cues: FeatureGrid, mask: CueMask
    ) -> None:
        """Inference-mode update: at each masked cell, bump its counter N
        and fold the cue in as a running mean
        ((N-1)/N)*memory + cue/N.  Off-mask cells and counters are
        untouched.  Unknown scenes start from zero memory and counters;
        that memory comes from ``zero_grid``, so only the pages of
        cells some mask has written become resident, even once
        ``save_bank`` has read it whole (``np.zeros`` may memset every
        page), at the cost of one mapping.
        """
        _check_mask_shape(mask, cues)
        slot = self._slot_for_update(scene_id, cues)
        if slot is None:
            slot = _SceneSlot(
                memorized=zero_grid(cues.values.shape),
                counter=np.zeros(cues.values.shape[:2], dtype=np.int64),
            )
            self._scenes[scene_id] = slot
        sel = mask.cells.astype(bool)
        slot.counter[sel] += 1
        n = slot.counter[sel].astype(float)[:, None]
        slot.memorized[sel] = ((n - 1.0) / n) * slot.memorized[sel] + cues.values[sel] / n
        slot.frames_seen += 1


def save_bank(bank: SceneBank, path) -> None:
    """Write the bank in the binary container documented at module top."""
    slots = sorted(bank._scenes.items())
    shapes = {slot.memorized.shape for _, slot in slots}
    if len(shapes) > 1:
        raise ValueError(f"scenes have mixed grid shapes: {sorted(shapes)}")
    shape = shapes.pop() if shapes else (0, 0, 0)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<5I", _VERSION, len(slots), *shape))
        for sid, slot in slots:
            raw = sid.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<Q", slot.frames_seen))
            fh.write(np.ascontiguousarray(slot.memorized, dtype="<f8"))
            fh.write(np.ascontiguousarray(slot.counter, dtype="<i8"))


def load_bank(path) -> SceneBank:
    """Read a bank written by ``save_bank``; a truncated or overlong file,
    a repeated scene, non-finite memory or a negative counter raises
    ValueError naming the problem.

    Each field is read only once the file size shows it is all there,
    and each scene's values and counters are read straight into the
    arrays the bank keeps (``readinto``): the file's bytes are never
    held as a second copy.  The values go into a ``zero_grid``, so
    they go back to the OS when the bank is freed.  The file holds
    little-endian ``<f8`` and ``<i8``; on a big-endian host both arrays
    are byteswapped in place after the read."""
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ValueError("not a scene bank file (bad magic)")
        size = os.fstat(fh.fileno()).st_size
        pos = 4

        def take(n: int, what: str, array=None):
            """The next ``n`` bytes in a new bytearray, or read into
            ``array()``, an array of ``n`` bytes that is built only once
            the file size shows the bytes are there."""
            nonlocal pos
            if size - pos >= n:
                buf = array() if array else bytearray(n)
                if fh.readinto(buf) == n:
                    pos += n
                    if array and sys.byteorder == "big":
                        buf.byteswap(inplace=True)
                    return buf
            raise ValueError(f"truncated bank file: {what} needs {n} bytes at offset {pos}")

        version, n_scenes, h, w, d = struct.unpack("<5I", take(20, "header"))
        if version != _VERSION:
            raise ValueError(f"unsupported bank version {version}")
        bank = SceneBank()
        for _ in range(n_scenes):
            (id_len,) = struct.unpack("<I", take(4, "scene id length"))
            sid = str(take(id_len, "scene id"), "utf-8")
            if sid in bank._scenes:
                raise ValueError(f"duplicate scene {sid!r}")
            (frames_seen,) = struct.unpack("<Q", take(8, f"scene {sid!r} frame count"))
            values = take(8 * h * w * d, f"scene {sid!r} values", lambda: zero_grid((h, w, d)))
            counter = take(8 * h * w, f"scene {sid!r} counters",
                           lambda: np.empty((h, w), dtype=np.int64))
            if not np.all(np.isfinite(values)):
                raise ValueError(f"scene {sid!r}: memory contains non-finite values")
            if np.any(counter < 0):
                raise ValueError(f"scene {sid!r}: negative observation counter")
            bank._scenes[sid] = _SceneSlot(values, counter, frames_seen)
    if pos != size:
        raise ValueError(f"{size - pos} trailing bytes after the last scene")
    return bank
