"""Text formats for calibration documents and 3D box label files.

Calibration is a JSON document:

    {
      "scene_id": "scene-001",
      "intrinsics": {"fx": ..., "fy": ..., "cx": ..., "cy": ...},
      "extrinsic": [[r r r t], [r r r t], [r r r t], [0, 0, 0, 1]],
      "image": {"width": ..., "height": ...}
    }

where ``extrinsic`` is the row-major 4x4 ground-to-camera transform.

Labels are one object per line:

    category x y z l w h yaw [score]

in the ground frame with (x, y, z) the BOTTOM-face center and yaw in
radians, counter-clockwise about +z (not the KITTI camera-frame center
convention).  Lines starting with '#' are comments.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, is_dataclass, replace

import numpy as np

from .camera_geometry import (
    MIN_FOCAL_PX,
    Box3D,
    CameraRig,
    LabelFrame,
    RigidTransform,
)
from .scene_cue_bank import MAX_IMAGE_SIDE

PARSE_ROTATION_TOL = 1e-6

# Largest magnitude of a calibration number and of a ``check_json``
# float field (every simulate / bank-sim config number): a finite 1e308
# overflows inside the scene draws and a 1e300 principal point puts
# every lifted depth near 1e-296 m, while 1e12 m (or px, or degrees) is
# far past any real rig.
MAX_JSON_NUMBER = 1e12

LABEL_HEADER = (
    "# category x y z l w h yaw [score]\n"
    "# ground frame, z up; (x, y, z) is the bottom-face center; yaw in radians CCW about +z\n"
)


class FormatError(ValueError):
    """Raised for malformed calibration or label documents."""


@dataclass(frozen=True)
class CalibrationDoc:
    rig: CameraRig
    scene_id: str


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise FormatError(f"missing field {context}{key}")
    return mapping[key]


def _number(mapping: dict, key: str, context: str) -> float:
    value = _require(mapping, key, context)
    if (
        not isinstance(value, (int, float))
        or isinstance(value, bool)
        or not abs(value) <= MAX_JSON_NUMBER  # NaN and inf fail too
    ):
        raise FormatError(
            f"field {context}{key} must be a finite number within +-{MAX_JSON_NUMBER:g}, "
            f"got {value!r}"
        )
    return float(value)


def check_json(value, like, name: str):
    """``like`` with parsed JSON ``value`` in its place, or FormatError
    naming the field ``name``.  An int takes an integer, a float any
    number, a str a string, a tuple an equally long list matched item by
    item (a one-item tuple: any length), and a dict or dataclass an
    object with known keys, which replace those of ``like``.  A float
    field's number must lie within +-``MAX_JSON_NUMBER``: ``1e308``,
    JSON ``Infinity`` and ``1e999`` are rejected, while NaN is left to
    each field's own check."""
    if isinstance(like, dict) or is_dataclass(like):
        keys = like if isinstance(like, dict) else vars(like)
        where = f"{name} config" if name else "config"
        if not isinstance(value, dict):
            raise FormatError(f"{where} must be a JSON object, got {json.dumps(value)}")
        unknown = set(value) - set(keys)
        if unknown:
            raise FormatError(f"unknown {where} keys: {sorted(unknown)}")
        prefix = f"{name}." if name else ""
        checked = {k: check_json(v, keys[k], prefix + k) for k, v in value.items()}
        return {**like, **checked} if isinstance(like, dict) else replace(like, **checked)
    if isinstance(like, tuple):
        if isinstance(value, list) and len(like) in (1, len(value)):
            return tuple(
                check_json(v, like[min(i, len(like) - 1)], f"{name}[{i}]")
                for i, v in enumerate(value)
            )
    elif type(like) is float:
        if type(value) in (int, float) and not abs(value) > MAX_JSON_NUMBER:
            return value
    elif type(value) is type(like):
        return value
    raise FormatError(f"field {name} must be like {json.dumps(like)}, got {json.dumps(value)}")


def parse_calibration_doc(text: str) -> CalibrationDoc:
    """Parse a calibration document; errors name the offending field."""
    try:
        # Every number is real-valued: an integer beyond float range reads as inf.
        data = json.loads(text, parse_int=float)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"calibration is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise FormatError("calibration document must be a JSON object")
    intr = _require(data, "intrinsics", "")
    if not isinstance(intr, dict):
        raise FormatError("field intrinsics must be an object")
    fx = _number(intr, "fx", "intrinsics.")
    fy = _number(intr, "fy", "intrinsics.")
    cx = _number(intr, "cx", "intrinsics.")
    cy = _number(intr, "cy", "intrinsics.")
    image = _require(data, "image", "")
    if not isinstance(image, dict):
        raise FormatError("field image must be an object")
    width = _number(image, "width", "image.")
    height = _number(image, "height", "image.")
    if width != int(width) or height != int(height):
        raise FormatError("image dimensions must be integers")
    for field, value in (("intrinsics.fx", fx), ("intrinsics.fy", fy)):
        if value < MIN_FOCAL_PX:
            raise FormatError(f"field {field} must be at least {MIN_FOCAL_PX:g} px, got {value!r}")
    for field, value in (("image.width", width), ("image.height", height)):
        if value <= 0:
            raise FormatError(f"field {field} must be positive, got {value!r}")
    for field, value in (("image.width", width), ("image.height", height)):
        if value > MAX_IMAGE_SIDE:
            raise FormatError(
                f"field {field} must be at most {MAX_IMAGE_SIDE} px, got {int(value)}"
            )
    matrix = check_json(_require(data, "extrinsic", ""), ((0.0,) * 4,) * 4, "extrinsic")
    arr = np.array(matrix, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise FormatError("field extrinsic must be a finite 4x4 matrix")
    if not np.array_equal(arr[3], [0.0, 0.0, 0.0, 1.0]):
        raise FormatError("extrinsic bottom row must be (0, 0, 0, 1)")
    rot = arr[:3, :3]
    with np.errstate(over="ignore"):  # huge entries: inf, rejected below without a warning
        ortho_err = np.max(np.abs(rot.T @ rot - np.eye(3)))
    if ortho_err > PARSE_ROTATION_TOL:
        raise FormatError("extrinsic rotation is not orthonormal (tolerance 1e-6)")
    if np.linalg.det(rot) < 0:
        raise FormatError("extrinsic rotation must have determinant +1")
    if ortho_err > 1e-9:
        # Rounded file entries: snap to the nearest exact rotation so the
        # strict rig invariants hold; exact entries pass through untouched.
        u, _, vt = np.linalg.svd(rot)
        rot = u @ vt
        if np.linalg.det(rot) < 0:
            rot = u @ np.diag([1.0, 1.0, -1.0]) @ vt
    rig = CameraRig(
        f_x=fx,
        f_y=fy,
        a_x=cx,
        a_y=cy,
        extrinsic=RigidTransform(rot, arr[:3, 3]),
        image_width=int(width),
        image_height=int(height),
    )
    scene_id = data.get("scene_id", "scene-0")
    if not isinstance(scene_id, str):
        raise FormatError("field scene_id must be a string")
    return CalibrationDoc(rig=rig, scene_id=scene_id)


def serialize_calibration(rig: CameraRig, scene_id: str = "scene-0") -> str:
    matrix = np.eye(4)
    matrix[:3, :3] = rig.extrinsic.rotation
    matrix[:3, 3] = rig.extrinsic.translation
    doc = {
        "scene_id": scene_id,
        "intrinsics": {"fx": rig.f_x, "fy": rig.f_y, "cx": rig.a_x, "cy": rig.a_y},
        "extrinsic": [[float(v) for v in row] for row in matrix],
        "image": {"width": rig.image_width, "height": rig.image_height},
    }
    return json.dumps(doc, indent=2) + "\n"


def parse_labels(text: str) -> LabelFrame:
    """Parse a label file into one ``LabelFrame``; errors carry the line
    number.  Each line is checked as it is read, so the first bad line
    is the one named.  A number is ASCII without '_': ``float`` alone
    would also read ``1_0`` as 10 and the Arabic-Indic ``٣`` as 3."""
    categories, values = [], []
    # Only such a file can hold a number float reads beyond that syntax.
    odd_syntax = "_" in text or not text.isascii()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0][0] == "#":
            continue
        if len(fields) not in (8, 9):
            raise FormatError(f"line {lineno}: expected 8 or 9 fields, got {len(fields)}")
        if odd_syntax and not all(f.isascii() and "_" not in f for f in fields[1:]):
            raise FormatError(f"line {lineno}: numbers must be ASCII without '_'")
        try:
            numbers = list(map(float, fields[1:]))
        except ValueError as exc:
            raise FormatError(f"line {lineno}: non-numeric field ({exc})") from exc
        scored = len(numbers) == 8
        if not scored:
            numbers.append(math.nan)
        x, y, z, l, w, h, theta, score = numbers
        # Box3D's rules in one test, which also fails for |theta| >= pi
        # and for finite x..h whose sum overflows.  Such a line is checked
        # as Box3D checks it: a bad one raises, a good one has its theta
        # wrapped by Box3D.
        if not (-math.inf < x + y + z + l + w + h < math.inf and l > 0 and w > 0 and h > 0
                and -math.pi < theta < math.pi and (0.0 <= score <= 1.0 or not scored)):
            if not all(map(math.isfinite, (x, y, z, l, w, h, theta, score if scored else 0.0))):
                raise FormatError(f"line {lineno}: non-finite value")
            try:
                numbers[6] = Box3D(x, y, z, l, w, h, theta, score=score if scored else None).theta
            except ValueError as exc:
                raise FormatError(f"line {lineno}: {exc}") from exc
        values += numbers
        categories.append(fields[0])
    table = np.array(values, dtype=float).reshape(-1, 8)
    return LabelFrame(table[:, :7], categories, table[:, 7])


def serialize_labels(boxes) -> str:
    """Write boxes in the label-line format; scores are emitted when set."""
    lines = [LABEL_HEADER.rstrip("\n")]
    for box in boxes:
        fields = [box.category] + [
            repr(float(v)) for v in (box.x, box.y, box.z, box.l, box.w, box.h, box.theta)
        ]
        if box.score is not None:
            fields.append(repr(float(box.score)))
        lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"
