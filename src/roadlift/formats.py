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
import sys
from dataclasses import dataclass, is_dataclass, replace

import numpy as np

from .camera_geometry import Box3D, CameraRig, RigidTransform

PARSE_ROTATION_TOL = 1e-6

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
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
        raise FormatError(f"field {context}{key} must be a finite number, got {value!r}")
    return float(value)


def check_json(value, like, name: str):
    """``like`` with parsed JSON ``value`` in its place, or FormatError
    naming the field ``name``.  An int takes an integer, a float any
    number, a str a string, a tuple an equally long list matched item by
    item (a one-item tuple: any length), and a dict or dataclass an
    object with known keys, which replace those of ``like``."""
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
    elif type(value) is type(like) or (
        type(like) is float and type(value) is int and abs(value) <= sys.float_info.max
    ):
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
    for field, value in (("intrinsics.fx", fx), ("intrinsics.fy", fy),
                         ("image.width", width), ("image.height", height)):
        if value <= 0:
            raise FormatError(f"field {field} must be positive, got {value!r}")
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


def parse_labels(text: str) -> list[Box3D]:
    """Parse a label file into boxes; errors carry the line number."""
    boxes = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) not in (8, 9):
            raise FormatError(
                f"line {lineno}: expected 8 or 9 fields, got {len(fields)}"
            )
        try:
            numbers = [float(f) for f in fields[1:]]
        except ValueError as exc:
            raise FormatError(f"line {lineno}: non-numeric field ({exc})") from exc
        if not all(math.isfinite(n) for n in numbers):
            raise FormatError(f"line {lineno}: non-finite value")
        try:
            boxes.append(
                Box3D(
                    x=numbers[0],
                    y=numbers[1],
                    z=numbers[2],
                    l=numbers[3],
                    w=numbers[4],
                    h=numbers[5],
                    theta=numbers[6],
                    category=fields[0],
                    score=numbers[7] if len(numbers) == 8 else None,
                )
            )
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
    return boxes


def serialize_labels(boxes) -> str:
    """Write boxes in the label-line format; scores are emitted when set."""
    lines = [LABEL_HEADER.rstrip("\n")]
    for i, box in enumerate(boxes):
        if any(ch.isspace() for ch in box.category):
            raise FormatError(f"box {i}: category must not contain whitespace")
        fields = [box.category] + [
            repr(float(v)) for v in (box.x, box.y, box.z, box.l, box.w, box.h, box.theta)
        ]
        if box.score is not None:
            fields.append(repr(float(box.score)))
        lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"
