"""Camera rigs, virtual ground planes, and height-based 2D-to-3D lifting.

COORDINATE CONVENTIONS (shared by the whole package)
====================================================
Ground frame (right-handed):
  - z axis points up; the virtual ground plane is z = 0.
  - Box yaw is measured counter-clockwise about +z, starting from +x.
  - Box positions (x, y, z) are BOTTOM-FACE centers, not cuboid centers.

Camera frame (right-handed, computer-vision convention):
  - x right, y down, z forward along the optical axis.
  - The extrinsic transform maps ground-frame points into the camera
    frame: X_cam = R @ X_ground + t.

Image frame:
  - u right, v down, origin at the top-left corner, units in pixels.
  - Pinhole projection: u = f_x * x/z + a_x, v = f_y * y/z + a_y.

Virtual ground plane, expressed in camera coordinates:
  - Stored as (A, B, C, D) with (A, B, C) the UNIT normal pointing from
    the camera side DOWN through the ground (the ground-frame -z
    direction seen from the camera), so A*x + B*y + C*z + D = 0 holds on
    the plane.  The camera center evaluates to D, which is negative for
    any camera above the ground; camera_height == |D| == -D.
  - A rig's plane is ``rig.plane``, fixed by its extrinsics: the lifting
    functions take the rig alone and read it there.

Virtual camera frame:
  - Shares its origin with the real camera.  Its y axis is the down
    normal (A, B, C), so its x/z plane is parallel to the ground plane.
    The rotation is the minimal one carrying the camera y axis onto the
    normal; the leftover yaw freedom is whatever that minimal rotation
    produces (only the parallelism property is contractual).
  - A ray heading toward the ground has a positive y component in this
    frame; lifting scales the unit-depth ray point by
    (camera_height - h_r) / y_v and maps it back to ground coordinates.

All angles are radians unless the name carries a _deg suffix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

# Tolerance for algebraic identities (orthonormality, unit normals).
ALGEBRAIC_TOL = 1e-9
# Rays closer than this to the plane direction count as parallel.
RAY_PARALLEL_TOL = 1e-9
# Cameras closer than this to the ground plane are degenerate.
MIN_CAMERA_HEIGHT = 1e-6
# Shortest accepted focal length in pixels.  Below it one pixel next to
# the principal point spans more than 45 degrees, which no road camera
# does, and the ray directions (u - a_x) / f_x grow without bound: a
# subnormal focal length overflows them to inf.
MIN_FOCAL_PX = 1.0
# Points at a camera-frame depth of at most this do not project.
MIN_DEPTH = 1e-6


class GeometryError(ValueError):
    """A geometric operation is undefined for the given inputs."""


def _readonly(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def _flags(a, dtype, name: str) -> np.ndarray:
    """``_readonly(a, dtype)`` for 0/1 flags: ValueError naming ``name``
    unless every value given is 0 or 1.  The values are checked before
    the cast, which would turn 0.5, 256 and NaN into 0 (and 2 into
    True); a bool array needs no check."""
    given = np.asarray(a)
    if given.dtype != bool and not np.all((given == 0) | (given == 1)):  # NaN fails too
        raise ValueError(f"{name} must be 0 or 1")
    return _readonly(given, dtype)


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b, equal_nan=True)
    return a == b


class _ArrayRecord:
    """Base of the package's frozen dataclasses (``eq=False``) that hold
    numpy arrays.  The record rule: every array field is set in
    ``__post_init__`` through ``_readonly`` (0/1 flags through
    ``_flags``), so a record holds read-only copies; two records are
    equal when they have the same type and equal fields, arrays compared
    by value with NaN equal to NaN (a ``LabelFrame`` stores a missing
    score as NaN); records are unhashable, since defining ``__eq__``
    sets ``__hash__`` to None."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(_same(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


@dataclass(frozen=True, eq=False)
class RigidTransform(_ArrayRecord):
    """Rotation + translation: apply(p) = rotation @ p + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        rot = _readonly(self.rotation)
        tr = _readonly(self.translation)
        if rot.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {rot.shape}")
        if tr.shape != (3,):
            raise ValueError(f"translation must be a 3-vector, got {tr.shape}")
        if not (np.all(np.isfinite(rot)) and np.all(np.isfinite(tr))):
            raise ValueError("transform contains non-finite values")
        if np.max(np.abs(rot.T @ rot - np.eye(3))) > ALGEBRAIC_TOL:
            raise ValueError("rotation is not orthonormal")
        if abs(np.linalg.det(rot) - 1.0) > ALGEBRAIC_TOL:
            raise ValueError("rotation determinant is not +1")
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", tr)

    def apply(self, points) -> np.ndarray:
        """Transform one (3,) point or an (..., 3) array of points."""
        p = np.asarray(points, dtype=float)
        return p @ self.rotation.T + self.translation


@dataclass(frozen=True)
class CameraRig:
    """Calibration for one roadside camera.

    f_x, f_y are focal lengths in pixels, finite and at least
    ``MIN_FOCAL_PX``; (a_x, a_y) is the principal point; ``extrinsic``
    maps ground-frame points to camera-frame points.
    """

    f_x: float
    f_y: float
    a_x: float
    a_y: float
    extrinsic: RigidTransform
    image_width: int
    image_height: int

    def __post_init__(self):
        if not (MIN_FOCAL_PX <= self.f_x < math.inf and MIN_FOCAL_PX <= self.f_y < math.inf):
            raise ValueError(
                f"focal lengths must be positive, finite and at least {MIN_FOCAL_PX:g} px, "
                f"got {self.f_x} and {self.f_y}"
            )
        if not (math.isfinite(self.a_x) and math.isfinite(self.a_y)):
            raise ValueError("principal point must be finite")
        if not (self.image_width > 0 and self.image_height > 0):
            raise ValueError("image dimensions must be positive")

    def camera_center_ground(self) -> np.ndarray:
        """Camera optical center expressed in ground coordinates."""
        ext = self.extrinsic
        return -ext.rotation.T @ ext.translation

    @cached_property
    def plane(self) -> GroundPlane:
        """The rig's virtual ground plane, ``ground_plane_from_extrinsics``
        of the rig, built on first use and kept: a rig with its camera on
        or below the ground constructs, and raises GeometryError here."""
        return ground_plane_from_extrinsics(self)


@dataclass(frozen=True, eq=False)
class GroundPlane(_ArrayRecord):
    """Virtual ground plane in camera coordinates plus lifting transforms.

    (a, b, c) is the unit down normal and d the plane offset (see the
    module docstring for the sign convention).  ``cam_to_virtual``
    rotates camera coordinates into the virtual camera frame and
    ``virtual_to_ground`` maps virtual-frame points to ground
    coordinates.
    """

    a: float
    b: float
    c: float
    d: float
    cam_to_virtual: np.ndarray
    virtual_to_ground: RigidTransform

    def __post_init__(self):
        # Each check is written so that NaN fails it.
        n = np.array([self.a, self.b, self.c])
        if not abs(np.linalg.norm(n) - 1.0) <= ALGEBRAIC_TOL:
            raise ValueError("plane normal is not unit length")
        if not self.d < 0:
            raise ValueError("camera height must be positive")
        m = _readonly(self.cam_to_virtual)
        if not np.max(np.abs(m.T @ m - np.eye(3))) <= ALGEBRAIC_TOL:
            raise ValueError("cam_to_virtual is not orthonormal")
        if not np.max(np.abs(m @ n - np.array([0.0, 1.0, 0.0]))) <= ALGEBRAIC_TOL:
            raise ValueError("cam_to_virtual must map the down normal to +y")
        # x_v and z_v axes must be horizontal in the ground frame.
        rot = self.virtual_to_ground.rotation
        if not max(abs(rot[2, 0]), abs(rot[2, 2])) <= ALGEBRAIC_TOL:
            raise ValueError("virtual x/z plane is not parallel to the ground")
        object.__setattr__(self, "cam_to_virtual", m)

    @property
    def camera_height(self) -> float:
        """Height of the camera center above the plane, -d."""
        return -self.d


def _minimal_rotation_y_to(n: np.ndarray) -> np.ndarray:
    """Minimal rotation R with R @ e_y = n, for unit n."""
    e_y = np.array([0.0, 1.0, 0.0])
    w = np.cross(e_y, n)
    s = np.linalg.norm(w)
    cos_ang = float(e_y @ n)
    if s < 1e-12:
        if cos_ang > 0:
            return np.eye(3)
        # Camera y opposes the normal (upside-down rig): flip about z.
        return np.diag([-1.0, -1.0, 1.0])
    k = w / s
    kx = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    return np.eye(3) + s * kx + (1.0 - cos_ang) * (kx @ kx)


def ground_plane_from_extrinsics(rig: CameraRig) -> GroundPlane:
    """Express the ground plane z_g = 0 in camera coordinates.

    Raises GeometryError if the camera center lies on (or below) the
    ground plane.
    """
    rot = rig.extrinsic.rotation
    t = rig.extrinsic.translation
    up_cam = rot @ np.array([0.0, 0.0, 1.0])
    normal = -up_cam  # down normal, per module convention
    d = float(up_cam @ t)  # signed value of the camera center
    if abs(d) < MIN_CAMERA_HEIGHT:
        raise GeometryError("camera on ground plane")
    if d > 0:
        raise GeometryError("camera below ground plane")
    # Columns of the minimal rotation are the virtual axes in camera
    # coordinates (its y column is the down normal).
    basis = _minimal_rotation_y_to(normal)
    cam_to_virtual = basis.T
    virtual_to_ground = RigidTransform(rot.T @ basis, -rot.T @ t)
    return GroundPlane(
        # +0.0 normalizes any -0.0 component for clean printing.
        a=float(normal[0]) + 0.0,
        b=float(normal[1]) + 0.0,
        c=float(normal[2]) + 0.0,
        d=d,
        cam_to_virtual=cam_to_virtual,
        virtual_to_ground=virtual_to_ground,
    )


def depth_to_ground(rig: CameraRig, u: float, v: float) -> float:
    """Camera-frame z depth at which the ray through pixel (u, v) meets
    the virtual ground."""
    plane = rig.plane
    den = (
        plane.a * (u - rig.a_x) / rig.f_x
        + plane.b * (v - rig.a_y) / rig.f_y
        + plane.c
    )
    if abs(den) <= RAY_PARALLEL_TOL:
        raise GeometryError("ray parallel to ground")
    depth = -plane.d / den
    if depth <= 0:
        raise GeometryError("plane behind camera")
    return depth


def lift_to_ground(rig: CameraRig, u_c: float, v_c: float, h_r: float) -> np.ndarray:
    """Lift a bottom-center pixel with relative height h_r to ground
    coordinates.

    The returned point satisfies z_g == h_r by construction.
    """
    plane = rig.plane
    if h_r >= plane.camera_height:
        raise GeometryError("relative height above camera")
    ray = np.array([(u_c - rig.a_x) / rig.f_x, (v_c - rig.a_y) / rig.f_y, 1.0])
    p_v = plane.cam_to_virtual @ ray
    y_v = p_v[1]
    if abs(y_v) <= RAY_PARALLEL_TOL:
        raise GeometryError("ray parallel to ground")
    if y_v < 0:
        raise GeometryError("plane behind camera")
    scale = (plane.camera_height - h_r) / y_v
    return plane.virtual_to_ground.apply(scale * p_v)


def ray_ground(rig: CameraRig, u, v) -> tuple[np.ndarray, np.ndarray]:
    """Array form of ``depth_to_ground`` and ``lift_to_ground(..., 0.0)``,
    which serve single pixels: each ray's camera-frame depth and its
    (..., 3) ground point at z_g = 0, NaN where the scalar form raises
    GeometryError (the ray misses the ground in front of the camera)."""
    plane = rig.plane
    u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
    den = plane.a * (u - rig.a_x) / rig.f_x + plane.b * (v - rig.a_y) / rig.f_y + plane.c
    rays = np.stack([(u - rig.a_x) / rig.f_x, (v - rig.a_y) / rig.f_y, np.ones_like(u)], axis=-1)
    p_v = rays @ plane.cam_to_virtual.T
    y_v = p_v[..., 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        depth = -plane.d / den
        scale = plane.camera_height / y_v
    depth = np.where((np.abs(den) > RAY_PARALLEL_TOL) & (depth > 0), depth, np.nan)
    scale = np.where(y_v > RAY_PARALLEL_TOL, scale, np.nan)
    return depth, plane.virtual_to_ground.apply(scale[..., None] * p_v)


def project_to_image(rig: CameraRig, p_g) -> tuple[float, float]:
    """Pinhole projection of a ground-frame point to pixel coordinates."""
    pc = rig.extrinsic.apply(np.asarray(p_g, dtype=float))
    if pc[2] <= MIN_DEPTH:
        raise GeometryError("point behind camera")
    u = rig.f_x * pc[0] / pc[2] + rig.a_x
    v = rig.f_y * pc[1] / pc[2] + rig.a_y
    return float(u), float(v)


def _project_rows(rig: CameraRig, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``project_to_image`` of every point of an (..., 3) array, as u and
    v arrays equal to the scalar form bit for bit; GeometryError if any
    point is behind the camera.  Each point is rotated as a 1 x 3 row
    times R^T, the product the scalar form takes: ``points @ R.T`` sums
    in another order and moves last bits."""
    ext = rig.extrinsic
    pc = np.matmul(points[..., None, :], ext.rotation.T)[..., 0, :] + ext.translation
    if (pc[..., 2] <= MIN_DEPTH).any():
        raise GeometryError("point behind camera")
    u = rig.f_x * pc[..., 0] / pc[..., 2] + rig.a_x
    v = rig.f_y * pc[..., 1] / pc[..., 2] + rig.a_y
    return u, v


def height_sensitivity(
    camera_height: float, h_r: float, horizontal_range: float, delta_h: float
) -> float:
    """Horizontal location error induced by an h_r error of delta_h for
    an object at the given horizontal range from the camera foot point.

    Lifting scales horizontal range by (camera_height - h_r), so the
    error is exactly range * delta_h / (camera_height - h_r).  A
    negative range, or an error past the float range, raises ValueError;
    h_r or h_r + delta_h at or above the camera raises GeometryError, as
    ``lift_to_ground`` does.
    """
    if not horizontal_range >= 0:  # NaN fails too
        raise ValueError(f"horizontal range must be non-negative, got {horizontal_range}")
    if camera_height <= max(h_r, h_r + delta_h):
        raise GeometryError("relative height above camera")
    error = horizontal_range * delta_h / (camera_height - h_r)
    if not math.isfinite(error):
        raise ValueError(f"location error is not a finite number, got {error}")
    return error


def check_category(name) -> None:
    """ValueError unless ``name`` is a label line's first token: a
    non-empty string with no whitespace that does not start with '#'."""
    # split() drops every whitespace character, so one token equal to
    # the whole string means non-empty and whitespace-free.
    if not (isinstance(name, str) and name.split() == [name] and name[0] != "#"):
        raise ValueError(
            "category must be a non-empty string without whitespace, not starting "
            f"with '#', got {name!r}"
        )


@dataclass(frozen=True)
class Box3D:
    """Oriented 3D box, ground frame, (x, y, z) at the bottom-face center.
    ``category`` is a label category (see ``check_category``)."""

    x: float
    y: float
    z: float
    l: float
    w: float
    h: float
    theta: float
    category: str = "car"
    score: float | None = None

    def __post_init__(self):
        if not all(
            math.isfinite(v)
            for v in (self.x, self.y, self.z, self.l, self.w, self.h, self.theta)
        ):
            raise ValueError("box fields must be finite")
        if not (self.l > 0 and self.w > 0 and self.h > 0):
            raise ValueError("box dimensions must be positive")
        object.__setattr__(self, "theta", wrap_angle(self.theta))
        check_category(self.category)
        if self.score is not None and not (0.0 <= self.score <= 1.0):
            raise ValueError("score must lie in [0, 1]")

    @property
    def bottom_center(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


def wrap_angle(theta: float) -> float:
    """``theta`` in (-pi, pi]: the IEEE remainder by 2*pi (the identity
    for |theta| < pi), with -pi moved to pi."""
    th = math.remainder(theta, math.tau)
    if th <= -math.pi:
        th += math.tau
    return th


@dataclass(frozen=True, eq=False)
class LabelFrame(_ArrayRecord):
    """The boxes of one label file, as arrays.

    ``params`` is a read-only (n, 7) array of x, y, z, l, w, h and theta
    per box, ``categories`` their categories and ``scores`` a read-only
    (n,) array, NaN where a box has no score.  The frame is a sequence:
    ``frame[i]`` is box ``i`` as a ``Box3D``.  ``formats.parse_labels``
    builds frames from text, ``LabelFrame.of`` from boxes; the values
    are not checked again here.
    """

    params: np.ndarray
    categories: tuple[str, ...]
    scores: np.ndarray

    def __post_init__(self):
        params = _readonly(self.params).reshape(-1, 7)
        scores = _readonly(self.scores).reshape(-1)
        if not len(params) == len(self.categories) == len(scores):
            raise ValueError("params, categories and scores must have one entry per box")
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "categories", tuple(self.categories))
        object.__setattr__(self, "scores", scores)

    @classmethod
    def of(cls, boxes) -> LabelFrame:
        """The frame of a sequence of ``Box3D``; a frame is returned as it is."""
        if isinstance(boxes, LabelFrame):
            return boxes
        boxes = tuple(boxes)
        return cls(
            [(b.x, b.y, b.z, b.l, b.w, b.h, b.theta) for b in boxes],
            tuple(b.category for b in boxes),
            [math.nan if b.score is None else b.score for b in boxes],
        )

    def take(self, index) -> LabelFrame:
        """The frame of the boxes at the positions in ``index``, in order."""
        rows = np.asarray(index, dtype=np.intp)
        categories = [self.categories[i] for i in index]
        return LabelFrame(self.params[rows], categories, self.scores[rows])

    def __len__(self) -> int:
        return len(self.categories)

    def __getitem__(self, i: int) -> Box3D:
        score = float(self.scores[i])
        return Box3D(*self.params[i].tolist(), category=self.categories[i],
                     score=None if math.isnan(score) else score)

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def rot_z(angle: float) -> np.ndarray:
    """Rotation by ``angle`` counter-clockwise about +z."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


# Corner sign patterns in the documented order: (l, w, h) signs enumerate
# (---), (--+), (-+-), (-++), (+--), (+-+), (++-), (+++).
CORNER_SIGNS = np.array(
    [(sl, sw, sh) for sl in (-1.0, 1.0) for sw in (-1.0, 1.0) for sh in (-1.0, 1.0)]
)


def corners_from_parts(
    x: float, y: float, z: float, l: float, w: float, h: float, theta: float
) -> np.ndarray:
    """Eight box corners (8, 3) from raw parameters; see CORNER_SIGNS for
    ordering.  (x, y, z) is the bottom-face center; the +h/2 shift moves
    to the cuboid center before the signed half-extents are applied."""
    half = CORNER_SIGNS * np.array([l / 2.0, w / 2.0, h / 2.0])
    return half @ rot_z(theta).T + np.array([x, y, z + h / 2.0])


def corners_of(box: Box3D) -> np.ndarray:
    """Eight ground-frame corners of the box, shape (8, 3)."""
    return corners_from_parts(box.x, box.y, box.z, box.l, box.w, box.h, box.theta)


def rig_from_pose(
    camera_height: float,
    pitch_deg: float,
    yaw_deg: float = 0.0,
    roll_deg: float = 0.0,
    f_x: float = 1000.0,
    f_y: float = 1000.0,
    image_width: int = 1536,
    image_height: int = 1024,
) -> CameraRig:
    """Build a rig from a pose description: camera at (0, 0,
    camera_height) over the ground origin, optical axis yawed about
    ground +z, pitched down by pitch_deg, then rolled about the optical
    axis; the principal point is the image centre."""
    yaw = math.radians(yaw_deg)
    pitch = math.radians(pitch_deg)
    roll = math.radians(roll_deg)
    forward = np.array(
        [math.cos(pitch) * math.cos(yaw), math.cos(pitch) * math.sin(yaw), -math.sin(pitch)]
    )
    right0 = np.array([math.sin(yaw), -math.cos(yaw), 0.0])
    down0 = np.cross(forward, right0)
    right = math.cos(roll) * right0 + math.sin(roll) * down0
    down = math.cos(roll) * down0 - math.sin(roll) * right0
    rot = np.vstack([right, down, forward])
    center = np.array([0.0, 0.0, camera_height])
    extrinsic = RigidTransform(rot, -rot @ center)
    return CameraRig(
        f_x=f_x,
        f_y=f_y,
        a_x=image_width / 2.0,
        a_y=image_height / 2.0,
        extrinsic=extrinsic,
        image_width=image_width,
        image_height=image_height,
    )
