"""Pinhole camera model, rigid poses, and pose-error metrics.

Coordinate conventions used throughout the package:

  World frame: right-handed, meters.
  Camera frame: x right, y down, z forward along the optical axis.
  A pose maps world points into the camera frame as

      x_cam = R @ (X - C)

  where R is the world-to-camera rotation and C the camera center in
  world coordinates.  The center is stored directly (not a translation
  vector) because retrieval gating and evaluation both work with camera
  centers.

  Pixels: origin at the top-left corner, x right, y down, continuous
  (sub-pixel) coordinates.  "Depth" is always z-depth, i.e. the
  camera-frame z coordinate, not the Euclidean ray length.

  Angles are radians internally; reported errors are degrees.

Per-point kernels work one column at a time.  An (N, 3) array combined
with a broadcast (3,) operand, or reduced over its last axis, makes numpy
run N inner loops of length 3.  So project_points, sample_grid,
nearest_pixel and back_project_pixels, and the visibility gate in scoring,
apply each elementwise op to whole x, y and z columns: the op that the
row-wise formula applies to each entry, in the same order, so the results
are bitwise the row-wise ones.  The 3x3 rotation stays one BLAS matrix
product.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "CameraIntrinsics",
    "RigidPose",
    "PoseError",
    "project_points",
    "pixel_rays",
    "nearest_pixel",
    "sample_grid",
    "back_project_pixels",
    "rotation_error_deg",
    "position_error_m",
    "pose_error",
    "rotation_about_axis",
    "quaternion_to_matrix",
    "matrix_to_quaternion",
]

_ORTHONORMAL_TOL = 1e-9


# ── Frozen array records ─────────────────────────────────────────────────


class _FrozenArrays:
    """Base of the frozen dataclasses that hold numpy arrays.

    A subclass's __post_init__ checks its inputs and passes the checked
    values to _store, which keeps every array as a read-only view (the
    caller's arrays keep their flags); a subclass without checks stores its
    fields as given.  A copy, deep copy or unpickled object is rebuilt
    through the constructor, so its arrays are read-only too and nothing
    cached on the original (a k-d tree, lift tables) comes along.
    """

    def __post_init__(self) -> None:
        self._store(**{name: getattr(self, name) for name in self.__dataclass_fields__})

    def _store(self, **values) -> None:
        for name, value in values.items():
            if isinstance(value, np.ndarray):
                value = value.view()
                value.setflags(write=False)
            object.__setattr__(self, name, value)

    @classmethod
    def _of_checked(cls, columns: Sequence[np.ndarray]):
        """An instance of arrays, one per field in field order, that were
        already checked: each has its dtype and shape and no one else holds
        it, so it is made read-only in place rather than viewed."""
        obj = object.__new__(cls)
        for column in columns:
            column.setflags(write=False)
        obj.__dict__.update(zip(cls.__dataclass_fields__, columns))
        return obj

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in dataclasses.fields(self) if f.init)


class _RowTable(_FrozenArrays):
    """A _FrozenArrays whose fields are all columns of one row count, in
    the field order the dataclass records once per class.

    table[mask_or_indices] is the table of those rows of every column, and
    concat pools the rows of several tables in order; both assemble the
    table from the selected rows without checking them again.
    """

    def __len__(self) -> int:
        return len(getattr(self, next(iter(self.__dataclass_fields__))))

    def __getitem__(self, rows):
        return self._of_checked([getattr(self, name)[rows] for name in self.__dataclass_fields__])

    @classmethod
    def concat(cls, tables: Sequence["_RowTable"]):
        """Rows of every table in order; an empty sequence gives an empty
        table."""
        if not tables:
            return cls(*([[]] * sum(f.init for f in dataclasses.fields(cls))))
        return cls._of_checked([np.concatenate([getattr(t, name) for t in tables])
                                for name in cls.__dataclass_fields__])


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics, no distortion.

    fx, fy are focal lengths in pixels, (cx, cy) the principal point,
    (width, height) the image size in pixels.
    """

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self) -> None:
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError(f"focal lengths must be positive, got fx={self.fx}, fy={self.fy}")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError(
                f"principal point ({self.cx}, {self.cy}) outside "
                f"{self.width}x{self.height} image"
            )


@dataclass(frozen=True)
class RigidPose(_FrozenArrays):
    """World-to-camera rotation R plus camera center C in world coordinates,
    held as read-only copies."""

    rotation: np.ndarray
    center: np.ndarray

    def __post_init__(self) -> None:
        R = np.array(self.rotation, dtype=np.float64)
        C = np.array(self.center, dtype=np.float64)
        if R.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {R.shape}")
        if C.shape != (3,):
            raise ValueError(f"center must be a 3-vector, got {C.shape}")
        if not np.all(np.isfinite(R)) or not np.all(np.isfinite(C)):
            raise ValueError("pose contains non-finite values")
        if np.max(np.abs(R.T @ R - np.eye(3))) > _ORTHONORMAL_TOL:
            raise ValueError("rotation is not orthonormal within 1e-9")
        if abs(np.linalg.det(R) - 1.0) > _ORTHONORMAL_TOL:
            raise ValueError("rotation determinant is not +1 within 1e-9")
        self._store(rotation=R, center=C)

    @staticmethod
    def identity() -> "RigidPose":
        return RigidPose(np.eye(3), np.zeros(3))


@dataclass(frozen=True)
class PoseError:
    """Position error in meters and absolute orientation error in degrees."""

    position_error: float
    orientation_error: float

    def __post_init__(self) -> None:
        if not (self.position_error >= 0.0):
            raise ValueError("position error must be non-negative")
        if not (0.0 <= self.orientation_error <= 180.0):
            raise ValueError("orientation error must lie in [0, 180] degrees")


# ── Projection ───────────────────────────────────────────────────────────
#
# The one copy of the pinhole model: every other module maps world points
# to pixels through project_points, pixels to rays through pixel_rays, and
# reads a depth map or label image at continuous pixels through sample_grid.


def project_points(
    points: np.ndarray, rotation: np.ndarray, center: np.ndarray, K: CameraIntrinsics
) -> tuple[np.ndarray, np.ndarray]:
    """World-to-pixel projection of (N, 3) points under one or many poses.

    rotation is (..., 3, 3) world-to-camera and center (..., 3); points may
    also be (..., N, 3), one set per pose.  The result is (pixels (..., N,
    2), depth (..., N)), depth being the camera-frame z.  Pixel rows with
    depth <= 0 are NaN.  No image-bounds clipping here.

    For N >= 2 a row is bitwise the same whatever N is and however many
    poses are stacked, so a caller may pad or batch rows freely.  A one-row
    call (N = 1) may differ from it in the last bit: the matrix product
    takes another path for a single row.
    """
    points = np.asarray(points, dtype=np.float64)
    center = np.asarray(center, dtype=np.float64)
    # Camera-frame coordinates as (..., 3, N) planes, x, y and z each one
    # contiguous row.  R @ (X - C)^T has bitwise the entries of (X - C) @
    # R^T, one-row calls included (tests/kernel_oracle.py keeps that form),
    # and with both operands C-contiguous it takes the faster BLAS path.
    rel = np.empty(np.broadcast_shapes(points.shape[:-2], center.shape[:-1])
                   + (3, points.shape[-2]))
    for k in range(3):
        np.subtract(points[..., k], center[..., k, None], out=rel[..., k, :])
    cam = rotation @ rel
    depth = cam[..., 2, :]
    # A NaN divisor behind the camera makes those pixel rows NaN.
    z = np.where(depth > 0.0, depth, np.nan)
    pixels = np.empty(depth.shape + (2,))
    # f * x / z + c, each step written in place into its pixel column.
    for k, f, c in ((0, K.fx, K.cx), (1, K.fy, K.cy)):
        col = pixels[..., k]
        np.multiply(f, cam[..., k, :], out=col)
        col /= z
        col += c
    return pixels, depth


def pixel_rays(pixels: np.ndarray, K: CameraIntrinsics) -> np.ndarray:
    """Camera-frame rays [(x - cx) / fx, (y - cy) / fy, 1] through (N, 2)
    pixels; a ray scaled by a z-depth is the camera-frame point."""
    px = np.asarray(pixels, dtype=np.float64).reshape(-1, 2)
    rays = np.ones((len(px), 3))
    rays[:, 0] = (px[:, 0] - K.cx) / K.fx
    rays[:, 1] = (px[:, 1] - K.cy) / K.fy
    return rays


def _rounded(pixels: np.ndarray, K: CameraIntrinsics) -> tuple[np.ndarray, ...]:
    """The rounding rule of nearest_pixel: x and y columns of (N, 2)
    continuous pixels rounded half up, as floats, and the mask of rows
    whose rounded pixel lies inside the image (non-finite rows do not)."""
    px = np.asarray(pixels, dtype=np.float64).reshape(-1, 2)
    x = px[:, 0] + 0.5
    y = px[:, 1] + 0.5
    np.floor(x, out=x)
    np.floor(y, out=y)
    inside = (x >= 0) & (x < K.width) & (y >= 0) & (y < K.height)
    return x, y, inside


def nearest_pixel(pixels: np.ndarray, K: CameraIntrinsics) -> tuple[np.ndarray, np.ndarray]:
    """Integer (x, y) indices of the nearest pixels (round half up) to (N, 2)
    continuous coordinates, and the mask of rows inside the image.

    Non-finite rows are outside; indices of outside rows are 0.
    """
    x, y, inside = _rounded(pixels, K)
    ij = np.zeros((len(x), 2), dtype=np.int64)
    ij[inside, 0] = x[inside]
    ij[inside, 1] = y[inside]
    return ij, inside


def sample_grid(grid: np.ndarray, pixels: np.ndarray, K: CameraIntrinsics,
                fill) -> tuple[np.ndarray, np.ndarray]:
    """Values of an (H, W) grid at the nearest pixels of (N, 2) continuous
    coordinates (nearest_pixel), in the grid's dtype, and the mask of rows
    inside the image.  Rows outside, non-finite rows included, read fill.

    Raises ValueError unless the grid is K.height x K.width."""
    if grid.shape != (K.height, K.width):
        raise ValueError(f"grid shape {grid.shape} is not the image shape "
                         f"{(K.height, K.width)} of its intrinsics")
    x, y, inside = _rounded(pixels, K)
    values = np.full(len(x), fill, dtype=grid.dtype)
    rows = np.flatnonzero(inside)
    values[rows] = np.take(grid.reshape(-1), (y[rows] * K.width + x[rows]).astype(np.intp))
    return values, inside


def back_project_pixels(
    pixels: np.ndarray, depths: np.ndarray, pose: RigidPose, K: CameraIntrinsics
) -> np.ndarray:
    """Inverse of project_points for given z-depths: (N, 2) pixels + (N,)
    depths -> (N, 3) world points whose camera-frame z equals the depth."""
    d = np.asarray(depths, dtype=np.float64).reshape(-1)
    if not np.all(np.isfinite(d)) or np.any(d <= 0.0):
        raise ValueError("all depths must be finite and positive")
    cam = pixel_rays(pixels, K)
    cam[:, 0] *= d
    cam[:, 1] *= d
    cam[:, 2] = d  # the ray's z is 1, and 1 * d is d
    world = cam @ pose.rotation
    for k in range(3):
        world[:, k] += pose.center[k]
    return world


# ── Error metrics ────────────────────────────────────────────────────────


def rotation_error_deg(R_gt: np.ndarray, R_est: np.ndarray) -> float:
    """Absolute angle in degrees of the relative rotation between R_gt and R_est.

    The angle satisfies 2 cos(a) = trace(R_gt^T R_est) - 1.  It is evaluated
    through atan2 of the (sin, cos) pair of the relative rotation: the cosine
    alone loses ~sqrt(eps) accuracy near 0 and 180 degrees, while the atan2
    form is uniformly accurate and can never produce NaN.  The cosine term is
    still clamped to [-1, 1] against floating-point drift.
    """
    M = np.asarray(R_gt, dtype=np.float64).T @ np.asarray(R_est, dtype=np.float64)
    c = (M[0, 0] + M[1, 1] + M[2, 2] - 1.0) / 2.0
    c = min(1.0, max(-1.0, c))
    s = 0.5 * math.sqrt(
        (M[2, 1] - M[1, 2]) ** 2 + (M[0, 2] - M[2, 0]) ** 2 + (M[1, 0] - M[0, 1]) ** 2
    )
    return math.degrees(math.atan2(s, c))


def position_error_m(C_gt: np.ndarray, C_est: np.ndarray) -> float:
    """Euclidean distance between two camera centers."""
    gt = np.asarray(C_gt, dtype=np.float64)
    est = np.asarray(C_est, dtype=np.float64)
    if not (np.all(np.isfinite(gt)) and np.all(np.isfinite(est))):
        raise ValueError("camera centers must be finite")
    return float(np.linalg.norm(est - gt))


def pose_error(gt: RigidPose, est: RigidPose) -> PoseError:
    return PoseError(
        position_error=position_error_m(gt.center, est.center),
        orientation_error=rotation_error_deg(gt.rotation, est.rotation),
    )


# ── Rotation helpers ─────────────────────────────────────────────────────


def rotation_about_axis(axis: np.ndarray, angle_rad: float) -> np.ndarray:
    """Rodrigues rotation matrix about a (not necessarily unit) axis."""
    a = np.asarray(axis, dtype=np.float64)
    n = np.linalg.norm(a)
    if n < 1e-15:
        raise ValueError("rotation axis must be non-zero")
    a = a / n
    K = np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])
    return np.eye(3) + math.sin(angle_rad) * K + (1.0 - math.cos(angle_rad)) * (K @ K)


def quaternion_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrix from a unit quaternion (w, x, y, z).

    The quaternion is normalized first; a norm far from 1 is rejected.
    """
    q = np.asarray(q, dtype=np.float64)
    n = np.linalg.norm(q)
    if not np.isfinite(n) or abs(n - 1.0) > 1e-6:
        raise ValueError(f"quaternion norm {n} too far from 1")
    w, x, y, z = q / n
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def matrix_to_quaternion(R: np.ndarray) -> np.ndarray:
    """Unit quaternion (w, x, y, z) with w >= 0 from a rotation matrix.

    Shepperd's method: pick the largest of the four squared components to
    avoid cancellation, then fix the overall sign for determinism.
    """
    R = np.asarray(R, dtype=np.float64)
    t = R[0, 0] + R[1, 1] + R[2, 2]
    candidates = [t, R[0, 0], R[1, 1], R[2, 2]]
    i = int(np.argmax(candidates))
    if i == 0:
        r = math.sqrt(1.0 + t)
        w = 0.5 * r
        x = 0.5 * (R[2, 1] - R[1, 2]) / r
        y = 0.5 * (R[0, 2] - R[2, 0]) / r
        z = 0.5 * (R[1, 0] - R[0, 1]) / r
    elif i == 1:
        r = math.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2])
        x = 0.5 * r
        w = 0.5 * (R[2, 1] - R[1, 2]) / r
        y = 0.5 * (R[0, 1] + R[1, 0]) / r
        z = 0.5 * (R[0, 2] + R[2, 0]) / r
    elif i == 2:
        r = math.sqrt(1.0 - R[0, 0] + R[1, 1] - R[2, 2])
        y = 0.5 * r
        w = 0.5 * (R[0, 2] - R[2, 0]) / r
        x = 0.5 * (R[0, 1] + R[1, 0]) / r
        z = 0.5 * (R[1, 2] + R[2, 1]) / r
    else:
        r = math.sqrt(1.0 - R[0, 0] - R[1, 1] + R[2, 2])
        z = 0.5 * r
        w = 0.5 * (R[1, 0] - R[0, 1]) / r
        x = 0.5 * (R[0, 2] + R[2, 0]) / r
        y = 0.5 * (R[1, 2] + R[2, 1]) / r
    q = np.array([w, x, y, z])
    q /= np.linalg.norm(q)
    if q[0] < 0.0 or (q[0] == 0.0 and (q[1] < 0.0 or (q[1] == 0.0 and (q[2] < 0.0 or (q[2] == 0.0 and q[3] < 0.0))))):
        q = -q
    return q
