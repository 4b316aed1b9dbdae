"""Row-major reference versions of the per-point kernels.

semloc.geometry, the visibility gate in semloc.scoring and the DenseMap's
cone bisector run every elementwise op over whole x, y and z columns.
These are the formulas they replaced, which combine (N, 3) rows with a
broadcast (3,) operand or reduce over the last axis, kept as test oracles:
the column kernels must give bitwise their results.
"""

from __future__ import annotations

import numpy as np

from semloc.geometry import CameraIntrinsics, RigidPose


def project_points(points, rotation, center, K: CameraIntrinsics):
    center = np.asarray(center, dtype=np.float64)
    cam = (np.asarray(points, dtype=np.float64) - center[..., None, :]) @ np.swapaxes(
        rotation, -1, -2
    )
    depth = cam[..., 2]
    z = np.where(depth > 0.0, depth, np.nan)
    pixels = np.empty(depth.shape + (2,))
    pixels[..., 0] = K.fx * cam[..., 0] / z + K.cx
    pixels[..., 1] = K.fy * cam[..., 1] / z + K.cy
    return pixels, depth


def nearest_pixel(pixels, K: CameraIntrinsics):
    """Integer (x, y) of each row's nearest pixel, 0 on rows outside the
    image, and the inside mask: the rounding rule that sample_grid reads
    at."""
    r = np.floor(np.asarray(pixels, dtype=np.float64).reshape(-1, 2) + 0.5)
    inside = (r[:, 0] >= 0) & (r[:, 0] < K.width) & (r[:, 1] >= 0) & (r[:, 1] < K.height)
    return np.where(inside[:, None], r, 0.0).astype(np.int64), inside


def sample_grid(grid, pixels, K: CameraIntrinsics, fill):
    ij, inside = nearest_pixel(pixels, K)
    values = np.full(len(ij), fill, dtype=grid.dtype)
    values[inside] = grid[ij[inside, 1], ij[inside, 0]]
    return values, inside


def back_project_pixels(pixels, depths, pose: RigidPose, K: CameraIntrinsics):
    px = np.asarray(pixels, dtype=np.float64).reshape(-1, 2)
    rays = np.ones((len(px), 3))
    rays[:, 0] = (px[:, 0] - K.cx) / K.fx
    rays[:, 1] = (px[:, 1] - K.cy) / K.fy
    d = np.asarray(depths, dtype=np.float64).reshape(-1)
    return (rays * d[:, None]) @ pose.rotation + pose.center


def view_distances_and_angles(positions, v_m, center):
    """The gate's ||C - X|| of every row, and its angle to the cone bisector
    on the rows at a positive distance (NaN on the others), taken on the
    gathered rows as the gate takes them."""
    v = center - positions
    dist = np.linalg.norm(v, axis=1)
    seen = dist > 0.0
    cos = np.einsum("ij,ij->i", v[seen], v_m[seen]) / dist[seen]
    angle = np.full(len(dist), np.nan)
    angle[seen] = np.arccos(np.clip(cos, -1.0, 1.0))
    return dist, angle


def cone_bisectors(v_l, v_u):
    """The unit bisector of each row's v_l and v_u, or v_l where their sum
    is shorter than 1e-12: the DenseMap's v_m, from row norms."""
    s = v_l + v_u
    norms = np.linalg.norm(s, axis=1)
    safe = norms > 1e-12
    return np.where(safe[:, None], s / np.where(safe, norms, 1.0)[:, None], v_l)
