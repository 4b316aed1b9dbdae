"""Scalar reference implementations of the dense-map stages.

semloc.semantic_map fuses record by record into a running voxel table and
votes and builds cones on columns of fused points.  These are the per-pixel
and per-point versions it replaced, kept as test oracles: voxel fusion by a dict keyed on cell tuples, label voting for one
point, one point's visibility cone, unstable-class removal on a list of
points, and the per-point DensePoint/VisibilityCone view of a DenseMap with
its invariant check, a map of selected rows built from gathered columns, a
column-by-column map comparison and the map's per-block bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from semloc.geometry import back_project_pixels
from semloc.semantic_map import (
    DEFAULT_UNSTABLE_CLASS_IDS,
    UNLABELED,
    DatabaseImageRecord,
    DenseMap,
)


def angle_between(u: np.ndarray, v: np.ndarray) -> float:
    """Angle in radians between two non-zero vectors, in [0, pi]."""
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu < 1e-15 or nv < 1e-15:
        raise ValueError("angle undefined for zero-length vector")
    c = float(np.dot(u, v) / (nu * nv))
    return math.acos(min(1.0, max(-1.0, c)))


def fuse_depth_maps(
    records: Sequence[DatabaseImageRecord], voxel_size: float
) -> list[tuple[np.ndarray, tuple]]:
    """Voxel fusion one pixel at a time: (centroid, contributing record
    indices in list order) per occupied voxel, in first-touch order."""
    if len(records) == 0:
        raise ValueError("record list must be non-empty")
    if not voxel_size > 0:
        raise ValueError("voxel size must be positive")

    sums: dict[tuple, np.ndarray] = {}
    counts: dict[tuple, int] = {}
    contrib: dict[tuple, dict] = {}
    for rec_idx, rec in enumerate(records):
        valid = rec.depth > 0.0
        vy, vx = np.nonzero(valid)
        if len(vy) == 0:
            continue
        pixels = np.stack([vx, vy], axis=1).astype(np.float64)
        depths = rec.depth[vy, vx].astype(np.float64)
        world = back_project_pixels(pixels, depths, rec.pose, rec.intrinsics)
        cells = np.floor(world / voxel_size).astype(np.int64).tolist()
        for k, cell in enumerate(cells):
            key = tuple(cell)
            if key in sums:
                sums[key] += world[k]
                counts[key] += 1
                contrib[key][rec_idx] = None
            else:
                sums[key] = world[k].copy()
                counts[key] = 1
                contrib[key] = {rec_idx: None}
    return [(sums[key] / counts[key], tuple(sorted(contrib[key]))) for key in sums]


@dataclass(frozen=True)
class VisibilityCone:
    """Summary of the database cameras that observed a point.

    d_min/d_max are the extreme Euclidean distances to observing camera
    centers, v_l/v_u the unit point-to-camera directions of the widest pair,
    v_m the unit bisector, and theta the angle between v_l and v_u.
    """

    d_min: float
    d_max: float
    v_l: np.ndarray
    v_u: np.ndarray
    v_m: np.ndarray
    theta: float

    def validate(self, tol: float = 1e-9) -> None:
        """Check cone invariants.

        Maps loaded from disk hold float32-quantized vectors; pass a looser
        tol (1e-6) for those.
        """
        if not (0 < self.d_min <= self.d_max):
            raise ValueError(f"invalid distance range [{self.d_min}, {self.d_max}]")
        for name, v in (("v_l", self.v_l), ("v_u", self.v_u), ("v_m", self.v_m)):
            if abs(np.linalg.norm(v) - 1.0) > tol:
                raise ValueError(f"{name} is not unit length")
        if not (0.0 <= self.theta <= math.pi):
            raise ValueError(f"theta {self.theta} outside [0, pi]")
        if abs(angle_between(self.v_l, self.v_u) - self.theta) > max(tol, 1e-9):
            raise ValueError("theta does not match the angle between v_l and v_u")


@dataclass(frozen=True)
class DensePoint:
    """One fused map point: position, semantic label, visibility cone, and
    the number of database images that contributed to it."""

    position: np.ndarray
    label: int
    cone: VisibilityCone
    support: int

    def __post_init__(self) -> None:
        if not (0 <= self.label <= 18):
            raise ValueError(f"label {self.label} outside 0..18")
        if self.support < 1:
            raise ValueError("support must be >= 1")


def map_point(dense_map: DenseMap, i: int) -> DensePoint:
    """Row i of a DenseMap as a DensePoint."""
    cone = VisibilityCone(
        d_min=float(dense_map.d_min[i]),
        d_max=float(dense_map.d_max[i]),
        v_l=dense_map.v_l[i].copy(),
        v_u=dense_map.v_u[i].copy(),
        v_m=dense_map.v_m[i].copy(),
        theta=float(dense_map.theta[i]),
    )
    return DensePoint(
        position=dense_map.positions[i].copy(),
        label=int(dense_map.labels[i]),
        cone=cone,
        support=int(dense_map.support[i]),
    )


def map_points(dense_map: DenseMap) -> list[DensePoint]:
    return [map_point(dense_map, i) for i in range(len(dense_map))]


def map_from_points(points: Sequence[DensePoint]) -> DenseMap:
    if len(points) == 0:
        return DenseMap(*[np.zeros(0)] * 8)
    return DenseMap(
        np.stack([p.position for p in points]),
        np.array([p.label for p in points]),
        np.stack([p.cone.v_l for p in points]),
        np.stack([p.cone.v_u for p in points]),
        np.array([p.cone.theta for p in points]),
        np.array([p.cone.d_min for p in points]),
        np.array([p.cone.d_max for p in points]),
        np.array([p.support for p in points]),
    )


# The DenseMap columns passed to its constructor, in order (v_m is derived).
STORED_COLUMNS = ("positions", "labels", "v_l", "v_u", "theta", "d_min", "d_max", "support")


def map_rows(dense_map: DenseMap, rows) -> DenseMap:
    """A new DenseMap of the given rows (a mask or index array), built from
    its gathered columns."""
    return DenseMap(*(getattr(dense_map, col)[rows] for col in STORED_COLUMNS))


def same_map(a: DenseMap, b: DenseMap) -> bool:
    """True when every stored column of the two maps is equal."""
    return len(a) == len(b) and all(
        np.array_equal(getattr(a, col), getattr(b, col)) for col in STORED_COLUMNS
    )


def block_bounds(dense_map: DenseMap, rows_per_block: int) -> tuple[np.ndarray, ...]:
    """Each run of rows_per_block consecutive rows' least and greatest x, y
    and z, as (3, blocks) arrays, and its greatest d_max, ignoring NaN: the
    block columns DenseMap derives, one block at a time."""
    blocks = [slice(j, j + rows_per_block) for j in range(0, len(dense_map), rows_per_block)]
    low = np.array([np.fmin.reduce(dense_map.positions[b], axis=0) for b in blocks]).reshape(-1, 3)
    high = np.array([np.fmax.reduce(dense_map.positions[b], axis=0) for b in blocks]).reshape(-1, 3)
    reach = np.array([np.fmax.reduce(dense_map.d_max[b]) for b in blocks], dtype=np.float64)
    return low.T, high.T, reach


def validate_map(dense_map: DenseMap, tol: float = 1e-9) -> None:
    for p in map_points(dense_map):
        p.cone.validate(tol=tol)


def vote_semantic_label(
    point: np.ndarray, contributing: Sequence[DatabaseImageRecord]
) -> int:
    """Modal label over the point's reprojections into its contributing
    images; ties go to the smallest class id; 255 when no vote exists."""
    if len(contributing) == 0:
        raise ValueError("contributing list must be non-empty")
    votes = np.zeros(19, dtype=np.int64)
    for rec in contributing:
        cam = rec.pose.rotation @ (np.asarray(point, dtype=np.float64) - rec.pose.center)
        if cam[2] <= 0.0:
            continue
        x = rec.intrinsics.fx * cam[0] / cam[2] + rec.intrinsics.cx
        y = rec.intrinsics.fy * cam[1] / cam[2] + rec.intrinsics.cy
        px, py = int(math.floor(x + 0.5)), int(math.floor(y + 0.5))
        if not (0 <= px < rec.intrinsics.width and 0 <= py < rec.intrinsics.height):
            continue
        label = int(rec.labels[py, px])
        if label != UNLABELED:
            votes[label] += 1
    if votes.sum() == 0:
        return UNLABELED
    return int(np.argmax(votes))


def remove_unstable_classes(
    points: Sequence[DensePoint], unstable: frozenset | set = DEFAULT_UNSTABLE_CLASS_IDS
) -> list[DensePoint]:
    """Drop points whose label is unstable or unlabeled; order preserved."""
    return [p for p in points if p.label != UNLABELED and p.label not in unstable]


def compute_visibility_cone(
    point: np.ndarray, contributing: Sequence[DatabaseImageRecord]
) -> VisibilityCone:
    """Distance range and widest direction pair over the contributing
    camera centers.  With a single (distinct) center the cone degenerates to
    a ray: v_l = v_u = v_m and theta = 0."""
    if len(contributing) == 0:
        raise ValueError("contributing list must be non-empty")
    X = np.asarray(point, dtype=np.float64)
    centers = np.stack([rec.pose.center for rec in contributing])
    diff = centers - X
    dist = np.linalg.norm(diff, axis=1)
    if np.any(dist < 1e-9):
        raise ValueError("point coincides with a contributing camera center")
    dirs = diff / dist[:, None]

    best = (0, 0)
    best_angle = 0.0
    for i in range(len(dirs)):
        for j in range(i + 1, len(dirs)):
            a = angle_between(dirs[i], dirs[j])
            if a > best_angle:
                best_angle = a
                best = (i, j)
    v_l = dirs[best[0]]
    v_u = dirs[best[1]]
    s = v_l + v_u
    n = np.linalg.norm(s)
    # Antipodal extremes have no unique bisector; fall back to any
    # perpendicular direction (theta = pi still gates on the angle bound).
    v_m = s / n if n > 1e-12 else _any_perpendicular(v_l)
    return VisibilityCone(
        d_min=float(dist.min()),
        d_max=float(dist.max()),
        v_l=v_l,
        v_u=v_u,
        v_m=v_m,
        theta=best_angle,
    )


def _any_perpendicular(v: np.ndarray) -> np.ndarray:
    helper = np.array([1.0, 0.0, 0.0]) if abs(v[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    p = np.cross(v, helper)
    return p / np.linalg.norm(p)
