"""Visibility gating and semantic consistency scoring.

Given a temporary query pose, map points are first gated by their
visibility cones: the point must be seen from a distance inside its
observed range and from a direction inside its observed angle, both
widened by fixed margins.  The surviving points are projected into the
query segmentation and label agreement is counted; the consistent count is
the semantic consistency score of the retrieved image that produced the
temporary pose.  Scores then become per-correspondence sampling weights,
each row taking the score its per-image batch is paired with by position.

The gate first tests the map's block bounds (DenseMap.block_low,
block_high and block_reach): a block whose bounding box lies farther from
the query centre than any of its rows' widened d_max holds no row that
passes.  It then makes one pass over the contiguous row span from the
first to the last block that may hold one: the distance of every row from
the query centre, one coordinate column at a time, then the distance
range, and the angle only on the rows inside it.  The gate returns
ascending row indices, and the score reads only the positions and labels
at them.

Occlusion is handled only through the cone gating (no z-buffer): a point
observed from similar distance and direction by the database cameras is
assumed visible to the query as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import CameraIntrinsics, RigidPose, project_points, sample_grid
from .matching import CorrespondenceBatch
from .semantic_map import _BLOCK_ROWS, UNLABELED, DenseMap

__all__ = [
    "SemanticScore",
    "gate_visible",
    "semantic_consistency_score",
    "normalize_weights",
]


# Margins applied to every visibility cone: the distance range becomes
# (d_min / _DISTANCE_MARGIN, d_max * _DISTANCE_MARGIN) and the angle bound
# theta + _ANGLE_MARGIN radians.  Margins are necessary in practice: fused
# points seen by a single camera have a zero-angle cone and would otherwise
# reject every query direction.
_DISTANCE_MARGIN = 1.2
_ANGLE_MARGIN = 0.1


@dataclass(frozen=True)
class SemanticScore:
    """Label-agreement counts for one retrieved image's temporary pose."""

    consistent: int
    projected: int

    def __post_init__(self) -> None:
        if not (0 <= self.consistent <= self.projected):
            raise ValueError(
                f"require 0 <= consistent <= projected, got "
                f"{self.consistent}/{self.projected}"
            )


def _view_distances(positions: np.ndarray, center: np.ndarray) -> np.ndarray:
    """||center - X|| of (N, 3) points X, one column at a time (geometry's
    column rule).  It sums (x^2 + y^2) + z^2, as np.linalg.norm(center - X,
    axis=1) does, so it is bitwise that norm."""
    d = center[0] - positions[:, 0]
    dist = d * d
    for k in (1, 2):
        np.subtract(center[k], positions[:, k], out=d)
        d *= d
        dist += d
    return np.sqrt(dist, out=dist)


def _view_angles(v: np.ndarray, dist: np.ndarray, v_m: np.ndarray) -> np.ndarray:
    """Angles between the rows of v (norms dist) and the unit bisectors v_m.
    einsum's summation order over a row depends on the operands' memory
    layout, so both are passed as gathered C-contiguous rows."""
    cos = np.einsum("ij,ij->i", v, v_m) / dist
    return np.arccos(np.clip(cos, -1.0, 1.0))


def _scan_span(dense_map: DenseMap, center: np.ndarray) -> tuple[int, int]:
    """Rows [a, b) that gate_visible scans for a query at center: from the
    first block whose bounds can reach center to the end of the last one
    (a == b when none can).

    A block's gap to center is, per axis, max(max(low - c, c - high), 0),
    then sqrt((gx^2 + gy^2) + gz^2), the order of _view_distances; the
    block can reach center when gap < block_reach * m.  Skipping the other
    blocks is exact, with no slack: IEEE rounding is monotone, so for
    every row with coordinate x in the block fl(low - c) <= fl(x - c) and
    fl(c - high) <= fl(c - x), and then the gap's squares, sums and square
    root are each at most the row's, so the gap is at most the row's
    computed distance.  As m > 0, d_max * m <= block_reach * m too.  A row
    that passes (distance < d_max * m) thus lies in a block that can reach
    center.  A row with a NaN coordinate or d_max never passes, and the
    NaN-ignoring bounds still cover the block's other rows.
    """
    c = center[:, None]
    g = np.maximum(np.maximum(dense_map.block_low - c, c - dense_map.block_high), 0.0)
    g *= g
    gap = np.sqrt((g[0] + g[1]) + g[2])
    blocks = np.flatnonzero(gap < dense_map.block_reach * _DISTANCE_MARGIN)
    if len(blocks) == 0:
        return 0, 0
    return (int(blocks[0]) * _BLOCK_ROWS,
            min(int(blocks[-1] + 1) * _BLOCK_ROWS, len(dense_map)))


def gate_visible(dense_map: DenseMap, query_pose: RigidPose) -> np.ndarray:
    """Ascending np.intp row indices of the points whose cones admit the
    query viewpoint.

    With m = _DISTANCE_MARGIN, a point passes when d_min/m < ||v|| <
    d_max*m and the angle between v = C_query - X and the cone bisector v_m
    is below theta + _ANGLE_MARGIN.  The distance is computed from the
    map's column-major positions on every row of _scan_span's span, which
    holds every row that can pass; the angle is tested only on the rows
    that pass the distance range.
    """
    m = _DISTANCE_MARGIN
    center = query_pose.center
    a, b = _scan_span(dense_map, center)
    dist = _view_distances(dense_map.positions[a:b], center)
    near = np.flatnonzero(dist < dense_map.d_max[a:b] * m)
    dist = dist[near]
    near += a
    keep = (dense_map.d_min[near] / m < dist) & (dist > 0.0)
    near, dist = near[keep], dist[keep]
    ang = _view_angles(center - dense_map.positions[near], dist, dense_map.v_m[near])
    return near[ang < dense_map.theta[near] + _ANGLE_MARGIN]


def semantic_consistency_score(
    dense_map: DenseMap,
    rows: np.ndarray,
    pose: RigidPose,
    K: CameraIntrinsics,
    query_labels: np.ndarray,
) -> SemanticScore:
    """Count the map points at rows (gate_visible's result) whose
    projection lands on a query pixel with the same label.

    Only the positions and labels of those rows are read.  Unlabeled query
    pixels (255) are excluded from both counts: segmentation voids should
    not penalize a pose.  The score is the raw consistent count.
    """
    projected, _ = project_points(dense_map.positions[rows], pose.rotation, pose.center, K)
    pixel_labels, _ = sample_grid(query_labels, projected, K, UNLABELED)
    counted = pixel_labels != UNLABELED
    consistent = int(np.sum(pixel_labels[counted] == dense_map.labels[rows][counted]))
    return SemanticScore(consistent=consistent, projected=int(counted.sum()))


def normalize_weights(
    scores: Sequence[SemanticScore], batches: Sequence[CorrespondenceBatch]
) -> np.ndarray:
    """Turn per-image scores into per-correspondence sampling weights, one
    float64 weight per row of CorrespondenceBatch.concat(batches).

    scores[i] scores the image that batches[i] was lifted through, and
    every row of batches[i] inherits it; weights are normalized by the sum
    over rows (so an image with many matches contributes its score once per
    match) and sum to 1.  When every score is zero the weights fall back to
    uniform.  Raises ValueError unless there is one score per batch.
    """
    if len(scores) != len(batches):
        raise ValueError(f"need one semantic score per batch, got {len(scores)} "
                         f"for {len(batches)}")
    raw = np.repeat(np.array([s.consistent for s in scores], dtype=np.float64),
                    [len(b) for b in batches])
    total = raw.sum()
    return raw / total if total > 0.0 else np.full(len(raw), 1.0 / max(len(raw), 1))
