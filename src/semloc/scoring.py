"""Visibility gating and semantic consistency scoring.

Given a temporary query pose, map points are first gated by their
visibility cones: the point must be seen from a distance inside its
observed range and from a direction inside its observed angle, both
widened by fixed margins.  The surviving points are projected into the
query segmentation and label agreement is counted; the consistent count is
the semantic consistency score of the retrieved image that produced the
temporary pose.  Scores then become per-correspondence sampling weights,
each row taking the score its per-image batch is paired with by position.

No point farther than max(d_max) * _DISTANCE_MARGIN from the query centre
passes the distance range, so the gate tests only the rows that a radius
search of the map's k-d tree returns, and tests the angle only on the rows
that pass the distance range.  The tree is built once per map and cached
on it.  The radius is padded, the exact tests still decide and the kept
rows are sorted, so the gated rows equal a full scan's.  The gate returns
row indices, and the score reads only the positions and labels at them.

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
from .semantic_map import UNLABELED, DenseMap

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


# Relative padding of the search radius.  The tree compares its own rounded
# distance with the radius, so without it a row just inside d_max * margin
# could miss the ball although the exact distance test admits it.
_RADIUS_PAD = 1e-9


def _view_vectors(positions: np.ndarray, center: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """v = center - X for (N, 3) points X and its norm ||v||, one column at
    a time (geometry's column rule).  The norm sums (x^2 + y^2) + z^2, as
    np.linalg.norm(v, axis=1) does, so it is bitwise that norm."""
    v = np.empty_like(positions)
    for k in range(3):
        np.subtract(center[k], positions[:, k], out=v[:, k])
    dist = v[:, 0] * v[:, 0]
    dist += v[:, 1] * v[:, 1]
    dist += v[:, 2] * v[:, 2]
    np.sqrt(dist, out=dist)
    return v, dist


def _view_angles(v: np.ndarray, dist: np.ndarray, v_m: np.ndarray) -> np.ndarray:
    """Angles between the rows of v (norms dist) and the unit bisectors v_m.
    einsum's summation order over a row depends on the operands' memory
    layout, so both are passed as gathered C-contiguous rows."""
    cos = np.einsum("ij,ij->i", v, v_m) / dist
    return np.arccos(np.clip(cos, -1.0, 1.0))


def gate_visible(dense_map: DenseMap, query_pose: RigidPose) -> np.ndarray:
    """Ascending np.intp row indices of the points whose cones admit the
    query viewpoint.

    With m = _DISTANCE_MARGIN, a point passes when d_min/m < ||v|| <
    d_max*m and the angle between v = C_query - X and the cone bisector v_m
    is below theta + _ANGLE_MARGIN.

    Rows farther than max(d_max) * m from the query centre fail the
    distance test, so only the rows inside that ball, padded by a relative
    1e-9, are tested.  ``dense_map.position_tree``, the k-d tree built once
    per map on its first gate call, returns them unsorted.  The exact
    tests then decide, the distance test first and the angle test only on
    the rows it passes.  A row's tests do not depend on which other rows
    are tested with it, so the kept rows, sorted once at the end, equal a
    full scan's.
    """
    m = _DISTANCE_MARGIN
    radius = np.max(dense_map.d_max, initial=0.0) * m * (1.0 + _RADIUS_PAD)
    rows = np.array(
        dense_map.position_tree.query_ball_point(query_pose.center, radius, return_sorted=False),
        dtype=np.intp,
    )
    v, dist = _view_vectors(dense_map.positions[rows], query_pose.center)
    near = np.flatnonzero(
        (dense_map.d_min[rows] / m < dist) & (dist < dense_map.d_max[rows] * m) & (dist > 0.0))
    rows = rows[near]
    ang = _view_angles(v[near], dist[near], dense_map.v_m[rows])
    return np.sort(rows[ang < dense_map.theta[rows] + _ANGLE_MARGIN])


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
