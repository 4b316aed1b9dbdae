"""Visibility gating and semantic consistency scoring.

Given a temporary query pose, map points are first gated by their
visibility cones: the point must be seen from a distance inside its
observed range and from a direction inside its observed angle, both
widened by fixed margins.  The surviving points are projected into the
query segmentation and label agreement is counted; the consistent count is
the semantic consistency score of the retrieved image that produced the
temporary pose.  Scores then become per-correspondence sampling weights.

No point farther than max(d_max) * _DISTANCE_MARGIN from the query centre
passes the distance range, so the gate tests only the rows that a radius
search of the map's k-d tree returns, and tests the angle only on the rows
that pass the distance range.  The tree is built once per map and cached
on it.  The radius is padded, the exact tests still decide and the rows
come sorted, so the gated sub-map equals a scan of every point, row for
row.

Occlusion is handled only through the cone gating (no z-buffer): a point
observed from similar distance and direction by the database cameras is
assumed visible to the query as well.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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

    image_id: str
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


def gate_visible(dense_map: DenseMap, query_pose: RigidPose) -> DenseMap:
    """Sub-map of points whose cones admit the query viewpoint.

    With m = _DISTANCE_MARGIN, a point passes when d_min/m < ||v|| <
    d_max*m and the angle between v = C_query - X and the cone bisector v_m
    is below theta + _ANGLE_MARGIN.

    Rows farther than max(d_max) * m from the query centre fail the
    distance test, so only the rows inside that ball, padded by a relative
    1e-9, are tested.  They come sorted from ``dense_map.position_tree``,
    the k-d tree built once per map on its first gate call.  The exact
    tests then decide, the distance test first and the angle test only on
    the rows it passes, so the sub-map holds the same rows in the same
    order as a scan of the whole map.  A row's angle does not depend on
    which other rows are tested with it.
    """
    m = _DISTANCE_MARGIN
    radius = np.max(dense_map.d_max, initial=0.0) * m * (1.0 + _RADIUS_PAD)
    rows = np.array(
        dense_map.position_tree.query_ball_point(query_pose.center, radius, return_sorted=True),
        dtype=np.intp,
    )
    v = query_pose.center - dense_map.positions[rows]
    dist = np.linalg.norm(v, axis=1)
    near = (dense_map.d_min[rows] / m < dist) & (dist < dense_map.d_max[rows] * m) & (dist > 0.0)
    rows, v, dist = rows[near], v[near], dist[near]
    cos = np.einsum("ij,ij->i", v, dense_map.v_m[rows]) / dist
    ang = np.arccos(np.clip(cos, -1.0, 1.0))
    return dense_map[rows[ang < dense_map.theta[rows] + _ANGLE_MARGIN]]


def semantic_consistency_score(
    points: DenseMap,
    pose: RigidPose,
    K: CameraIntrinsics,
    query_labels: np.ndarray,
    image_id: str = "",
) -> SemanticScore:
    """Count gated map points whose projection lands on a query pixel with
    the same label.

    Unlabeled query pixels (255) are excluded from both counts: segmentation
    voids should not penalize a pose.  The score is the raw consistent
    count.
    """
    projected, _ = project_points(points.positions, pose.rotation, pose.center, K)
    pixel_labels, _ = sample_grid(query_labels, projected, K, UNLABELED)
    counted = pixel_labels != UNLABELED
    consistent = int(np.sum(pixel_labels[counted] == points.labels[counted]))
    return SemanticScore(image_id=image_id, consistent=consistent, projected=int(counted.sum()))


def normalize_weights(
    scores: Sequence[SemanticScore], batch: CorrespondenceBatch
) -> CorrespondenceBatch:
    """Turn per-image scores into per-correspondence sampling weights.

    Every correspondence inherits its source image's score; weights are
    normalized by the sum over matches (so an image with many matches
    contributes its score once per match) and sum to 1.  When every score is
    zero the weights fall back to uniform.
    """
    by_image = {s.image_id: float(s.consistent) for s in scores}
    try:
        raw = np.array([by_image[i] for i in batch.image_ids.tolist()], dtype=np.float64)
    except KeyError as exc:
        raise ValueError(f"no semantic score for source image {exc.args[0]!r}") from None
    total = raw.sum()
    if total <= 0.0:
        weights = np.full(len(batch), 1.0 / len(batch)) if len(batch) else raw
    else:
        weights = raw / total
    return replace(batch, weights=weights)
