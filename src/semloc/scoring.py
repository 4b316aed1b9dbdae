"""Visibility gating and semantic consistency scoring.

Given a temporary query pose, map points are first gated by their
visibility cones: the point must be seen from a distance inside its
observed range and from a direction inside its observed angle, both with
configurable margins.  The surviving points are projected into the query
segmentation and label agreement is counted; the consistent count is the
semantic consistency score of the retrieved image that produced the
temporary pose.  Scores then become per-correspondence sampling weights.

Occlusion is handled only through the cone gating (no z-buffer): a point
observed from similar distance and direction by the database cameras is
assumed visible to the query as well.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .geometry import CameraIntrinsics, RigidPose, nearest_pixel, project_points
from .matching import CorrespondenceBatch
from .semantic_map import UNLABELED, DenseMap

__all__ = [
    "VisibilityGateConfig",
    "SemanticScore",
    "gate_visible",
    "semantic_consistency_score",
    "normalize_weights",
]


@dataclass(frozen=True)
class VisibilityGateConfig:
    """Margins applied to the per-point visibility cone.

    The distance range becomes [d_min / distance_margin, d_max *
    distance_margin] and the angle bound theta + angle_margin.  Margins are
    necessary in practice: fused points seen by a single camera have a
    zero-angle cone and would otherwise reject every query direction.
    """

    distance_margin: float = 1.2
    angle_margin: float = 0.1

    def __post_init__(self) -> None:
        if self.distance_margin < 1.0:
            raise ValueError("distance_margin must be >= 1")
        if self.angle_margin < 0.0:
            raise ValueError("angle_margin must be >= 0")


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


def gate_visible(
    dense_map: DenseMap, query_pose: RigidPose, cfg: VisibilityGateConfig
) -> DenseMap:
    """Sub-map of points whose cones admit the query viewpoint.

    A point passes when d_min/m < ||v|| < d_max*m and the angle between
    v = C_query - X and the cone bisector v_m is below theta + margin.
    """
    return dense_map[gate_visible_mask(dense_map, query_pose, cfg)]


def gate_visible_mask(
    dense_map: DenseMap, query_pose: RigidPose, cfg: VisibilityGateConfig
) -> np.ndarray:
    v = query_pose.center - dense_map.positions
    dist = np.linalg.norm(v, axis=1)
    m = cfg.distance_margin
    ok = (dense_map.d_min / m < dist) & (dist < dense_map.d_max * m)
    safe = dist > 0.0
    cos = np.zeros(len(dense_map))
    cos[safe] = np.einsum("ij,ij->i", v[safe], dense_map.v_m[safe]) / dist[safe]
    ang = np.arccos(np.clip(cos, -1.0, 1.0))
    return ok & safe & (ang < dense_map.theta + cfg.angle_margin)


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
    ij, inb = nearest_pixel(projected, K)
    if not np.any(inb):
        return SemanticScore(image_id=image_id, consistent=0, projected=0)
    pixel_labels = query_labels[ij[inb, 1], ij[inb, 0]].astype(np.int64)
    counted = pixel_labels != UNLABELED
    consistent = int(np.sum(pixel_labels[counted] == points.labels[inb][counted]))
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
