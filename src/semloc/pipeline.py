"""End-to-end localization: retrieval, per-family matching, lifting,
temporary poses, semantic scoring, weighted RANSAC, and refinement.

Per query the flow is:

  1. retrieve the top-k database images (k per condition tag),
  2. score the retrieved images in three steps:
     a. for every image and family, match descriptors and lift the
        matches to 2D-3D correspondences by reading the image's lift
        table, which holds every database keypoint's world point and is
        built from the image's depth map on the image's first lift
        (DatabaseImageRecord.lift_table);
     b. estimate every image's temporary pose (plain RANSAC) in one
        estimate_temporary_pose call, whose per-image runs advance in
        lockstep; the two best-ranked images draw first, and the others
        start one round later.  Before any round after the first, a run
        that the other runs' winners contradict (they hold its query
        keypoints as inliers at other world points) stops with no pose,
        a lower-ranked one possibly before it has drawn, so its image
        scores 0 of 0 even where the run alone would have found a late
        pose, and every other run returns what it would alone;
     c. in rank order, gate the dense map by each image's temporary pose
        and score it by semantic consistency against the query
        segmentation,
  3. pool all correspondences in rank order and turn scores into sampling
     weights (an array beside the pooled batch, one weight per row), each
     row taking the score of the image whose batch it was pooled from,
  4. run the weighted RANSAC-PnP on the batch and its weights, the only
     stage that reads them: it draws samples by weight and stops once it
     has probably drawn an all-inlier sample, judged by the best model's
     inlier count or, once it has min_inliers inliers, by their share of
     the sampling weight; locally optimize the winner (local_optimization:
     its inliers re-collected at 2x and 1x the inlier threshold) and
     refine it on its settled inliers.  The final diagnostics describe the
     settled inlier set.

Every stage is deterministic: per-query and per-retrieved-image RANSAC
seeds are derived from the master seed with numpy SeedSequences and the
query's position in the batch, so a run reproduces bit-identically.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .config import PipelineConfig
from .geometry import RigidPose
from .matching import CorrespondenceBatch, lift_to_3d, match_family
from .pnp import estimate_temporary_pose, local_optimization, refine_pose, weighted_ransac_pnp
from .retrieval import GlobalDescriptor, RetrievalIndex, build_index, query_top_k
from .scoring import SemanticScore, gate_visible, normalize_weights, semantic_consistency_score
from .semantic_map import BuildStats, DatabaseImageRecord, DenseMap, QueryImage, build_dense_map

logger = logging.getLogger(__name__)

__all__ = ["LocalizationResult", "build_map", "localize_query", "localize_all"]

FAILURE_BAD_DESCRIPTOR = "bad global descriptor"
FAILURE_NO_CORRESPONDENCES = "no correspondences"
FAILURE_NO_CONSENSUS = "no consensus"


@dataclass
class LocalizationResult:
    query_id: str
    condition: str
    pose: Optional[RigidPose]
    failure_reason: Optional[str] = None
    diagnostics: dict = field(default_factory=dict)


def build_map(
    records: Sequence[DatabaseImageRecord], cfg: PipelineConfig
) -> tuple[DenseMap, BuildStats]:
    """Map construction driven by a pipeline config."""
    return build_dense_map(
        records,
        filter_cfg=cfg.depth_filter(),
        voxel_size=cfg.fusion_voxel_size,
        unstable=cfg.unstable_classes,
    )


def _query_seed(master_seed: int, query_index: int, stage: int) -> int:
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(query_index, stage))
    return int(ss.generate_state(1, dtype=np.uint64)[0] % (2**63))


def _failed(query: QueryImage, reason: str, diagnostics: dict) -> LocalizationResult:
    """The result of a query that gets no pose, for the given reason."""
    return LocalizationResult(query_id=query.image_id, condition=query.condition, pose=None,
                              failure_reason=reason, diagnostics=diagnostics)


def localize_query(
    query: QueryImage,
    query_index: int,
    db_records: Sequence[DatabaseImageRecord],
    dense_map: DenseMap,
    index: RetrievalIndex,
    cfg: PipelineConfig,
) -> LocalizationResult:
    """Localize one query.  A missing, non-finite, zero-norm or
    wrong-dimension global descriptor fails this query alone with
    FAILURE_BAD_DESCRIPTOR."""
    by_id = {r.image_id: r for r in db_records}
    try:
        descriptor = GlobalDescriptor(query.image_id, query.global_descriptor)
        retrieved = query_top_k(index, descriptor, cfg.retrieval(query.condition))
    except ValueError as exc:
        logger.warning("query %s", exc)  # the message starts with the query id
        return _failed(query, FAILURE_BAD_DESCRIPTOR, {})

    diagnostics: dict = {
        "retrieved": [[i, d] for i, d in retrieved],
        "images": {},
    }

    # a. Match and lift every retrieved image.
    image_batches = []
    for image_id, _dist in retrieved:
        db = by_id[image_id]
        per_family = []
        match_counts = {}
        for name, query_set in query.features.items():
            if name not in db.features:
                continue
            matches = match_family(query_set, db.features[name])
            lifted = lift_to_3d(matches, query_set, db)
            per_family.append(lifted.correspondences)
            match_counts[name] = {
                "matches": len(matches),
                "lifted": len(lifted.correspondences),
                "dropped_oob": lifted.dropped_out_of_bounds,
                "dropped_invalid_depth": lifted.dropped_invalid_depth,
            }
        image_batches.append(CorrespondenceBatch.concat(per_family))
        diagnostics["images"][image_id] = match_counts

    # b. One temporary-pose call runs every image's RANSAC in lockstep.
    temp_cfgs = [cfg.temp_ransac(_query_seed(cfg.seed, query_index, stage=1000 + rank))
                 for rank in range(len(retrieved))]
    temps = estimate_temporary_pose(image_batches, query.intrinsics, temp_cfgs)

    # c. Gate and score each image in rank order.
    scores = []
    for (image_id, _dist), image_corrs, temp in zip(retrieved, image_batches, temps):
        if temp is None:
            score = SemanticScore(consistent=0, projected=0)
        else:
            gated = gate_visible(dense_map, temp.pose)
            score = semantic_consistency_score(gated, temp.pose, query.intrinsics, query.labels)
        scores.append(score)
        diagnostics["images"][image_id].update({
            "correspondences": len(image_corrs),
            "temporary_pose": temp is not None,
            "temp_inliers": 0 if temp is None else temp.num_inliers,
            "temp_iterations": 0 if temp is None else temp.iterations_used,
            "score_consistent": score.consistent,
            "score_projected": score.projected,
        })

    pooled = CorrespondenceBatch.concat(image_batches)
    if len(pooled) < 4:
        return _failed(query, FAILURE_NO_CORRESPONDENCES, diagnostics)

    weights = normalize_weights(scores, image_batches)
    final_cfg = cfg.final_ransac(_query_seed(cfg.seed, query_index, stage=1))
    solution = weighted_ransac_pnp(pooled, weights, query.intrinsics, final_cfg)
    if solution is None:
        return _failed(query, FAILURE_NO_CONSENSUS, diagnostics)
    settled = local_optimization(solution, pooled, query.intrinsics,
                                 final_cfg.inlier_threshold_px)
    refined = refine_pose(settled, pooled, query.intrinsics)
    diagnostics["final_inliers"] = settled.num_inliers
    diagnostics["final_mean_error_px"] = settled.mean_reprojection_error_px
    diagnostics["final_iterations"] = settled.iterations_used
    return LocalizationResult(
        query_id=query.image_id,
        condition=query.condition,
        pose=refined,
        diagnostics=diagnostics,
    )


def localize_all(
    queries: Sequence[QueryImage],
    db_records: Sequence[DatabaseImageRecord],
    dense_map: DenseMap,
    cfg: PipelineConfig,
    threads: int = 1,
) -> list:
    """Localize every query in order on the calling thread.  threads must be
    1; any other value raises ValueError."""
    if threads != 1:
        raise ValueError(f"threads must be 1, got {threads}")
    index = build_index(
        [GlobalDescriptor(r.image_id, r.global_descriptor) for r in db_records]
    )
    results = []
    for i, q in enumerate(queries):
        t0 = time.perf_counter()
        result = localize_query(q, i, db_records, dense_map, index, cfg)
        logger.info(
            "query %s: %s (%.2fs)",
            q.image_id,
            "pose" if result.pose is not None else f"failed: {result.failure_reason}",
            time.perf_counter() - t0,
        )
        results.append(result)
    return results
