"""Visibility gating, semantic consistency scoring, and weight
normalization tests.

The gate and the score are both re-evaluated per point by a scalar oracle
that reimplements the two visibility inequalities and the projection rule
independently of the vectorized code.
"""

import math

import numpy as np
import pytest

from semloc.geometry import RigidPose
from semloc.matching import CorrespondenceBatch
from semloc.scoring import (
    SemanticScore,
    VisibilityGateConfig,
    gate_visible,
    gate_visible_mask,
    normalize_weights,
    semantic_consistency_score,
)
from semloc.semantic_map import build_dense_map
from conftest import random_pose, rodrigues
from map_oracle import map_point


def _gate_oracle(point, pose, cfg):
    """Scalar reimplementation of the distance and angle inequalities."""
    v = pose.center - point.position
    norm = math.sqrt(float(v @ v))
    if norm <= 0.0:
        return False
    if not (point.cone.d_min / cfg.distance_margin < norm < point.cone.d_max * cfg.distance_margin):
        return False
    c = float(v @ point.cone.v_m) / norm
    ang = math.acos(max(-1.0, min(1.0, c)))
    return ang < point.cone.theta + cfg.angle_margin


def _score_oracle(dense_map, pose, K, labels):
    consistent = 0
    projected = 0
    for i in range(len(dense_map)):
        pt = map_point(dense_map, i)
        cam = pose.rotation @ (pt.position - pose.center)
        if cam[2] <= 0.0:
            continue
        x = K.fx * cam[0] / cam[2] + K.cx
        y = K.fy * cam[1] / cam[2] + K.cy
        px = int(math.floor(x + 0.5))
        py = int(math.floor(y + 0.5))
        if not (0 <= px < K.width and 0 <= py < K.height):
            continue
        lab = int(labels[py, px])
        if lab == 255:
            continue
        projected += 1
        if lab == pt.label:
            consistent += 1
    return consistent, projected


@pytest.fixture(scope="module")
def built_map(zero_noise_dataset):
    dense_map, _ = build_dense_map(zero_noise_dataset.db_records, voxel_size=0.12)
    return dense_map


class TestGateVisible:
    def test_query_at_contributing_camera_passes(self, zero_noise_dataset, built_map):
        # default margins admit the exact database viewpoints
        ds = zero_noise_dataset
        cfg = VisibilityGateConfig()
        rec = ds.db_records[3]
        gated = gate_visible(built_map, rec.pose, cfg)
        assert len(gated) > 0
        # points contributed by this camera pass; verify on a sampled subset
        mask = gate_visible_mask(built_map, rec.pose, cfg)
        oracle = [_gate_oracle(map_point(built_map, i), rec.pose, cfg) for i in range(0, len(built_map), 37)]
        assert [bool(mask[i]) for i in range(0, len(built_map), 37)] == oracle

    def test_far_away_query_rejected(self, built_map):
        far = RigidPose(np.eye(3), np.array([0.0, 0.0, -500.0]))
        gated = gate_visible(built_map, far, VisibilityGateConfig())
        assert len(gated) == 0

    def test_matches_oracle_random_poses(self, built_map):
        rng = np.random.default_rng(21)
        cfg = VisibilityGateConfig()
        sub = built_map[np.arange(0, len(built_map), 11)]
        for _ in range(12):
            pose = RigidPose(
                rodrigues(rng.normal(size=3), rng.uniform(0, math.pi)),
                np.array([rng.uniform(-3, 3), rng.uniform(-3, 0), rng.uniform(0, 18)]),
            )
            mask = gate_visible_mask(sub, pose, cfg)
            oracle = np.array([_gate_oracle(map_point(sub, i), pose, cfg) for i in range(len(sub))])
            assert np.array_equal(mask, oracle)

    def test_subset_and_margin_monotonicity(self, built_map):
        rng = np.random.default_rng(22)
        pose = RigidPose(np.eye(3), np.array([0.3, -1.5, 5.0]))
        small = gate_visible_mask(built_map, pose, VisibilityGateConfig(1.05, 0.02))
        big = gate_visible_mask(built_map, pose, VisibilityGateConfig(1.5, 0.3))
        assert not np.any(small & ~big)  # larger margins never remove points
        assert small.sum() <= big.sum() <= len(built_map)


class TestSemanticConsistencyScore:
    def test_ground_truth_pose_fully_consistent(self, zero_noise_dataset, built_map):
        ds = zero_noise_dataset
        qid, pose = next(iter(ds.gt_poses.items()))
        q = next(q for q in ds.queries if q.image_id == qid)
        gated = gate_visible(built_map, pose, VisibilityGateConfig())
        score = semantic_consistency_score(gated, pose, q.intrinsics, q.labels, image_id="x")
        assert score.projected > 50
        # labels rendered from the same geometry: perfect agreement
        assert score.consistent == score.projected

    def test_far_off_pose_scores_zero(self, zero_noise_dataset, built_map):
        ds = zero_noise_dataset
        q = ds.queries[0]
        off = RigidPose(np.eye(3), np.array([0.0, 0.0, 1e5]))
        gated = gate_visible(built_map, off, VisibilityGateConfig())
        score = semantic_consistency_score(gated, off, q.intrinsics, q.labels)
        assert score.consistent == score.projected == 0

    def test_counts_match_oracle_perturbed_poses(self, zero_noise_dataset, built_map):
        ds = zero_noise_dataset
        rng = np.random.default_rng(23)
        q = ds.queries[1]
        gt = ds.gt_poses[q.image_id]
        for _ in range(6):
            pose = RigidPose(
                rodrigues(rng.normal(size=3), rng.uniform(0, 0.15)) @ gt.rotation,
                gt.center + rng.normal(scale=0.5, size=3),
            )
            gated = gate_visible(built_map, pose, VisibilityGateConfig())
            score = semantic_consistency_score(gated, pose, q.intrinsics, q.labels)
            c, p = _score_oracle(gated, pose, q.intrinsics, q.labels)
            assert (score.consistent, score.projected) == (c, p)
            assert 0 <= score.consistent <= score.projected <= len(gated)

    def test_unlabeled_pixels_excluded(self, built_map, zero_noise_dataset):
        ds = zero_noise_dataset
        q = ds.queries[0]
        pose = ds.gt_poses[q.image_id]
        gated = gate_visible(built_map, pose, VisibilityGateConfig())
        blank = np.full_like(q.labels, 255)
        score = semantic_consistency_score(gated, pose, q.intrinsics, blank)
        assert score.consistent == score.projected == 0

    def test_discriminates_ground_truth_from_displaced(self, zero_noise_dataset, built_map):
        # score at GT >= score displaced by >= 2 m, in at least 95% of trials
        ds = zero_noise_dataset
        rng = np.random.default_rng(24)
        cfg = VisibilityGateConfig()
        wins = 0
        trials = 100
        for t in range(trials):
            q = ds.queries[t % len(ds.queries)]
            gt = ds.gt_poses[q.image_id]
            gated = gate_visible(built_map, gt, cfg)
            s_gt = semantic_consistency_score(gated, gt, q.intrinsics, q.labels).consistent
            offset = rng.normal(size=3)
            offset = offset / np.linalg.norm(offset) * rng.uniform(2.0, 4.0)
            disp = RigidPose(gt.rotation, gt.center + offset)
            gated_d = gate_visible(built_map, disp, cfg)
            s_d = semantic_consistency_score(gated_d, disp, q.intrinsics, q.labels).consistent
            if s_gt >= s_d:
                wins += 1
        assert wins >= 95


class TestNormalizeWeights:
    def _batch(self, *images):
        n = len(images)
        return CorrespondenceBatch(np.zeros((n, 2)), np.ones((n, 3)), list(images), ["f"] * n)

    def test_basic_proportions(self):
        scores = [SemanticScore("a", 10, 20), SemanticScore("b", 30, 40)]
        corrs = self._batch("a", "b")
        out = normalize_weights(scores, corrs)
        assert out.weights.tolist() == pytest.approx([0.25, 0.75])

    def test_all_zero_scores_fall_back_to_uniform(self):
        scores = [SemanticScore("a", 0, 5), SemanticScore("b", 0, 9)]
        corrs = self._batch("a", "b", "b")
        out = normalize_weights(scores, corrs)
        assert out.weights.tolist() == pytest.approx([1 / 3] * 3)

    def test_per_match_normalization(self):
        # A scores 10 with 2 matches, B scores 10 with 1 match: the sum runs
        # over matches, so every match weighs 10 / 30 = 1/3
        scores = [SemanticScore("a", 10, 10), SemanticScore("b", 10, 10)]
        corrs = self._batch("a", "a", "b")
        out = normalize_weights(scores, corrs)
        assert out.weights.tolist() == pytest.approx([1 / 3, 1 / 3, 1 / 3])

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(25)
        scores = [SemanticScore(f"im{i}", int(rng.integers(0, 100)), 100) for i in range(8)]
        corrs = self._batch(*(f"im{int(rng.integers(0, 8))}" for _ in range(60)))
        if sum(s.consistent for s in scores) == 0:
            pytest.skip("degenerate draw")
        out = normalize_weights(scores, corrs)
        assert abs(out.weights.sum() - 1.0) < 1e-12

    def test_scale_invariance(self):
        scores1 = [SemanticScore("a", 3, 10), SemanticScore("b", 9, 10)]
        scores7 = [SemanticScore("a", 21, 70), SemanticScore("b", 63, 70)]
        corrs = self._batch("a", "b", "b")
        w1 = normalize_weights(scores1, corrs).weights.tolist()
        w7 = normalize_weights(scores7, corrs).weights.tolist()
        assert w1 == pytest.approx(w7, rel=1e-12)

    def test_unknown_source_id_rejected(self):
        scores = [SemanticScore("a", 1, 1)]
        with pytest.raises(ValueError, match="no semantic score"):
            normalize_weights(scores, self._batch("zzz"))


class TestConfigValidation:
    def test_margins_validated(self):
        with pytest.raises(ValueError):
            VisibilityGateConfig(distance_margin=0.9)
        with pytest.raises(ValueError):
            VisibilityGateConfig(angle_margin=-0.1)

    def test_score_invariant(self):
        with pytest.raises(ValueError):
            SemanticScore("a", consistent=3, projected=2)
