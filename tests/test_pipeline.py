"""End-to-end pipeline tests on small synthetic scenes."""

import dataclasses

import numpy as np
import pytest

from semloc.config import PipelineConfig
from semloc.geometry import pose_error
from semloc.pipeline import (
    FAILURE_BAD_DESCRIPTOR,
    FAILURE_NO_CORRESPONDENCES,
    build_map,
    localize_all,
    localize_query,
)
from semloc.retrieval import GlobalDescriptor, build_index
from semloc.synthetic import generate_scene


@pytest.fixture(scope="module")
def small_cfg():
    return PipelineConfig(seed=7, ransac_inlier_threshold_px=1.2, fusion_voxel_size=0.12,
                          top_k_day=6, top_k_night=6, temp_ransac_max_iterations=300)


@pytest.fixture(scope="module")
def small_run(zero_noise_dataset, small_cfg):
    dense_map, stats = build_map(zero_noise_dataset.db_records, small_cfg)
    results = localize_all(zero_noise_dataset.queries, zero_noise_dataset.db_records,
                           dense_map, small_cfg)
    return dense_map, stats, results


class TestLocalization:
    def test_all_queries_localized_accurately(self, zero_noise_dataset, small_run):
        _, _, results = small_run
        assert len(results) == len(zero_noise_dataset.queries)
        for r in results:
            assert r.pose is not None, r.failure_reason
            err = pose_error(zero_noise_dataset.gt_poses[r.query_id], r.pose)
            assert err.position_error < 0.05
            assert err.orientation_error < 0.5

    def test_self_localization_exact(self, zero_noise_dataset, small_cfg):
        # a query placed exactly at a database camera with k=1 retrieves
        # itself; zero-noise correspondences then pin the pose to machine
        # precision
        ds = zero_noise_dataset
        spec = ds.spec
        db_pose = spec.db_poses[4]
        clone = dataclasses.replace(spec, query_poses=[db_pose], query_conditions=["day"])
        ds2 = generate_scene(clone)
        cfg = dataclasses.replace(small_cfg, top_k_day=1)
        dense_map, _ = build_map(ds2.db_records, cfg)
        results = localize_all(ds2.queries, ds2.db_records, dense_map, cfg)
        assert results[0].pose is not None
        err = pose_error(db_pose, results[0].pose)
        assert err.position_error < 1e-9
        assert err.orientation_error < 1e-7

    def test_no_features_fails_with_reason(self, zero_noise_dataset, small_cfg):
        ds = zero_noise_dataset
        dense_map, _ = build_map(ds.db_records, small_cfg)
        q = dataclasses.replace(
            ds.queries[0],
            features={
                name: dataclasses.replace(fs, locations=np.zeros((0, 2)),
                                          descriptors=np.zeros((0, fs.descriptors.shape[1])))
                for name, fs in ds.queries[0].features.items()
            },
        )
        index = build_index([GlobalDescriptor(r.image_id, r.global_descriptor)
                             for r in ds.db_records])
        res = localize_query(q, 0, ds.db_records, dense_map, index, small_cfg)
        assert res.pose is None
        assert res.failure_reason == FAILURE_NO_CORRESPONDENCES

    def test_determinism_across_runs_and_threads(self, zero_noise_dataset, small_cfg):
        ds = zero_noise_dataset
        dense_map, _ = build_map(ds.db_records, small_cfg)
        a = localize_all(ds.queries, ds.db_records, dense_map, small_cfg, threads=1)
        b = localize_all(ds.queries, ds.db_records, dense_map, small_cfg, threads=1)
        c = localize_all(ds.queries, ds.db_records, dense_map, small_cfg, threads=3)
        for ra, rb, rc in zip(a, b, c):
            assert ra.query_id == rb.query_id == rc.query_id
            assert np.array_equal(ra.pose.rotation, rb.pose.rotation)
            assert np.array_equal(ra.pose.center, rb.pose.center)
            assert np.array_equal(ra.pose.rotation, rc.pose.rotation)
            assert np.array_equal(ra.pose.center, rc.pose.center)

    def test_diagnostics_recorded(self, small_run):
        _, _, results = small_run
        r = results[0]
        assert "retrieved" in r.diagnostics
        assert len(r.diagnostics["retrieved"]) > 0
        img_diag = next(iter(r.diagnostics["images"].values()))
        assert {"correspondences", "temporary_pose", "score_consistent",
                "score_projected"} <= set(img_diag)
        assert r.diagnostics["final_inliers"] >= 12

    def test_score_floor_filters_sources(self, zero_noise_dataset, small_cfg):
        ds = zero_noise_dataset
        dense_map, _ = build_map(ds.db_records, small_cfg)
        index = build_index([GlobalDescriptor(r.image_id, r.global_descriptor)
                             for r in ds.db_records])
        cfg = dataclasses.replace(small_cfg, score_floor=5.0)
        res = localize_query(ds.queries[0], 0, ds.db_records, dense_map, index, cfg)
        assert res.pose is not None
        images = res.diagnostics["images"].values()
        assert res.diagnostics["score_floor_kept"] == sum(
            d["correspondences"] for d in images if d["score_consistent"] >= 5.0)
        assert any(d["score_consistent"] < 5.0 and d["correspondences"] for d in images)

    def test_zeroed_descriptor_fails_only_that_query(self, zero_noise_dataset, small_cfg,
                                                     small_run):
        ds = zero_noise_dataset
        dense_map, _, baseline = small_run
        queries = list(ds.queries)
        queries[1] = dataclasses.replace(
            queries[1], global_descriptor=np.zeros_like(queries[1].global_descriptor))
        results = localize_all(queries, ds.db_records, dense_map, small_cfg)
        assert results[1].pose is None
        assert results[1].failure_reason == FAILURE_BAD_DESCRIPTOR
        for i in (0, 2, 3):
            assert results[i].pose.rotation.tobytes() == baseline[i].pose.rotation.tobytes()
            assert results[i].pose.center.tobytes() == baseline[i].pose.center.tobytes()
            assert results[i].diagnostics == baseline[i].diagnostics

    @pytest.mark.parametrize("case", ["missing", "non-finite", "zero-norm", "wrong-dimension"])
    def test_malformed_descriptor_fails_with_reason(self, zero_noise_dataset, small_cfg,
                                                    small_run, case):
        ds = zero_noise_dataset
        dense_map = small_run[0]
        good = ds.queries[0].global_descriptor
        bad = {
            "missing": None,
            "non-finite": np.where(np.arange(len(good)) == 3, np.inf, good),
            "zero-norm": np.zeros_like(good),
            "wrong-dimension": good[:-1],
        }[case]
        q = dataclasses.replace(ds.queries[0], global_descriptor=bad)
        index = build_index([GlobalDescriptor(r.image_id, r.global_descriptor)
                             for r in ds.db_records])
        res = localize_query(q, 0, ds.db_records, dense_map, index, small_cfg)
        assert res.pose is None
        assert res.failure_reason == FAILURE_BAD_DESCRIPTOR

    def test_build_stats_logged(self, small_run):
        _, stats, _ = small_run
        assert stats.valid_pixels_before_filter >= stats.valid_pixels_after_filter
        assert stats.fused_points >= stats.labeled_points >= stats.stable_points > 0
