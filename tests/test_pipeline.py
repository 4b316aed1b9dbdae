"""End-to-end pipeline tests on small synthetic scenes."""

import dataclasses

import numpy as np
import pytest

from semloc import pipeline, pnp
from semloc.config import PipelineConfig
from semloc.formats import write_estimates
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

    def test_empty_family_counts_zero_and_other_family_localizes(self, zero_noise_dataset,
                                                                 small_cfg):
        ds = zero_noise_dataset
        dense_map, _ = build_map(ds.db_records, small_cfg)
        names = sorted(ds.queries[0].features)
        emptied, kept = names[0], names[1:]
        # an empty set has no descriptor width
        empty = dataclasses.replace(ds.queries[0].features[emptied],
                                    locations=np.zeros((0, 2)), descriptors=np.zeros((0, 0)))
        q = dataclasses.replace(ds.queries[0], features={**ds.queries[0].features, emptied: empty})
        index = build_index([GlobalDescriptor(r.image_id, r.global_descriptor)
                             for r in ds.db_records])
        res = localize_query(q, 0, ds.db_records, dense_map, index, small_cfg)
        images = res.diagnostics["images"].values()
        zero = {"matches": 0, "lifted": 0, "dropped_oob": 0, "dropped_invalid_depth": 0}
        assert all(img[emptied] == zero for img in images)
        assert sum(img[name]["lifted"] for img in images for name in kept) > 0
        assert res.pose is not None, res.failure_reason
        assert pose_error(ds.gt_poses[q.image_id], res.pose).position_error < 0.05

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


class TestTemporaryPosesInLockstep:
    def test_outputs_equal_one_call_per_image(self, zero_noise_dataset, small_cfg, small_run,
                                              monkeypatch, tmp_path):
        # localize_query makes one temporary-pose call per query; solving
        # each retrieved image in a call of its own changes no byte
        ds = zero_noise_dataset
        dense_map, _, lockstep = small_run
        calls = []

        def one_call_per_image(batches, K, cfgs):
            calls.append(len(batches))
            return [pnp.estimate_temporary_pose([b], K, [c])[0] for b, c in zip(batches, cfgs)]

        monkeypatch.setattr(pipeline, "estimate_temporary_pose", one_call_per_image)
        separate = localize_all(ds.queries, ds.db_records, dense_map, small_cfg)
        assert calls == [small_cfg.top_k_day] * len(ds.queries)
        write_estimates(tmp_path / "lockstep.txt", lockstep)
        write_estimates(tmp_path / "separate.txt", separate)
        assert (tmp_path / "lockstep.txt").read_bytes() == (tmp_path / "separate.txt").read_bytes()
        assert [r.diagnostics for r in lockstep] == [r.diagnostics for r in separate]
        found = [img["temporary_pose"] for r in lockstep for img in r.diagnostics["images"].values()]
        assert True in found and False in found


class TestFinalRefinement:
    def test_winner_is_locally_optimized_at_the_final_threshold(self, zero_noise_dataset,
                                                                small_cfg, small_run,
                                                                monkeypatch):
        # local_optimization gets the final run's winner and threshold,
        # refine_pose gets its settled solution, and the diagnostics
        # describe that settled solution
        ds = zero_noise_dataset
        dense_map, _, baseline = small_run
        calls, refined = [], []

        def optimize(solution, batch, K, threshold):
            settled = pnp.local_optimization(solution, batch, K, threshold)
            calls.append((threshold, solution, settled))
            return settled

        def refine(solution, batch, K):
            refined.append(solution)
            return pnp.refine_pose(solution, batch, K)

        monkeypatch.setattr(pipeline, "local_optimization", optimize)
        monkeypatch.setattr(pipeline, "refine_pose", refine)
        results = localize_all(ds.queries, ds.db_records, dense_map, small_cfg)
        assert len(calls) == len(ds.queries)
        for (threshold, winner, settled), given, r in zip(calls, refined, results):
            assert threshold == small_cfg.ransac_inlier_threshold_px
            assert given is settled
            assert settled.num_inliers >= winner.num_inliers
            assert r.diagnostics["final_inliers"] == settled.num_inliers
            assert r.diagnostics["final_mean_error_px"] == settled.mean_reprojection_error_px
            assert r.diagnostics["final_iterations"] == winner.iterations_used
        for a, b in zip(results, baseline):
            assert a.pose.rotation.tobytes() == b.pose.rotation.tobytes()
            assert a.pose.center.tobytes() == b.pose.center.tobytes()
