"""End-to-end pipeline tests on small synthetic scenes."""

import copy
import dataclasses
import json

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
from semloc.scoring import gate_visible, semantic_consistency_score
from semloc.synthetic import generate_scene, street_canyon_spec

from conftest import patched_round_size


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
        # a re-run gives bitwise the same poses; localize_all runs its
        # queries on the calling thread and refuses any other thread count
        ds = zero_noise_dataset
        dense_map, _ = build_map(ds.db_records, small_cfg)
        a = localize_all(ds.queries, ds.db_records, dense_map, small_cfg, threads=1)
        b = localize_all(ds.queries, ds.db_records, dense_map, small_cfg, threads=1)
        for ra, rb in zip(a, b, strict=True):
            assert ra.query_id == rb.query_id
            assert np.array_equal(ra.pose.rotation, rb.pose.rotation)
            assert np.array_equal(ra.pose.center, rb.pose.center)
        for threads in (3, 0):
            with pytest.raises(ValueError, match="threads must be 1"):
                localize_all(ds.queries, ds.db_records, dense_map, small_cfg, threads=threads)

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
        # each retrieved image in a call of its own changes no byte, while
        # the grouped calls, with their short first rounds and cross-run
        # verdict, solve fewer P3P rows
        ds = zero_noise_dataset
        dense_map, _, lockstep = small_run
        calls = []
        rows = {"grouped": 0, "separate": 0}
        counting = ["grouped"]
        p3p_batch = pnp._p3p_batch

        def counted_p3p_batch(P, f):
            rows[counting[0]] += len(P)
            return p3p_batch(P, f)

        def one_call_per_image(batches, K, cfgs):
            calls.append(len(batches))
            return [pnp.estimate_temporary_pose([b], K, [c])[0] for b, c in zip(batches, cfgs)]

        monkeypatch.setattr(pnp, "_p3p_batch", counted_p3p_batch)
        localize_all(ds.queries, ds.db_records, dense_map, small_cfg)
        counting[0] = "separate"
        monkeypatch.setattr(pipeline, "estimate_temporary_pose", one_call_per_image)
        separate = localize_all(ds.queries, ds.db_records, dense_map, small_cfg)
        assert calls == [small_cfg.top_k_day] * len(ds.queries)
        assert rows["grouped"] < rows["separate"]
        write_estimates(tmp_path / "lockstep.txt", lockstep)
        write_estimates(tmp_path / "separate.txt", separate)
        assert (tmp_path / "lockstep.txt").read_bytes() == (tmp_path / "separate.txt").read_bytes()
        assert [r.diagnostics for r in lockstep] == [r.diagnostics for r in separate]
        found = [img["temporary_pose"] for r in lockstep for img in r.diagnostics["images"].values()]
        assert True in found and False in found

    def test_stopped_runs_that_pose_alone_score_nothing(self, monkeypatch):
        # a stopped run's image scores 0 of 0; on acceptance-06's scene,
        # queries 130-149, a run that the verdict stops but that finds a
        # late pose alone (q140's rank-4 image) scores no consistent point
        # with that pose either, so stopping it moves no weight
        ds = generate_scene(street_canyon_spec(seed=31, n_db=20, n_queries=200,
                                               image_size=(96, 72), anchors_per_plane=40,
                                               noise_profile="day_night", night_fraction=0.5))
        cfg = PipelineConfig(seed=17, ransac_inlier_threshold_px=2.5, fusion_voxel_size=0.10,
                             top_k_day=6, top_k_night=6, temp_ransac_max_iterations=150,
                             ransac_max_iterations=1000)
        dense_map, _ = build_map(ds.db_records, cfg)
        index = build_index([GlobalDescriptor(r.image_id, r.global_descriptor)
                             for r in ds.db_records])
        grouped = pipeline.estimate_temporary_pose
        posed_alone = []

        def with_solo_poses(batches, K, cfgs):
            temps = grouped(batches, K, cfgs)
            for batch, c, temp in zip(batches, cfgs, temps):
                alone = grouped([batch], K, [c])[0]
                if temp is None and alone is not None:
                    posed_alone.append(alone)
            return temps

        monkeypatch.setattr(pipeline, "estimate_temporary_pose", with_solo_poses)
        for i in range(130, 150):
            query = ds.queries[i]
            posed_alone.clear()
            localize_query(query, i, ds.db_records, dense_map, index, cfg)
            assert len(posed_alone) == (query.image_id == "q140")
            for temp in posed_alone:
                score = semantic_consistency_score(gate_visible(dense_map, temp.pose), temp.pose,
                                                   query.intrinsics, query.labels)
                assert score.consistent == 0

    def test_a_lower_ranked_winner_does_not_stop_rank_one_in_round_one(self):
        # the canyon-daynight bench scene, q027 as query 17: its rank-2
        # image (db011) finds a 6-inlier pose at a wrong place within 16
        # samples and contradicts all but 5 rows of its rank-1 image
        # (db015), which has no winner yet.  Were both to draw in round 1,
        # the verdict would stop db015 and its image would score 0 of 0;
        # with db011 waiting a round, db015 finds its own pose in its
        # second round and keeps it
        ds = generate_scene(street_canyon_spec(seed=31, n_db=20, n_queries=40,
                                               image_size=(96, 72), anchors_per_plane=40,
                                               noise_profile="day_night", night_fraction=0.5))
        cfg = PipelineConfig(seed=17, ransac_inlier_threshold_px=2.5, fusion_voxel_size=0.10,
                             top_k_day=6, top_k_night=6, temp_ransac_max_iterations=150,
                             ransac_max_iterations=1000)
        dense_map, _ = build_map(ds.db_records, cfg)
        index = build_index([GlobalDescriptor(r.image_id, r.global_descriptor)
                             for r in ds.db_records])
        query = ds.queries[27]
        images = localize_query(query, 17, ds.db_records, dense_map, index,
                                cfg).diagnostics["images"]
        assert list(images)[:3] == ["db013", "db015", "db011"]
        assert images["db015"]["temporary_pose"] and images["db015"]["score_consistent"] == 859
        assert images["db011"]["temporary_pose"] and images["db011"]["score_consistent"] == 0


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


class TestFinalWeights:
    def test_one_normalized_weight_per_pooled_row(self, zero_noise_dataset, small_cfg,
                                                  small_run, monkeypatch):
        # the final RANSAC gets the pooled batch and its weights beside it:
        # one per row, none negative, summing to 1, and exactly 0 on the
        # rows of an image that scored 0 unless every image did.  The rows
        # hold each retrieved image's correspondences in retrieval order
        ds = zero_noise_dataset
        dense_map, _, baseline = small_run
        seen = []

        def final(batch, weights, K, cfg):
            seen.append((batch, weights))
            return pnp.weighted_ransac_pnp(batch, weights, K, cfg)

        monkeypatch.setattr(pipeline, "weighted_ransac_pnp", final)
        results = localize_all(ds.queries, ds.db_records, dense_map, small_cfg)
        assert len(seen) == len(ds.queries)
        zeroed = 0
        for (batch, weights), r in zip(seen, results):
            images = r.diagnostics["images"]
            assert len(batch) == sum(img["correspondences"] for img in images.values())
            assert weights.shape == (len(batch),)
            assert np.all(weights >= 0.0) and abs(weights.sum() - 1.0) <= 1e-12
            ranked = [images[image_id] for image_id, _dist in r.diagnostics["retrieved"]]
            scores = np.repeat([img["score_consistent"] for img in ranked],
                               [img["correspondences"] for img in ranked])
            assert scores.shape == (len(batch),)
            if scores.any():
                assert np.all(weights[scores == 0] == 0.0) and np.all(weights[scores > 0] > 0.0)
                zeroed += int(np.count_nonzero(scores == 0))
            else:
                assert np.all(weights == 1.0 / len(batch))
        assert zeroed > 0
        assert [r.diagnostics for r in results] == [r.diagnostics for r in baseline]


class TestRoundSchedule:
    def test_outputs_equal_fixed_64_sample_rounds(self, tmp_path):
        # RANSAC rounds fitted to each run's remaining bound change no byte
        # against fixed 64-sample rounds, on a reduced day/night canyon
        # whose queries mix failed and successful temporary and final runs
        spec = street_canyon_spec(seed=302, n_db=10, n_queries=8, image_size=(96, 72),
                                  noise_profile="day_night", night_fraction=0.5,
                                  anchors_per_plane=20, length=18.0)
        ds = generate_scene(spec)
        cfg = PipelineConfig(seed=17, ransac_inlier_threshold_px=2.5, fusion_voxel_size=0.12,
                             top_k_day=6, top_k_night=6, temp_ransac_max_iterations=150,
                             ransac_max_iterations=1000)
        dense_map, _ = build_map(ds.db_records, cfg)
        fitted = localize_all(ds.queries, ds.db_records, dense_map, cfg)
        with patched_round_size(pnp._CHUNK):
            fixed = localize_all(ds.queries, ds.db_records, dense_map, cfg)
        write_estimates(tmp_path / "fitted.txt", fitted)
        write_estimates(tmp_path / "fixed.txt", fixed)
        assert (tmp_path / "fitted.txt").read_bytes() == (tmp_path / "fixed.txt").read_bytes()
        assert [r.diagnostics for r in fitted] == [r.diagnostics for r in fixed]
        temporary = [img["temporary_pose"] for r in fitted
                     for img in r.diagnostics["images"].values()]
        assert True in temporary and False in temporary
        localized = [r.pose is not None for r in fitted]
        assert True in localized and False in localized


class TestLiftTables:
    def test_cold_warm_and_copied_passes_agree(self, tmp_path):
        # acceptance-01's scene and config, its first 20 queries: a pass that
        # builds the lift tables, a pass that reads them, and a pass on deep
        # copies of the records and the map write the same bytes
        ds = generate_scene(street_canyon_spec(seed=2026, n_db=20, n_queries=50,
                                               noise_profile="zero"))
        cfg = PipelineConfig(seed=7, ransac_inlier_threshold_px=0.8, fusion_voxel_size=0.10,
                             top_k_day=8, temp_ransac_max_iterations=300)
        queries = ds.queries[:20]
        records = ds.db_records
        dense_map, _ = build_map(records, cfg)

        def outputs(records, dense_map):
            results = localize_all(queries, records, dense_map, cfg)
            path = tmp_path / "estimates.txt"
            write_estimates(path, results)
            diagnostics = {r.query_id: [r.failure_reason, r.diagnostics] for r in results}
            localized = sum(r.pose is not None for r in results)
            return path.read_bytes(), json.dumps(diagnostics, sort_keys=True), localized

        assert not any(rec._lift_tables for rec in records)
        cold = outputs(records, dense_map)
        assert any(rec._lift_tables for rec in records)
        warm = outputs(records, dense_map)
        copied = outputs(copy.deepcopy(records), copy.deepcopy(dense_map))
        assert cold == warm == copied
        assert cold[2] == 20
