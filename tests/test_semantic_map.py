"""Map construction tests: depth filtering, fusion, voting, cones.

Every DERIVED expectation is recomputed here by an independent brute-force
oracle (per-pixel loops, voxel-hash recount, exhaustive pair search).  The
columnar fusion, label vote, cones and unstable-class removal are checked
against the per-pixel and per-point oracles in map_oracle.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from semloc import semantic_map
from semloc.geometry import CameraIntrinsics, RigidPose
from semloc.semantic_map import (
    DEFAULT_UNSTABLE_CLASS_IDS,
    DatabaseImageRecord,
    DenseMap,
    DepthFilterConfig,
    QueryImage,
    _cones_bulk,
    _vote_labels_bulk,
    build_dense_map,
    filter_depth_map,
    fuse_depth_maps,
    select_filter_neighbors,
)

import kernel_oracle
from conftest import pinhole_back_project as back_project
from conftest import patched_depth_filter, rodrigues
from map_oracle import (
    block_bounds,
    compute_visibility_cone,
    map_from_points,
    map_point,
    map_points,
    remove_unstable_classes,
    same_map,
    validate_map,
    vote_semantic_label,
)
from map_oracle import fuse_depth_maps as fuse_oracle


def _K(w=16, h=12, f=20.0):
    return CameraIntrinsics(fx=f, fy=f, cx=w / 2.0, cy=h / 2.0, width=w, height=h)


def _record(image_id, K, pose, depth, labels=None):
    if labels is None:
        labels = np.full((K.height, K.width), 2, dtype=np.uint8)
    return DatabaseImageRecord(
        image_id=image_id, intrinsics=K, pose=pose,
        depth=np.asarray(depth, dtype=np.float32), labels=labels,
    )


@pytest.mark.parametrize("value, valid", [(0, True), (18, True), (255, True), (19, False),
                                          (42, False), (254, False)])
def test_both_record_types_share_the_label_id_rule(value, valid):
    K = _K(4, 3)
    labels = np.full((3, 4), value, dtype=np.uint8)
    for make in (lambda: _record("db", K, RigidPose.identity(), np.ones((3, 4)), labels),
                 lambda: QueryImage(image_id="q", intrinsics=K, labels=labels)):
        if valid:
            make()
        else:
            with pytest.raises(ValueError, match="label ids outside 0..18 / 255"):
                make()


def test_both_record_types_are_frozen_with_read_only_arrays():
    # no field can be set past the constructor's checks (a query's
    # condition "dusk" would reach the estimates file, whose reader refuses
    # it), and neither the caller's arrays nor its feature dict are shared
    K = _K(4, 3)
    labels = np.full((3, 4), 2, dtype=np.uint8)
    gdesc, features = np.ones(8), {}
    db = DatabaseImageRecord(image_id="db", intrinsics=K, pose=RigidPose.identity(),
                             depth=np.ones((3, 4)), labels=labels, global_descriptor=gdesc,
                             features=features)
    query = QueryImage(image_id="q", intrinsics=K, labels=labels, global_descriptor=gdesc,
                       features=features)
    with pytest.raises(dataclasses.FrozenInstanceError):
        query.condition = "dusk"
    assert query.condition == "day"
    for image in (db, query):
        for name in ("image_id", "intrinsics", "labels", "global_descriptor", "features"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(image, name, getattr(image, name))
        assert image.labels is not labels and image.features is not features
        for array in (image.labels, image.global_descriptor):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
    assert labels.flags.writeable and gdesc.flags.writeable


def _plane_depth(K, pose, plane_z=6.0):
    """Depth map of the world plane z = plane_z for a camera looking +z."""
    depth = np.zeros((K.height, K.width), dtype=np.float32)
    for y in range(K.height):
        for x in range(K.width):
            # ray through the pixel; intersect with z = plane_z
            d = np.array([(x - K.cx) / K.fx, (y - K.cy) / K.fy, 1.0])
            d_world = pose.rotation.T @ d
            if abs(d_world[2]) < 1e-12:
                continue
            t = (plane_z - pose.center[2]) / d_world[2]
            if t > 0:
                depth[y, x] = t
    return depth


def _filter_oracle(target, neighbors, tau, min_n):
    """Scalar per-pixel reimplementation of the depth consistency test."""
    out = np.zeros_like(target.depth)
    K = target.intrinsics
    for y in range(K.height):
        for x in range(K.width):
            d = float(target.depth[y, x])
            if d <= 0:
                continue
            X = back_project(np.array([float(x), float(y)]), d, target.pose, K)
            support = 0
            for nb in neighbors:
                cam = nb.pose.rotation @ (X - nb.pose.center)
                if cam[2] <= 0:
                    continue
                u = nb.intrinsics.fx * cam[0] / cam[2] + nb.intrinsics.cx
                v = nb.intrinsics.fy * cam[1] / cam[2] + nb.intrinsics.cy
                px = int(math.floor(u + 0.5))
                py = int(math.floor(v + 0.5))
                if not (0 <= px < nb.intrinsics.width and 0 <= py < nb.intrinsics.height):
                    continue
                d_n = float(nb.depth[py, px])
                if d_n <= 0:
                    continue
                if abs(cam[2] - d_n) / d_n < tau:
                    support += 1
            if support >= min_n:
                out[y, x] = d
    return out


class TestFilterDepthMap:
    def test_relative_tolerance_arithmetic(self):
        # same viewpoint: projected depth 1.0 against stored 1.005
        K = _K(4, 4, f=10.0)
        pose = RigidPose.identity()
        target = _record("t", K, pose, np.full((4, 4), 1.0))
        nb = _record("n", K, pose, np.full((4, 4), 1.005))
        kept = filter_depth_map(target, [nb], DepthFilterConfig(tau=0.01))
        assert np.all(kept == target.depth)  # |1.0-1.005|/1.005 = 0.004975 < 0.01
        removed = filter_depth_map(target, [nb], DepthFilterConfig(tau=0.004))
        assert np.all(removed == 0.0)

    def test_invalid_neighbor_depth_does_not_count(self):
        K = _K(4, 4, f=10.0)
        pose = RigidPose.identity()
        target = _record("t", K, pose, np.full((4, 4), 1.0))
        nb = _record("n", K, pose, np.zeros((4, 4)))
        out = filter_depth_map(target, [nb], DepthFilterConfig(tau=0.5))
        assert np.all(out == 0.0)

    def test_corrupted_pixel_removed(self):
        # two cameras on a fronto-parallel plane; one pixel's depth scaled 1.5x
        K = _K(5, 5, f=8.0)
        p0 = RigidPose.identity()
        p1 = RigidPose(np.eye(3), np.array([0.3, 0.0, 0.0]))
        d0 = _plane_depth(K, p0)
        d1 = _plane_depth(K, p1)
        d0[2, 2] *= 1.5
        target = _record("t", K, p0, d0)
        nb = _record("n", K, p1, d1)
        out = filter_depth_map(target, [nb], DepthFilterConfig(tau=0.01))
        oracle = _filter_oracle(target, [nb], 0.01, 1)
        assert np.array_equal(out > 0, oracle > 0)
        assert out[2, 2] == 0.0
        removed = np.argwhere((target.depth > 0) & (out == 0))
        assert [2, 2] in removed.tolist()

    def test_oracle_equivalence_random_scenes(self):
        rng = np.random.default_rng(42)
        K = _K(8, 6, f=9.0)
        for _ in range(10):
            base = RigidPose(np.eye(3), rng.normal(scale=0.2, size=3))
            records = []
            for i in range(3):
                pose = RigidPose(
                    rodrigues(rng.normal(size=3), rng.uniform(0, 0.1)),
                    base.center + rng.normal(scale=0.3, size=3),
                )
                depth = _plane_depth(K, pose, plane_z=6.0)
                noise = 1.0 + rng.uniform(-0.02, 0.02, size=depth.shape)
                records.append(_record(f"im{i}", K, pose, depth * noise))
            cfg = DepthFilterConfig(tau=0.01)
            out = filter_depth_map(records[0], records[1:], cfg)
            oracle = _filter_oracle(records[0], records[1:], 0.01, 1)
            assert np.array_equal(out > 0, oracle > 0)

    def test_infinite_tau_keeps_everything(self):
        rng = np.random.default_rng(1)
        K = _K()
        p0 = RigidPose.identity()
        p1 = RigidPose(np.eye(3), np.array([0.1, 0.0, 0.0]))
        depth = _plane_depth(K, p0)
        target = _record("t", K, p0, depth)
        nb = _record("n", K, p1, _plane_depth(K, p1))
        out = filter_depth_map(target, [nb], DepthFilterConfig(tau=1e18))
        assert np.array_equal(out, target.depth)

    def test_n_above_neighbor_count_removes_everything(self):
        K = _K()
        p0 = RigidPose.identity()
        p1 = RigidPose(np.eye(3), np.array([0.1, 0.0, 0.0]))
        target = _record("t", K, p0, _plane_depth(K, p0))
        nb = _record("n", K, p1, _plane_depth(K, p1))
        with patched_depth_filter(min_consistent=2):
            out = filter_depth_map(target, [nb], DepthFilterConfig(tau=1e18))
        assert np.all(out == 0.0)

    def test_empty_neighbors_rejected(self):
        K = _K()
        target = _record("t", K, RigidPose.identity(), _plane_depth(K, RigidPose.identity()))
        with pytest.raises(ValueError):
            filter_depth_map(target, [], DepthFilterConfig())


class TestNeighborSkip:
    """A neighbor view behind which every point lies is never projected, and
    one point just in front of a view keeps it."""

    # Looks down -z: a point's depth in it is the camera's z minus the point's.
    _FACING_DOWN = np.diag([-1.0, 1.0, -1.0])

    @staticmethod
    def _projected_centers(monkeypatch):
        centers = []
        project = semantic_map.project_points

        def spy(points, rotation, center, K):
            centers.append(np.array(center, dtype=np.float64))
            return project(points, rotation, center, K)

        monkeypatch.setattr(semantic_map, "project_points", spy)
        return centers

    def _scene(self):
        # The target looks down +z at depth 3, but pixel (x=3, y=1) lies at
        # depth 2.  "near" looks down -z from 1e-9 m above that pixel's point
        # and sees it alone, on its optical axis; "away" looks down -z from
        # below the target and sees no point.
        K = _K(5, 5, f=10.0)
        pose = RigidPose.identity()
        depth = np.full((5, 5), 3.0)
        depth[1, 3] = 2.0
        target = DatabaseImageRecord("t", K, pose, depth, np.full((5, 5), 2, dtype=np.uint8))
        point = back_project(np.array([3.0, 1.0]), 2.0, pose, K)
        near_pose = RigidPose(self._FACING_DOWN, point + np.array([0.0, 0.0, 1e-9]))
        _, d_r = semantic_map.project_points(np.stack([point, point]), near_pose.rotation,
                                             near_pose.center, K)
        assert 0.0 < d_r[0] < 1.1e-9
        near = DatabaseImageRecord("near", K, near_pose, np.full((5, 5), d_r[0]),
                                   np.full((5, 5), 2, dtype=np.uint8))
        away = _record("away", K, RigidPose(self._FACING_DOWN, np.array([0.0, 0.0, -1.0])),
                       np.full((5, 5), 1.0))
        return target, near, away

    def test_a_view_facing_away_from_every_point_is_never_projected(self, monkeypatch):
        target, near, away = self._scene()
        centers = self._projected_centers(monkeypatch)
        out = filter_depth_map(target, [away], DepthFilterConfig())
        assert centers == []
        assert np.all(out == 0.0)
        keep, skipped = semantic_map._confirm(np.zeros((0, 3)), [away, near], 0.01)
        assert len(keep) == 0 and skipped == 2

    def test_one_point_1e_9_m_in_front_keeps_the_view_and_its_confirmation(self, monkeypatch):
        target, near, away = self._scene()
        centers = self._projected_centers(monkeypatch)
        out = filter_depth_map(target, [away, near], DepthFilterConfig())
        assert len(centers) == 1 and np.array_equal(centers[0], near.pose.center)
        expected = np.zeros((5, 5))
        expected[1, 3] = 2.0
        assert np.array_equal(out, expected)
        assert np.array_equal(out, _filter_oracle(target, [away, near], 0.01, 1))
        world = semantic_map._valid_world_points(target)[2]
        keep, skipped = semantic_map._confirm(world, [away, near], 0.01)
        assert keep.sum() == 1 and skipped == 1


class TestFuseDepthMaps:
    def test_single_pixel(self):
        K = _K(4, 4, f=10.0)
        depth = np.zeros((4, 4), dtype=np.float32)
        depth[1, 2] = 5.0
        rec = _record("a", K, RigidPose.identity(), depth)
        fused = fuse_depth_maps([rec], voxel_size=0.5)
        assert len(fused) == 1
        expected = back_project(np.array([2.0, 1.0]), 5.0, rec.pose, K)
        np.testing.assert_allclose(fused.positions[0], expected, atol=1e-12)
        assert fused.pairs.tolist() == [[0, 0]]

    def test_two_cameras_merge_in_one_voxel(self):
        K = _K(4, 4, f=10.0)
        d0 = np.zeros((4, 4), dtype=np.float32)
        d0[2, 2] = 5.0
        d1 = np.zeros((4, 4), dtype=np.float32)
        d1[2, 2] = 5.0
        r0 = _record("a", K, RigidPose.identity(), d0)
        r1 = _record("b", K, RigidPose(np.eye(3), np.array([1e-4, 0, 0])), d1)
        fused = fuse_depth_maps([r0, r1], voxel_size=0.5)
        assert len(fused) == 1
        assert fused.pairs.tolist() == [[0, 0], [0, 1]]

    def test_count_matches_hash_oracle(self):
        rng = np.random.default_rng(7)
        K = _K(10, 8, f=12.0)
        records = []
        for i in range(3):
            pose = RigidPose(np.eye(3), rng.normal(scale=0.4, size=3))
            records.append(_record(f"im{i}", K, pose, _plane_depth(K, pose)))
        voxel = 0.05
        fused = fuse_depth_maps(records, voxel)
        # independent voxel-hash recount
        keys = set()
        for rec in records:
            for y in range(K.height):
                for x in range(K.width):
                    d = float(rec.depth[y, x])
                    if d <= 0:
                        continue
                    X = back_project(np.array([float(x), float(y)]), d, rec.pose, K)
                    keys.add(tuple(int(math.floor(c / voxel)) for c in X))
        assert len(fused) == len(keys)

    def test_count_non_increasing_on_nested_sizes(self):
        # Voxel cells only nest for integer size multiples, so monotonicity
        # is checked on a doubling chain.
        rng = np.random.default_rng(8)
        K = _K(10, 8, f=12.0)
        pose = RigidPose.identity()
        records = [_record("a", K, pose, _plane_depth(K, pose))]
        counts = [len(fuse_depth_maps(records, s)) for s in (0.025, 0.05, 0.1, 0.2, 0.4)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    @staticmethod
    def _assert_matches_oracle(records, voxel):
        """Positions bitwise and contributors exactly as the dict oracle's."""
        fused = fuse_depth_maps(records, voxel)
        oracle = fuse_oracle(records, voxel)
        assert len(fused) == len(oracle) > 0
        assert fused.positions.tobytes() == np.stack([p for p, _ in oracle]).tobytes()
        got = [[] for _ in range(len(fused))]
        for point, rec in fused.pairs.tolist():
            got[point].append(rec)
        assert [tuple(g) for g in got] == [c for _, c in oracle]
        return oracle

    def test_matches_dict_oracle_on_random_scenes(self):
        # positions bitwise and contributors exactly as the per-pixel dict
        # loop, on scenes with negative world coordinates, voxels shared
        # across records and records with no valid depth: first, in the
        # middle, last, or all three in one list
        rng = np.random.default_rng(11)
        K = _K(10, 8, f=12.0)
        shared = 0
        for trial in range(12):
            base = rng.normal(loc=-4.0, scale=2.0, size=3)
            records = []
            for i in range(4):
                pose = RigidPose(rodrigues(rng.normal(size=3), rng.uniform(0, 0.3)),
                                 base + rng.normal(scale=0.2, size=3))
                depth = rng.uniform(0.5, 3.0, size=(K.height, K.width))
                depth[rng.random(depth.shape) < 0.3] = 0.0
                records.append(_record(f"im{i}", K, pose, depth))
            for i in ((0,), (1,), (2,), (3,), (0, 2, 3))[trial % 5]:
                records[i] = dataclasses.replace(
                    records[i], depth=np.zeros((K.height, K.width), dtype=np.float32))
            oracle = self._assert_matches_oracle(records, (0.05, 0.2, 0.5)[trial % 3])
            assert np.any(np.stack([p for p, _ in oracle]) < 0.0)
            shared += sum(len(c) > 1 for _, c in oracle)
        assert shared > 0

    def test_utm_scale_coordinates_match_dict_oracle(self):
        # keys are packed relative to the first valid pixel's cell, so a
        # scene about 5e5 m from the origin fuses as one near it does
        rng = np.random.default_rng(12)
        K = _K(10, 8, f=12.0)
        shared = 0
        for trial in range(6):
            base = np.array([5.1e5, -4.3e5, 2.0e3]) + rng.normal(scale=50.0, size=3)
            records = []
            for i in range(3):
                pose = RigidPose(rodrigues(rng.normal(size=3), rng.uniform(0, 0.3)),
                                 base + rng.normal(scale=0.2, size=3))
                depth = rng.uniform(0.5, 3.0, size=(K.height, K.width))
                depth[rng.random(depth.shape) < 0.3] = 0.0
                records.append(_record(f"im{i}", K, pose, depth))
            oracle = self._assert_matches_oracle(records, (0.05, 0.2, 0.5)[trial % 3])
            shared += sum(len(c) > 1 for _, c in oracle)
        assert shared > 0

    @pytest.mark.parametrize("anchor_cell, other_cell, fits", [
        (2**20, 2**21 - 1, True), (2**20, 2**21, False),
        (2**21, 2**20 + 1, True), (2**21, 2**20, False),
    ])
    def test_cells_must_lie_within_2_to_the_20_of_the_anchor(self, anchor_cell, other_cell, fits):
        # one pixel on the optical axis per record, at the centre of the
        # given z cell of a 2**-20 m grid; the first record's is the anchor
        voxel = 2.0**-20
        K = _K()
        records = []
        for i, cell in enumerate((anchor_cell, other_cell)):
            depth = np.zeros((K.height, K.width))
            depth[int(K.cy), int(K.cx)] = (cell + 0.5) * voxel
            records.append(_record(f"im{i}", K, RigidPose.identity(), depth))
        if fits:
            self._assert_matches_oracle(records, voxel)
        else:
            with pytest.raises(ValueError, match="too fine for int64 voxel keys"):
                fuse_depth_maps(records, voxel)

    def test_no_valid_depth_gives_empty_cloud(self):
        K = _K()
        rec = _record("a", K, RigidPose.identity(), np.zeros((K.height, K.width)))
        fused = fuse_depth_maps([rec, rec], 0.1)
        assert len(fused) == 0
        assert fused.positions.shape == (0, 3) and fused.pairs.shape == (0, 2)

    def test_grid_too_fine_for_int64_keys_rejected(self):
        K = _K()
        rec = _record("a", K, RigidPose.identity(), _plane_depth(K, RigidPose.identity()))
        with pytest.raises(ValueError, match="too fine"):
            fuse_depth_maps([rec], 1e-9)

    def test_rejects_empty_and_bad_voxel(self):
        with pytest.raises(ValueError):
            fuse_depth_maps([], 0.1)
        K = _K()
        rec = _record("a", K, RigidPose.identity(), _plane_depth(K, RigidPose.identity()))
        with pytest.raises(ValueError):
            fuse_depth_maps([rec], 0.0)

    def test_rejects_infinite_voxel(self):
        K = _K()
        rec = _record("a", K, RigidPose.identity(), _plane_depth(K, RigidPose.identity()))
        for voxel_size in (np.inf, float("1e400")):
            with pytest.raises(ValueError, match="^voxel size must be positive$"):
                fuse_depth_maps([rec], voxel_size)


def _one_point_pairs(recs):
    """Pair table of one point seen by every record."""
    return np.stack([np.zeros(len(recs), dtype=np.int64), np.arange(len(recs))], axis=1)


def _vote(point, recs):
    """The production vote for one point, checked against the scalar oracle."""
    label = int(_vote_labels_bulk(np.asarray(point, dtype=np.float64)[None],
                                  _one_point_pairs(recs), recs)[0])
    assert label == vote_semantic_label(point, recs)
    return label


def _cone(point, recs):
    """The production cone for one point as a map_oracle VisibilityCone,
    checked against the scalar oracle."""
    X = np.asarray(point, dtype=np.float64)
    d_min, d_max, v_l, v_u, theta = _cones_bulk(X[None], _one_point_pairs(recs), recs)
    cone = map_point(DenseMap(X[None], [2], v_l, v_u, theta, d_min, d_max, [len(recs)]), 0).cone
    ref = compute_visibility_cone(X, recs)
    assert cone.theta == pytest.approx(ref.theta, abs=1e-12)
    assert cone.d_min == pytest.approx(ref.d_min, abs=1e-12)
    assert cone.d_max == pytest.approx(ref.d_max, abs=1e-12)
    if ref.theta > 0:
        np.testing.assert_allclose(cone.v_l, ref.v_l, atol=1e-12)
        np.testing.assert_allclose(cone.v_u, ref.v_u, atol=1e-12)
    return cone


class TestVoteSemanticLabel:
    def _looking_at_origin_record(self, image_id, center, label):
        K = _K(8, 8, f=10.0)
        # camera at `center` looking toward the origin
        z = -np.asarray(center, dtype=np.float64)
        z = z / np.linalg.norm(z)
        helper = np.array([0.0, 1.0, 0.0]) if abs(z[1]) < 0.9 else np.array([1.0, 0.0, 0.0])
        x = np.cross(helper, z)
        x /= np.linalg.norm(x)
        y = np.cross(z, x)
        R = np.stack([x, y, z])
        labels = np.full((8, 8), label, dtype=np.uint8)
        return _record(image_id, K, RigidPose(R, np.asarray(center, dtype=np.float64)),
                       np.full((8, 8), 1.0), labels)

    def test_majority(self):
        recs = [
            self._looking_at_origin_record("a", [0, 0, -3], 2),
            self._looking_at_origin_record("b", [0.5, 0, -3], 2),
            self._looking_at_origin_record("c", [0, 0.5, -3], 13),
        ]
        assert _vote(np.zeros(3), recs) == 2

    def test_tie_breaks_to_smaller_id(self):
        recs = [
            self._looking_at_origin_record("a", [0, 0, -3], 0),
            self._looking_at_origin_record("b", [0.5, 0, -3], 2),
        ]
        assert _vote(np.zeros(3), recs) == 0

    def test_out_of_bounds_gives_unlabeled(self):
        recs = [self._looking_at_origin_record("a", [0, 0, -3], 2)]
        assert _vote(np.array([100.0, 0.0, 0.0]), recs) == 255

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        recs = [
            self._looking_at_origin_record("a", [0, 0, -3], 0),
            self._looking_at_origin_record("b", [0.4, 0, -3], 2),
            self._looking_at_origin_record("c", [0, 0.4, -3], 2),
            self._looking_at_origin_record("d", [0.4, 0.4, -3], 8),
        ]
        base = _vote(np.zeros(3), recs)
        for _ in range(5):
            perm = list(rng.permutation(len(recs)))
            assert _vote(np.zeros(3), [recs[i] for i in perm]) == base


    @pytest.mark.parametrize("n_records", [20, 300])
    def test_small_counters_match_an_int64_vote_on_random_maps(self, n_records):
        # cameras around the origin whose label images are one class each,
        # 2 on 18 of every 20 and 0 on one, the twentieth mixing 5 and
        # unlabeled: a point seen by all 300 records holds 270 votes for
        # class 2, which a uint8 counter would wrap to 14, below class 0's 15
        rng = np.random.default_rng(16 + n_records)
        recs = []
        for i in range(n_records):
            center = rng.normal(size=3)
            center = 3.0 * center / np.linalg.norm(center)
            rec = self._looking_at_origin_record(f"c{i}", center, 2)
            if i % 20 == 1:
                rec = dataclasses.replace(rec, labels=np.zeros((8, 8), dtype=np.uint8))
            elif i % 20 == 2:
                rec = dataclasses.replace(rec, labels=rng.choice(
                    np.array([5, 255], dtype=np.uint8), size=(8, 8)))
            recs.append(rec)
        points = rng.normal(scale=0.05, size=(40, 3))
        pairs = [np.arange(n_records)]
        for k in rng.integers(1, 6, size=len(points) - 1):
            # about half of the points see 1-3 records only, so class 0 wins some
            k = k if k < 4 else rng.integers(1, n_records + 1)
            pairs.append(np.sort(rng.choice(n_records, size=k, replace=False)))
        pairs = np.concatenate([np.stack([np.full(len(c), p), c], axis=1)
                                for p, c in enumerate(pairs)])
        labels = _vote_labels_bulk(points, pairs, recs)
        assert labels.dtype == np.int64
        expected = [vote_semantic_label(X, [recs[r] for r in pairs[pairs[:, 0] == p, 1]])
                    for p, X in enumerate(points)]
        assert labels.tolist() == expected
        assert expected[0] == 2 and 0 in expected


@pytest.fixture(scope="module")
def relabeled_records(zero_noise_dataset):
    """Four canyon records with every vegetation (8) pixel relabeled car (13)."""
    return [
        dataclasses.replace(rec, labels=np.where(rec.labels == 8, 13, rec.labels).astype(np.uint8))
        for rec in zero_noise_dataset.db_records[:4]
    ]


@pytest.fixture(scope="module")
def close_cameras_records():
    """A canyon whose database cameras stand 0.27 m apart along the street,
    so that many pixels have two confirming filter neighbors."""
    from semloc.synthetic import generate_scene, street_canyon_spec

    spec = street_canyon_spec(seed=301, n_db=12, n_queries=1, image_size=(64, 48),
                              anchors_per_plane=10, length=9.0)
    return generate_scene(spec).db_records


class TestRemoveUnstable:
    """build_dense_map's unstable-class mask against the per-point oracle."""

    def test_default_set_is_dynamic_plus_sky(self):
        assert DEFAULT_UNSTABLE_CLASS_IDS == frozenset({10, 11, 12, 13, 14, 15, 16, 17, 18})

    def test_keeps_stable_only(self, relabeled_records):
        full, _ = build_dense_map(relabeled_records, voxel_size=0.3, unstable=set())
        kept, stats = build_dense_map(relabeled_records, voxel_size=0.3, unstable={13})
        assert 13 in full.labels and 13 not in kept.labels
        assert 0 < len(kept) == stats.stable_points < len(full)
        expected = map_from_points(remove_unstable_classes(map_points(full), {13}))
        assert same_map(kept, expected)

    def test_no_unstable_means_identity(self, zero_noise_dataset):
        records = zero_noise_dataset.db_records[:4]
        assert not np.any(np.concatenate([r.labels.ravel() for r in records]) == 13)
        full, _ = build_dense_map(records, voxel_size=0.3, unstable=set())
        kept, _ = build_dense_map(records, voxel_size=0.3, unstable={13})
        assert same_map(kept, full)
        assert len(remove_unstable_classes(map_points(full), {13})) == len(full)

    def test_empty_set_keeps_all_and_idempotent(self, relabeled_records):
        full, stats = build_dense_map(relabeled_records, voxel_size=0.3, unstable=set())
        assert len(full) == stats.stable_points == stats.labeled_points
        out = remove_unstable_classes(map_points(full), set())
        assert len(out) == len(full)
        assert remove_unstable_classes(out, set()) == out


class TestVisibilityCone:
    def _rec_at(self, image_id, center):
        K = _K(4, 4, f=10.0)
        return _record(image_id, K, RigidPose(np.eye(3), np.asarray(center, dtype=np.float64)),
                       np.full((4, 4), 1.0))

    def test_single_camera(self):
        cone = _cone(np.zeros(3), [self._rec_at("a", [0, 0, -5])])
        assert cone.d_min == cone.d_max == pytest.approx(5.0)
        assert cone.theta == 0.0
        np.testing.assert_allclose(cone.v_m, [0, 0, -1], atol=1e-12)
        # every point with one contributor: its cone is the ray to that camera, bitwise
        rng = np.random.default_rng(15)
        recs = [self._rec_at(f"c{i}", c) for i, c in enumerate(rng.normal(scale=4.0, size=(5, 3)))]
        points = rng.normal(size=(40, 3))
        pairs = np.stack([np.arange(40), rng.integers(0, 5, 40)], axis=1)
        d_min, d_max, v_l, v_u, theta = _cones_bulk(points, pairs, recs)
        diff = np.stack([recs[r].pose.center for r in pairs[:, 1]]) - points
        direction = diff / np.linalg.norm(diff, axis=1)[:, None]
        assert v_l.tobytes() == v_u.tobytes() == direction.tobytes()
        assert not theta.any() and np.array_equal(d_min, d_max)

    def test_symmetric_pair(self):
        # cameras at +-45 degrees about the -z direction
        a = [math.sin(math.radians(45)) * 5, 0, -math.cos(math.radians(45)) * 5]
        b = [-math.sin(math.radians(45)) * 5, 0, -math.cos(math.radians(45)) * 5]
        cone = _cone(np.zeros(3), [self._rec_at("a", a), self._rec_at("b", b)])
        assert math.degrees(cone.theta) == pytest.approx(90.0, abs=1e-9)
        np.testing.assert_allclose(cone.v_m, [0, 0, -1], atol=1e-12)

    def test_matches_exhaustive_pair_search(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            n = rng.integers(2, 9)
            centers = rng.normal(scale=4.0, size=(n, 3))
            X = rng.normal(size=3)
            centers = centers[np.linalg.norm(centers - X, axis=1) > 1e-3]
            if len(centers) < 2:
                continue
            recs = [self._rec_at(f"c{i}", c) for i, c in enumerate(centers)]
            cone = _cone(X, recs)
            # brute-force oracle
            dirs = [(c - X) / np.linalg.norm(c - X) for c in centers]
            dist = [np.linalg.norm(c - X) for c in centers]
            best = 0.0
            pair = (0, 0)
            for i in range(len(dirs)):
                for j in range(i + 1, len(dirs)):
                    ang = math.acos(max(-1.0, min(1.0, float(np.dot(dirs[i], dirs[j])))))
                    if ang > best:
                        best = ang
                        pair = (i, j)
            assert cone.theta == pytest.approx(best, abs=1e-12)
            assert cone.d_min == pytest.approx(min(dist))
            assert cone.d_max == pytest.approx(max(dist))
            if best > 0:
                np.testing.assert_allclose(cone.v_l, dirs[pair[0]], atol=1e-9)
                np.testing.assert_allclose(cone.v_u, dirs[pair[1]], atol=1e-9)
            cone.validate()

    def test_chunks_give_the_bits_of_one_unchunked_call(self, monkeypatch):
        # several hundred points with 1 to 12 contributors each, so chunks
        # of 7 points differ in their padded width from each other and from
        # the whole map's
        rng = np.random.default_rng(17)
        recs = [self._rec_at(f"c{i}", c) for i, c in enumerate(rng.normal(scale=4.0, size=(12, 3)))]
        points = rng.normal(size=(400, 3))
        pairs = np.concatenate([
            np.stack([np.full(k, p), np.sort(rng.choice(12, size=k, replace=False))], axis=1)
            for p, k in enumerate(rng.integers(1, 13, size=len(points)))])
        monkeypatch.setattr(semantic_map, "_CONE_CHUNK_POINTS", len(points))
        whole = _cones_bulk(points, pairs, recs)
        monkeypatch.setattr(semantic_map, "_CONE_CHUNK_POINTS", 7)
        chunked = _cones_bulk(points, pairs, recs)
        assert [c.tobytes() for c in chunked] == [c.tobytes() for c in whole]
        assert (whole[4] == 0).any() and (whole[4] > 0).any()

    def test_map_bisector_is_the_row_norm_formula(self):
        # bitwise on 68,857 rows (canyon-long's map size): unit directions,
        # float32-quantized ones as a MAP1 read gives, opposite pairs whose
        # sum is shorter than the 1e-12 cut, and NaN rows
        rng = np.random.default_rng(40)
        n = 68_857
        v_l, v_u = (v / np.linalg.norm(v, axis=1, keepdims=True)
                    for v in rng.normal(size=(2, n, 3)))
        v_u[:20_000] = v_u[:20_000].astype(np.float32)
        v_u[20_000:20_100] = -v_l[20_000:20_100]
        v_u[20_100:20_200] = -v_l[20_100:20_200] * (1.0 + rng.uniform(-1e-12, 1e-12, (100, 1)))
        v_l[20_200:20_210, 1] = np.nan
        zeros = np.zeros(n)
        dense_map = DenseMap(np.zeros((n, 3)), zeros, v_l, v_u, zeros, zeros, zeros, zeros)
        expected = kernel_oracle.cone_bisectors(v_l, v_u)
        assert dense_map.v_m.dtype == expected.dtype and dense_map.v_m.shape == expected.shape
        assert dense_map.v_m.tobytes() == expected.tobytes()
        assert np.array_equal(dense_map.v_m[20_000:20_100], v_l[20_000:20_100])

    def test_coincident_center_rejected(self):
        rec = self._rec_at("a", [0, 0, 0])
        with pytest.raises(ValueError, match="coincides"):
            _cones_bulk(np.zeros((1, 3)), _one_point_pairs([rec]), [rec])
        with pytest.raises(ValueError, match="coincides"):
            compute_visibility_cone(np.zeros(3), [rec])


class TestBlockBounds:
    def test_bounds_of_blocks_with_nan_and_inf_rows(self):
        # 600 rows: two whole blocks and a short one; a NaN row leaves its
        # block's bounds to the other rows, and a block whose rows all hold
        # NaN in a coordinate is NaN there
        rng = np.random.default_rng(41)
        n = 600
        positions = rng.normal(scale=10.0, size=(n, 3))
        d_max = rng.uniform(1.0, 5.0, n)
        positions[3, 0] = np.nan
        positions[300, 2] = np.inf
        positions[301, 2] = -np.inf
        positions[512:, 1] = np.nan
        d_max[[7, 520]] = np.nan
        d_max[260] = np.inf
        zeros = np.zeros(n)
        v = np.tile([1.0, 0.0, 0.0], (n, 1))
        dense_map = DenseMap(positions, zeros, v, v, zeros, zeros, d_max, zeros)
        low, high, reach = block_bounds(dense_map, semantic_map._BLOCK_ROWS)
        assert low.shape == high.shape == (3, 3) and reach.shape == (3,)
        for name, expected in (("block_low", low), ("block_high", high),
                               ("block_reach", reach)):
            column = getattr(dense_map, name)
            assert column.dtype == np.float64 and column.shape == expected.shape
            assert np.array_equal(column, expected, equal_nan=True), name
        assert np.isfinite(dense_map.block_low[:, 0]).all()
        assert dense_map.block_low[0, 0] == np.fmin.reduce(positions[:256, 0])
        assert (dense_map.block_low[2, 1], dense_map.block_high[2, 1]) == (-np.inf, np.inf)
        assert np.isnan(dense_map.block_low[1, 2]) and np.isnan(dense_map.block_high[1, 2])
        assert dense_map.block_reach[1] == np.inf
        assert dense_map.block_reach[2] == np.fmax.reduce(d_max[512:])

    def test_the_empty_map_has_no_blocks(self):
        empty = DenseMap(*[np.zeros(0)] * 8)
        assert empty.block_low.shape == empty.block_high.shape == (3, 0)
        assert empty.block_reach.shape == (0,)


class TestBuildDenseMap:
    def test_built_map_invariants(self, zero_noise_dataset):
        ds = zero_noise_dataset
        dense_map, stats = build_dense_map(ds.db_records, voxel_size=0.15)
        assert stats.fused_points >= stats.labeled_points >= stats.stable_points
        assert len(dense_map) == stats.stable_points > 0
        validate_map(dense_map, tol=1e-9)
        # theta == 0 exactly when a single distinct camera center contributed
        single = dense_map.support == 1
        assert np.all(dense_map.theta[single] == 0.0)
        assert np.all(dense_map.theta[~single] > 0.0)
        # no unstable or unlabeled classes survive
        assert not np.any(np.isin(dense_map.labels, list(DEFAULT_UNSTABLE_CLASS_IDS)))
        assert np.all(dense_map.labels <= 18)

    def test_bulk_vote_and_cone_match_scalar_ops(self, zero_noise_dataset):
        # replicate the build stages with the per-point oracles
        ds = zero_noise_dataset
        records = ds.db_records[:4]
        cfg = DepthFilterConfig(tau=0.01)
        filtered = [
            dataclasses.replace(rec, depth=filter_depth_map(rec, [records[j] for j in nbs], cfg))
            for rec, nbs in zip(records, select_filter_neighbors(records))
        ]
        fused = fuse_depth_maps(filtered, 0.3)
        dense_map, _ = build_dense_map(records, voxel_size=0.3, filter_cfg=cfg)
        sample = np.linspace(0, len(dense_map) - 1, 40).astype(int)
        for i in sample:
            pt = map_point(dense_map, int(i))
            found = np.nonzero(np.linalg.norm(fused.positions - pt.position, axis=1) < 1e-9)[0]
            assert len(found), "fused point not found"
            recs = [records[j] for j in fused.pairs[fused.pairs[:, 0] == found[0], 1]]
            assert vote_semantic_label(pt.position, recs) == pt.label
            assert len(recs) == pt.support
            cone = compute_visibility_cone(pt.position, recs)
            assert cone.theta == pytest.approx(pt.cone.theta, abs=1e-12)
            assert cone.d_min == pytest.approx(pt.cone.d_min, abs=1e-12)
            assert cone.d_max == pytest.approx(pt.cone.d_max, abs=1e-12)

    def test_unstable_only_scene_yields_empty_map(self, caplog):
        import logging

        K = _K(6, 6, f=8.0)
        p0 = RigidPose.identity()
        p1 = RigidPose(np.eye(3), np.array([0.2, 0, 0]))
        labels = np.full((6, 6), 13, dtype=np.uint8)  # everything is "car"
        r0 = _record("a", K, p0, _plane_depth(K, p0), labels)
        r1 = _record("b", K, p1, _plane_depth(K, p1), labels)
        with caplog.at_level(logging.WARNING, logger="semloc.semantic_map"):
            dense_map, stats = build_dense_map([r0, r1], voxel_size=0.1)
        assert len(dense_map) == 0
        assert stats.stable_points == 0
        assert any("empty" in rec.message for rec in caplog.records)

    def test_filter_removing_every_pixel_yields_empty_map(self):
        K = _K(6, 6, f=8.0)
        p0 = RigidPose.identity()
        p1 = RigidPose(np.eye(3), np.array([0.2, 0, 0]))
        records = [_record("a", K, p0, _plane_depth(K, p0)), _record("b", K, p1, _plane_depth(K, p1))]
        # each record has one filter neighbor, so two confirmations never happen
        with patched_depth_filter(min_consistent=2):
            dense_map, stats = build_dense_map(records, voxel_size=0.1)
        assert len(dense_map) == 0
        assert stats.valid_pixels_before_filter > 0
        assert stats.valid_pixels_after_filter == stats.fused_points == 0

    # scene, depth filter patch, and whether the map is empty
    TWO_STEP_CASES = {
        "canyon": ("zero_noise_dataset", {}, False),
        "two-neighbors": ("zero_noise_dataset", {"neighbor_count": 2}, False),
        # in the session canyon no pixel has two confirming views
        "two-confirmations-empty": ("zero_noise_dataset", {"min_consistent": 2}, True),
        "two-confirmations": ("close_cameras_records", {"min_consistent": 2}, False),
        "unstable-labels": ("relabeled_records", {}, False),
    }

    @pytest.mark.parametrize("case", TWO_STEP_CASES)
    def test_streamed_build_is_the_two_step_build(self, request, case):
        scene, patch, empty = self.TWO_STEP_CASES[case]
        records = request.getfixturevalue(scene)
        records = getattr(records, "db_records", records)
        with patched_depth_filter(**patch):
            streamed, streamed_stats = build_dense_map(records, voxel_size=0.1)
            # filter_depth_map per record, the records rebuilt with their
            # filtered depth, fuse_depth_maps, then the rest of the build
            cfg = DepthFilterConfig()
            filtered = [
                dataclasses.replace(rec, depth=filter_depth_map(rec, [records[j] for j in nbs], cfg))
                for rec, nbs in zip(records, select_filter_neighbors(records))
            ]
            stats = semantic_map.BuildStats(
                valid_pixels_before_filter=int(sum((r.depth > 0).sum() for r in records)),
                valid_pixels_after_filter=int(sum((r.depth > 0).sum() for r in filtered)))
            two_step = semantic_map._map_from_cloud(
                fuse_depth_maps(filtered, 0.1), records, 0.1, DEFAULT_UNSTABLE_CLASS_IDS, stats)
        assert streamed_stats == stats
        assert (stats.valid_pixels_after_filter == 0) == empty
        assert stats.valid_pixels_after_filter < stats.valid_pixels_before_filter
        assert (stats.stable_points < stats.labeled_points) == (case == "unstable-labels")
        for name in ("positions", "labels", "v_l", "v_u", "theta", "d_min", "d_max", "support",
                     "v_m"):
            a, b = getattr(streamed, name), getattr(two_step, name)
            assert (a.dtype, a.shape, a.strides) == (b.dtype, b.shape, b.strides), name
            assert a.tobytes() == b.tobytes(), name

    def test_filter_log_counts_the_views_that_see_no_point(self, zero_noise_dataset, caplog):
        import logging

        records = zero_noise_dataset.db_records
        neighbors = select_filter_neighbors(records)
        blind = 0
        for rec, nbs in zip(records, neighbors):
            world = semantic_map._valid_world_points(rec)[2]
            for j in nbs:
                pose = records[j].pose
                _, depth = semantic_map.project_points(world, pose.rotation, pose.center,
                                                       records[j].intrinsics)
                blind += bool(np.all(depth <= 0.0))
        assert 0 < blind < neighbors.size
        with caplog.at_level(logging.INFO, logger="semloc.semantic_map"):
            _, stats = build_dense_map(records, voxel_size=0.1)
        assert (f"depth filter kept {stats.valid_pixels_after_filter} / "
                f"{stats.valid_pixels_before_filter} pixels; {blind} of {neighbors.size} "
                "neighbor views saw no point") in caplog.messages

    def test_neighbor_selection_nearest(self):
        K = _K()
        recs = [
            _record(f"i{i}", K, RigidPose(np.eye(3), np.array([float(i), 0, 0])),
                    np.full((K.height, K.width), 1.0))
            for i in range(5)
        ]
        with patched_depth_filter(neighbor_count=2):
            nbs = select_filter_neighbors(recs)
        assert nbs.shape == (5, 2) and nbs.dtype == np.int64
        assert nbs[0].tolist() == [1, 2]
        assert nbs[2].tolist() == [1, 3]
        # fewer records than the neighbor count: every other record
        assert select_filter_neighbors(recs[:3]).tolist() == [[1, 2], [0, 2], [1, 0]]

    @pytest.mark.parametrize("count", [4, 7])
    def test_neighbor_selection_matches_the_per_record_rule(self, count):
        # integer centres on a small grid: many records share a centre, so
        # equal distances are common and their order is the stable argsort's
        rng = np.random.default_rng(18)
        K = _K(2, 2)
        centers = rng.integers(0, 3, size=(40, 3)).astype(np.float64)
        recs = [_record(f"i{i}", K, RigidPose(np.eye(3), c), np.full((2, 2), 1.0))
                for i, c in enumerate(centers)]
        assert len(np.unique(centers, axis=0)) < len(centers)
        with patched_depth_filter(neighbor_count=count):
            nbs = select_filter_neighbors(recs)
        assert nbs.shape == (len(recs), count) and nbs.dtype == np.int64
        for i in range(len(recs)):
            order = np.argsort(np.linalg.norm(centers - centers[i], axis=1), kind="stable")
            assert nbs[i].tolist() == [j for j in order if j != i][:count]

    # The build's traced peak may reach this many times the returned map's
    # column bytes plus one record's back-projected float64 points.  The
    # streamed build reads about 1.9 on this scene; holding int64 cells and
    # keys for every pixel at once, as a whole-scene fusion does, reads
    # about 4.
    _PEAK_MULTIPLE = 3

    def test_traced_peak_follows_the_map_not_the_pixels(self, zero_noise_dataset):
        records = zero_noise_dataset.db_records
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            dense_map, _ = build_dense_map(records, voxel_size=0.05)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        columns = sum(getattr(dense_map, c).nbytes for c in (
            "positions", "labels", "v_l", "v_u", "theta", "d_min", "d_max", "support"))
        one_record = records[0].depth.size * 3 * 8
        assert len(dense_map) > 20000
        assert peak < self._PEAK_MULTIPLE * (columns + one_record)
