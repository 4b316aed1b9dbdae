"""Feature matching and 2D-3D lifting tests.

The matcher is checked against an exhaustive double-loop oracle applying
the same mutual-NN rule; lifted points are checked against the
analytic surface they were rendered from.
"""

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from semloc.geometry import CameraIntrinsics, RigidPose, back_project_pixels, sample_grid
from semloc.matching import (
    CorrespondenceBatch,
    FeatureSet,
    lift_to_3d,
    match_family,
)
from semloc.pnp import RansacConfig, weighted_ransac_pnp
from semloc.retrieval import GlobalDescriptor
from semloc.semantic_map import (
    INVALID_DEPTH,
    LIFTED,
    OUTSIDE_IMAGE,
    DatabaseImageRecord,
    FusedCloud,
)
from semloc.synthetic import FacadePlane

from conftest import pinhole_back_project, pinhole_project


def _set(family, descs, locs=None):
    descs = np.asarray(descs, dtype=np.float64)
    if locs is None:
        locs = np.zeros((len(descs), 2))
    return FeatureSet(family=family, locations=locs, descriptors=descs)


def _match_oracle(qd, dd):
    """Brute-force reimplementation of the mutual nearest-neighbor rule."""
    out = []
    nq, nd = len(qd), len(dd)
    for i in range(nq):
        j = int(np.argmin([math.dist(qd[i], dd[k]) for k in range(nd)]))
        if int(np.argmin([math.dist(qd[k], dd[j]) for k in range(nq)])) == i:
            out.append((i, j))
    return out


class TestFeatureSet:
    def test_non_finite_location_rejected(self):
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="non-finite"):
                FeatureSet(family="f", locations=[[1.0, 2.0], [bad, 3.0]], descriptors=np.ones((2, 4)))

    def test_non_finite_descriptor_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            FeatureSet(family="f", locations=np.zeros((1, 2)), descriptors=[[0.0, np.nan]])

    def test_descriptors_without_dimensions_rejected(self):
        # such keypoints would all match at distance 0; an empty set keeps
        # dim 0, as the FEA1 writer stores it
        with pytest.raises(ValueError, match="f: descriptors have no dimensions"):
            FeatureSet(family="f", locations=np.zeros((3, 2)), descriptors=np.zeros((3, 0)))
        empty = FeatureSet(family="f", locations=np.zeros((0, 2)), descriptors=np.zeros((0, 0)))
        assert empty.descriptors.shape == (0, 0)

    def test_columns_are_read_only_views(self):
        # a FeatureSet and the other frozen types whose arrays are kept as
        # they are given: (build, given arrays, the fields that hold them)
        K = CameraIntrinsics(fx=1.0, fy=1.0, cx=1.0, cy=1.0, width=3, height=2)
        cases = [
            (lambda a, b: FeatureSet("f", a, b), (np.zeros((3, 2)), np.ones((3, 4))),
             ("locations", "descriptors")),
            (FusedCloud, (np.zeros((3, 3)), np.zeros((4, 2), dtype=np.int64)),
             ("positions", "pairs")),
            (lambda v: GlobalDescriptor("g", v), (np.ones(5),), ("values",)),
            (lambda c, u, v: FacadePlane(c, u, v, label=2),
             (np.zeros(3), np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])),
             ("corner", "edge_u", "edge_v")),
            (lambda labels, g: DatabaseImageRecord("db0", K, RigidPose.identity(),
                                                   np.ones((2, 3)), labels, g),
             (np.zeros((2, 3), dtype=np.uint8), np.ones(4)), ("labels", "global_descriptor")),
        ]
        for build, given, names in cases:
            built = build(*given)
            for name, array in zip(names, given):
                column = getattr(built, name)
                assert np.shares_memory(column, array), name
                with pytest.raises(ValueError, match="read-only"):
                    column[0] = 5
            # the caller's arrays keep their flags
            assert all(array.flags.writeable for array in given)


class TestMatchFamily:
    def test_identity_sets_match_identically(self):
        rng = np.random.default_rng(0)
        d = rng.normal(size=(10, 4))
        matches = match_family(_set("f", d), _set("f", d.copy()))
        assert matches.dtype == np.int64
        assert matches.tolist() == [[i, i] for i in range(10)]

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(1)
        q = rng.normal(size=(50, 8))
        d = rng.normal(size=(50, 8))
        got = sorted(map(tuple, match_family(_set("f", q), _set("f", d)).tolist()))
        assert got == sorted(_match_oracle(q, d))

    def test_injective_on_query_and_db(self):
        rng = np.random.default_rng(2)
        q = rng.normal(size=(40, 4))
        d = rng.normal(size=(25, 4))
        matches = match_family(_set("f", q), _set("f", d))
        qi = matches[:, 0].tolist()
        di = matches[:, 1].tolist()
        assert len(set(qi)) == len(qi)
        assert len(set(di)) == len(di)

    def test_swap_symmetry_under_mutual(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(30, 6))
        b = rng.normal(size=(30, 6))
        fwd = set(map(tuple, match_family(_set("f", a), _set("f", b)).tolist()))
        rev = set(map(tuple, match_family(_set("f", b), _set("f", a))[:, ::-1].tolist()))
        assert fwd == rev

    def test_family_mismatch_rejected(self):
        with pytest.raises(ValueError, match="family"):
            match_family(_set("g", [[0.0, 0.0]]), _set("f", [[0.0, 0.0]]))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dim"):
            match_family(_set("f", [[0.0, 0.0]]), _set("f", [[0.0, 0.0, 0.0]]))

    def test_empty_sets(self):
        empty = FeatureSet("f", np.zeros((0, 2)), np.zeros((0, 2)))
        assert match_family(empty, _set("f", [[0.0, 1.0]])).shape == (0, 2)


def _db_record(K, pose, depth):
    return DatabaseImageRecord(
        image_id="db0", intrinsics=K, pose=pose,
        depth=np.asarray(depth, dtype=np.float32),
        labels=np.full((K.height, K.width), 2, dtype=np.uint8),
    )


class TestLiftTo3D:
    def _K(self):
        return CameraIntrinsics(fx=100.0, fy=100.0, cx=50.0, cy=50.0, width=100, height=100)

    def test_delegates_to_back_projection(self):
        K = self._K()
        depth = np.zeros((100, 100), dtype=np.float32)
        depth[50, 70] = 5.0
        db = _db_record(K, RigidPose.identity(), depth)
        db.features["f"] = _set("f", [[1.0, 1.0]], locs=np.array([[70.0, 50.0]]))
        q_set = _set("f", [[1.0, 1.0]], locs=np.array([[33.0, 44.0]]))
        res = lift_to_3d(np.array([[0, 0]]), q_set, db)
        c = res.correspondences
        assert len(c) == 1
        np.testing.assert_allclose(c.points[0], [1.0, 0.0, 5.0], atol=1e-12)
        np.testing.assert_allclose(c.pixels[0], [33.0, 44.0])

    def test_invalid_depth_dropped(self):
        K = self._K()
        db = _db_record(K, RigidPose.identity(), np.zeros((100, 100)))
        db.features["f"] = _set("f", [[0.0, 0.0]], locs=np.array([[70.0, 50.0]]))
        q_set = _set("f", [[0.0, 0.0]], locs=np.array([[1.0, 1.0]]))
        res = lift_to_3d(np.array([[0, 0]]), q_set, db)
        assert len(res.correspondences) == 0
        assert res.dropped_invalid_depth == 1

    def test_out_of_bounds_dropped_and_counted(self):
        K = self._K()
        db = _db_record(K, RigidPose.identity(), np.ones((100, 100)))
        db.features["f"] = _set("f", [[0.0, 0.0]], locs=np.array([[99.9, 50.0]]))
        q_set = _set("f", [[0.0, 0.0]], locs=np.array([[1.0, 1.0]]))
        res = lift_to_3d(np.array([[0, 0]]), q_set, db)
        # 99.9 rounds to pixel 100, outside the image
        assert len(res.correspondences) == 0
        assert res.dropped_out_of_bounds == 1

    def test_lifted_points_on_generating_plane(self, zero_noise_dataset):
        # fronto-parallel rendering makes the nearest-pixel depth exact, so
        # lifted points must sit on the analytic plane
        K = self._K()
        pose = RigidPose.identity()
        plane_z = 6.0
        depth = np.full((100, 100), np.float32(plane_z))
        db = _db_record(K, pose, depth)
        rng = np.random.default_rng(4)
        locs = rng.uniform(2, 97, size=(40, 2))
        db.features["f"] = _set("f", rng.normal(size=(40, 3)), locs=locs)
        q_set = _set("f", rng.normal(size=(40, 3)), locs=locs)
        matches = np.stack([np.arange(40)] * 2, axis=1)
        res = lift_to_3d(matches, q_set, db)
        assert len(res.correspondences) == 40
        assert np.all(np.abs(res.correspondences.points[:, 2] - plane_z) < 1e-6)

    def test_self_reprojection_within_half_pixel(self, zero_noise_dataset):
        # per-axis deviation bounded by the nearest-pixel depth lookup
        ds = zero_noise_dataset
        db = max(ds.db_records, key=lambda r: len(r.features["corner"]))
        fs = db.features["corner"]
        lifted = 0
        for i in range(len(fs)):
            res = lift_to_3d(np.array([[i, i]]), fs, db)
            if not len(res.correspondences):
                continue
            lifted += 1
            pix = pinhole_project(res.correspondences.points[0], db.pose, db.intrinsics)
            assert pix is not None
            assert np.max(np.abs(pix - fs.locations[i])) <= 0.5 + 1e-6
        assert lifted > 10


    def test_bitwise_equal_to_per_match_back_projection(self, zero_noise_dataset):
        # every query against every database image, as rendered and with
        # every other depth column invalidated: same kept rows, same dropped
        # counts and bitwise the same points as lifting one match at a time
        # through a scalar round-half-up lookup and pinhole back-projection
        ds = zero_noise_dataset
        rows = 0
        dropped = 0
        holed = []
        for db in ds.db_records:
            depth = db.depth.copy()
            depth[:, ::2] = 0.0
            holed.append(replace(db, depth=depth))
        for q in ds.queries:
            for db in list(ds.db_records) + holed:
                for name, q_set in q.features.items():
                    matches = match_family(q_set, db.features[name])
                    res = lift_to_3d(matches, q_set, db)
                    pixels, points, oob, bad = [], [], 0, 0
                    h, w = db.depth.shape
                    for qi, di in matches:
                        loc = db.features[name].locations[di]
                        px, py = (int(math.floor(v + 0.5)) for v in loc)
                        if not (0 <= px < w and 0 <= py < h):
                            oob += 1
                            continue
                        depth = float(db.depth[py, px])
                        if depth <= 0.0:
                            bad += 1
                            continue
                        pixels.append(q_set.locations[qi])
                        points.append(pinhole_back_project(loc, depth, db.pose, db.intrinsics))
                    assert (res.dropped_out_of_bounds, res.dropped_invalid_depth) == (oob, bad)
                    assert np.array_equal(res.correspondences.points,
                                          np.array(points).reshape(-1, 3))
                    assert np.array_equal(res.correspondences.pixels,
                                          np.array(pixels).reshape(-1, 2))
                    rows += len(points)
                    dropped += oob + bad
        assert rows > 300 and dropped > 0


def _lift_alone(fs, k, db):
    """Status and world point of keypoint k lifted on its own: a one-row
    nearest-pixel lookup, which an index grid turns into the flat index of
    the pixel, and a one-row back-projection."""
    loc = fs.locations[k:k + 1]
    h, w = db.depth.shape
    index, inside = sample_grid(np.arange(h * w).reshape(h, w), loc, db.intrinsics, -1)
    if not inside[0]:
        return OUTSIDE_IMAGE, np.full(3, np.nan)
    depth = float(db.depth.reshape(-1)[index[0]])
    if depth <= 0.0:
        return INVALID_DEPTH, np.full(3, np.nan)
    return LIFTED, back_project_pixels(loc, [depth], db.pose, db.intrinsics)[0]


def _holed(db):
    depth = db.depth.copy()
    depth[:, ::2] = 0.0
    return replace(db, depth=depth)


class TestLiftTable:
    def test_rows_equal_lifting_each_keypoint_alone(self, zero_noise_dataset):
        # every record of the dataset, as rendered and with every other
        # depth column invalidated, every family, every keypoint
        statuses = set()
        for rec in zero_noise_dataset.db_records:
            for db in (replace(rec), _holed(rec)):
                for name, fs in db.features.items():
                    table = db.lift_table(name)
                    assert table.points.shape == (len(fs), 3) and table.status.shape == (len(fs),)
                    for k in range(len(fs)):
                        status, point = _lift_alone(fs, k, db)
                        assert table.status[k] == status
                        assert table.points[k].tobytes() == point.tobytes()
                        one = lift_to_3d(np.array([[k, k]]), fs, db)
                        assert len(one.correspondences) == (status == LIFTED)
                        if status == LIFTED:
                            assert one.correspondences.points[0].tobytes() == point.tobytes()
                    statuses.update(table.status.tolist())
        assert statuses >= {LIFTED, INVALID_DEPTH}

    def test_outside_keypoint_status(self):
        K = CameraIntrinsics(fx=100.0, fy=100.0, cx=50.0, cy=50.0, width=100, height=100)
        db = _db_record(K, RigidPose.identity(), np.ones((100, 100)))
        db.features["f"] = _set("f", np.zeros((3, 1)),
                                locs=np.array([[99.9, 50.0], [-0.6, 3.0], [99.4, 99.4]]))
        table = db.lift_table("f")
        assert table.status.tolist() == [OUTSIDE_IMAGE, OUTSIDE_IMAGE, LIFTED]
        assert np.isnan(table.points[:2]).all() and np.isfinite(table.points[2]).all()

    def test_table_is_built_once_and_rebuilt_on_replaced_inputs(self, zero_noise_dataset):
        shared = zero_noise_dataset.db_records[2]
        # a record with no cached table and a features dict of its own
        rec = replace(shared)
        name, fs = next(iter(rec.features.items()))
        table = rec.lift_table(name)
        assert rec.lift_table(name) is table

        def assert_fresh(before, db):
            after = db.lift_table(name)
            assert after is not before
            for k in range(len(db.features[name])):
                status, point = _lift_alone(db.features[name], k, db)
                assert after.status[k] == status
                assert after.points[k].tobytes() == point.tobytes()
            return after

        # the record is frozen: its depth, pose and intrinsics cannot be replaced
        with pytest.raises(FrozenInstanceError):
            rec.depth = _holed(rec).depth
        with pytest.raises(FrozenInstanceError):
            rec.pose = RigidPose(rec.pose.rotation, rec.pose.center + np.array([0.5, 0.0, 0.0]))
        with pytest.raises(FrozenInstanceError):
            rec.intrinsics = replace(rec.intrinsics)
        assert rec.lift_table(name) is table
        # an equal but distinct FeatureSet counts as replaced: identity decides
        rec.features[name] = replace(fs)
        table = assert_fresh(table, rec)
        rec.features[name] = FeatureSet(name, fs.locations[::-1] + 0.25, fs.descriptors[::-1])
        table = assert_fresh(table, rec)
        assert rec.lift_table(name) is table
        assert shared.features[name] is fs
        # a replaced record starts with no table
        assert replace(rec).lift_table(name) is not table

    def test_depth_cannot_be_edited_in_place_after_a_lift(self, zero_noise_dataset):
        depth = zero_noise_dataset.db_records[0].depth.copy()
        rec = replace(zero_noise_dataset.db_records[0], depth=depth)
        name = next(iter(rec.features))
        table = rec.lift_table(name)
        with pytest.raises(ValueError, match="read-only"):
            rec.depth[:] = 0.0
        assert np.shares_memory(rec.depth, depth) and depth.flags.writeable
        assert rec.lift_table(name) is table
        assert np.count_nonzero(table.status == LIFTED) > 0

    def test_a_replaced_copy_has_its_own_features_dict(self, zero_noise_dataset):
        rec = replace(zero_noise_dataset.db_records[1])
        name, fs = next(iter(rec.features.items()))
        table = rec.lift_table(name)
        copy = replace(rec)
        copy.features[name] = FeatureSet(name, fs.locations[::-1], fs.descriptors[::-1])
        assert copy.features is not rec.features
        assert rec.features[name] is fs and rec.lift_table(name) is table

    def test_threads_share_the_lazily_built_tables(self, zero_noise_dataset):
        # a caller that localizes from its own threads lifts through shared
        # records, and the first lifts race to build a record's tables
        expected = {(r.image_id, name): r.lift_table(name)
                    for r in zero_noise_dataset.db_records for name in r.features}
        fresh = [replace(r) for r in zero_noise_dataset.db_records] * 3
        jobs = [(r, name) for r in fresh for name in r.features]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(r.lift_table, name) for r, name in jobs]
                tables = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for (r, name), table in zip(jobs, tables):
            reference = expected[(r.image_id, name)]
            assert table.points.tobytes() == reference.points.tobytes()
            assert table.status.tobytes() == reference.status.tobytes()
            assert r.lift_table(name).points.tobytes() == reference.points.tobytes()

    def test_table_columns_are_read_only(self, zero_noise_dataset):
        rec = zero_noise_dataset.db_records[0]
        table = rec.lift_table(next(iter(rec.features)))
        for column in (table.points, table.status):
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 0


def _batch(n, x=1.0):
    return CorrespondenceBatch(pixels=np.tile([x, 2.0], (n, 1)),
                               points=np.tile([0.0, 0.0, 5.0], (n, 1)))


class TestCorrespondenceBatch:
    def test_non_finite_point_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                CorrespondenceBatch([[1.0, 2.0]], [[0.0, bad, 5.0]])

    def test_row_count_mismatch_rejected(self):
        cols = dict(pixels=np.zeros((3, 2)), points=np.ones((3, 3)))
        for name, short in (("pixels", np.zeros((2, 2))), ("points", np.ones((2, 3)))):
            with pytest.raises(ValueError, match="row count"):
                CorrespondenceBatch(**{**cols, name: short})

    def test_columns_are_read_only(self, zero_noise_dataset):
        pixels, points = np.zeros((3, 2)), np.ones((3, 3))
        built = CorrespondenceBatch(pixels, points)
        q = zero_noise_dataset.queries[0]
        db = zero_noise_dataset.db_records[0]
        name, q_set = next(iter(q.features.items()))
        lifted = lift_to_3d(match_family(q_set, db.features[name]), q_set, db).correspondences
        pooled = CorrespondenceBatch.concat([built, lifted])
        for batch in (built, lifted, pooled, replace(pooled, points=np.zeros((len(pooled), 3)))):
            for col in ("pixels", "points"):
                column = getattr(batch, col)
                assert not column.flags.writeable
                with pytest.raises(ValueError):
                    column[...] = column
        # the caller's arrays stay writeable
        assert pixels.flags.writeable and points.flags.writeable

    def test_assembled_batches_keep_dtypes_and_shapes(self):
        merged = CorrespondenceBatch.concat([_batch(2), _batch(3, x=9.0)])
        for batch in (merged, CorrespondenceBatch.concat([])):
            n = len(batch)
            assert batch.pixels.shape == (n, 2) and batch.pixels.dtype == np.float64
            assert batch.points.shape == (n, 3) and batch.points.dtype == np.float64
        assert merged.pixels[:, 0].tolist() == [1.0] * 2 + [9.0] * 3


class TestMergeHybrid:
    """Pooling feature families with CorrespondenceBatch.concat."""

    def test_one_empty_family(self):
        a = _batch(3)
        merged = CorrespondenceBatch.concat([a, _batch(0)])
        assert len(merged) == 3
        for col in ("pixels", "points"):
            assert np.array_equal(getattr(merged, col), getattr(a, col))
        assert len(CorrespondenceBatch.concat([])) == 0

    def test_sizes_add(self):
        merged = CorrespondenceBatch.concat([_batch(10), _batch(15, x=9.0)])
        assert len(merged) == 25
        assert merged.pixels[:, 0].tolist() == [1.0] * 10 + [9.0] * 15

    def test_duplicates_kept(self):
        merged = CorrespondenceBatch.concat([_batch(1, x=7.0), _batch(1, x=7.0)])
        assert len(merged) == 2
        assert merged.pixels[0, 0] == merged.pixels[1, 0] == 7.0


class TestSetWeights:
    """Sampling weights travel beside a batch, not in it: the batch has no
    weights column, and the final RANSAC, which reads them, checks them."""

    def test_length_mismatch(self):
        assert [f.name for f in fields(CorrespondenceBatch)] == ["pixels", "points"]
        with pytest.raises(TypeError):
            replace(_batch(4), weights=np.full(4, 0.25))
        K = CameraIntrinsics(fx=100.0, fy=100.0, cx=50.0, cy=50.0, width=100, height=100)
        with pytest.raises(ValueError, match="one per row"):
            weighted_ransac_pnp(_batch(4), np.full(5, 0.2), K, RansacConfig(seed=0))
