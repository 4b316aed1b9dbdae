"""Feature matching and 2D-3D lifting tests.

The matcher is checked against an exhaustive double-loop oracle applying
the same mutual-NN / ratio rules; lifted points are checked against the
analytic surface they were rendered from.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from semloc.config import PipelineConfig
from semloc.geometry import CameraIntrinsics, RigidPose, project
from semloc.matching import (
    CorrespondenceBatch,
    FeatureFamily,
    FeatureSet,
    Match2D2D,
    lift_to_3d,
    match_family,
)
from semloc.semantic_map import DatabaseImageRecord

from conftest import pinhole_back_project


def _set(family, descs, locs=None):
    descs = np.asarray(descs, dtype=np.float64)
    if locs is None:
        locs = np.zeros((len(descs), 2))
    return FeatureSet(family=family, locations=locs, descriptors=descs)


def _match_oracle(qd, dd, mutual, ratio):
    """Brute-force reimplementation of the matching rules."""
    out = []
    nq, nd = len(qd), len(dd)
    for i in range(nq):
        dists = [math.dist(qd[i], dd[j]) for j in range(nd)]
        j = int(np.argmin(dists))
        if ratio is not None and nd >= 2:
            second = sorted(dists)[1]
            if not dists[j] < ratio * second:
                continue
        if mutual:
            back = [math.dist(qd[k], dd[j]) for k in range(nq)]
            if int(np.argmin(back)) != i:
                continue
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


class TestMatchFamily:
    def test_identity_sets_match_identically(self):
        fam = FeatureFamily("f", 4)
        rng = np.random.default_rng(0)
        d = rng.normal(size=(10, 4))
        matches = match_family(_set("f", d), _set("f", d.copy()), fam)
        assert sorted((m.query_index, m.db_index) for m in matches) == [(i, i) for i in range(10)]
        assert all(m.distance == 0.0 for m in matches)

    def test_equidistant_rejected_by_ratio(self):
        fam = FeatureFamily("f", 2, use_mutual_nn=False, ratio=0.9)
        q = _set("f", [[0.0, 0.0]])
        db = _set("f", [[1.0, 0.0], [-1.0, 0.0]])
        assert match_family(q, db, fam) == []

    def test_ratio_kept_when_single_candidate(self):
        fam = FeatureFamily("f", 2, use_mutual_nn=False, ratio=0.5)
        q = _set("f", [[0.0, 0.0]])
        db = _set("f", [[1.0, 0.0]])
        assert len(match_family(q, db, fam)) == 1

    @pytest.mark.parametrize("mutual,ratio", [(True, None), (False, None), (True, 0.8), (False, 0.8)])
    def test_matches_bruteforce_oracle(self, mutual, ratio):
        rng = np.random.default_rng(1)
        fam = FeatureFamily("f", 8, use_mutual_nn=mutual, ratio=ratio)
        q = rng.normal(size=(50, 8))
        d = rng.normal(size=(50, 8))
        got = sorted((m.query_index, m.db_index) for m in match_family(_set("f", q), _set("f", d), fam))
        assert got == sorted(_match_oracle(q, d, mutual, ratio))

    def test_injective_on_query_and_db(self):
        rng = np.random.default_rng(2)
        fam = FeatureFamily("f", 4)
        q = rng.normal(size=(40, 4))
        d = rng.normal(size=(25, 4))
        matches = match_family(_set("f", q), _set("f", d), fam)
        qi = [m.query_index for m in matches]
        di = [m.db_index for m in matches]
        assert len(set(qi)) == len(qi)
        assert len(set(di)) == len(di)

    def test_swap_symmetry_under_mutual(self):
        rng = np.random.default_rng(3)
        fam = FeatureFamily("f", 6)
        a = rng.normal(size=(30, 6))
        b = rng.normal(size=(30, 6))
        fwd = {(m.query_index, m.db_index) for m in match_family(_set("f", a), _set("f", b), fam)}
        rev = {(m.db_index, m.query_index) for m in match_family(_set("f", b), _set("f", a), fam)}
        assert fwd == rev

    def test_family_mismatch_rejected(self):
        fam = FeatureFamily("f", 2)
        with pytest.raises(ValueError, match="family"):
            match_family(_set("g", [[0.0, 0.0]]), _set("f", [[0.0, 0.0]]), fam)

    def test_dimension_mismatch_rejected(self):
        fam = FeatureFamily("f", 3)
        with pytest.raises(ValueError, match="dim"):
            match_family(_set("f", [[0.0, 0.0]]), _set("f", [[0.0, 0.0]]), fam)

    def test_empty_sets(self):
        fam = FeatureFamily("f", 2)
        empty = FeatureSet("f", np.zeros((0, 2)), np.zeros((0, 2)))
        assert match_family(empty, _set("f", [[0.0, 1.0]]), fam) == []


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
        res = lift_to_3d([Match2D2D(0, 0, "f", 0.0)], q_set, db)
        c = res.correspondences
        assert len(c) == 1
        np.testing.assert_allclose(c.points[0], [1.0, 0.0, 5.0], atol=1e-12)
        np.testing.assert_allclose(c.pixels[0], [33.0, 44.0])
        assert c.image_ids.tolist() == ["db0"]
        assert c.families.tolist() == ["f"]
        assert c.weights.tolist() == [1.0]

    def test_invalid_depth_dropped(self):
        K = self._K()
        db = _db_record(K, RigidPose.identity(), np.zeros((100, 100)))
        db.features["f"] = _set("f", [[0.0, 0.0]], locs=np.array([[70.0, 50.0]]))
        q_set = _set("f", [[0.0, 0.0]], locs=np.array([[1.0, 1.0]]))
        res = lift_to_3d([Match2D2D(0, 0, "f", 0.0)], q_set, db)
        assert len(res.correspondences) == 0
        assert res.dropped_invalid_depth == 1

    def test_out_of_bounds_dropped_and_counted(self):
        K = self._K()
        db = _db_record(K, RigidPose.identity(), np.ones((100, 100)))
        db.features["f"] = _set("f", [[0.0, 0.0]], locs=np.array([[99.9, 50.0]]))
        q_set = _set("f", [[0.0, 0.0]], locs=np.array([[1.0, 1.0]]))
        res = lift_to_3d([Match2D2D(0, 0, "f", 0.0)], q_set, db)
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
        matches = [Match2D2D(i, i, "f", 0.0) for i in range(40)]
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
            res = lift_to_3d([Match2D2D(i, i, "corner", 0.0)], fs, db)
            if not len(res.correspondences):
                continue
            lifted += 1
            pix = project(res.correspondences.points[0], db.pose, db.intrinsics)
            assert pix is not None
            assert np.max(np.abs(pix - fs.locations[i])) <= 0.5 + 1e-6
        assert lifted > 10


    def test_bitwise_equal_to_per_match_back_projection(self, zero_noise_dataset):
        # every query against every database image, as rendered and with
        # every other depth column invalidated: same kept rows, same dropped
        # counts and bitwise the same points as lifting one match at a time
        # through a scalar round-half-up lookup and pinhole back-projection
        ds = zero_noise_dataset
        cfg = PipelineConfig()
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
                    family = cfg.family_rules(name, q_set.descriptors.shape[1])
                    matches = match_family(q_set, db.features[name], family)
                    res = lift_to_3d(matches, q_set, db)
                    pixels, points, oob, bad = [], [], 0, 0
                    h, w = db.depth.shape
                    for m in matches:
                        loc = db.features[name].locations[m.db_index]
                        px, py = (int(math.floor(v + 0.5)) for v in loc)
                        if not (0 <= px < w and 0 <= py < h):
                            oob += 1
                            continue
                        depth = float(db.depth[py, px])
                        if depth <= 0.0:
                            bad += 1
                            continue
                        pixels.append(q_set.locations[m.query_index])
                        points.append(pinhole_back_project(loc, depth, db.pose, db.intrinsics))
                    assert (res.dropped_out_of_bounds, res.dropped_invalid_depth) == (oob, bad)
                    assert np.array_equal(res.correspondences.points,
                                          np.array(points).reshape(-1, 3))
                    assert np.array_equal(res.correspondences.pixels,
                                          np.array(pixels).reshape(-1, 2))
                    rows += len(points)
                    dropped += oob + bad
        assert rows > 300 and dropped > 0


def _batch(n, family="f", x=1.0, image_id="db0"):
    return CorrespondenceBatch(
        pixels=np.tile([x, 2.0], (n, 1)),
        points=np.tile([0.0, 0.0, 5.0], (n, 1)),
        image_ids=[image_id] * n,
        families=[family] * n,
    )


class TestCorrespondenceBatch:
    def test_non_finite_point_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                CorrespondenceBatch([[1.0, 2.0]], [[0.0, bad, 5.0]], ["db0"], ["f"])

    def test_negative_weight_rejected(self):
        for bad in (-1e-12, np.nan):
            with pytest.raises(ValueError, match="non-negative"):
                CorrespondenceBatch(np.zeros((2, 2)), np.ones((2, 3)), ["a", "a"], ["f", "f"],
                                    weights=[0.5, bad])

    def test_row_count_mismatch_rejected(self):
        cols = dict(pixels=np.zeros((3, 2)), points=np.ones((3, 3)),
                    image_ids=["a"] * 3, families=["f"] * 3, weights=np.ones(3))
        for name, short in (("pixels", np.zeros((2, 2))), ("points", np.ones((2, 3))),
                            ("image_ids", ["a"] * 2), ("families", ["f"] * 2),
                            ("weights", np.ones(2))):
            with pytest.raises(ValueError, match="row count"):
                CorrespondenceBatch(**{**cols, name: short})

    def test_row_selection(self):
        b = CorrespondenceBatch.concat([_batch(2, "f", x=1.0), _batch(3, "g", x=9.0)])
        sel = b[b.families == "g"]
        assert len(sel) == 3
        assert sel.pixels[:, 0].tolist() == [9.0] * 3
        assert b[np.array([4, 0])].families.tolist() == ["g", "f"]


class TestMergeHybrid:
    """Pooling feature families with CorrespondenceBatch.concat."""

    def test_one_empty_family(self):
        a = _batch(3)
        merged = CorrespondenceBatch.concat([a, _batch(0)])
        assert len(merged) == 3
        for col in ("pixels", "points", "image_ids", "families", "weights"):
            assert np.array_equal(getattr(merged, col), getattr(a, col))
        assert len(CorrespondenceBatch.concat([])) == 0

    def test_sizes_add(self):
        merged = CorrespondenceBatch.concat([_batch(10, "f"), _batch(15, "g")])
        assert len(merged) == 25
        assert merged.families.tolist() == ["f"] * 10 + ["g"] * 15

    def test_duplicates_kept(self):
        merged = CorrespondenceBatch.concat([_batch(1, "f", x=7.0), _batch(1, "g", x=7.0)])
        assert len(merged) == 2
        assert merged.pixels[0, 0] == merged.pixels[1, 0] == 7.0


class TestSetWeights:
    """Replacing a batch's weights with dataclasses.replace."""

    def test_replaces_weights(self):
        b = _batch(3)
        out = replace(b, weights=np.array([0.2, 0.3, 0.5]))
        assert out.weights.tolist() == [0.2, 0.3, 0.5]
        assert b.weights.tolist() == [1.0, 1.0, 1.0]  # original untouched

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            replace(_batch(1), weights=np.array([0.5, 0.5]))
