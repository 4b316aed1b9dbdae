"""Visibility gating, semantic consistency scoring, and weight
normalization tests.

The gate and the score are both re-evaluated per point by a scalar oracle
that reimplements the two visibility inequalities and the projection rule
independently of the vectorized code.  The oracle scans every point, so it
also checks that neither the gate's block test nor its distance pass drops
a row that passes.
"""

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import kernel_oracle
from semloc.geometry import RigidPose
from semloc.matching import CorrespondenceBatch
from semloc.scoring import (
    SemanticScore,
    _scan_span,
    _view_angles,
    _view_distances,
    gate_visible,
    normalize_weights,
    semantic_consistency_score,
)
from semloc.semantic_map import _BLOCK_ROWS, DenseMap, build_dense_map
from conftest import patched_gate_margins, random_pose, rodrigues
from map_oracle import map_point, map_rows

# The gate's distance and angle margins (test_config pins the constants).
MARGINS = (1.2, 0.1)


def _gate_oracle(point, pose, distance_margin, angle_margin):
    """Scalar reimplementation of the distance and angle inequalities."""
    v = pose.center - point.position
    norm = math.sqrt(float(v @ v))
    if norm <= 0.0:
        return False
    if not (point.cone.d_min / distance_margin < norm < point.cone.d_max * distance_margin):
        return False
    c = float(v @ point.cone.v_m) / norm
    ang = math.acos(max(-1.0, min(1.0, c)))
    return ang < point.cone.theta + angle_margin


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


def _oracle_mask(dense_map, pose, distance_margin, angle_margin):
    return np.array(
        [_gate_oracle(map_point(dense_map, i), pose, distance_margin, angle_margin)
         for i in range(len(dense_map))],
        dtype=bool,
    )


def _gated_rows(dense_map, pose):
    """gate_visible's rows, checked to be ascending np.intp indices."""
    rows = gate_visible(dense_map, pose)
    assert rows.dtype == np.intp and rows.ndim == 1
    assert np.all(np.diff(rows) > 0)
    return rows


def _gated_mask(dense_map, pose):
    """Rows of dense_map that gate_visible keeps, as a mask."""
    mask = np.zeros(len(dense_map), dtype=bool)
    mask[_gated_rows(dense_map, pose)] = True
    return mask


def _map_with_cones(positions, d_min, d_max, v_l, v_u):
    """Map of unit-direction cones; theta is the angle between v_l and v_u."""
    v_l = v_l / np.linalg.norm(v_l, axis=1, keepdims=True)
    v_u = v_u / np.linalg.norm(v_u, axis=1, keepdims=True)
    theta = np.arccos(np.clip(np.einsum("ij,ij->i", v_l, v_u), -1.0, 1.0))
    n = len(positions)
    return DenseMap(positions, np.zeros(n), v_l, v_u, theta, d_min, d_max, np.ones(n))


def _at(center):
    return RigidPose(np.eye(3), np.asarray(center, dtype=np.float64))


@st.composite
def gate_cases(draw):
    """A map of up to 12 random cones, a query centre that may sit on one
    of its points, and random margins."""
    n = draw(st.integers(0, 12))
    coord = st.floats(-4.0, 4.0)
    direction = st.floats(-1.0, 1.0).filter(lambda x: abs(x) > 1e-3)
    positions = draw(arrays(np.float64, (n, 3), elements=coord))
    d_min = draw(arrays(np.float64, n, elements=st.floats(0.05, 3.0)))
    stretch = draw(arrays(np.float64, n, elements=st.floats(1.0, 3.0)))
    v_l = draw(arrays(np.float64, (n, 3), elements=direction))
    v_u = draw(arrays(np.float64, (n, 3), elements=direction))
    dense_map = _map_with_cones(positions, d_min, d_min * stretch, v_l, v_u)
    if n and draw(st.booleans()):
        center = positions[draw(st.integers(0, n - 1))]
    else:
        center = np.array([draw(coord) for _ in range(3)])
    margins = (draw(st.floats(1.0, 2.0)), draw(st.floats(0.0, 0.5)))
    return dense_map, _at(center), margins


def _on_a_face(draw, dense_map, rng):
    """A finite query centre on a face of one block's bounding box: on one
    axis at the box's low or high bound, on each other axis at a bound or
    inside the box."""
    j = draw(st.integers(0, len(dense_map.block_reach) - 1))
    face = draw(st.integers(0, 2))
    low, high = dense_map.block_low[:, j], dense_map.block_high[:, j]
    center = np.where(rng.random(3) < 0.5, low, high)
    with np.errstate(invalid="ignore"):
        inside = low + rng.random(3) * (high - low)
    center = np.where((rng.random(3) < 0.5) & (np.arange(3) != face), inside, center)
    return np.where(np.isfinite(center), center, 0.0)


@st.composite
def spread_gate_cases(draw):
    """A map of 300 to 3,000 rows, never a whole number of blocks, laid
    out along one axis so that a query near one part of it leaves other
    blocks out of reach.  Some rows hold NaN or +-inf in a coordinate or in
    d_max, and one block may hold NaN in every row of a coordinate.  The
    query centre sits on a face of a block's bounding box, on a row, or
    anywhere along the map; the margins are random."""
    n = draw(st.integers(300, 3000).filter(lambda n: n % _BLOCK_ROWS != 0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    axis = draw(st.integers(0, 2))
    spacing = draw(st.floats(0.01, 0.5))
    positions = rng.uniform(-2.0, 2.0, size=(n, 3))
    positions[:, axis] = np.arange(n) * spacing + rng.uniform(-1.0, 1.0, n)
    d_min = rng.uniform(0.05, 2.0, n)
    d_max = d_min * rng.uniform(1.0, 3.0, n)
    for value in (np.nan, np.inf, -np.inf):
        rows = rng.choice(n, draw(st.integers(0, 6)), replace=False)
        positions[rows, rng.integers(0, 3, len(rows))] = value
        d_max[rng.choice(n, draw(st.integers(0, 6)), replace=False)] = value
    if draw(st.booleans()):
        j = int(rng.integers(0, -(-n // _BLOCK_ROWS)))
        positions[j * _BLOCK_ROWS:(j + 1) * _BLOCK_ROWS, rng.integers(0, 3)] = np.nan
    dense_map = _map_with_cones(positions, d_min, d_max, rng.normal(size=(n, 3)),
                                rng.normal(size=(n, 3)))
    where = draw(st.sampled_from(["face", "row", "along"]))
    if where == "face":
        center = _on_a_face(draw, dense_map, rng)
    elif where == "row":
        center = positions[draw(st.integers(0, n - 1))]
        center = np.where(np.isfinite(center), center, 0.0)
    else:
        center = rng.uniform(-2.0, 2.0, 3)
        center[axis] = rng.uniform(-10.0, n * spacing + 10.0)
    margins = (draw(st.floats(1.0, 2.0)), draw(st.floats(0.0, 0.5)))
    return dense_map, _at(center), margins


def _long_map(n=3000, spacing=0.1):
    """n rows 0.1 m apart along x with cones that admit every direction
    from 0.5 / 1.2 m up to at most 5 m * 1.2."""
    rng = np.random.default_rng(40)
    positions = np.zeros((n, 3))
    positions[:, 0] = np.arange(n) * spacing
    positions[:, 1:] = rng.uniform(-1.0, 1.0, size=(n, 2))
    d_min = rng.uniform(0.5, 2.0, n)
    x = np.tile([1.0, 0.0, 0.0], (n, 1))
    return _map_with_cones(positions, d_min, d_min * 2.5, x, -x)


@pytest.fixture(scope="module")
def built_map(zero_noise_dataset):
    dense_map, _ = build_dense_map(zero_noise_dataset.db_records, voxel_size=0.12)
    return dense_map


class TestGateVisible:
    def test_query_at_contributing_camera_passes(self, zero_noise_dataset, built_map):
        # default margins admit the exact database viewpoints
        ds = zero_noise_dataset
        rec = ds.db_records[3]
        gated = gate_visible(built_map, rec.pose)
        assert len(gated) > 0
        # points contributed by this camera pass; verify on a sampled subset
        mask = _gated_mask(built_map, rec.pose)
        oracle = [_gate_oracle(map_point(built_map, i), rec.pose, *MARGINS) for i in range(0, len(built_map), 37)]
        assert [bool(mask[i]) for i in range(0, len(built_map), 37)] == oracle

    def test_far_away_query_rejected(self, built_map):
        far = RigidPose(np.eye(3), np.array([0.0, 0.0, -500.0]))
        gated = gate_visible(built_map, far)
        assert len(gated) == 0

    def test_matches_oracle_random_poses(self, built_map):
        rng = np.random.default_rng(21)
        sub = map_rows(built_map, np.arange(0, len(built_map), 11))
        for _ in range(12):
            pose = RigidPose(
                rodrigues(rng.normal(size=3), rng.uniform(0, math.pi)),
                np.array([rng.uniform(-3, 3), rng.uniform(-3, 0), rng.uniform(0, 18)]),
            )
            mask = _gated_mask(sub, pose)
            oracle = _oracle_mask(sub, pose, *MARGINS)
            assert np.array_equal(mask, oracle)

    def test_subset_and_margin_monotonicity(self, built_map):
        pose = RigidPose(np.eye(3), np.array([0.3, -1.5, 5.0]))
        with patched_gate_margins(1.05, 0.02):
            small = _gated_mask(built_map, pose)
        with patched_gate_margins(1.5, 0.3):
            big = _gated_mask(built_map, pose)
        assert not np.any(small & ~big)  # larger margins never remove points
        assert small.sum() <= big.sum() <= len(built_map)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(gate_cases())
    def test_random_maps_match_oracle(self, case):
        dense_map, pose, margins = case
        expected = np.flatnonzero(_oracle_mask(dense_map, pose, *margins))
        with patched_gate_margins(*margins):
            assert np.array_equal(_gated_rows(dense_map, pose), expected)

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(spread_gate_cases())
    def test_maps_of_many_blocks_match_oracle(self, case):
        # the block test skips rows; every row it skips must fail the oracle
        dense_map, pose, margins = case
        expected = np.flatnonzero(_oracle_mask(dense_map, pose, *margins))
        with patched_gate_margins(*margins):
            assert np.array_equal(_gated_rows(dense_map, pose), expected)

    def test_a_query_at_one_end_scans_the_blocks_near_it(self):
        # the cone reaches at most 5 m * 1.2: of a 300 m map, a query at one
        # end scans only the first blocks, and at the middle a span around it
        long_map = _long_map()
        n = len(long_map)
        for x in (0.0, 150.0, 299.9):
            a, b = _scan_span(long_map, np.array([x, 0.0, 0.0]))
            assert b - a <= n // 2
            assert a <= x / 0.1 < b
            rows = _gated_rows(long_map, _at([x, 0.0, 0.0]))
            assert len(rows) > 0 and a <= rows[0] and rows[-1] < b
            assert np.array_equal(rows, np.flatnonzero(
                _oracle_mask(long_map, _at([x, 0.0, 0.0]), *MARGINS)))
        assert _scan_span(long_map, np.zeros(3))[0] == 0

    def test_a_query_no_block_reaches_gets_no_rows(self):
        long_map = _long_map()
        for center in ([-50.0, 0.0, 0.0], [150.0, 40.0, 0.0], [1e6, 1e6, 1e6]):
            assert _scan_span(long_map, np.array(center)) == (0, 0)
            rows = _gated_rows(long_map, _at(center))
            assert rows.dtype == np.intp and rows.shape == (0,)

    def test_empty_map(self):
        empty = DenseMap(*[np.zeros(0)] * 8)
        assert _scan_span(empty, np.array([1.0, 2.0, 3.0])) == (0, 0)
        assert len(_gated_rows(empty, _at([1.0, 2.0, 3.0]))) == 0

    def test_one_point_map(self):
        # the cone looks along -x from the point, 2 to 4 m out
        one = _map_with_cones(np.zeros((1, 3)), [2.0], [4.0], -np.eye(3)[:1], -np.eye(3)[:1])
        assert _gated_rows(one, _at([-3.0, 0.0, 0.0])).tolist() == [0]
        assert len(gate_visible(one, _at([3.0, 0.0, 0.0]))) == 0  # behind the cone
        assert len(gate_visible(one, _at([-6.0, 0.0, 0.0]))) == 0  # beyond d_max * m

    def test_query_centre_on_map_point(self, built_map):
        # distance 0 has no direction and is rejected; the other rows still
        # gate as the oracle says
        sub = map_rows(built_map, np.arange(0, len(built_map), 7))
        pose = _at(sub.positions[5])
        with patched_gate_margins(1.5, 0.5):
            mask = _gated_mask(sub, pose)
        assert not mask[5]
        assert mask.any()
        assert np.array_equal(mask, _oracle_mask(sub, pose, 1.5, 0.5))

    @pytest.mark.parametrize("m", [1.0, 1.2, 1.7])
    def test_distance_bound_to_the_ulp(self, m):
        # the point with the largest d_max sits on an axis through the query
        # centre, so its distance is exact: one ulp inside d_max * m passes,
        # one ulp outside fails
        reach = 9.7 * m
        for step, passes in ((-np.inf, True), (np.inf, False)):
            x = np.nextafter(reach, step)
            positions = np.array([[x, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, -2.0, 1.0]])
            dense_map = _map_with_cones(
                positions, [0.5, 0.5, 0.5], [9.7, 3.0, 3.0], -positions, -positions,
            )
            with patched_gate_margins(distance=m):
                mask = _gated_mask(dense_map, _at(np.zeros(3)))
            assert mask.tolist() == [passes, True, True]
            assert np.array_equal(mask, _oracle_mask(dense_map, _at(np.zeros(3)), m, MARGINS[1]))

    def test_threads_gating_one_map_get_the_serial_rows(self, zero_noise_dataset, built_map):
        # a caller that localizes from its own threads gates one map from
        # each of them; the gate keeps no state, so every thread gets the
        # serial rows
        poses = [rec.pose for rec in zero_noise_dataset.db_records] * 2
        expected = [gate_visible(built_map, pose) for pose in poses]
        fresh = map_rows(built_map, np.arange(len(built_map)))  # a copy never gated
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                gated = list(pool.map(lambda pose: gate_visible(fresh, pose), poses))
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(g, e) for g, e in zip(gated, expected))

    def test_distant_copy_changes_nothing(self, zero_noise_dataset, built_map):
        # a second canyon farther off than any cone reaches: the result of
        # a gate stays that of the map the query is in
        reach = built_map.d_max.max() * MARGINS[0]
        extent = np.ptp(built_map.positions, axis=0).max()
        offset = np.array([3.0 * (reach + extent), 0.0, 0.0])
        doubled = DenseMap(
            np.concatenate([built_map.positions, built_map.positions + offset]),
            *(np.concatenate([col, col]) for col in (
                built_map.labels, built_map.v_l, built_map.v_u, built_map.theta,
                built_map.d_min, built_map.d_max, built_map.support,
            )),
        )
        poses = [rec.pose for rec in zero_noise_dataset.db_records[::3]]
        poses += list(zero_noise_dataset.gt_poses.values())[:3]
        for pose in poses:
            original = gate_visible(built_map, pose)
            assert len(original) > 0
            assert np.array_equal(gate_visible(doubled, pose), original)

    def test_distances_and_angles_match_the_row_oracle(self):
        # bitwise on 10^5 rows, from row-major and from column-major (the
        # map's) positions; a column dot product summed in another order
        # than einsum's differs from it on a large share of them
        rng = np.random.default_rng(38)
        n = 100_000
        row_major = rng.normal(scale=20.0, size=(n, 3))
        bisectors = rng.normal(size=(n, 3))
        bisectors /= np.linalg.norm(bisectors, axis=1, keepdims=True)
        for center in (rng.normal(scale=20.0, size=3), row_major[17].copy()):
            old_dist, old_angle = kernel_oracle.view_distances_and_angles(
                row_major, bisectors, center)
            for positions in (row_major, np.asfortranarray(row_major)):
                dist = _view_distances(positions, center)
                assert np.array_equal(dist, old_dist)
                # the angles on rows gathered as the gate gathers them
                seen = np.flatnonzero(dist > 0.0)
                assert len(seen) >= n - 1
                v = center - positions[seen]
                assert v.flags.c_contiguous
                angle = _view_angles(v, dist[seen], bisectors[seen])
                assert np.array_equal(angle, old_angle[seen])


class TestSemanticConsistencyScore:
    def test_ground_truth_pose_fully_consistent(self, zero_noise_dataset, built_map):
        ds = zero_noise_dataset
        qid, pose = next(iter(ds.gt_poses.items()))
        q = next(q for q in ds.queries if q.image_id == qid)
        rows = gate_visible(built_map, pose)
        score = semantic_consistency_score(built_map, rows, pose, q.intrinsics, q.labels)
        assert score.projected > 50
        # labels rendered from the same geometry: perfect agreement
        assert score.consistent == score.projected

    def test_far_off_pose_scores_zero(self, zero_noise_dataset, built_map):
        ds = zero_noise_dataset
        q = ds.queries[0]
        off = RigidPose(np.eye(3), np.array([0.0, 0.0, 1e5]))
        rows = gate_visible(built_map, off)
        score = semantic_consistency_score(built_map, rows, off, q.intrinsics, q.labels)
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
            rows = gate_visible(built_map, pose)
            score = semantic_consistency_score(built_map, rows, pose, q.intrinsics, q.labels)
            c, p = _score_oracle(map_rows(built_map, rows), pose, q.intrinsics, q.labels)
            assert (score.consistent, score.projected) == (c, p)
            assert 0 <= score.consistent <= score.projected <= len(rows)

    def test_rows_score_as_a_gathered_copy(self, zero_noise_dataset, built_map):
        # the score reads the map at the rows it is given: any row set,
        # sorted or not, the empty one and a single row, counts as the
        # whole of a map built from those rows' gathered columns
        q = zero_noise_dataset.queries[2]
        pose = zero_noise_dataset.gt_poses[q.image_id]
        rng = np.random.default_rng(26)
        n = len(built_map)
        row_sets = [np.array([], dtype=np.intp), np.array([int(rng.integers(n))]),
                    gate_visible(built_map, pose)]
        for size in (2, 50, n // 3, n):
            drawn = rng.choice(n, size=size, replace=False)
            row_sets += [drawn, np.sort(drawn)]
        consistent = 0
        for rows in row_sets:
            score = semantic_consistency_score(built_map, rows, pose, q.intrinsics, q.labels)
            gathered = map_rows(built_map, rows)
            whole = semantic_consistency_score(gathered, np.arange(len(gathered)), pose,
                                               q.intrinsics, q.labels)
            assert score == whole
            assert (score.consistent, score.projected) == _score_oracle(
                gathered, pose, q.intrinsics, q.labels)
            consistent += score.consistent
        assert consistent > 0

    def test_unlabeled_pixels_excluded(self, built_map, zero_noise_dataset):
        ds = zero_noise_dataset
        q = ds.queries[0]
        pose = ds.gt_poses[q.image_id]
        rows = gate_visible(built_map, pose)
        blank = np.full_like(q.labels, 255)
        score = semantic_consistency_score(built_map, rows, pose, q.intrinsics, blank)
        assert score.consistent == score.projected == 0

    def test_discriminates_ground_truth_from_displaced(self, zero_noise_dataset, built_map):
        # score at GT >= score displaced by >= 2 m, in at least 95% of trials
        ds = zero_noise_dataset
        rng = np.random.default_rng(24)
        wins = 0
        trials = 100
        for t in range(trials):
            q = ds.queries[t % len(ds.queries)]
            gt = ds.gt_poses[q.image_id]
            rows = gate_visible(built_map, gt)
            s_gt = semantic_consistency_score(built_map, rows, gt, q.intrinsics,
                                              q.labels).consistent
            offset = rng.normal(size=3)
            offset = offset / np.linalg.norm(offset) * rng.uniform(2.0, 4.0)
            disp = RigidPose(gt.rotation, gt.center + offset)
            rows_d = gate_visible(built_map, disp)
            s_d = semantic_consistency_score(built_map, rows_d, disp, q.intrinsics,
                                             q.labels).consistent
            if s_gt >= s_d:
                wins += 1
        assert wins >= 95


class TestNormalizeWeights:
    def _batches(self, *lengths):
        """One batch per image, of the given row counts."""
        return [CorrespondenceBatch(np.zeros((n, 2)), np.ones((n, 3))) for n in lengths]

    def test_basic_proportions(self):
        scores = [SemanticScore(10, 20), SemanticScore(30, 40)]
        out = normalize_weights(scores, self._batches(1, 1))
        assert type(out) is np.ndarray and out.dtype == np.float64
        assert out.tolist() == pytest.approx([0.25, 0.75])

    def test_all_zero_scores_fall_back_to_uniform(self):
        scores = [SemanticScore(0, 5), SemanticScore(0, 9)]
        out = normalize_weights(scores, self._batches(1, 2))
        assert out.tolist() == pytest.approx([1 / 3] * 3)

    def test_per_match_normalization(self):
        # A scores 10 with 2 matches, B scores 10 with 1 match: the sum runs
        # over matches, so every match weighs 10 / 30 = 1/3
        scores = [SemanticScore(10, 10), SemanticScore(10, 10)]
        out = normalize_weights(scores, self._batches(2, 1))
        assert out.tolist() == pytest.approx([1 / 3, 1 / 3, 1 / 3])

    def test_rows_take_their_batch_score_in_pooled_order(self):
        # rows follow CorrespondenceBatch.concat(batches), and an image with
        # no rows takes no weight
        scores = [SemanticScore(1, 9), SemanticScore(5, 9), SemanticScore(0, 9),
                  SemanticScore(2, 9)]
        out = normalize_weights(scores, self._batches(2, 0, 1, 3))
        assert out.tolist() == pytest.approx([1 / 8, 1 / 8, 0.0, 2 / 8, 2 / 8, 2 / 8])

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(25)
        scores = [SemanticScore(int(rng.integers(0, 100)), 100) for _ in range(8)]
        batches = self._batches(*(int(n) for n in rng.integers(0, 16, size=8)))
        if sum(s.consistent for s, b in zip(scores, batches) if len(b)) == 0:
            pytest.skip("degenerate draw")
        out = normalize_weights(scores, batches)
        assert abs(out.sum() - 1.0) < 1e-12

    def test_scale_invariance(self):
        scores1 = [SemanticScore(3, 10), SemanticScore(9, 10)]
        scores7 = [SemanticScore(21, 70), SemanticScore(63, 70)]
        batches = self._batches(1, 2)
        w1 = normalize_weights(scores1, batches).tolist()
        w7 = normalize_weights(scores7, batches).tolist()
        assert w1 == pytest.approx(w7, rel=1e-12)

    def test_score_and_batch_counts_must_match(self):
        scores = [SemanticScore(1, 1)]
        for lengths in ((), (1, 1)):
            with pytest.raises(ValueError, match="one semantic score per batch"):
                normalize_weights(scores, self._batches(*lengths))


class TestConfigValidation:
    def test_score_invariant(self):
        with pytest.raises(ValueError):
            SemanticScore(consistent=3, projected=2)
