"""Projection, back-projection, and pose-error metric tests.

Expected values are hand-computed or recomputed by independent oracles
(Rodrigues construction, componentwise norms).
"""

import math

import numpy as np
import pytest

import kernel_oracle
from semloc.geometry import (
    CameraIntrinsics,
    PoseError,
    RigidPose,
    back_project_pixels,
    matrix_to_quaternion,
    position_error_m,
    project_points,
    quaternion_to_matrix,
    rotation_error_deg,
    sample_grid,
)

from conftest import (default_intrinsics, pinhole_back_project, pinhole_project, random_pose,
                      rodrigues)


def _simple_K():
    return CameraIntrinsics(fx=100.0, fy=100.0, cx=50.0, cy=50.0, width=100, height=100)


def _project_one(point):
    """project_points' pixel and depth of one world point under the identity
    pose and _simple_K."""
    pixels, depth = project_points(np.reshape(point, (1, 3)), np.eye(3), np.zeros(3), _simple_K())
    return pixels[0], depth[0]


class TestProject:
    def test_on_optical_axis(self):
        p, _ = _project_one([0.0, 0.0, 5.0])
        np.testing.assert_allclose(p, [50.0, 50.0], atol=0)

    def test_off_axis(self):
        # 100 * 1/5 + 50 = 70
        p, _ = _project_one([1.0, 0.0, 5.0])
        np.testing.assert_allclose(p, [70.0, 50.0], atol=0)

    def test_behind_camera_is_none(self):
        p, depth = _project_one([0.0, 0.0, -1.0])
        assert depth <= 0.0 and np.isnan(p).all()

    def test_on_camera_plane_is_none(self):
        p, depth = _project_one([1.0, 1.0, 0.0])
        assert depth <= 0.0 and np.isnan(p).all()

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(5)
        K = default_intrinsics()
        pose = random_pose(rng)
        pts = rng.normal(scale=4.0, size=(100, 3))
        pixels, depth = project_points(pts, pose.rotation, pose.center, K)
        for i in range(len(pts)):
            single = pinhole_project(pts[i], pose, K)
            assert depth[i] == pytest.approx((pose.rotation @ (pts[i] - pose.center))[2])
            if single is None:
                assert depth[i] <= 0 and np.isnan(pixels[i]).all()
            else:
                assert depth[i] > 0
                # matmul and scalar dot may differ in the last ulp
                np.testing.assert_allclose(pixels[i], single, rtol=1e-12, atol=1e-9)

    def test_stacked_poses_match_one_pose_at_a_time(self):
        # M poses against N points in one call: bitwise the per-pose rows
        rng = np.random.default_rng(8)
        K = default_intrinsics()
        poses = [random_pose(rng) for _ in range(5)]
        pts = rng.normal(scale=4.0, size=(60, 3))
        R = np.stack([p.rotation for p in poses])
        C = np.stack([p.center for p in poses])
        pixels, depth = project_points(pts, R, C, K)
        assert pixels.shape == (5, 60, 2) and depth.shape == (5, 60)
        for m, pose in enumerate(poses):
            one_pixels, one_depth = project_points(pts, pose.rotation, pose.center, K)
            assert np.array_equal(pixels[m], one_pixels, equal_nan=True)
            assert np.array_equal(depth[m], one_depth)

    def test_rows_do_not_depend_on_the_row_count(self):
        # a row is bitwise the same in every call of two or more rows, also
        # when each of M stacked poses projects its own points; a one-row
        # call may differ from it in the last bit
        rng = np.random.default_rng(9)
        K = default_intrinsics()
        pose = random_pose(rng)
        pts = rng.normal(scale=4.0, size=(400, 3))
        pixels, depth = project_points(pts, pose.rotation, pose.center, K)
        for n in range(2, 401):
            sub_pixels, sub_depth = project_points(pts[:n], pose.rotation, pose.center, K)
            assert np.array_equal(sub_pixels, pixels[:n], equal_nan=True)
            assert np.array_equal(sub_depth, depth[:n])
        poses = [random_pose(rng) for _ in range(4)]
        stacked = rng.normal(scale=4.0, size=(4, 50, 3))
        pixels, depth = project_points(stacked, np.stack([p.rotation for p in poses]),
                                       np.stack([p.center for p in poses]), K)
        for m, one in enumerate(poses):
            for n in (2, 3, 31, 50):
                sub_pixels, sub_depth = project_points(stacked[m, :n], one.rotation, one.center, K)
                assert np.array_equal(sub_pixels, pixels[m, :n], equal_nan=True)
                assert np.array_equal(sub_depth, depth[m, :n])


def _back_project_one(pixel, depth):
    """back_project_pixels' world point of one pixel and depth under the
    identity pose and _simple_K."""
    return back_project_pixels(np.reshape(pixel, (1, 2)), [depth], RigidPose.identity(),
                               _simple_K())[0]


class TestBackProject:
    def test_principal_point(self):
        X = _back_project_one([50.0, 50.0], 5.0)
        np.testing.assert_allclose(X, [0.0, 0.0, 5.0], atol=0)

    def test_off_axis(self):
        X = _back_project_one([70.0, 50.0], 5.0)
        np.testing.assert_allclose(X, [1.0, 0.0, 5.0], atol=1e-15)

    @pytest.mark.parametrize("depth", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_depth(self, depth):
        with pytest.raises(ValueError):
            _back_project_one([50.0, 50.0], depth)

    def test_roundtrip_property(self):
        # back_project_pixels of (q, d), projected by the scalar oracle, is q
        # within 1e-9 px, and is the oracle's back-projection within 1e-9 m
        rng = np.random.default_rng(11)
        K = default_intrinsics()
        worst_px = worst_m = 0.0
        for _ in range(200):
            pose = random_pose(rng)
            pix = np.array([rng.uniform(0, K.width), rng.uniform(0, K.height)])
            d = rng.uniform(0.1, 50.0)
            back = back_project_pixels(pix[None], [d], pose, K)[0]
            forward = pinhole_project(back, pose, K)
            worst_px = max(worst_px, float(np.linalg.norm(forward - pix)))
            oracle = pinhole_back_project(pix, d, pose, K)
            worst_m = max(worst_m, float(np.linalg.norm(back - oracle)))
        assert worst_px < 1e-9
        assert worst_m < 1e-9

    def test_roundtrip_bulk(self):
        rng = np.random.default_rng(12)
        K = default_intrinsics()
        for _ in range(20):
            pose = random_pose(rng)
            pix = np.stack([rng.uniform(0, K.width, 500), rng.uniform(0, K.height, 500)], axis=1)
            d = rng.uniform(0.1, 50.0, 500)
            world = back_project_pixels(pix, d, pose, K)
            out, depth = project_points(world, pose.rotation, pose.center, K)
            assert (depth > 0).all()
            assert np.max(np.linalg.norm(out - pix, axis=1)) < 1e-9


def _sample_alone(grid, x, y, fill):
    """Scalar round-half-up lookup of one continuous pixel."""
    if not (math.isfinite(x) and math.isfinite(y)):
        return fill, False
    i, j = math.floor(x + 0.5), math.floor(y + 0.5)
    h, w = grid.shape
    if 0 <= i < w and 0 <= j < h:
        return grid[j, i], True
    return fill, False


class TestSampleGrid:
    @pytest.mark.parametrize("dtype, fill", [(np.float32, -7.0), (np.uint8, 255)])
    def test_matches_a_scalar_round_half_up_loop(self, dtype, fill):
        K = CameraIntrinsics(fx=50.0, fy=50.0, cx=20.0, cy=15.0, width=40, height=30)
        rng = np.random.default_rng(14)
        grid = rng.integers(0, 200, size=(30, 40)).astype(dtype)
        random = rng.uniform(-3.0, 43.0, size=(500, 2))
        halves = rng.integers(-2, 42, size=(300, 2)) + 0.5
        edges = [[-0.5, 3.0], [3.0, -0.5], [39.5, 3.0], [3.0, 29.5], [39.4999, 29.4999],
                 [-0.5000001, 3.0], [-0.5, -0.5]]
        nonfinite = [[np.nan, 3.0], [3.0, np.nan], [np.inf, 3.0], [3.0, -np.inf]]
        pixels = np.concatenate([random, halves, edges, nonfinite])
        values, inside = sample_grid(grid, pixels, K, fill)
        assert values.dtype == grid.dtype and values.shape == inside.shape == (len(pixels),)
        expected = [_sample_alone(grid, x, y, fill) for x, y in pixels.tolist()]
        assert values.tolist() == [v for v, _ in expected]
        assert inside.tolist() == [ok for _, ok in expected]
        assert np.all(values[~inside] == grid.dtype.type(fill))
        # -0.5 rounds to pixel 0 and W - 0.5 to pixel W
        assert inside[800:807].tolist() == [True, True, False, False, True, False, True]
        assert not inside[807:].any()
        assert 0 < inside.sum() < len(pixels)

    def test_empty(self):
        values, inside = sample_grid(np.zeros((3, 4), dtype=np.uint8), np.zeros((0, 2)),
                                     CameraIntrinsics(10.0, 10.0, 2.0, 1.0, 4, 3), 255)
        assert values.shape == inside.shape == (0,) and values.dtype == np.uint8

    @pytest.mark.parametrize("shape", [(20, 30), (4, 5)], ids=["larger", "smaller"])
    def test_a_grid_of_another_size_is_refused(self, shape):
        # a larger grid would be read at the wrong pixels and a smaller one
        # out of bounds; both name the grid's shape and the image's
        K = CameraIntrinsics(fx=10.0, fy=10.0, cx=5.0, cy=4.0, width=10, height=8)
        grid = np.arange(np.prod(shape)).reshape(shape).astype(np.uint8)
        with pytest.raises(ValueError, match=rf"\({shape[0]}, {shape[1]}\).*\(8, 10\)"):
            sample_grid(grid, np.array([[9.0, 7.0]]), K, 255)


# ── Column kernels against the row-major oracles ─────────────────────────


def _same(a, b):
    """Bitwise equal arrays of one dtype and shape: NaN rows, and the sign
    of zeros, included."""
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


def _same_projection(points, rotation, center, K):
    new = project_points(points, rotation, center, K)
    old = kernel_oracle.project_points(points, rotation, center, K)
    return all(_same(a, b) for a, b in zip(new, old))


class TestColumnKernels:
    def test_project_points_matches_the_row_oracle(self):
        rng = np.random.default_rng(33)
        K = default_intrinsics()
        for _ in range(40):
            pose = random_pose(rng)
            pts = rng.normal(scale=4.0, size=(int(rng.integers(0, 300)), 3))
            assert _same_projection(pts, pose.rotation, pose.center, K)
        pose = random_pose(rng)
        for n in (0, 1, 2, 3):
            assert _same_projection(rng.normal(scale=4.0, size=(n, 3)), pose.rotation,
                                    pose.center, K)

    def test_rows_behind_and_on_the_camera_plane(self):
        # under the identity pose camera z is the point's z, exactly
        K = default_intrinsics()
        pts = np.array([[1.0, 2.0, 0.0], [0.0, 0.0, -0.0], [3.0, -1.0, -2.0], [1.0, 1.0, 5.0],
                        [-1.0, 0.5, 1e-300], [2.0, 2.0, -1e-300]])
        assert _same_projection(pts, np.eye(3), np.zeros(3), K)
        pixels, depth = project_points(pts, np.eye(3), np.zeros(3), K)
        assert np.isnan(pixels[[0, 1, 2, 5]]).all() and np.isfinite(pixels[[3, 4]]).all()

    def test_stacked_poses_and_stacked_points(self):
        rng = np.random.default_rng(34)
        K = default_intrinsics()
        for m, n in ((1, 1), (3, 1), (3, 2), (5, 64), (4, 0)):
            poses = [random_pose(rng) for _ in range(m)]
            R = np.stack([p.rotation for p in poses])
            C = np.stack([p.center for p in poses])
            pts = rng.normal(scale=4.0, size=(n, 3))
            assert _same_projection(pts, R, C, K)
            # one set of points per pose, as the P3P polish passes them
            per_pose = rng.normal(scale=4.0, size=(m, n, 3))
            assert _same_projection(per_pose, R, C, K)
            assert _same_projection(np.swapaxes(rng.normal(size=(n, m, 3)), 0, 1), R, C, K)

    def test_non_contiguous_and_fortran_inputs(self):
        rng = np.random.default_rng(35)
        K = default_intrinsics()
        pose = random_pose(rng)
        positions = rng.normal(scale=4.0, size=(500, 3))
        wide = rng.normal(scale=4.0, size=(300, 5))
        rows = rng.choice(500, size=200, replace=False)
        for pts in (positions[rows], positions[::3], wide[:, 1:4], np.asfortranarray(positions),
                    positions.astype(np.float32)):
            assert _same_projection(pts, pose.rotation, pose.center, K)
            assert _same_projection(pts, np.asfortranarray(pose.rotation), pose.center, K)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.uint8])
    def test_sample_grid_matches_the_row_oracle(self, dtype):
        K = CameraIntrinsics(fx=50.0, fy=50.0, cx=20.0, cy=15.0, width=40, height=30)
        rng = np.random.default_rng(36)
        grid = rng.uniform(0.0, 250.0, size=(30, 40)).astype(dtype)
        if grid.dtype.kind == "f":
            grid[rng.random(grid.shape) < 0.1] = np.nan
        pixels = np.concatenate([
            rng.uniform(-3.0, 43.0, size=(5000, 2)),
            rng.integers(-2, 42, size=(500, 2)) + 0.5,
            [[np.nan, 3.0], [3.0, np.nan], [np.inf, 3.0], [3.0, -np.inf], [-np.inf, np.inf],
             [np.nan, np.nan], [1e300, -1e300]],
        ])
        rng.shuffle(pixels)
        for px in (pixels, pixels[:0], pixels[:1], pixels[::2], np.asfortranarray(pixels)):
            fill = grid.dtype.type(7)
            values, inside = sample_grid(grid, px, K, fill)
            old_values, old_inside = kernel_oracle.sample_grid(grid, px, K, fill)
            assert _same(values, old_values) and _same(inside, old_inside)
            # an index grid reads each row's flat nearest-pixel index
            index, inside = sample_grid(np.arange(30 * 40).reshape(30, 40), px, K, -1)
            old_ij, old_inside = kernel_oracle.nearest_pixel(px, K)
            old_index = np.where(old_inside, old_ij[:, 1] * 40 + old_ij[:, 0], -1)
            assert _same(index, old_index) and _same(inside, old_inside)

    def test_back_project_pixels_matches_the_row_oracle(self):
        rng = np.random.default_rng(37)
        K = default_intrinsics()
        for n in (0, 1, 2, 3, 19200):
            pose = random_pose(rng)
            pix = np.stack([rng.uniform(0, K.width, n), rng.uniform(0, K.height, n)], axis=1)
            d = rng.uniform(0.1, 50.0, n)
            for px in (pix, np.asfortranarray(pix)):
                assert _same(back_project_pixels(px, d, pose, K),
                             kernel_oracle.back_project_pixels(px, d, pose, K))
        # the integer pixel grid of a depth map, as the map build lifts it
        vy, vx = np.nonzero(rng.random((120, 160)) < 0.7)
        pix = np.stack([vx, vy], axis=1).astype(np.float64)
        d = rng.uniform(0.5, 40.0, len(pix)).astype(np.float32).astype(np.float64)
        K = CameraIntrinsics(fx=120.0, fy=120.0, cx=80.0, cy=60.0, width=160, height=120)
        assert _same(back_project_pixels(pix, d, pose, K),
                     kernel_oracle.back_project_pixels(pix, d, pose, K))


class TestRotationError:
    def test_identity(self):
        rng = np.random.default_rng(3)
        R = random_pose(rng).rotation
        assert rotation_error_deg(R, R) == pytest.approx(0.0, abs=1e-9)

    def test_half_turn(self):
        # Composing with a 180 degree rotation gives trace(rel) = -1.
        rng = np.random.default_rng(4)
        R = random_pose(rng).rotation
        flip = rodrigues(rng.normal(size=3), math.pi)
        assert rotation_error_deg(R, R @ flip) == pytest.approx(180.0, abs=1e-6)

    def test_constructed_angle(self):
        rng = np.random.default_rng(6)
        R = random_pose(rng).rotation
        rel = rodrigues(rng.normal(size=3), math.radians(37.0))
        assert rotation_error_deg(R, R @ rel) == pytest.approx(37.0, abs=1e-6)

    def test_symmetry_bitwise(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            A = random_pose(rng).rotation
            B = random_pose(rng).rotation
            assert rotation_error_deg(A, B) == rotation_error_deg(B, A)

    def test_triangle_sanity(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            A = random_pose(rng).rotation
            B = random_pose(rng).rotation
            C = random_pose(rng).rotation
            ab = rotation_error_deg(A, B)
            bc = rotation_error_deg(B, C)
            ac = rotation_error_deg(A, C)
            assert ac <= ab + bc + 1e-6

    def test_never_nan_at_boundaries(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            R = random_pose(rng).rotation
            for angle in (0.0, math.pi):
                rel = rodrigues(rng.normal(size=3), angle)
                err = rotation_error_deg(R, R @ rel)
                assert math.isfinite(err)
        # and a trace pushed numerically past the valid range
        R = np.eye(3) * (1.0 + 1e-13)
        assert math.isfinite(rotation_error_deg(np.eye(3), R))


class TestPositionError:
    def test_zero(self):
        assert position_error_m(np.ones(3), np.ones(3)) == 0.0

    def test_345(self):
        assert position_error_m(np.zeros(3), np.array([3.0, 4.0, 0.0])) == pytest.approx(5.0)

    def test_random_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            a = rng.normal(size=3)
            b = rng.normal(size=3)
            oracle = math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
            assert position_error_m(a, b) == pytest.approx(oracle, rel=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            position_error_m(np.array([np.nan, 0, 0]), np.zeros(3))


class TestPoseTypes:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            RigidPose(np.eye(3) * 1.001, np.zeros(3))

    def test_rejects_reflection(self):
        with pytest.raises(ValueError):
            RigidPose(np.diag([1.0, 1.0, -1.0]), np.zeros(3))

    def test_pose_error_range_validation(self):
        with pytest.raises(ValueError):
            PoseError(position_error=-1.0, orientation_error=0.0)
        with pytest.raises(ValueError):
            PoseError(position_error=0.0, orientation_error=181.0)

    def test_intrinsics_validation(self):
        for fx, fy in ((0.0, 1.0), (np.inf, np.inf), (1.0, np.inf), (np.nan, 1.0)):
            with pytest.raises(ValueError, match="focal lengths"):
                CameraIntrinsics(fx=fx, fy=fy, cx=0.0, cy=0.0, width=10, height=10)
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=1.0, fy=1.0, cx=10.0, cy=0.0, width=10, height=10)


class TestQuaternions:
    def test_roundtrip(self):
        rng = np.random.default_rng(14)
        for _ in range(300):
            R = random_pose(rng).rotation
            q = matrix_to_quaternion(R)
            assert q[0] >= 0.0
            assert abs(np.linalg.norm(q) - 1.0) < 1e-12
            np.testing.assert_allclose(quaternion_to_matrix(q), R, atol=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            quaternion_to_matrix(np.array([2.0, 0.0, 0.0, 0.0]))
