"""Projection, back-projection, and pose-error metric tests.

Expected values are hand-computed or recomputed by independent oracles
(Rodrigues construction, componentwise norms).
"""

import math

import numpy as np
import pytest

from semloc.geometry import (
    CameraIntrinsics,
    PoseError,
    RigidPose,
    back_project,
    back_project_pixels,
    matrix_to_quaternion,
    position_error_m,
    project,
    project_points,
    quaternion_to_matrix,
    rotation_error_deg,
    sample_grid,
)

from conftest import default_intrinsics, pinhole_project, random_pose, rodrigues


def _simple_K():
    return CameraIntrinsics(fx=100.0, fy=100.0, cx=50.0, cy=50.0, width=100, height=100)


class TestProject:
    def test_on_optical_axis(self):
        p = project(np.array([0.0, 0.0, 5.0]), RigidPose.identity(), _simple_K())
        np.testing.assert_allclose(p, [50.0, 50.0], atol=0)

    def test_off_axis(self):
        # 100 * 1/5 + 50 = 70
        p = project(np.array([1.0, 0.0, 5.0]), RigidPose.identity(), _simple_K())
        np.testing.assert_allclose(p, [70.0, 50.0], atol=0)

    def test_behind_camera_is_none(self):
        assert project(np.array([0.0, 0.0, -1.0]), RigidPose.identity(), _simple_K()) is None

    def test_on_camera_plane_is_none(self):
        assert project(np.array([1.0, 1.0, 0.0]), RigidPose.identity(), _simple_K()) is None

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
                assert project(pts[i], pose, K) is None
            else:
                assert depth[i] > 0
                # matmul and scalar dot may differ in the last ulp
                np.testing.assert_allclose(pixels[i], single, rtol=1e-12, atol=1e-9)
                np.testing.assert_allclose(project(pts[i], pose, K), single, rtol=1e-12, atol=1e-9)

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
        # call (project) may differ from it in the last bit
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


class TestBackProject:
    def test_principal_point(self):
        X = back_project(np.array([50.0, 50.0]), 5.0, RigidPose.identity(), _simple_K())
        np.testing.assert_allclose(X, [0.0, 0.0, 5.0], atol=0)

    def test_off_axis(self):
        X = back_project(np.array([70.0, 50.0]), 5.0, RigidPose.identity(), _simple_K())
        np.testing.assert_allclose(X, [1.0, 0.0, 5.0], atol=1e-15)

    @pytest.mark.parametrize("depth", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_depth(self, depth):
        with pytest.raises(ValueError):
            back_project(np.array([50.0, 50.0]), depth, RigidPose.identity(), _simple_K())

    def test_roundtrip_property(self):
        # project(back_project(q, d)) == q within 1e-9 px over random draws
        rng = np.random.default_rng(11)
        K = default_intrinsics()
        worst = 0.0
        for _ in range(200):
            pose = random_pose(rng)
            pix = np.array([rng.uniform(0, K.width), rng.uniform(0, K.height)])
            d = rng.uniform(0.1, 50.0)
            back = back_project(pix, d, pose, K)
            forward = project(back, pose, K)
            worst = max(worst, float(np.linalg.norm(forward - pix)))
        assert worst < 1e-9

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
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=0.0, fy=1.0, cx=0.0, cy=0.0, width=10, height=10)
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=1.0, fy=1.0, cx=10.0, cy=0.0, width=10, height=10)


def _construct_error(R, C):
    """The constructor's message for one pose, None when it is accepted."""
    try:
        RigidPose(R, C)
    except ValueError as exc:
        return str(exc)
    return None


class TestPoseStack:
    def test_equals_poses_built_one_at_a_time(self):
        rng = np.random.default_rng(11)
        poses = [random_pose(rng) for _ in range(50)]
        R = np.array([p.rotation for p in poses])
        C = np.array([p.center for p in poses])
        stacked = RigidPose.from_stack(R, C)
        R[:] = 0.0  # the poses hold their own copies
        assert len(stacked) == 50
        for pose, alone in zip(stacked, poses):
            assert pose.rotation.tobytes() == alone.rotation.tobytes()
            assert pose.center.tobytes() == alone.center.tobytes()
            assert pose.rotation.shape == (3, 3) and pose.center.shape == (3,)
            assert not pose.rotation.flags.writeable and not pose.center.flags.writeable
        assert RigidPose.from_stack(np.empty((0, 3, 3)), np.empty((0, 3))) == []

    def test_checks_as_the_constructor_at_the_bounds(self):
        # scaling one axis by s moves |R^T R - I| across 1e-9 near
        # s = 1 + 5e-10; every step, and the stack around it, must be
        # accepted or refused exactly as the constructor does, with its message
        good = np.eye(3)
        outcomes = set()
        s = 1.0 + 5e-10
        for _ in range(41):
            s = np.nextafter(s, 0.0)
        for _ in range(81):
            s = np.nextafter(s, 2.0)
            R = np.diag([s, 1.0, 1.0])
            expected = _construct_error(R, np.zeros(3))
            outcomes.add(expected)
            stack = np.stack([good, R, good])
            if expected is None:
                assert RigidPose.from_stack(stack, np.zeros((3, 3)))[1].rotation.tobytes() == \
                    RigidPose(R, np.zeros(3)).rotation.tobytes()
            else:
                with pytest.raises(ValueError) as exc:
                    RigidPose.from_stack(stack, np.zeros((3, 3)))
                assert str(exc.value) == expected
        assert None in outcomes and len(outcomes) == 2

    def test_first_failing_pose_raises_its_own_error(self):
        reflection = np.diag([1.0, 1.0, -1.0])
        cases = [
            ([np.eye(3), reflection, np.full((3, 3), np.nan)], "determinant"),
            ([np.eye(3) * 1.001, reflection], "orthonormal"),
            ([np.eye(3), np.eye(3)], "non-finite"),
        ]
        for rotations, word in cases:
            centers = np.zeros((len(rotations), 3))
            if word == "non-finite":
                centers[1, 2] = np.inf
            with pytest.raises(ValueError, match=word) as exc:
                RigidPose.from_stack(np.array(rotations), centers)
            first = next(e for e in map(_construct_error, rotations, centers) if e is not None)
            assert str(exc.value) == first

    def test_stacks_of_different_lengths_are_refused(self):
        # valid poses, so only the count can fail
        for n_rot, n_cen in ((3, 2), (2, 3), (0, 1)):
            with pytest.raises(ValueError) as exc:
                RigidPose.from_stack(np.tile(np.eye(3), (n_rot, 1, 1)), np.zeros((n_cen, 3)))
            assert f"({n_rot}, 3, 3)" in str(exc.value) and f"({n_cen}, 3)" in str(exc.value)


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
