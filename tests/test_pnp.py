"""Minimal solver, RANSAC, weighted sampling, and refinement tests.

P3P correctness is established through forward synthesis (project a known
pose, solve, require the pose among the solutions) plus solver
self-consistency (all solutions must reproject the minimal set).  The
refinement Jacobian is validated against central finite differences.

The chunked RANSAC is checked against the one-sample-at-a-time oracles in
pnp_oracle: the same draws and RNG state, the same degeneracy decisions,
the same P3P candidates in the same order, and the same RANSAC results.
Runs advanced in lockstep are checked bitwise against each run alone, and
runs under any round sizes bitwise against the fitted rounds.  The
cross-run verdict is checked to stop only runs that have no winner of
their own, before any round after their short first one or, for a run
past the first two of its call, before it draws at all, and to leave
every other run bitwise as alone.
"""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from semloc import pnp
from semloc.geometry import (
    RigidPose,
    pixel_rays,
    project_points,
    rotation_about_axis,
    rotation_error_deg,
)
from semloc.matching import CorrespondenceBatch
from semloc.pnp import (
    PnPSolution,
    RansacConfig,
    _bearings_from_pixels,
    _degenerate_samples,
    _draw_minimal_samples,
    _exp_so3,
    _p3p_batch,
    _pose_jacobian,
    _ransac_pnp,
    _score_hypotheses,
    estimate_temporary_pose,
    local_optimization,
    refine_pose,
    solve_p3p,
    weighted_ransac_pnp,
)

import pnp_oracle
from conftest import (
    default_intrinsics,
    patched_ransac_rule,
    patched_round_size,
    pinhole_project,
    random_pose,
    rodrigues,
    synthetic_correspondences,
)


def _temporary(corrs, K, cfg):
    """estimate_temporary_pose on one batch."""
    return estimate_temporary_pose([corrs], K, [cfg])[0]


def _one_run(corrs, K, cfg, weights):
    """_ransac_pnp with a single run."""
    return _ransac_pnp([(corrs, cfg, weights)], K)[0]


def _pose_matches(sol, pose, tol_m=1e-6, tol_deg=1e-6):
    return (
        np.linalg.norm(sol.center - pose.center) < tol_m
        and rotation_error_deg(sol.rotation, pose.rotation) < tol_deg
    )


def _minimal_sets(rng, K, n):
    """n random poses and, stacked, one exact 3-point set seen by each."""
    poses, corrs = [], []
    for _ in range(n):
        poses.append(random_pose(rng))
        corrs.append(synthetic_correspondences(rng, K, poses[-1], 3))
    return poses, np.array([c.points for c in corrs]), np.array([c.pixels for c in corrs])


class TestSolveP3P:
    def test_recovers_forward_synthesized_pose(self):
        K = default_intrinsics()
        poses, P, X = _minimal_sets(np.random.default_rng(1), K, 100)
        for pose, sols in zip(poses, solve_p3p(P, K, pixels=X), strict=True):
            assert any(_pose_matches(s, pose) for s in sols)

    def test_collinear_points_rejected(self):
        K = default_intrinsics()
        pts = np.array([[0.0, 0.0, 5.0], [1.0, 0.0, 5.0], [2.0, 0.0, 5.0]])
        pix = np.array([[100.0, 100.0], [200.0, 100.0], [300.0, 100.0]])
        with pytest.raises(ValueError, match="collinear"):
            solve_p3p(pts[None], K, pixels=pix[None])

    def test_rejected_row_is_named(self):
        # a collinear or parallel row raises its rejection reason plus the index
        # of the first such row
        K = default_intrinsics()
        _, P, X = _minimal_sets(np.random.default_rng(4), K, 6)
        P[3] = [[0.0, 0.0, 5.0], [1.0, 0.0, 5.0], [2.0, 0.0, 5.0]]
        with pytest.raises(ValueError, match=r"^world points are collinear \(row 3\)$"):
            solve_p3p(P, K, pixels=X)
        X[1, 1] = X[1, 0]
        with pytest.raises(ValueError,
                           match=r"^degenerate bearing vectors \(parallel rays\) \(row 1\)$"):
            solve_p3p(P, K, pixels=X)

    def test_equilateral_head_on(self):
        # symmetric configuration straight ahead: verified purely by
        # reprojection residuals
        K = default_intrinsics()
        r = 1.0
        pts = np.array([
            [r * math.cos(a), r * math.sin(a), 6.0]
            for a in (0.0, 2 * math.pi / 3, 4 * math.pi / 3)
        ])
        pose = RigidPose.identity()
        pix, _ = project_points(pts, pose.rotation, pose.center, K)
        [sols] = solve_p3p(pts[None], K, pixels=pix[None])
        assert sols
        for s in sols:
            for p, z in zip(pts, pix):
                back = pinhole_project(p, s, K)
                assert back is not None
                assert np.linalg.norm(back - z) < 1e-9

    def test_self_consistency_random(self):
        K = default_intrinsics()
        _, P, X = _minimal_sets(np.random.default_rng(2), K, 300)
        for pts, pix, sols in zip(P, X, solve_p3p(P, K, pixels=X), strict=True):
            for s in sols:
                for p, z in zip(pts, pix):
                    back = pinhole_project(p, s, K)
                    assert back is not None
                    assert np.linalg.norm(back - z) < 1e-6

    def test_rows_equal_one_row_calls(self):
        # the batch's one P3P solve and one stacked polish give each row
        # bitwise the poses of its own call, the shared-pixel row none
        K = default_intrinsics()
        _, P, X = _minimal_sets(np.random.default_rng(5), K, 300)
        X[7] = [[K.cx, K.cy], [K.cx + 0.75 * K.fx, K.cy], [K.cx + 0.75 * K.fx, K.cy]]
        P[7] = [[0.0, 0.0, 5.0], [1.0, 0.0, 5.0], [0.0, 1.0, 5.0]]
        batched = solve_p3p(P, K, pixels=X)
        assert len(batched) == 300 and batched[7] == []
        assert sum(map(len, batched)) > 300
        for h, sols in enumerate(batched):
            [alone] = solve_p3p(P[h : h + 1], K, pixels=X[h : h + 1])
            assert len(sols) == len(alone)
            for s, a in zip(sols, alone):
                assert s.rotation.tobytes() == a.rotation.tobytes()
                assert s.center.tobytes() == a.center.tobytes()

    def test_empty_batch(self):
        K = default_intrinsics()
        assert solve_p3p(np.zeros((0, 3, 3)), K, pixels=np.zeros((0, 3, 2))) == []

    def test_wrong_arity(self):
        K = default_intrinsics()
        for points_shape, pixels_shape in [
            ((4, 3), (4, 2)),  # four correspondences
            ((1, 4, 3), (1, 4, 2)),  # four in a batch
            ((3, 3), (3, 2)),  # one set without its batch axis
            ((2, 3, 3), (1, 3, 2)),  # rows do not pair up
        ]:
            with pytest.raises(ValueError, match="exactly 3"):
                solve_p3p(np.ones(points_shape), K, pixels=np.ones(pixels_shape))


def _well_conditioned(P, f):
    """Oracle quartic of the triple has only real roots whose
    back-substitution is stable: cos(theta) off +-1, a back-substitution
    denominator of at least 1% of the first side, and a relative root
    condition number of at most 1e3.  Ulp-level differences between the
    scalar and batched arithmetic stay below 1e-9 on such triples."""
    try:
        coeffs, (_, _, _, phi1, phi2, p1, p2, d12, _) = pnp_oracle.p3p_quartic(P, f)
    except ValueError:
        return False
    a = np.array(coeffs)
    if not np.all(np.isfinite(a)):
        return False
    for root in pnp_oracle.quartic_roots(*coeffs):
        if abs(root.imag) > 1e-6 * max(1.0, abs(root.real)):
            continue
        x = pnp_oracle.newton_polish_root(float(root.real), coeffs)
        if abs(x) > 1.0 - 1e-4:
            return False
        if abs(-phi1 * x * p2 / phi2 + p1 - d12) < 1e-2 * d12:
            return False
        slope = abs(np.polyval(np.polyder(a), x))
        if np.sum(np.abs(a) * np.abs(x) ** np.arange(4, -1, -1)) > 1e3 * slope:
            return False
    return True


_unit = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def p3p_triples(draw):
    """A pose and three exact correspondences in front of it."""
    K = default_intrinsics()
    axis = np.array([draw(_unit) for _ in range(3)])
    assume(np.linalg.norm(axis) > 0.1)
    pose = RigidPose(
        rodrigues(axis, draw(st.floats(0.0, math.pi))),
        np.array([draw(st.floats(-5.0, 5.0)) for _ in range(3)]),
    )
    pix = np.array(
        [[draw(st.floats(10.0, K.width - 10.0)), draw(st.floats(10.0, K.height - 10.0))]
         for _ in range(3)]
    )
    depth = np.array([draw(st.floats(2.0, 10.0)) for _ in range(3)])
    cam = np.column_stack([(pix[:, 0] - K.cx) / K.fx, (pix[:, 1] - K.cy) / K.fy, np.ones(3)])
    points = (cam * depth[:, None]) @ pose.rotation + pose.center
    return pose, points, pix


class TestP3PBatch:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(p3p_triples())
    def test_batch_matches_scalar_oracle_and_contains_generating_pose(self, triple):
        pose, P, pix = triple
        K = default_intrinsics()
        f = _bearings_from_pixels(pix, K)
        assume(_well_conditioned(P, f))
        ref = pnp_oracle.p3p_candidates(P, f)
        R, C, valid, status = _p3p_batch(P[None], f[None])
        assert status[0] == 0
        got = list(zip(R[0][valid[0]], C[0][valid[0]]))
        assert len(got) == len(ref)
        scale = max(1.0, float(np.abs(P).max()))
        for (Rg, Cg), (Rr, Cr) in zip(got, ref):
            assert np.max(np.abs(Rg - Rr)) < 1e-9
            assert np.max(np.abs(Cg - Cr)) < 1e-9 * scale
        assert any(
            np.linalg.norm(Cg - pose.center) < 1e-6 and np.max(np.abs(Rg - pose.rotation)) < 1e-6
            for Rg, Cg in got
        )

    def test_rows_are_independent(self):
        # a batch gives each row bitwise the candidates it gets alone, at
        # the size of a lockstep round over a query's retrieved images;
        # rejected rows (collinear, parallel) yield none and do not disturb
        # the rest
        rng = np.random.default_rng(30)
        K = default_intrinsics()
        P, f = [], []
        for _ in range(520):
            corrs = synthetic_correspondences(rng, K, random_pose(rng), 3)
            P.append(corrs.points)
            f.append(_bearings_from_pixels(corrs.pixels, K))
        P[2] = np.array([[0.0, 0.0, 5.0], [1.0, 0.0, 5.0], [2.0, 0.0, 5.0]])
        f[4] = np.stack([f[4][0], f[4][0], f[4][2]])
        R, C, valid, status = _p3p_batch(np.array(P), np.array(f))
        assert status[:6].tolist() == [0, 0, 1, 0, 2, 0]
        assert np.count_nonzero(status) == 2
        assert not valid[2].any() and not valid[4].any()
        assert valid.any(axis=1).sum() == 518
        for h in range(len(P)):
            R1, C1, v1, s1 = _p3p_batch(P[h][None], f[h][None])
            assert s1[0] == status[h]
            assert np.array_equal(valid[h], v1[0])
            assert np.array_equal(R[h][valid[h]], R1[0][v1[0]])
            assert np.array_equal(C[h][valid[h]], C1[0][v1[0]])

    def test_raw_candidates_hold_the_generating_centre(self):
        # acceptance-09's 10,000 rows (same generator, same seed), unpolished
        # as RANSAC scores them: a valid candidate of every row lies within
        # 1e-4 m of the generating centre, and within 1e-6 m on all but a
        # few rows (the worst was 2.7e-5 m off, 9,999 rows within 1e-6 m)
        K = default_intrinsics()
        poses, P, X = _minimal_sets(np.random.default_rng(909), K, 10_000)
        f = _bearings_from_pixels(X.reshape(-1, 2), K).reshape(P.shape)
        _, C, valid, status = _p3p_batch(P, f)
        assert not status.any()
        centres = np.array([pose.center for pose in poses])
        gap = np.where(valid, np.linalg.norm(C - centres[:, None], axis=2), np.inf).min(axis=1)
        assert gap.max() < 1e-4
        assert np.count_nonzero(gap < 1e-6) >= 9_990

    def test_shared_pixel_yields_no_candidates(self):
        # two identical bearings put the third ray in the plane of the first
        # two, so the quartic coefficients are non-finite: no candidates
        # instead of an exception out of np.roots
        K = default_intrinsics()
        pix = np.array([[K.cx, K.cy], [K.cx + 0.75 * K.fx, K.cy], [K.cx + 0.75 * K.fx, K.cy]])
        P = np.array([[0.0, 0.0, 5.0], [1.0, 0.0, 5.0], [0.0, 1.0, 5.0]])
        assert solve_p3p(P[None], K, pixels=pix[None]) == [[]]


def _shared_pixel_sets(rng, K, n):
    """n minimal sets whose third pixel repeats the first or second, with
    random world points: the rounding-level offset of the third ray from
    the plane of the first two leaves a finite quartic whose resolvent
    vanishes, as when one query keypoint matches two map points."""
    P = rng.uniform(-5.0, 5.0, size=(n, 3, 3)) + [0.0, 0.0, 20.0]
    pix = np.column_stack([rng.uniform(10, K.width - 10, 2 * n),
                           rng.uniform(10, K.height - 10, 2 * n)]).reshape(n, 2, 2)
    pix = np.concatenate([pix, pix[np.arange(n), rng.integers(0, 2, n)][:, None]], axis=1)
    return P, _bearings_from_pixels(pix.reshape(-1, 2), K).reshape(n, 3, 3)


def _quartics_of(monkeypatch, P, f):
    """The coefficient rows _p3p_batch hands _quartic_roots_batch."""
    seen = []
    roots_of = pnp._quartic_roots_batch
    monkeypatch.setattr(pnp, "_quartic_roots_batch", lambda A: (seen.append(A), roots_of(A))[1])
    _, _, _, status = _p3p_batch(P, f)
    monkeypatch.undo()
    [A] = seen
    assert len(A) == np.count_nonzero(status == 0)
    return A


class TestQuarticFallback:
    def test_fallback_rows_equal_np_roots(self, monkeypatch):
        # the rows the closed form rejects get, from one stacked eigvals
        # call, bitwise the roots np.roots gives each of them alone
        K = default_intrinsics()
        A = np.vstack([
            [[2.0, -3.0, -3.0, 7.0, 1.0],  # closed form
             [1.0, 0.0, 0.0, 0.0, 0.0]],  # x^4: the resolvent w vanishes
            _quartics_of(monkeypatch, *_shared_pixel_sets(np.random.default_rng(61), K, 200)),
        ])
        companions = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda M: (companions.append(M), eigvals(M))[1])
        roots = pnp._quartic_roots_batch(A)
        monkeypatch.undo()
        [M] = companions
        # np.roots' companion matrix of a row has first row -A[1:] / A[0]
        rejected = [int(np.flatnonzero((-A[:, 1:] / A[:, :1] == top).all(axis=1))[0])
                    for top in M[:, 0]]
        assert rejected[0] == 1 and len(rejected) > 20
        # np.roots strips x^4's zero terms and returns +0.0 for its -0.0 root
        assert np.array_equal(roots[1], np.roots(A[1])) and not roots[1].any()
        for h in rejected[1:]:
            assert roots[h].tobytes() == np.roots(A[h]).astype(complex).tobytes()
        assert np.allclose(np.sort_complex(roots[0]), np.sort_complex(np.roots(A[0])))

    def test_rows_without_roots(self):
        # non-finite coefficients, and a zero leading coefficient (no
        # quartic: _p3p_batch never hands one over), give all NaN
        A = np.array([
            [np.nan] * 5,
            [1.0, np.inf, 0.0, 0.0, 1.0],
            [np.inf, 1.0, 1.0, 1.0, 1.0],
            [0.0, 1.0, -3.0, 2.0, 0.0],
            [0.0] * 5,
        ])
        assert np.isnan(pnp._quartic_roots_batch(A)).all()

    def test_p3p_leading_coefficient_never_zero(self, monkeypatch):
        # a4 = -p2^4 (1 + phi1^2 + phi2^2), and p2, the third point's offset
        # from the line of the first two, is nonzero on every row that is
        # not rejected as collinear, even just above the area tolerance
        rng = np.random.default_rng(62)
        K = default_intrinsics()
        _, P, X = _minimal_sets(rng, K, 500)
        f = _bearings_from_pixels(X.reshape(-1, 2), K).reshape(P.shape)
        assert np.all(_quartics_of(monkeypatch, P, f)[:, 0] != 0.0)
        # near-collinear: P3 off the line P1-P2 by an area of 1.5-3 tolerances
        n = 500
        P1 = rng.uniform(-5.0, 5.0, size=(n, 3))
        u = rng.normal(size=(n, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        v = np.cross(u, rng.normal(size=(n, 3)))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        length = rng.uniform(0.5, 5.0, n)[:, None]
        area = rng.uniform(1.5, 3.0, n)[:, None] * pnp._COLLINEAR_AREA_TOL
        P = np.stack([P1, P1 + length * u,
                      P1 + rng.uniform(-2.0, 2.0, (n, 1)) * u + 2.0 * area / length * v], axis=1)
        assert np.all(0.5 * np.linalg.norm(np.cross(P[:, 1] - P[:, 0], P[:, 2] - P[:, 0]),
                                           axis=1) > pnp._COLLINEAR_AREA_TOL)
        A = _quartics_of(monkeypatch, P, f)
        assert len(A) == n and np.all(A[:, 0] != 0.0)


class TestTemporaryPose:
    def test_exact_correspondences(self):
        rng = np.random.default_rng(6)
        K = default_intrinsics()
        pose = random_pose(rng)
        corrs = synthetic_correspondences(rng, K, pose, 20)
        sol = _temporary(corrs, K, RansacConfig(min_inliers=6, seed=0))
        assert sol is not None
        assert np.linalg.norm(sol.pose.center - pose.center) < 1e-6
        assert sol.num_inliers == 20

    def test_below_minimum_returns_none(self):
        rng = np.random.default_rng(7)
        K = default_intrinsics()
        corrs = synthetic_correspondences(rng, K, random_pose(rng), 3)
        assert _temporary(corrs, K, RansacConfig(seed=0)) is None

    def test_no_consensus_returns_none(self):
        rng = np.random.default_rng(8)
        K = default_intrinsics()
        pose = random_pose(rng)
        corrs = synthetic_correspondences(rng, K, pose, 30, outlier_frac=1.0)
        cfg = RansacConfig(min_inliers=6, seed=0, max_iterations=300, inlier_threshold_px=2.0)
        assert _temporary(corrs, K, cfg) is None

    def test_half_outliers_monte_carlo(self):
        # 50% gross outliers, 500 iterations: recovery within 0.01 m in at
        # least 99 of 100 seeded trials
        rng = np.random.default_rng(9)
        K = default_intrinsics()
        ok = 0
        for t in range(100):
            pose = random_pose(rng)
            corrs = synthetic_correspondences(rng, K, pose, 40, outlier_frac=0.5)
            cfg = RansacConfig(min_inliers=6, seed=1000 + t, max_iterations=500)
            sol = _temporary(corrs, K, cfg)
            if sol is not None and np.linalg.norm(sol.pose.center - pose.center) < 0.01:
                ok += 1
        assert ok >= 99

    def test_determinism(self):
        rng = np.random.default_rng(10)
        K = default_intrinsics()
        pose = random_pose(rng)
        corrs = synthetic_correspondences(rng, K, pose, 30, outlier_frac=0.3, pixel_noise=0.5)
        cfg = RansacConfig(min_inliers=6, seed=77)
        a = _temporary(corrs, K, cfg)
        b = _temporary(corrs, K, cfg)
        assert np.array_equal(a.pose.rotation, b.pose.rotation)
        assert np.array_equal(a.pose.center, b.pose.center)
        assert np.array_equal(a.inlier_indices, b.inlier_indices)

    def test_solution_satisfies_inlier_contract(self):
        rng = np.random.default_rng(11)
        K = default_intrinsics()
        pose = random_pose(rng)
        corrs = synthetic_correspondences(rng, K, pose, 50, outlier_frac=0.4, pixel_noise=1.0)
        cfg = RansacConfig(min_inliers=6, seed=5)
        sol = _temporary(corrs, K, cfg)
        assert sol is not None
        assert sol.num_inliers >= cfg.min_inliers
        errs = []
        for i in sol.inlier_indices:
            pix = pinhole_project(corrs.points[i], sol.pose, K)
            errs.append(np.linalg.norm(pix - corrs.pixels[i]))
        assert max(errs) < cfg.inlier_threshold_px
        assert np.mean(errs) == pytest.approx(sol.mean_reprojection_error_px, rel=1e-9)


    def test_shared_pixels_do_not_raise(self):
        # Two feature families detect the same pixel and lift it to
        # different world points.  Every pixel lies on the principal row, so
        # each sample's third ray lies exactly in the plane of the first two
        # and its quartic coefficients are non-finite; such samples must be
        # skipped, not abort the run.
        K = default_intrinsics()
        xs = [100.0, 200.0, 300.0, 300.0, 400.0, 500.0, 300.0]
        depths = [4.0, 5.0, 6.0, 9.0, 5.0, 7.0, 3.0]
        corrs = CorrespondenceBatch(
            pixels=[[x, K.cy] for x in xs],
            points=[[(x - K.cx) / K.fx * d, 0.1 * i, d] for i, (x, d) in enumerate(zip(xs, depths))],
            image_ids=["db0"] * len(xs),
            families=list("ccbcbcb"),
        )
        for seed in range(5):
            sol = _temporary(corrs, K, RansacConfig(min_inliers=4, seed=seed,
                                                    max_iterations=100))
            assert sol is None or sol.num_inliers >= 4

class TestWeightedRansac:
    def test_uniform_weights_bitwise_equal_to_plain(self):
        # shared sampling code path: equal weights reproduce the unweighted
        # loop draw for draw under the same seed
        rng = np.random.default_rng(12)
        K = default_intrinsics()
        pose = random_pose(rng)
        corrs = synthetic_correspondences(rng, K, pose, 30, outlier_frac=0.3)
        cfg = RansacConfig(min_inliers=6, seed=41)
        a = _temporary(corrs, K, cfg)
        b = weighted_ransac_pnp(corrs, np.full(30, 1 / 30), K, cfg)
        assert np.array_equal(a.pose.rotation, b.pose.rotation)
        assert np.array_equal(a.pose.center, b.pose.center)
        assert np.array_equal(a.inlier_indices, b.inlier_indices)

    def test_requires_normalized_weights(self):
        rng = np.random.default_rng(13)
        K = default_intrinsics()
        corrs = synthetic_correspondences(rng, K, random_pose(rng), 10)
        with pytest.raises(ValueError, match="sum to 1"):
            weighted_ransac_pnp(corrs, np.ones(10), K, RansacConfig(seed=0))

    @pytest.mark.parametrize("weights, match", [
        (np.full(9, 1 / 9), "one per row"),
        (np.r_[-0.1, np.full(9, 1.1 / 9)], "non-negative"),
        (np.r_[np.nan, np.full(9, 1 / 9)], "finite"),
        (np.full(10, 0.2), "sum to 1"),
    ], ids=["wrong-length", "negative", "nan", "not-normalized"])
    def test_rejects_bad_weights(self, weights, match):
        # the weights are checked where they are read: the negative entry
        # is offset so that the weights still sum to 1
        rng = np.random.default_rng(13)
        K = default_intrinsics()
        corrs = synthetic_correspondences(rng, K, random_pose(rng), 10)
        with pytest.raises(ValueError, match=match):
            weighted_ransac_pnp(corrs, weights, K, RansacConfig(seed=0))

    def test_too_few_correspondences_raises(self):
        rng = np.random.default_rng(14)
        K = default_intrinsics()
        corrs = synthetic_correspondences(rng, K, random_pose(rng), 3)
        with pytest.raises(ValueError, match="at least 4"):
            weighted_ransac_pnp(corrs, np.full(3, 1 / 3), K, RansacConfig(seed=0))

    def test_dominant_weight_appears_in_most_samples(self):
        # one item holding weight 0.99 must show up in >= 95% of samples
        rng = np.random.default_rng(15)
        n = 40
        weights = np.full(n, 0.01 / (n - 1))
        weights[17] = 0.99
        draws = 10_000
        hits = (_draw_minimal_samples(rng, weights, draws) == 17).any(axis=1).sum()
        assert hits / draws >= 0.95

    def test_first_draw_marginals_match_weights(self):
        # the first draw of each minimal sample is exactly multinomial
        rng = np.random.default_rng(16)
        w = np.array([0.5, 0.25, 0.15, 0.06, 0.04])
        draws = 20_000
        counts = np.bincount(_draw_minimal_samples(rng, w, draws)[:, 0], minlength=5)
        freq = counts / draws
        sigma = np.sqrt(w * (1 - w) / draws)
        assert np.all(np.abs(freq - w) <= 3.5 * sigma)

    def test_samples_are_distinct(self):
        rng = np.random.default_rng(17)
        w = np.array([0.97, 0.01, 0.01, 0.01])
        for picks in _draw_minimal_samples(rng, w, 500):
            assert len(set(picks.tolist())) == 3

    def test_zero_weights_never_sampled(self):
        rng = np.random.default_rng(18)
        w = np.array([0.5, 0.0, 0.3, 0.0, 0.2, 0.0, 0.0])
        picks = set(_draw_minimal_samples(rng, w, 2000).ravel().tolist())
        assert picks <= {0, 2, 4}

    # The mass stopping bound counts on zero-weight items never being drawn.
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(weights=st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=3,
                            max_size=40).filter(lambda w: sum(x > 0 for x in w) >= 3),
           seed=st.integers(0, 2**32 - 1), m=st.integers(1, 70))
    def test_random_weights_draw_distinct_positive_items(self, weights, seed, m):
        w = np.array(weights)
        picks = _draw_minimal_samples(np.random.default_rng(seed), w, m)
        self._assert_distinct_positive(w, picks)
        # the largest double below 1 rounds u * total up to the total
        top = _draw_minimal_samples(_TopOfUnitInterval(), w, m)
        self._assert_distinct_positive(w, top)
        expected = pnp_oracle.draw_minimal_sample(_TopOfUnitInterval(), w)
        assert np.array_equal(top[0], expected)

    @staticmethod
    def _assert_distinct_positive(w, picks):
        assert picks.shape[1] == 3
        assert (w[picks] > 0.0).all()
        assert (picks[:, 0] != picks[:, 1]).all()
        assert (picks[:, 0] != picks[:, 2]).all()
        assert (picks[:, 1] != picks[:, 2]).all()


class _TopOfUnitInterval:
    """A generator stub whose every random() value is the largest below 1."""

    @staticmethod
    def random(size=None):
        top = np.nextafter(1.0, 0.0)
        return top if size is None else np.full(size, top)


_DRAW_WEIGHTS = {
    "uniform": np.full(30, 1.0 / 30),
    "skewed": np.array([0.5, 0.25, 0.15, 0.06, 0.04]),
    "with_zeros": np.array([0.5, 0.0, 0.3, 0.0, 0.2, 0.0, 0.0]),
    # fewer than 3 positive weights: the later picks fall back to uniform
    "two_positive": np.array([0.0, 0.7, 0.0, 0.3, 0.0, 0.0]),
    "one_positive": np.array([0.0, 0.0, 1.0, 0.0]),
}


class TestBatchedDrawer:
    @pytest.mark.parametrize("name", sorted(_DRAW_WEIGHTS))
    def test_bitwise_equal_to_sequential_oracle(self, name):
        weights = _DRAW_WEIGHTS[name]
        for m in (1, 7, 500):
            batched = np.random.default_rng(60)
            scalar = np.random.default_rng(60)
            picks = _draw_minimal_samples(batched, weights, m)
            expected = np.stack([pnp_oracle.draw_minimal_sample(scalar, weights) for _ in range(m)])
            assert np.array_equal(picks, expected)
            assert batched.bit_generator.state == scalar.bit_generator.state

    def test_single_draw_is_first_row_of_batch(self):
        w = _DRAW_WEIGHTS["skewed"]
        a = np.random.default_rng(61)
        b = np.random.default_rng(61)
        for row in _draw_minimal_samples(a, w, 50):
            assert np.array_equal(_draw_minimal_samples(b, w, 1)[0], row)

    def test_degeneracy_matches_scalar_oracle(self):
        # random triples, a third of them near-collinear in the world and a
        # third with pixels close to the minimum span
        rng = np.random.default_rng(62)
        m = 3000
        points = rng.normal(size=(m, 3, 3))
        t = rng.uniform(-1, 1, size=(m // 3, 1))
        points[: m // 3, 2] = points[: m // 3, 0] + t * (points[: m // 3, 1] - points[: m // 3, 0])
        points[: m // 3, 2] += rng.normal(scale=1e-4, size=(m // 3, 3))
        pixels = rng.uniform(0, 640, size=(m, 3, 2))
        pixels[m // 3: 2 * m // 3] = pixels[m // 3: 2 * m // 3, :1] + rng.uniform(
            -6, 6, size=(m // 3, 3, 2))
        got = _degenerate_samples(points, pixels)
        expected = [pnp_oracle.sample_is_degenerate(points[i], pixels[i], pnp._MIN_PIXEL_SPAN_PX)
                    for i in range(m)]
        assert got.tolist() == expected
        assert 0.2 < got.mean() < 0.8


def _assert_same_result(a, b):
    if b is None:
        assert a is None
        return
    assert a is not None
    assert a.iterations_used == b.iterations_used
    assert np.array_equal(a.inlier_indices, b.inlier_indices)
    assert np.max(np.abs(a.pose.rotation - b.pose.rotation)) < 1e-9
    assert np.max(np.abs(a.pose.center - b.pose.center)) < 1e-9


class TestChunkedRansacMatchesSequential:
    """The chunked loop against the one-hypothesis-per-iteration oracle."""

    def _compare(self, corrs, cfg, weights=None, adaptive=True, span_px=pnp._MIN_PIXEL_SPAN_PX):
        K = default_intrinsics()
        with patched_ransac_rule(fixed_budget=not adaptive, span_px=span_px):
            a = _one_run(corrs, K, cfg, weights)
        b = pnp_oracle.ransac_pnp(corrs, K, cfg, weights, adaptive=adaptive, span_px=span_px)
        _assert_same_result(a, b)
        return a

    def test_doomed_temporary_run(self):
        # 13 gross outliers and a 300-iteration budget: unless some model
        # catches a 4th point by chance, the adaptive bound never drops
        # below the cap and every iteration runs
        rng = np.random.default_rng(70)
        K = default_intrinsics()
        full_budget = 0
        for t in range(6):
            corrs = synthetic_correspondences(rng, K, random_pose(rng), 13, outlier_frac=1.0)
            assert self._compare(corrs, RansacConfig(min_inliers=6, seed=t,
                                                     max_iterations=300)) is None
            # min_inliers=3 returns the best outlier model, exposing the
            # iteration count
            cfg = RansacConfig(min_inliers=3, seed=t, max_iterations=300)
            full_budget += self._compare(corrs, cfg).iterations_used == 300
        assert full_budget >= 3

    def test_weighted_final_run(self):
        rng = np.random.default_rng(71)
        K = default_intrinsics()
        for t in range(3):
            corrs = synthetic_correspondences(rng, K, random_pose(rng), 125, outlier_frac=0.7,
                                              pixel_noise=0.5)
            w = rng.uniform(0.0, 1.0, 125)
            w[rng.random(125) < 0.2] = 0.0
            w /= w.sum()
            sol = self._compare(corrs, RansacConfig(min_inliers=12, seed=100 + t,
                                                    max_iterations=1000), w)
            assert sol is not None and 1 < sol.iterations_used < 1000

    def test_without_adaptive_stopping(self):
        rng = np.random.default_rng(72)
        K = default_intrinsics()
        corrs = synthetic_correspondences(rng, K, random_pose(rng), 40, outlier_frac=0.3,
                                          pixel_noise=0.5)
        cfg = RansacConfig(min_inliers=6, seed=5, max_iterations=150)
        assert self._compare(corrs, cfg, adaptive=False).iterations_used == 150

    def test_every_attempt_degenerate_returns_none(self):
        # no sample spans the required pixel distance: every draw is
        # redrawn, nothing is solved, and the run ends at its draw cap with
        # no model
        rng = np.random.default_rng(73)
        K = default_intrinsics()
        corrs = synthetic_correspondences(rng, K, random_pose(rng), 20)
        cfg = RansacConfig(min_inliers=6, seed=6, max_iterations=50)
        assert self._compare(corrs, cfg, span_px=1e9) is None

    def test_partly_degenerate_draws_span_chunks(self):
        # about half of all samples are degenerate, so each round
        # yields an uneven number of iterations and the run spans rounds
        rng = np.random.default_rng(74)
        K = default_intrinsics()
        corrs = synthetic_correspondences(rng, K, random_pose(rng), 30, outlier_frac=0.9)
        cfg = RansacConfig(min_inliers=3, seed=7, max_iterations=400)
        points, pixels = corrs.points, corrs.pixels
        draws = _draw_minimal_samples(np.random.default_rng(7), np.full(30, 1 / 30), 400)
        with patched_ransac_rule(span_px=400.0):
            share = _degenerate_samples(points[draws], pixels[draws]).mean()
        assert 0.3 < share < 0.7
        self._compare(corrs, cfg, span_px=400.0)

    def test_uniform_weights_match_unweighted_oracle(self):
        rng = np.random.default_rng(75)
        K = default_intrinsics()
        corrs = synthetic_correspondences(rng, K, random_pose(rng), 60, outlier_frac=0.5,
                                          pixel_noise=1.0)
        self._compare(corrs, RansacConfig(min_inliers=6, seed=8), np.full(60, 1 / 60))
        self._compare(corrs, RansacConfig(min_inliers=6, seed=8))


class TestEqualCountsKeepTheFirstModel:
    """A candidate becomes a run's best model only with strictly more
    inliers than every candidate before it: a later candidate that ties the
    count at a lower mean error does not replace it, in the library and in
    the oracle."""

    @staticmethod
    def _tie():
        # 20 exact inliers and 10 gross outliers; the first model is the
        # true pose moved by 1 cm, the second the true pose itself
        rng = np.random.default_rng(87)
        K = default_intrinsics()
        pose = random_pose(rng)
        corrs = synthetic_correspondences(rng, K, pose, 30, outlier_frac=1 / 3)
        first = RigidPose(pose.rotation, pose.center + 0.01)
        err = [pnp._errors(m.rotation, m.center, corrs.points, corrs.pixels, K)[1]
               for m in (first, pose)]
        inl = [e < RansacConfig().inlier_threshold_px for e in err]
        assert np.array_equal(inl[0], inl[1]) and inl[0].sum() == 20
        assert err[0][inl[0]].mean() > 0.5 > err[1][inl[1]].mean()
        return corrs, first, pose

    def test_library_replay(self):
        corrs, first, second = self._tie()
        K = default_intrinsics()
        run = pnp._RansacRun(corrs, K, RansacConfig(), None)
        # one candidate per sample, the first in draw order first
        R = np.full((2, 4, 3, 3), np.nan)
        C = np.full((2, 4, 3), np.nan)
        R[:, 0] = [first.rotation, second.rotation]
        C[:, 0] = [first.center, second.center]
        valid = np.zeros((2, 4), dtype=bool)
        valid[:, 0] = True
        run.replay(R, C, valid, K)
        assert run.it == 2 and run.best_count == 20
        assert np.array_equal(run.best_C, first.center)

    def test_oracle(self, monkeypatch):
        corrs, first, second = self._tie()
        solved = iter([[(first.rotation, first.center)], [(second.rotation, second.center)]])
        monkeypatch.setattr(pnp_oracle, "p3p_candidates", lambda P, f: next(solved, []))
        sol = pnp_oracle.ransac_pnp(corrs, default_intrinsics(), RansacConfig(), None)
        assert sol.num_inliers == 20
        assert np.array_equal(sol.pose.center, first.center)


def _counted_run(monkeypatch, corrs, cfg, adaptive=True, span_px=pnp._MIN_PIXEL_SPAN_PX):
    """Unweighted library result, checked against the oracle's, with the
    P3P rows it solved and the minimal samples it drew; adaptive=False
    runs a fixed budget of max_iterations, and span_px is the minimum pixel
    span of a non-degenerate sample."""
    K = default_intrinsics()
    counted = {"rows": 0, "draws": 0}

    def p3p_batch(P, f):
        counted["rows"] += len(P)
        return _p3p_batch(P, f)

    def draw(rng, weights, m):
        counted["draws"] += m
        return _draw_minimal_samples(rng, weights, m)

    rule = patched_ransac_rule(fixed_budget=not adaptive, span_px=span_px)
    with monkeypatch.context() as m, rule:
        m.setattr(pnp, "_p3p_batch", p3p_batch)
        m.setattr(pnp, "_draw_minimal_samples", draw)
        a = _one_run(corrs, K, cfg, None)
    b = pnp_oracle.ransac_pnp(corrs, K, cfg, None, adaptive=adaptive, span_px=span_px)
    _assert_same_result(a, b)
    return a, counted


def _assert_bitwise_equal(a, b):
    if b is None:
        assert a is None
        return
    assert a is not None
    assert np.array_equal(a.pose.rotation, b.pose.rotation)
    assert np.array_equal(a.pose.center, b.pose.center)
    assert np.array_equal(a.inlier_indices, b.inlier_indices)
    assert a.iterations_used == b.iterations_used
    assert a.mean_reprojection_error_px == b.mean_reprojection_error_px


def _lockstep_runs():
    """(batch, cfg, weights) runs of every kind a query's lockstep call
    meets: a success over two rounds, a doomed wrong-place image with 13
    outliers, a batch below min_inliers, one below 4 correspondences, one
    whose pixels all lie within 10 px so that every draw is degenerate
    while the other runs' draws are not, and a weighted run."""
    rng = np.random.default_rng(80)
    K = default_intrinsics()
    success = synthetic_correspondences(rng, K, random_pose(rng), 40, outlier_frac=0.6,
                                        pixel_noise=0.5)
    doomed = synthetic_correspondences(rng, K, random_pose(rng), 13, outlier_frac=1.0)
    below_min = synthetic_correspondences(rng, K, random_pose(rng), 5)
    three = synthetic_correspondences(rng, K, random_pose(rng), 3)
    clustered = synthetic_correspondences(rng, K, random_pose(rng), 20)
    clustered = replace(clustered, pixels=200.0 + 0.01 * clustered.pixels)  # 6.2 px wide
    weighted = synthetic_correspondences(rng, K, random_pose(rng), 60, outlier_frac=0.5,
                                         pixel_noise=0.5)
    w = rng.uniform(0.0, 1.0, 60)
    w /= w.sum()
    temp = dict(min_inliers=6, max_iterations=300)
    return [
        (success, RansacConfig(seed=1, **temp), None),
        (doomed, RansacConfig(seed=2, **temp), None),
        (below_min, RansacConfig(seed=3, **temp), None),
        (three, RansacConfig(seed=4, min_inliers=3), None),
        (clustered, RansacConfig(seed=5, min_inliers=6, max_iterations=10), None),
        (weighted, RansacConfig(seed=6, max_iterations=1000), w),
    ]


class TestLockstep:
    """Runs advanced together return bitwise what each returns alone, and
    every round solves all of its runs' samples in one P3P call."""

    def test_each_run_equals_the_run_alone(self, monkeypatch):
        K = default_intrinsics()
        runs = _lockstep_runs()
        calls, scored = [], []

        def p3p_batch(P, f):
            calls.append(len(P))
            return _p3p_batch(P, f)

        def score_hypotheses(R, *args):
            scored.append(len(R))
            return _score_hypotheses(R, *args)

        monkeypatch.setattr(pnp, "_p3p_batch", p3p_batch)
        monkeypatch.setattr(pnp, "_score_hypotheses", score_hypotheses)
        alone, solves_alone = [], []
        for corrs, cfg, w in runs:
            calls.clear()
            alone.append(_one_run(corrs, K, cfg, w))
            solves_alone.append(len(calls))
        calls.clear()
        together = _ransac_pnp(runs, K)
        assert len(together) == len(runs)
        for a, b in zip(together, alone):
            _assert_bitwise_equal(a, b)
        # the success and the weighted run find models; the doomed and the
        # clustered runs do not, and the 5-point and the 3-point runs draw
        # nothing
        assert [s is not None for s in alone] == [True, False, False, False, False, True]
        # the clustered run draws up to its draw cap, every sample
        # degenerate, and solves none of them, alone or together; every
        # run starts with a short round, so the success solves in 3 rounds
        # and the doomed and the weighted runs in 2
        assert solves_alone == [3, 2, 0, 0, 0, 2]
        # one P3P call per round that keeps a sample, each solving every
        # live run's samples; no call solves or scores nothing.  As more
        # than one run draws, only the first two (the success and the
        # doomed run) draw in round 1, and the others start in round 2:
        # the success solves 16 + 64 + 25, the doomed run 16 + 51 and the
        # weighted run 16 + 64, as many as alone
        assert calls == [16 + 16, 64 + 51 + 0 + 16, 25 + 64]
        assert 0 not in scored

    def test_temporary_poses_equal_one_call_per_batch(self):
        K = default_intrinsics()
        runs = [(corrs, cfg) for corrs, cfg, w in _lockstep_runs() if w is None]
        together = estimate_temporary_pose([c for c, _ in runs], K, [cfg for _, cfg in runs])
        assert together[3] is None  # fewer than 4 correspondences
        for a, (corrs, cfg) in zip(together, runs):
            _assert_bitwise_equal(a, _temporary(corrs, K, cfg))

    def test_batches_and_configs_must_pair_up(self):
        K = default_intrinsics()
        corrs = synthetic_correspondences(np.random.default_rng(81), K, random_pose(
            np.random.default_rng(82)), 10)
        with pytest.raises(ValueError, match="zip"):
            estimate_temporary_pose([corrs, corrs], K, [RansacConfig()])


def _seen_elsewhere(rng, K, pixels, outliers=0):
    """Correspondences of the same query pixels at another place: each pixel
    back-projected from a random pose at a random depth, the first outliers
    of them displaced as gross outliers."""
    pose = random_pose(rng)
    cam = pixel_rays(pixels, K) * rng.uniform(2.0, 10.0, (len(pixels), 1))
    points = cam @ pose.rotation + pose.center
    points[:outliers] += rng.normal(scale=3.0, size=(outliers, 3))
    return CorrespondenceBatch(pixels, points, ["db1"] * len(pixels), ["fam"] * len(pixels))


class TestCrossRunVerdict:
    """estimate_temporary_pose stops a run before its second round, or a
    run past the first two before its first, when the other runs' winners
    contradict all but fewer than min_inliers of its rows and it has no
    winner of its own; every other run returns bitwise its result alone."""

    @staticmethod
    def _wrong_place(rng, K, correct):
        """12 of the correct batch's query keypoints at points 1-4 m from
        its points, plus 3 gross outliers of their own: below min_inliers
        = 6 once the correct run's winner claims the 12."""
        rows = rng.choice(len(correct), 12, replace=False)
        shift = rng.normal(size=(12, 3))
        shift *= rng.uniform(1.0, 4.0, (12, 1)) / np.linalg.norm(shift, axis=1, keepdims=True)
        moved = CorrespondenceBatch(correct.pixels[rows], correct.points[rows] + shift,
                                    ["db1"] * 12, ["fam"] * 12)
        own = synthetic_correspondences(rng, K, random_pose(rng), 3, outlier_frac=1.0)
        return CorrespondenceBatch.concat([moved, own])

    @staticmethod
    def _by_round(monkeypatch, batches):
        """Each batch's solo _ransac_pnp result, the estimate_temporary_pose
        results, the batches whose samples each of the call's P3P rounds
        solves, and the call's runs in batch order."""
        K = default_intrinsics()
        cfgs = [RansacConfig(min_inliers=6, seed=seed, max_iterations=300)
                for seed in range(len(batches))]
        owner = {p.tobytes(): i for i, batch in enumerate(batches) for p in batch.points}
        rounds, runs = [], []

        def p3p_batch(P, f):
            rounds.append({owner[p.tobytes()] for p in P.reshape(-1, 3)})
            return _p3p_batch(P, f)

        class Run(pnp._RansacRun):
            def __init__(self, *args):
                super().__init__(*args)
                runs.append(self)

        alone = [_one_run(batch, K, cfg, None) for batch, cfg in zip(batches, cfgs)]
        monkeypatch.setattr(pnp, "_p3p_batch", p3p_batch)
        monkeypatch.setattr(pnp, "_RansacRun", Run)
        return alone, estimate_temporary_pose(batches, K, cfgs), rounds, runs

    @staticmethod
    def _solve(monkeypatch, batches, cfgs):
        """Each batch's solo result, the call's results and the rows of each
        of the call's P3P rounds."""
        K = default_intrinsics()
        calls = []

        def p3p_batch(P, f):
            calls.append(len(P))
            return _p3p_batch(P, f)

        monkeypatch.setattr(pnp, "_p3p_batch", p3p_batch)
        alone = [_temporary(batch, K, cfg) for batch, cfg in zip(batches, cfgs)]
        calls.clear()
        return alone, estimate_temporary_pose(batches, K, cfgs), calls

    def test_wrong_place_runs_stop_after_their_first_round(self, monkeypatch):
        # one correct-place batch of 40 rows and three wrong-place batches,
        # each 12 of its query keypoints 1-4 m from the correct points plus
        # 3 rows of its own, below min_inliers = 6
        rng = np.random.default_rng(90)
        K = default_intrinsics()
        correct = synthetic_correspondences(rng, K, random_pose(rng), 40, pixel_noise=0.5)
        batches = [correct] + [self._wrong_place(rng, K, correct) for _ in range(3)]
        cfgs = [RansacConfig(min_inliers=6, seed=seed, max_iterations=300) for seed in range(4)]
        alone, together, calls = self._solve(monkeypatch, batches, cfgs)
        assert alone[0] is not None and alone[0].num_inliers == 40
        assert alone[1:] == together[1:] == [None, None, None]
        _assert_bitwise_equal(together[0], alone[0])
        # one round of at most 16 samples a run, of the first two runs
        # only: the correct run's winner stops the wrong-place runs, the
        # second before its second round and the last two before their
        # first, while alone each solves the min-inliers bound of 15 rows,
        # 105 samples
        assert _bound(6, 15) == 105
        assert len(calls) == 1 and calls[0] <= pnp._FIRST_RUNS * pnp._FIRST_ROUND

    def test_lower_ranked_wrong_place_runs_stop_before_they_draw(self, monkeypatch):
        # two views of the correct place at ranks 0 and 1, through 40 and
        # 30 query keypoints of their own, and below them three wrong-place
        # batches that reuse 12 of rank 0's query keypoints
        rng = np.random.default_rng(92)
        K = default_intrinsics()
        pose = random_pose(rng)
        batches = [synthetic_correspondences(rng, K, pose, n, pixel_noise=0.5) for n in (40, 30)]
        batches += [self._wrong_place(rng, K, batches[0]) for _ in range(3)]
        alone, together, rounds, runs = self._by_round(monkeypatch, batches)
        assert [a is not None for a in alone] == [True, True, False, False, False]
        assert together[2:] == [None, None, None]
        for a, b in zip(together, alone):
            _assert_bitwise_equal(a, b)
        # round 1 solves the first two runs' samples alone; the verdict
        # then stops the wrong-place runs before they build a generator
        assert rounds[0] == {0, 1}
        assert not {2, 3, 4} & set().union(*rounds)
        assert [run.rng is None for run in runs] == [False, False, True, True, True]
        assert all(run.bearings is None and run.it == 0 for run in runs[2:])

    def test_a_lower_ranked_run_that_no_winner_contradicts_starts_in_round_two(self,
                                                                               monkeypatch):
        # ranks 0 and 1 as above; rank 2 sees another place, 40% outliers,
        # through 30 query keypoints that no other batch holds
        rng = np.random.default_rng(93)
        K = default_intrinsics()
        pose = random_pose(rng)
        batches = [synthetic_correspondences(rng, K, pose, n, pixel_noise=0.5) for n in (40, 30)]
        batches.append(synthetic_correspondences(rng, K, random_pose(rng), 30, outlier_frac=0.4,
                                                 pixel_noise=0.5))
        alone, together, rounds, _ = self._by_round(monkeypatch, batches)
        assert all(a is not None for a in alone)
        for a, b in zip(together, alone):
            _assert_bitwise_equal(a, b)
        assert rounds[0] == {0, 1} and 2 in rounds[1]
        assert together[2].iterations_used > 1

    def test_without_a_winner_in_round_one_every_waiting_run_starts(self, monkeypatch):
        # ranks 0 and 1 are doomed, 13 gross outliers each, so round 1
        # finds no winner; below them a correct batch and two wrong-place
        # batches that reuse 12 of its query keypoints
        rng = np.random.default_rng(94)
        K = default_intrinsics()
        batches = [synthetic_correspondences(rng, K, random_pose(rng), 13, outlier_frac=1.0)
                   for _ in range(2)]
        correct = synthetic_correspondences(rng, K, random_pose(rng), 40, pixel_noise=0.5)
        batches += [correct] + [self._wrong_place(rng, K, correct) for _ in range(2)]
        alone, together, rounds, runs = self._by_round(monkeypatch, batches)
        assert [a is not None for a in alone] == [False, False, True, False, False]
        for a, b in zip(together, alone):
            _assert_bitwise_equal(a, b)
        # nothing is stopped before round 2: every waiting run draws in it,
        # and the correct run's winner stops the wrong-place runs only
        # after that short first round of theirs, so no third round comes
        assert rounds == [{0, 1}, {0, 1, 2, 3, 4}]
        assert all(run.rng is not None for run in runs)

    def test_a_run_with_its_own_winner_is_never_stopped(self, monkeypatch):
        # two places seen through the same 30 query keypoints, every pair of
        # points for one keypoint more than 1 m apart: the first batch is
        # exact, the second has 18 inliers and 12 outliers, so each winner
        # contradicts every row of the other run
        rng = np.random.default_rng(91)
        K = default_intrinsics()
        here = synthetic_correspondences(rng, K, random_pose(rng), 30, pixel_noise=0.5)
        there = _seen_elsewhere(rng, K, here.pixels, outliers=12)
        assert np.all(np.linalg.norm(there.points - here.points, axis=1) > 1.0)
        cfgs = [RansacConfig(min_inliers=6, seed=seed, max_iterations=300) for seed in (4, 5)]
        alone, together, calls = self._solve(monkeypatch, [here, there], cfgs)
        assert alone[0].num_inliers == 30
        assert alone[1] is not None and alone[1].num_inliers == 18
        for a, b in zip(together, alone):
            _assert_bitwise_equal(a, b)
        # a short first round, after which the second run, with a winner
        # of its own, goes on to its adaptive bound
        assert calls[0] <= 2 * pnp._FIRST_ROUND and len(calls) > 1


class TestIterationRule:
    """An iteration is one non-degenerate minimal sample, solved and scored;
    degenerate draws do not count, and a run stops after
    _MAX_SAMPLE_ATTEMPTS * max_iterations draws."""

    @staticmethod
    def _run(monkeypatch, span, max_iterations):
        """Result, P3P rows solved and samples drawn for 30 exact
        correspondences at the given pixel-span threshold."""
        rng = np.random.default_rng(76)
        corrs = synthetic_correspondences(rng, default_intrinsics(), random_pose(rng), 30)
        cfg = RansacConfig(min_inliers=3, seed=8, max_iterations=max_iterations)
        return _counted_run(monkeypatch, corrs, cfg, adaptive=False, span_px=span)

    def test_degenerate_draws_do_not_count(self, monkeypatch):
        # about 92% of the draws are degenerate; every iteration still
        # solves one sample
        sol, counted = self._run(monkeypatch, 550.0, 60)
        assert sol.iterations_used == 60 == counted["rows"]
        assert counted["draws"] < 20 * 60

    def test_draw_cap_ends_the_run(self, monkeypatch):
        sol, counted = self._run(monkeypatch, 600.0, 60)
        assert counted["draws"] == 20 * 60
        assert sol.iterations_used == 16 == counted["rows"]

    def test_all_degenerate_run_stops_at_the_draw_cap(self, monkeypatch):
        sol, counted = self._run(monkeypatch, 1e9, 50)
        assert sol is None
        assert counted == {"rows": 0, "draws": 20 * 50}


def _bound(min_inliers, n, confidence=0.999):
    """The RANSAC bound at inlier ratio min_inliers / n, from its formula."""
    return math.ceil(math.log(1.0 - confidence) / math.log(1.0 - (min_inliers / n) ** 3))


class TestMinInliersBound:
    """With adaptive stopping, a run stops once it has probably shown that
    no model reaches min_inliers: after the RANSAC bound at inlier ratio
    min_inliers / n.  A run below min_inliers correspondences draws
    nothing."""

    @staticmethod
    def _doomed():
        # 10 true inliers of 40: the true pose is the best model, but it
        # stays below min_inliers = 20
        rng = np.random.default_rng(78)
        return synthetic_correspondences(rng, default_intrinsics(), random_pose(rng), 40,
                                         outlier_frac=0.75)

    def test_doomed_run_stops_at_the_bound(self, monkeypatch):
        cfg = RansacConfig(min_inliers=20, seed=9, max_iterations=300)
        sol, counted = _counted_run(monkeypatch, self._doomed(), cfg)
        assert sol is None
        assert _bound(20, 40) == 52
        assert counted["rows"] == 52 and counted["draws"] == 65

    def test_without_adaptive_stopping_runs_max_iterations(self, monkeypatch):
        cfg = RansacConfig(min_inliers=20, seed=9, max_iterations=300)
        sol, counted = _counted_run(monkeypatch, self._doomed(), cfg, adaptive=False)
        assert sol is None
        assert counted["rows"] == 300

    def test_too_few_correspondences_draw_nothing(self, monkeypatch):
        rng = np.random.default_rng(79)
        corrs = synthetic_correspondences(rng, default_intrinsics(), random_pose(rng), 11)
        sol, counted = _counted_run(monkeypatch, corrs, RansacConfig(min_inliers=12, seed=0))
        assert sol is None
        assert counted == {"rows": 0, "draws": 0}

    def test_a_chance_that_leaves_one_minus_p_at_one_gives_the_cap(self):
        cfg = RansacConfig(max_iterations=777)
        assert 1.0 - 1e-17 == 1.0
        assert pnp._iterations_needed(1e-17, cfg) == 777
        assert pnp._iterations_needed(0.0, cfg) == 777

    def test_consensus_past_the_bound_is_given_up(self, monkeypatch):
        # 6 true inliers of 20 and min_inliers = 6: under seed 50 no
        # all-inlier sample comes within the bound's 253 iterations, and
        # one comes before 4 times as many
        rng = np.random.default_rng(77)
        pose = random_pose(rng)
        corrs = synthetic_correspondences(rng, default_intrinsics(), pose, 20, outlier_frac=0.7)
        bound = _bound(6, 20)
        assert bound == 253

        def run(max_iterations, adaptive):
            return _counted_run(monkeypatch, corrs, RansacConfig(
                min_inliers=6, seed=50, max_iterations=max_iterations), adaptive=adaptive)

        assert run(bound, False)[0] is None
        late = run(4 * bound, False)[0]
        assert late is not None and late.num_inliers == 6
        assert np.linalg.norm(late.pose.center - pose.center) < 1e-6
        sol, counted = run(4 * bound, True)
        assert sol is None
        assert counted["rows"] == bound


@st.composite
def ransac_runs(draw):
    """(batch, cfg, weights, span_px) of a uniform, a weighted or a partly
    degenerate run (about half its draws span less than span_px)."""
    kind = draw(st.sampled_from(["uniform", "weighted", "degenerate"]))
    seed = draw(st.integers(0, 2**16))
    n = draw(st.integers(8, 60))
    rng = np.random.default_rng(seed)
    corrs = synthetic_correspondences(rng, default_intrinsics(), random_pose(rng), n,
                                      outlier_frac=draw(st.sampled_from([0.0, 0.4, 0.7])),
                                      pixel_noise=0.5)
    cfg = RansacConfig(min_inliers=draw(st.integers(4, 8)), seed=seed,
                       max_iterations=draw(st.integers(20, 200)))
    weights = None
    if kind == "weighted":
        w = rng.uniform(0.0, 1.0, n)
        w[rng.random(n) < 0.2] = 0.0
        weights = w / w.sum()
    span = 400.0 if kind == "degenerate" else pnp._MIN_PIXEL_SPAN_PX
    return corrs, cfg, weights, span


class TestFittedRounds:
    """A round draws what is left of its run's bound, with slack for
    degenerate draws; round sizes change no run's draws, scoring or
    winner."""

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(run=ransac_runs())
    def test_any_round_sizes_give_the_same_result(self, run):
        corrs, cfg, weights, span = run
        K = default_intrinsics()
        with patched_ransac_rule(span_px=span):
            fitted = _one_run(corrs, K, cfg, weights)
            with patched_round_size(pnp._CHUNK):
                fixed = _one_run(corrs, K, cfg, weights)
            with patched_round_size(1):
                single = _one_run(corrs, K, cfg, weights)
        _assert_bitwise_equal(fixed, fitted)
        _assert_bitwise_equal(single, fitted)
        _assert_same_result(fitted, pnp_oracle.ransac_pnp(corrs, K, cfg, weights, span_px=span))

    def test_doomed_run_ends_in_two_rounds(self, monkeypatch):
        # a wrong-place image: 13 gross outliers and min_inliers = 6, so the
        # run solves the bound's 67 samples: _FIRST_ROUND in its short
        # first round and the other 51 in its second
        rng = np.random.default_rng(85)
        K = default_intrinsics()
        calls, scored = [], []

        def p3p_batch(P, f):
            calls.append(len(P))
            return _p3p_batch(P, f)

        def score_hypotheses(R, *args):
            scored.append(len(R))
            return _score_hypotheses(R, *args)

        monkeypatch.setattr(pnp, "_p3p_batch", p3p_batch)
        monkeypatch.setattr(pnp, "_score_hypotheses", score_hypotheses)
        assert _bound(6, 13) == 67
        for seed in range(5):
            corrs = synthetic_correspondences(rng, K, random_pose(rng), 13, outlier_frac=1.0)
            calls.clear()
            scored.clear()
            cfg = RansacConfig(min_inliers=6, seed=seed, max_iterations=300)
            assert _temporary(corrs, K, cfg) is None
            assert calls == [16, 51]
            assert len(scored) == 2

    def test_a_uniform_run_alone_starts_with_a_small_round(self, monkeypatch):
        # no prior and no cross-run verdict: the first round still draws
        # _FIRST_ROUND samples, though the min-inliers bound asks more
        rng = np.random.default_rng(86)
        K = default_intrinsics()
        corrs = synthetic_correspondences(rng, K, random_pose(rng), 40, outlier_frac=0.6,
                                          pixel_noise=0.5)
        drawn = []

        def draw(rng, weights, m):
            drawn.append(m)
            return _draw_minimal_samples(rng, weights, m)

        monkeypatch.setattr(pnp, "_draw_minimal_samples", draw)
        cfg = RansacConfig(min_inliers=6, seed=1, max_iterations=300)
        assert _bound(6, 40) > pnp._FIRST_ROUND
        assert _one_run(corrs, K, cfg, None) is not None
        assert drawn[0] == pnp._FIRST_ROUND and len(drawn) > 1

    def test_weighted_run_starts_with_a_small_round(self, monkeypatch):
        # the mass bound stops a run with a prior within its first round of
        # 16 draws
        rng = np.random.default_rng(84)
        K = default_intrinsics()
        corrs = synthetic_correspondences(rng, K, random_pose(rng), 120, outlier_frac=2 / 3)
        w = np.where(np.arange(120) >= 80, 0.95 / 40, 0.05 / 80)
        drawn = []

        def draw(rng, weights, m):
            drawn.append(m)
            return _draw_minimal_samples(rng, weights, m)

        monkeypatch.setattr(pnp, "_draw_minimal_samples", draw)
        sol = weighted_ransac_pnp(corrs, w, K, RansacConfig(seed=3))
        assert sol.iterations_used <= 4
        assert drawn == [pnp._FIRST_ROUND]


def _verified_alone(run, K):
    """One run's re-verification on its own: the best model snapped to a
    rotation and its inliers restated over the run's own correspondences."""
    if run is None or run.best_R is None:
        return None
    pose = RigidPose(pnp._orthonormalized(run.best_R), run.best_C)
    _, err = pnp._errors(pose.rotation, pose.center, run.points, run.pixels, K)
    inl = err < run.cfg.inlier_threshold_px
    if inl.sum() < run.cfg.min_inliers:
        return None
    return PnPSolution(pose, np.flatnonzero(inl), float(err[inl].mean()), run.it)


class TestFinish:
    """_finish snaps every run's best model in one stacked call and
    re-verifies each run on its own rows; each run gets bitwise what
    re-verifying it alone gives, whatever the other runs' sizes."""

    @staticmethod
    def _run(corrs, cfg, R, C, it):
        run = pnp._RansacRun(corrs, default_intrinsics(), cfg, None)
        run.best_R, run.best_C, run.it = R, C, it
        return run

    def test_stacked_pass_equals_each_run_alone(self, monkeypatch):
        rng = np.random.default_rng(86)
        K = default_intrinsics()
        state = []
        for n in (3, 4, 5, 9, 17, 33, 64, 65, 120, 199, 200):
            pose = random_pose(rng)
            corrs = synthetic_correspondences(rng, K, pose, n, outlier_frac=0.3 if n > 3 else 0.0,
                                              pixel_noise=1.0)
            # a raw candidate is off orthonormality by rounding; _finish snaps it
            R = pose.rotation + rng.normal(scale=1e-6, size=(3, 3))
            state.append(self._run(corrs, RansacConfig(min_inliers=max(3, n // 3)), R,
                                   pose.center.copy(), n))
        # a model that fits every point until it is snapped to a rotation:
        # a rotation stretched along the optical axis scales the focal length
        pose = random_pose(rng)
        corrs = synthetic_correspondences(rng, K, pose, 30)
        stretched = np.diag([1.0, 1.0, 1.3]) @ pose.rotation
        corrs = replace(corrs, pixels=project_points(corrs.points, stretched, pose.center, K)[0])
        count, _ = _score_hypotheses(stretched[None], pose.center[None], corrs.points,
                                     corrs.pixels, K, 8.0)
        assert count.tolist() == [30]
        state.insert(2, self._run(corrs, RansacConfig(), stretched, pose.center, 7))
        # a run that found no model, and a batch below min_inliers (no run)
        state.insert(5, self._run(corrs, RansacConfig(min_inliers=6), None, None, 40))
        state.insert(8, None)
        built = []

        def rigid_pose(R, C):
            built.append(R)
            return RigidPose(R, C)

        expected = [_verified_alone(run, K) for run in state]
        monkeypatch.setattr(pnp, "RigidPose", rigid_pose)
        finished = pnp._finish(state, K)
        assert len(finished) == len(state)
        for a, b in zip(finished, expected):
            _assert_bitwise_equal(a, b)
        assert [i for i, s in enumerate(finished) if s is None] == [2, 5, 8]
        # a RigidPose only for each accepted model
        assert len(built) == len(state) - 3


_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def finite_matrices(draw):
    """Finite 3x3 matrices: full, rank 2, rank 1, zero, or reflected to a
    negative determinant."""
    R = np.array([draw(_finite) for _ in range(9)]).reshape(3, 3)
    kind = draw(st.sampled_from(["full", "rank2", "rank1", "zero", "reflected"]))
    with np.errstate(all="ignore"):
        if kind == "rank2":
            R[2] = draw(_finite) * R[0] + draw(_finite) * R[1]
        elif kind == "rank1":
            R = np.outer(R[0], R[1])
        elif kind == "zero":
            R = np.zeros((3, 3))
        elif kind == "reflected":
            R = R @ np.diag([1.0, 1.0, -1.0])
    assume(np.isfinite(R).all())
    return R


# Singular, rank-deficient and reflected matrices the SVD snap must handle.
_SPECIAL_MATRICES = [
    np.zeros((3, 3)),
    np.outer([1.0, 2.0, 3.0], [4.0, 5.0, 6.0]),
    np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [5.0, 7.0, 9.0]]),
    np.diag([1.0, 1.0, -1.0]),
    -np.eye(3),
]


class TestOrthonormalized:
    # _ransac_pnp builds its one RigidPose from a finite P3P candidate with
    # no fallback, so this construction must never raise
    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(finite_matrices(), st.lists(_finite, min_size=3, max_size=3))
    @example(_SPECIAL_MATRICES[0], [0.0, 0.0, 0.0])
    @example(_SPECIAL_MATRICES[1], [1.0, 2.0, 3.0])
    @example(_SPECIAL_MATRICES[2], [0.0, 0.0, 0.0])
    @example(_SPECIAL_MATRICES[3], [0.0, 0.0, 0.0])
    @example(_SPECIAL_MATRICES[4], [0.0, 0.0, 0.0])
    def test_any_finite_matrix_gives_a_valid_pose(self, R, centre):
        pose = RigidPose(pnp._orthonormalized(R), np.array(centre))
        assert np.array_equal(pose.center, centre)

    # solve_p3p snaps all its kept candidates in one call
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.lists(finite_matrices(), min_size=1, max_size=8))
    @example(_SPECIAL_MATRICES)
    def test_a_stack_equals_each_matrix_alone(self, matrices):
        stack = pnp._orthonormalized(np.array(matrices))
        for R, snapped in zip(matrices, stack, strict=True):
            assert snapped.tobytes() == pnp._orthonormalized(R).tobytes()
            RigidPose(snapped, np.zeros(3))


class TestStackedKernels:
    # the polish stacks these over every P3P candidate, while refine_pose
    # calls them at one pose: a stack's rows are bitwise the one-pose calls
    def test_pose_jacobian(self):
        rng = np.random.default_rng(40)
        K = default_intrinsics()
        R = np.array([random_pose(rng).rotation for _ in range(60)])
        C = rng.normal(size=(60, 3))
        P = C[:, None] + rng.normal(scale=4.0, size=(60, 5, 3))
        J = _pose_jacobian(R, C, P, K)
        assert J.shape == (60, 10, 6)
        behind = ((P - C[:, None]) @ R.transpose(0, 2, 1))[..., 2] <= 0.0
        assert 0 < behind.sum() < behind.size
        assert np.all(J.reshape(60, 5, 2, 6)[behind] == 0.0)
        for h in range(60):
            assert J[h].tobytes() == _pose_jacobian(R[h], C[h], P[h], K).tobytes()

    @pytest.mark.parametrize("n", [2, 5, 13])
    def test_errors(self, n):
        rng = np.random.default_rng(42 + n)
        K = default_intrinsics()
        R = np.array([random_pose(rng).rotation for _ in range(60)])
        C = rng.normal(size=(60, 3))
        P = C[:, None] + rng.normal(scale=4.0, size=(60, n, 3))
        pix = rng.uniform(0.0, 640.0, size=(60, n, 2))
        res, err = pnp._errors(R, C, P, pix, K)
        assert res.shape == (60, 2 * n) and err.shape == (60, n)
        behind = ((P - C[:, None]) @ R.transpose(0, 2, 1))[..., 2] <= 0.0
        assert 0 < behind.sum() < behind.size
        assert np.all(np.isinf(err[behind])) and np.all(np.isfinite(err[~behind]))
        for h in range(60):
            res_h, err_h = pnp._errors(R[h], C[h], P[h], pix[h], K)
            assert res_h.tobytes() == res[h].tobytes() and err_h.tobytes() == err[h].tobytes()
        # the errors are the norms of the residual pairs, and the errors-only
        # path gives their bits without the residual array
        sq = res * res
        assert err.tobytes() == np.sqrt(sq[:, 0::2] + sq[:, 1::2]).tobytes()
        none, err_only = pnp._errors(R, C, P, pix, K, residuals=False)
        assert none is None and err_only.tobytes() == err.tobytes()
        counts, inl = pnp._score_hypotheses(R, C, P[0], pix[0], K, 50.0)
        expected = pnp._errors(R, C, P[0], pix[0], K)[1] < 50.0
        assert np.array_equal(inl, expected) and counts.tolist() == expected.sum(axis=1).tolist()
        # solve_p3p passes an empty stack when no candidate is valid
        res, err = pnp._errors(np.empty((0, 3, 3)), np.empty((0, 3)), np.empty((0, n, 3)),
                               np.empty((0, n, 2)), K)
        assert res.shape == (0, 2 * n) and err.shape == (0, n)

    def test_pose_step(self):
        rng = np.random.default_rng(43)
        K = default_intrinsics()
        poses = [random_pose(rng) for _ in range(300)]
        R = np.array([p.rotation for p in poses])
        C = np.array([p.center for p in poses])
        corrs = [synthetic_correspondences(rng, K, p, 8, pixel_noise=2.0) for p in poses]
        P = np.array([c.points for c in corrs])
        C_off = C + rng.normal(scale=0.05, size=C.shape)
        res = pnp._errors(R, C_off, P, np.array([c.pixels for c in corrs]), K)[0]
        J = _pose_jacobian(R, C_off, P, K)
        for lam in (0.0, 1e-3):
            R_new, C_new = pnp._pose_step(R, C_off, J, res, lam)
            for h in range(300):
                R_h, C_h = pnp._pose_step(R[h], C_off[h], J[h], res[h], lam)
                assert R_h.tobytes() == R_new[h].tobytes()
                assert C_h.tobytes() == C_new[h].tobytes()
                # local_optimization's plain step and refine_pose's damped one
                if lam == 0.0:
                    delta = np.linalg.solve(J[h].T @ J[h], -(J[h].T @ res[h]))
                else:
                    delta = np.linalg.solve(J[h].T @ J[h] + lam * np.eye(6), -(J[h].T @ res[h]))
                assert R_h.tobytes() == (_exp_so3(delta[:3]) @ R[h]).tobytes()
                assert C_h.tobytes() == (C_off[h] + delta[3:]).tobytes()
        with pytest.raises(np.linalg.LinAlgError):
            pnp._pose_step(R[0], C[0], np.zeros((16, 6)), res[0])

    def test_score_hypotheses_counts_by_errors(self):
        # scoring and _finish's re-verification share one definition of an
        # inlier, even with the threshold at a correspondence's own error
        rng = np.random.default_rng(44)
        K = default_intrinsics()
        pose = random_pose(rng)
        corrs = synthetic_correspondences(rng, K, pose, 30, outlier_frac=0.3, pixel_noise=3.0)
        R = np.array([pose.rotation] * 20) + rng.normal(scale=1e-3, size=(20, 3, 3))
        C = pose.center + rng.normal(scale=0.02, size=(20, 3))
        err = np.array([pnp._errors(R[h], C[h], corrs.points, corrs.pixels, K)[1]
                        for h in range(20)])
        for t in np.unique(err[err < 50.0]):
            for threshold in (t, np.nextafter(t, np.inf)):
                _, inl = _score_hypotheses(R, C, corrs.points, corrs.pixels, K, threshold)
                assert np.array_equal(inl, err < threshold)

    def test_exp_so3(self):
        rng = np.random.default_rng(41)
        w = rng.normal(size=(200, 3)) * 10.0 ** rng.uniform(-13.0, 0.5, size=(200, 1))
        w[0] = 0.0
        w[1] = [3e-13, 0.0, 0.0]  # below the 1e-12 rad identity branch
        E = _exp_so3(w.reshape(4, 50, 3)).reshape(200, 3, 3)
        assert np.array_equal(E[0], np.eye(3)) and np.array_equal(E[1], np.eye(3))
        for h in range(200):
            assert E[h].tobytes() == _exp_so3(w[h]).tobytes()
        # and one vector's rotation is bitwise geometry's Rodrigues formula
        for v in w[2:]:
            theta = np.linalg.norm(v)
            if theta >= 1e-12:
                assert _exp_so3(v).tobytes() == rotation_about_axis(v, theta).tobytes()


def _exact_sample_chance(shares, inliers):
    """Chance that three distinct picks, each proportional to weight among
    the items left, are all inliers: a sum over ordered inlier triples."""
    return sum(shares[i] * shares[j] / (1.0 - shares[i])
               * shares[k] / (1.0 - shares[i] - shares[j])
               for i in inliers for j in inliers for k in inliers
               if len({i, j, k}) == 3)


class TestMassBound:
    """A weighted run stops at the RANSAC bound of the larger chance of an
    all-inlier sample, by its best model's inlier ratio or by _mass_chance
    of its inliers' weight shares, once that model has min_inliers
    inliers."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(weights=st.lists(st.floats(1e-3, 1.0), min_size=4, max_size=9),
           data=st.data())
    def test_mass_chance_bounds_the_exact_chance(self, weights, data):
        shares = np.array(weights) / sum(weights)
        inliers = data.draw(st.lists(st.integers(0, len(weights) - 1), min_size=3,
                                     unique=True))
        exact = _exact_sample_chance(shares, inliers)
        bound = pnp._mass_chance(shares[inliers])
        assert 0.0 <= bound <= exact * (1 + 1e-12)
        # M**3 is not a bound: distinct picks leave less inlier weight
        assert exact <= shares[inliers].sum() ** 3 * (1 + 1e-12)

    def test_mass_chance_is_exact_for_equal_inlier_shares(self):
        shares = np.array([0.1] * 6 + [0.4 / 3] * 3)
        exact = _exact_sample_chance(shares, range(6))
        assert pnp._mass_chance(shares[:6]) == pytest.approx(exact, rel=1e-12)
        # two heavy inliers and a light one: below M**3 = 0.729
        shares = np.array([0.4, 0.4, 0.1, 0.1])
        assert pnp._mass_chance(shares[:3]) == 0.9 * (0.5 / 0.6) * (0.1 / 0.2)
        assert _exact_sample_chance(shares, range(3)) < 0.9 ** 3

    def test_two_inliers_holding_all_the_inlier_mass_give_zero(self):
        # a sample's third pick can then never be an inlier; with all of
        # the sampling weight on the two, the bound's last factor is 0 / 0
        assert pnp._mass_chance(np.array([0.25, 0.75])) == 0.0
        assert pnp._mass_chance(np.array([0.5, 0.0, 0.25])) == 0.0
        # the sum rounds, so what the two leave of it is 2.8e-17, not 0
        assert pnp._mass_chance(np.array([0.1, 0.2])) == 0.0
        assert pnp._mass_chance(np.array([0.2, 0.1, 0.0])) == 0.0

    @staticmethod
    def _scene():
        """40 exact correspondences of one pose holding 0.2 of the weight,
        8 of another pose holding 0.75 and 12 gross outliers holding 0.05,
        their weights, and the first pose."""
        rng = np.random.default_rng(83)
        K = default_intrinsics()
        pose = random_pose(rng)
        full = synthetic_correspondences(rng, K, pose, 40)
        heavy = synthetic_correspondences(rng, K, random_pose(rng), 8)
        junk = synthetic_correspondences(rng, K, random_pose(rng), 12, outlier_frac=1.0)
        w = np.concatenate([np.full(40, 0.2 / 40), np.full(8, 0.75 / 8), np.full(12, 0.05 / 12)])
        corrs = CorrespondenceBatch.concat([full, heavy, junk])
        return corrs, w / w.sum(), pose

    def test_heavy_model_below_min_inliers_does_not_stop_the_run(self):
        # the 8 heavy items agree on a model with 0.75 of the mass, which
        # would stop the run after 15 iterations; below min_inliers it must
        # not, and the run goes on to the 40-inlier consensus
        corrs, weights, pose = self._scene()
        K = default_intrinsics()
        heavy = pnp._mass_chance(weights[40:48])
        assert pnp._iterations_needed(heavy, RansacConfig()) == 15
        for seed in range(5):
            cfg = RansacConfig(inlier_threshold_px=2.0, seed=seed, max_iterations=1000)
            sol = weighted_ransac_pnp(corrs, weights, K, cfg)
            assert sol is not None
            assert sol.inlier_indices.tolist() == list(range(40))
            assert np.linalg.norm(sol.pose.center - pose.center) < 1e-9

    def test_mass_stops_before_the_count_bound(self):
        # 40 inliers of 120 hold 0.95 of the weight: the count bound at
        # ratio 1/3 asks 184 iterations, the mass bound 4
        rng = np.random.default_rng(84)
        K = default_intrinsics()
        corrs = synthetic_correspondences(rng, K, random_pose(rng), 120, outlier_frac=2 / 3)
        w = np.where(np.arange(120) >= 80, 0.95 / 40, 0.05 / 80)
        cfg = RansacConfig(seed=3)
        assert pnp._iterations_needed((40 / 120) ** 3, cfg) == 184
        assert pnp._iterations_needed(pnp._mass_chance(w[80:] / w.sum()), cfg) == 4
        sol = weighted_ransac_pnp(corrs, w, K, cfg)
        assert sol.inlier_indices.tolist() == list(range(80, 120))
        assert sol.iterations_used <= 4
        plain = _temporary(corrs, K, cfg)
        assert plain.inlier_indices.tolist() == list(range(80, 120))
        assert plain.iterations_used >= 40


def _errors_at(pose, corrs, K):
    return pnp._errors(pose.rotation, pose.center, corrs.points, corrs.pixels, K)[1]


class TestLocalOptimization:
    """local_optimization re-collects a winner's inliers at 2x and 1x the
    threshold and steps on them; no kept step lowers the inlier count, and
    the settled solution restates its inliers over all correspondences."""

    @staticmethod
    def _short_winner(seed, short):
        """30 correspondences with 0.3 px noise, a pose perturbed off the
        true one, and a threshold at which that pose misses `short` of the
        30 while the true pose and the 2x threshold keep all of them."""
        rng = np.random.default_rng(seed)
        K = default_intrinsics()
        pose = random_pose(rng)
        corrs = synthetic_correspondences(rng, K, pose, 30, pixel_noise=0.3)
        R = _exp_so3(rng.normal(scale=0.004, size=3)) @ pose.rotation
        C = pose.center + rng.normal(scale=0.01, size=3)
        winner_pose = RigidPose(pnp._orthonormalized(R), C)
        err = _errors_at(winner_pose, corrs, K)
        ranked = np.sort(err)
        threshold = 0.5 * (ranked[-short - 1] + ranked[-short])
        assert ranked[-1] < 2.0 * threshold
        assert (_errors_at(pose, corrs, K) < threshold).all()
        inliers = np.flatnonzero(err < threshold)
        assert len(inliers) == 30 - short
        winner = PnPSolution(winner_pose, inliers, float(err[inliers].mean()), 17)
        return corrs, winner, threshold

    @pytest.mark.parametrize("short", [1, 2])
    def test_winner_short_of_the_consensus_gets_all_of_it(self, short):
        K = default_intrinsics()
        for seed in range(5):
            corrs, winner, threshold = self._short_winner(seed, short)
            settled = local_optimization(winner, corrs, K, threshold)
            assert settled.inlier_indices.tolist() == list(range(30))
            err = _errors_at(settled.pose, corrs, K)
            assert settled.mean_reprojection_error_px == float(err.mean())
            assert settled.iterations_used == 17
            # the LM then runs on the full set
            refined = refine_pose(settled, corrs, K)
            full = refine_pose(replace(winner, inlier_indices=np.arange(30)), corrs, K)
            assert np.linalg.norm(refined.center - full.center) < 1e-6
            assert rotation_error_deg(refined.rotation, full.rotation) < 1e-5

    def test_inlier_count_never_falls(self):
        # perturbed winners among gross outliers, some of which fall inside
        # the 2x threshold and pull the steps off
        rng = np.random.default_rng(85)
        K = default_intrinsics()
        kept = 0
        for _ in range(40):
            pose = random_pose(rng)
            corrs = synthetic_correspondences(rng, K, pose, 40, outlier_frac=0.4,
                                              pixel_noise=1.0)
            R = _exp_so3(rng.normal(scale=0.01, size=3)) @ pose.rotation
            C = pose.center + rng.normal(scale=0.03, size=3)
            winner_pose = RigidPose(pnp._orthonormalized(R), C)
            err = _errors_at(winner_pose, corrs, K)
            winner = PnPSolution(winner_pose, np.flatnonzero(err < 3.0), 0.0)
            settled = local_optimization(winner, corrs, K, 3.0)
            if settled is winner:
                continue
            kept += 1
            after = _errors_at(settled.pose, corrs, K)
            assert settled.inlier_indices.tolist() == np.flatnonzero(after < 3.0).tolist()
            assert settled.mean_reprojection_error_px == float(after[after < 3.0].mean())
            assert settled.num_inliers >= winner.num_inliers
        assert kept >= 30

    def test_winner_with_nothing_between_1x_and_2x_is_returned_as_is(self):
        # exact inliers and gross outliers: the 2x set is the winner's own
        # inlier set, which refine_pose refines next, so no step is taken
        rng = np.random.default_rng(86)
        K = default_intrinsics()
        pose = random_pose(rng)
        corrs = synthetic_correspondences(rng, K, pose, 30, outlier_frac=0.3)
        err = _errors_at(pose, corrs, K)
        assert not ((err >= 1.0) & (err < 2.0)).any()
        winner = PnPSolution(pose, np.flatnonzero(err < 1.0), 0.0)
        assert local_optimization(winner, corrs, K, 1.0) is winner

    def test_a_step_pulls_in_points_beyond_twice_the_threshold(self):
        # a rotated winner keeps 12 of 30 inliers and 27 within 2x; the
        # steps on those 27 bring the other 3 within 1x, and the 1x set is
        # re-collected from every correspondence, so all 30 are kept
        rng = np.random.default_rng(1)
        K = default_intrinsics()
        pose = random_pose(rng)
        corrs = synthetic_correspondences(rng, K, pose, 30, pixel_noise=0.3)
        R = _exp_so3(rng.normal(scale=0.02, size=3)) @ pose.rotation
        winner_pose = RigidPose(pnp._orthonormalized(R), pose.center)
        err = _errors_at(winner_pose, corrs, K)
        threshold = float(np.sort(err)[12])
        winner = PnPSolution(winner_pose, np.flatnonzero(err < threshold), 0.0)
        assert winner.num_inliers == 12
        assert (err < 2.0 * threshold).sum() == 27
        settled = local_optimization(winner, corrs, K, threshold)
        assert settled.inlier_indices.tolist() == list(range(30))

    def test_a_row_stepped_behind_the_camera_ends_the_set(self):
        # the winner sits 1 cm behind the true centre along its optical
        # axis; one extra row lies on that axis 5 mm in front of it, so the
        # first step on the 2x set, towards the true centre, moves that row
        # behind the camera.  Its residuals turn inf there, and the set's
        # second step is not taken: the stepped normal equations would hold
        # NaN (a RuntimeWarning in matmul, an error under the suite's
        # warning filters).
        rng = np.random.default_rng(0)
        K = default_intrinsics()
        center = np.array([0.0, 0.0, 0.01])
        pixels = rng.uniform(40, [600, 440], size=(30, 2))
        depth = rng.uniform(2.0, 4.0, size=30)
        points = np.column_stack([(pixels[:, 0] - K.cx) / K.fx * depth,
                                  (pixels[:, 1] - K.cy) / K.fy * depth, depth]) + center
        points = np.vstack([points, [0.0, 0.0, 0.005]])
        pixels = np.vstack([pixels, [K.cx, K.cy]])
        corrs = CorrespondenceBatch(pixels, points, ["db"] * 31, ["fam"] * 31)
        winner_pose = RigidPose(np.eye(3), np.zeros(3))
        err = _errors_at(winner_pose, corrs, K)
        threshold = float(np.sort(err[:30])[-3])
        assert err[30] == 0.0 and 0 < ((err >= threshold) & (err < 2 * threshold)).sum()
        winner = PnPSolution(winner_pose, np.flatnonzero(err < threshold), 0.0)
        settled = local_optimization(winner, corrs, K, threshold)
        after = _errors_at(settled.pose, corrs, K)
        assert after[30] == np.inf
        assert settled.inlier_indices.tolist() == list(range(30))
        assert np.linalg.norm(settled.pose.center - center) < 1e-9


class TestRefinePose:
    def test_zero_residual_fixed_point(self):
        rng = np.random.default_rng(19)
        K = default_intrinsics()
        pose = random_pose(rng)
        corrs = synthetic_correspondences(rng, K, pose, 40)
        sol = _temporary(corrs, K, RansacConfig(min_inliers=6, seed=0))
        refined = refine_pose(sol, corrs, K)
        res = pnp._errors(refined.rotation, refined.center, corrs.points, corrs.pixels, K)[0]
        rms = math.sqrt(float(res @ res) / len(res))
        assert rms <= 1e-10

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(20)
        K = default_intrinsics()
        pose = random_pose(rng)
        corrs = synthetic_correspondences(rng, K, pose, 15, pixel_noise=1.0)
        points, pixels = corrs.points, corrs.pixels
        R0, C0 = np.array(pose.rotation), np.array(pose.center)

        def residual(delta):
            R = _exp_so3(delta[:3]) @ R0
            C = C0 + delta[3:]
            r = pnp._errors(R, C, points, pixels, K)[0]
            return r

        J = _pose_jacobian(R0, C0, points, K)
        h = 1e-6
        worst = 0.0
        for k in range(6):
            e = np.zeros(6)
            e[k] = h
            fd = (residual(e) - residual(-e)) / (2 * h)
            num = np.abs(J[:, k] - fd)
            den = np.maximum(np.abs(J[:, k]), 1.0)
            worst = max(worst, float(np.max(num / den)))
        assert worst < 1e-5

    def test_improves_noisy_pose_most_of_the_time(self):
        rng = np.random.default_rng(21)
        K = default_intrinsics()
        improved = 0
        trials = 60
        for t in range(trials):
            pose = random_pose(rng)
            corrs = synthetic_correspondences(rng, K, pose, 100, pixel_noise=1.0)
            sol = _temporary(corrs, K, RansacConfig(min_inliers=6, seed=t))
            refined = refine_pose(sol, corrs, K)
            before = np.linalg.norm(sol.pose.center - pose.center)
            after = np.linalg.norm(refined.center - pose.center)
            improved += after < before
        assert improved >= 0.9 * trials

    def test_cost_never_increases(self):
        rng = np.random.default_rng(22)
        K = default_intrinsics()
        for t in range(20):
            pose = random_pose(rng)
            corrs = synthetic_correspondences(rng, K, pose, 50, pixel_noise=2.0)
            sol = _temporary(corrs, K, RansacConfig(min_inliers=6, seed=t))
            pts = corrs.points[sol.inlier_indices]
            pix = corrs.pixels[sol.inlier_indices]
            r0 = pnp._errors(sol.pose.rotation, sol.pose.center, pts, pix, K)[0]
            refined = refine_pose(sol, corrs, K)
            r1 = pnp._errors(refined.rotation, refined.center, pts, pix, K)[0]
            assert float(r1 @ r1) <= float(r0 @ r0) + 1e-12


    def test_converged_pose_stops_after_one_step(self, monkeypatch):
        # refining a refined pose: its one step changes the cost only by
        # rounding, which ends the refinement instead of a run of rejected
        # steps with growing damping
        rng = np.random.default_rng(24)
        K = default_intrinsics()
        steps = []

        def jacobian(*args):
            steps.append(1)
            return _pose_jacobian(*args)

        monkeypatch.setattr(pnp, "_pose_jacobian", jacobian)
        for t in range(10):
            pose = random_pose(rng)
            corrs = synthetic_correspondences(rng, K, pose, 40, pixel_noise=1.0)
            sol = PnPSolution(pose, np.arange(40), 0.0)
            once = refine_pose(sol, corrs, K)
            steps.clear()
            twice = refine_pose(replace(sol, pose=once), corrs, K)
            assert len(steps) == 1
            assert np.linalg.norm(twice.center - once.center) < 1e-9


class TestRefinePoseSafetyBranches:
    """refine_pose's exits and retries that a well-posed refinement does not
    reach: a start it cannot refine, a singular or non-finite step, and
    damping past 1e12."""

    @staticmethod
    def _noisy():
        """40 correspondences of a pose at 1 px noise and a solution at that
        pose holding every row."""
        rng = np.random.default_rng(25)
        pose = random_pose(rng)
        corrs = synthetic_correspondences(rng, default_intrinsics(), pose, 40, pixel_noise=1.0)
        return corrs, PnPSolution(pose, np.arange(40), 0.0)

    @staticmethod
    def _cost(pose, corrs):
        res = pnp._errors(pose.rotation, pose.center, corrs.points, corrs.pixels,
                          default_intrinsics())[0]
        return float(res @ res)

    @staticmethod
    def _steps(monkeypatch, step):
        """The damping of every _pose_step call, which step(call, original,
        R, C, J, res, lam) answers in place of the production step; call
        counts from 1 and original is the production _pose_step."""
        lams = []
        original = pnp._pose_step

        def patched(R, C, J, res, lam=0.0):
            lams.append(lam)
            return step(len(lams), original, R, C, J, res, lam)

        monkeypatch.setattr(pnp, "_pose_step", patched)
        return lams

    @staticmethod
    def _behind(R, C):
        """The pose moved 1e6 m along its optical axis: every point is
        behind it, so its residuals are inf."""
        return R, C + 1e6 * R[2]

    def test_a_non_finite_start_returns_the_initial_pose(self, monkeypatch):
        corrs, sol = self._noisy()
        points = corrs.points.copy()
        points[0] = 2.0 * sol.pose.center - points[0]  # reflected behind the camera
        lams = self._steps(monkeypatch, lambda *args: pytest.fail("no step expected"))
        assert refine_pose(sol, replace(corrs, points=points), default_intrinsics()) is sol.pose
        assert lams == []

    def test_a_zero_starting_cost_returns_the_initial_pose(self, monkeypatch):
        corrs, sol = self._noisy()
        pixels = project_points(corrs.points, sol.pose.rotation, sol.pose.center,
                                default_intrinsics())[0]
        exact = replace(corrs, pixels=pixels)
        assert self._cost(sol.pose, exact) == 0.0
        lams = self._steps(monkeypatch, lambda *args: pytest.fail("no step expected"))
        assert refine_pose(sol, exact, default_intrinsics()) is sol.pose
        assert lams == []

    def test_a_singular_step_is_retried_with_ten_times_the_damping(self, monkeypatch):
        corrs, sol = self._noisy()

        def step(call, original, *args):
            if call == 1:
                raise np.linalg.LinAlgError("singular matrix")
            return original(*args)

        lams = self._steps(monkeypatch, step)
        refined = refine_pose(sol, corrs, default_intrinsics())
        assert lams[:2] == [1e-6, 1e-6 * 10.0]
        assert self._cost(refined, corrs) < self._cost(sol.pose, corrs)

    def test_a_step_with_non_finite_residuals_is_rejected(self, monkeypatch):
        corrs, sol = self._noisy()

        def step(call, original, *args):
            R, C = original(*args)
            return self._behind(R, C) if call == 1 else (R, C)

        lams = self._steps(monkeypatch, step)
        refined = refine_pose(sol, corrs, default_intrinsics())
        assert lams[:2] == [1e-6, 1e-6 * 10.0]
        assert self._cost(refined, corrs) < self._cost(sol.pose, corrs)

    def test_damping_past_1e12_ends_the_refinement(self, monkeypatch):
        corrs, sol = self._noisy()
        lams = self._steps(monkeypatch, lambda call, original, R, C, *args: self._behind(R, C))
        refined = refine_pose(sol, corrs, default_intrinsics())
        lam, expected = 1e-6, []
        while lam <= 1e12:
            expected.append(lam)
            lam *= 10.0
        assert lams == expected and len(lams) < pnp._REFINE_MAX_STEPS
        assert refined.rotation.tobytes() == sol.pose.rotation.tobytes()
        assert refined.center.tobytes() == sol.pose.center.tobytes()


class TestContaminationMini:
    def test_weighted_beats_uniform_with_scored_outlier_image(self):
        # one wrong retrieved image contributes 60% of the matches with a
        # coherent (but misplaced) consensus; its near-zero score steers the
        # weighted sampler away from it
        rng = np.random.default_rng(23)
        K = default_intrinsics()
        w_ok = 0
        u_ok = 0
        trials = 30
        for t in range(trials):
            pose = random_pose(rng)
            good = synthetic_correspondences(rng, K, pose, 32, source_id="good")
            shift = np.array([20.0, 0.0, 0.0])
            wrong = synthetic_correspondences(rng, K, pose, 48, source_id="wrong")
            wrong = replace(wrong, points=wrong.points + shift)
            corrs = CorrespondenceBatch.concat([good, wrong])
            # weights as normalize_weights would produce: wrong image scored 0
            weighted = np.where(corrs.image_ids == "good", 1.0 / 32, 0.0)
            uniform = np.full(len(corrs), 1.0 / len(corrs))
            cfg = RansacConfig(min_inliers=12, seed=900 + t, max_iterations=200,
                               inlier_threshold_px=2.0)
            with patched_ransac_rule(fixed_budget=True):
                sw = weighted_ransac_pnp(corrs, weighted, K, cfg)
                su = weighted_ransac_pnp(corrs, uniform, K, cfg)
            w_ok += sw is not None and np.linalg.norm(sw.pose.center - pose.center) < 0.05
            u_ok += su is not None and np.linalg.norm(su.pose.center - pose.center) < 0.05
        assert w_ok > u_ok
        assert w_ok >= 0.9 * trials


class TestRansacConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ValueError):
            RansacConfig(inlier_threshold_px=0.0)
        with pytest.raises(ValueError):
            RansacConfig(max_iterations=0)
        with pytest.raises(ValueError, match="min_inliers"):
            RansacConfig(min_inliers=2)
        assert RansacConfig(min_inliers=3).min_inliers == 3

    def test_stopping_rule_and_pixel_span_are_not_options(self):
        # every run uses both stopping bounds at the module's 0.999
        # confidence and the module's 10 px span
        assert [f.name for f in fields(RansacConfig)] == [
            "inlier_threshold_px", "max_iterations", "min_inliers", "seed"]
        with pytest.raises(TypeError):
            RansacConfig(adaptive_stopping=False)
        with pytest.raises(TypeError):
            RansacConfig(min_pixel_span_px=1.0)
        with pytest.raises(TypeError):
            RansacConfig(confidence=0.99)
