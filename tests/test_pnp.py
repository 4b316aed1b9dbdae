"""Minimal solver, RANSAC, weighted sampling, and refinement tests.

P3P correctness is established through forward synthesis (project a known
pose, solve, require the pose among the solutions) plus solver
self-consistency (all solutions must reproject the minimal set).  The
refinement Jacobian is validated against central finite differences.

The chunked RANSAC is checked against the one-sample-at-a-time oracles in
pnp_oracle: the same draws and RNG state, the same degeneracy decisions,
the same P3P candidates in the same order, and the same RANSAC results.
Runs advanced in lockstep are checked bitwise against each run alone.
"""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from semloc import pnp
from semloc.geometry import RigidPose, project, rotation_error_deg
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
    _reprojection_residuals,
    _ransac_pnp,
    estimate_temporary_pose,
    refine_pose,
    solve_p3p,
    weighted_ransac_pnp,
)

import pnp_oracle
from conftest import (
    default_intrinsics,
    patched_ransac_rule,
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


class TestSolveP3P:
    def test_recovers_forward_synthesized_pose(self):
        rng = np.random.default_rng(1)
        K = default_intrinsics()
        for _ in range(100):
            pose = random_pose(rng)
            corrs = synthetic_correspondences(rng, K, pose, 3)
            sols = solve_p3p(corrs.points, K, pixels=corrs.pixels)
            assert any(_pose_matches(s, pose) for s in sols)

    def test_collinear_points_rejected(self):
        K = default_intrinsics()
        pts = np.array([[0.0, 0.0, 5.0], [1.0, 0.0, 5.0], [2.0, 0.0, 5.0]])
        pix = np.array([[100.0, 100.0], [200.0, 100.0], [300.0, 100.0]])
        with pytest.raises(ValueError, match="collinear"):
            solve_p3p(pts, K, pixels=pix)

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
        pix = np.stack([project(p, pose, K) for p in pts])
        sols = solve_p3p(pts, K, pixels=pix)
        assert sols
        for s in sols:
            for p, z in zip(pts, pix):
                back = project(p, s, K)
                assert back is not None
                assert np.linalg.norm(back - z) < 1e-9

    def test_self_consistency_random(self):
        rng = np.random.default_rng(2)
        K = default_intrinsics()
        for _ in range(300):
            pose = random_pose(rng)
            corrs = synthetic_correspondences(rng, K, pose, 3)
            pts, pix = corrs.points, corrs.pixels
            for s in solve_p3p(pts, K, pixels=pix):
                for p, z in zip(pts, pix):
                    back = project(p, s, K)
                    assert back is not None
                    assert np.linalg.norm(back - z) < 1e-6

    def test_wrong_arity(self):
        K = default_intrinsics()
        rng = np.random.default_rng(3)
        corrs = synthetic_correspondences(rng, K, random_pose(rng), 4)
        with pytest.raises(ValueError, match="exactly 3"):
            solve_p3p(corrs.points, K, pixels=corrs.pixels)


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

    def test_shared_pixel_yields_no_candidates(self):
        # two identical bearings put the third ray in the plane of the first
        # two, so the quartic coefficients are non-finite: no candidates
        # instead of an exception out of np.roots
        K = default_intrinsics()
        pix = np.array([[K.cx, K.cy], [K.cx + 0.75 * K.fx, K.cy], [K.cx + 0.75 * K.fx, K.cy]])
        P = np.array([[0.0, 0.0, 5.0], [1.0, 0.0, 5.0], [0.0, 1.0, 5.0]])
        assert solve_p3p(P, K, pixels=pix) == []


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
            pix = project(corrs.points[i], sol.pose, K)
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
        uniform = replace(corrs, weights=np.full(30, 1 / 30))
        cfg = RansacConfig(min_inliers=6, seed=41)
        a = _temporary(corrs, K, cfg)
        b = weighted_ransac_pnp(uniform, K, cfg)
        assert np.array_equal(a.pose.rotation, b.pose.rotation)
        assert np.array_equal(a.pose.center, b.pose.center)
        assert np.array_equal(a.inlier_indices, b.inlier_indices)

    def test_requires_normalized_weights(self):
        rng = np.random.default_rng(13)
        K = default_intrinsics()
        corrs = synthetic_correspondences(rng, K, random_pose(rng), 10)
        with pytest.raises(ValueError, match="sum to 1"):
            weighted_ransac_pnp(corrs, K, RansacConfig(seed=0))

    def test_too_few_correspondences_raises(self):
        rng = np.random.default_rng(14)
        K = default_intrinsics()
        corrs = replace(synthetic_correspondences(rng, K, random_pose(rng), 3), weights=np.full(3, 1 / 3))
        with pytest.raises(ValueError, match="at least 4"):
            weighted_ransac_pnp(corrs, K, RansacConfig(seed=0))

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
            # iteration count.  Each such model fits its own three points to
            # ~1e-13 px, so the best-error tie-break between them is decided
            # by the last ulp: compare the count and the error, not the pick.
            cfg = RansacConfig(min_inliers=3, seed=t, max_iterations=300)
            a = _one_run(corrs, K, cfg, None)
            b = pnp_oracle.ransac_pnp(corrs, K, cfg, None)
            assert a.iterations_used == b.iterations_used
            full_budget += b.iterations_used == 300
            if b.num_inliers > 3:
                _assert_same_result(a, b)
            assert a.num_inliers == b.num_inliers
            assert abs(a.mean_reprojection_error_px - b.mean_reprojection_error_px) < 1e-9
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
        # about half of all samples are degenerate, so each 64-draw chunk
        # yields an uneven number of iterations and the run spans chunks
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
    meets: a success over two chunks, a doomed wrong-place image with 13
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
        calls = []

        def p3p_batch(P, f):
            calls.append(len(P))
            return _p3p_batch(P, f)

        monkeypatch.setattr(pnp, "_p3p_batch", p3p_batch)
        alone, rounds_alone = [], []
        for corrs, cfg, w in runs:
            calls.clear()
            alone.append(_one_run(corrs, K, cfg, w))
            rounds_alone.append(len(calls))
        calls.clear()
        together = _ransac_pnp(runs, K)
        assert len(together) == len(runs)
        for a, b in zip(together, alone):
            _assert_bitwise_equal(a, b)
        # the success, the 3-point and the weighted run find models; the
        # doomed and the clustered runs do not, and the 5-point run draws
        # nothing
        assert [s is not None for s in alone] == [True, False, False, True, False, True]
        assert rounds_alone == [2, 2, 0, 1, 4, 1]
        # one P3P call per round, each solving every live run's samples
        assert calls == [64 + 64 + 1 + 0 + 64, 41 + 3, 0, 0]

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
        assert counted["rows"] == 52 and counted["draws"] == 64

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


class TestOrthonormalized:
    # _ransac_pnp builds its one RigidPose from a finite P3P candidate with
    # no fallback, so this construction must never raise
    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(finite_matrices(), st.lists(_finite, min_size=3, max_size=3))
    @example(np.zeros((3, 3)), [0.0, 0.0, 0.0])
    @example(np.outer([1.0, 2.0, 3.0], [4.0, 5.0, 6.0]), [1.0, 2.0, 3.0])
    @example(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [5.0, 7.0, 9.0]]), [0.0, 0.0, 0.0])
    @example(np.diag([1.0, 1.0, -1.0]), [0.0, 0.0, 0.0])
    @example(-np.eye(3), [0.0, 0.0, 0.0])
    def test_any_finite_matrix_gives_a_valid_pose(self, R, centre):
        pose = RigidPose(*pnp._orthonormalized(R, np.array(centre)))
        assert np.array_equal(pose.center, centre)


class TestRefinePose:
    def test_zero_residual_fixed_point(self):
        rng = np.random.default_rng(19)
        K = default_intrinsics()
        pose = random_pose(rng)
        corrs = synthetic_correspondences(rng, K, pose, 40)
        sol = _temporary(corrs, K, RansacConfig(min_inliers=6, seed=0))
        refined = refine_pose(sol, corrs, K)
        res = _reprojection_residuals(refined.rotation, refined.center,
                                         corrs.points, corrs.pixels, K)
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
            r = _reprojection_residuals(R, C, points, pixels, K)
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
            r0 = _reprojection_residuals(sol.pose.rotation, sol.pose.center, pts, pix, K)
            refined = refine_pose(sol, corrs, K)
            r1 = _reprojection_residuals(refined.rotation, refined.center, pts, pix, K)
            assert float(r1 @ r1) <= float(r0 @ r0) + 1e-12


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
            weights = np.where(corrs.image_ids == "good", 1.0 / 32, 0.0)
            weighted = replace(corrs, weights=weights)
            uniform = replace(corrs, weights=np.full(len(corrs), 1.0 / len(corrs)))
            cfg = RansacConfig(min_inliers=12, seed=900 + t, max_iterations=200,
                               inlier_threshold_px=2.0)
            with patched_ransac_rule(fixed_budget=True):
                sw = weighted_ransac_pnp(weighted, K, cfg)
                su = weighted_ransac_pnp(uniform, K, cfg)
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
