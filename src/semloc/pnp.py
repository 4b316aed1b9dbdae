"""Absolute camera pose from 2D-3D correspondences.

Contents: a batched three-point minimal solver (direct quartic
parametrization of the camera position along the feature rays) whose
public form, solve_p3p, polishes every candidate of a stack together by
Gauss-Newton; a plain RANSAC loop for per-retrieved-image temporary poses;
a weighted RANSAC whose minimal samples are drawn with probability
proportional to the semantic weights; and Levenberg-Marquardt reprojection
refinement with the rotation updated on its manifold, after a local
optimization of the RANSAC winner's inlier set.  Each numeric job has one
kernel, stacked over leading pose axes, and a pose's row of a stack is
bitwise its one-pose call: _errors turns reprojection residuals into
per-correspondence errors (scoring, re-verification, the solver's 1e-6 px
check, local optimization); _pose_jacobian and _pose_step take one
Gauss-Newton step, damped for Levenberg-Marquardt (the solver's polish,
local optimization, refinement); _orthonormalized snaps to rotations.

Weighted and unweighted RANSAC share one code path (the unweighted case
runs with uniform weights), so equal weights reproduce plain RANSAC draw
for draw under the same seed.  Inlier counting is never weighted; weights
bias hypothesis sampling and, through the mass bound below, when a run
stops.

A RANSAC iteration is one non-degenerate minimal sample, solved and
scored; a degenerate draw (near-collinear world points, or pixels spanning
less than a fixed 10 px) is redrawn and does not count, and a run gives up
after _MAX_SAMPLE_ATTEMPTS * max_iterations draws.  Hypotheses are
evaluated in rounds: a round's minimal samples are drawn, checked for
degeneracy, solved by one vectorized P3P and scored by one reprojection of
every candidate against every correspondence.  A round is fitted to what
is left of the run's bound: a run that has at most 2 * _CHUNK iterations
left draws all of them plus a quarter and 4 for degenerate draws, one with
more left draws _CHUNK, and no round passes the draw cap.  Every run draws
at most _FIRST_ROUND (16) a round until it has run an iteration: a run
with a sampling prior is usually stopped within them by its weight mass,
and a run that the cross-run verdict below judges meets the verdict before
most of a wrong-place run's draws; a uniform run alone whose bound needs
more takes one more round.  A judged run past the first _FIRST_RUNS (2) of
its call draws nothing before the verdict has judged it once.  A round
thus holds at most 2.5 * _CHUNK + 4 samples, and its working memory is
O(_CHUNK * N) whatever max_iterations is.  A run solves the first
needed - it of a round's non-degenerate samples; it solves samples past
its stop only when a new best model lowers its bound mid-round, and
discards that work.  Draws and selection stay sequential: samples come
from the generator in the order one draw at a time would take them, and
the iterations are replayed in order, so a run returns what the
one-hypothesis-per-iteration loop returns up to rounding, and bitwise the
same whatever its rounds' sizes.
A candidate (in draw order, a sample's in root order) becomes the best
model only with strictly more inliers than every one before it: equal
counts keep the model drawn first, as their errors differ by rounding.

Independent runs advance in lockstep rounds: estimate_temporary_pose runs
every retrieved image of a query together.  In a round each live run draws
from its own generator, one degeneracy check and one P3P solve cover every
run's samples, and each run scores and replays its own candidates; a round
in which no run keeps a sample solves nothing.  A row of the P3P batch
gets bitwise the candidates it gets alone, a candidate gets bitwise the
scores it gets alone, and no run's draws or scoring see another run, so
each run returns bitwise what it returns when run alone.  When every run
has stopped, _finish snaps every run's best model to a rotation in one
stacked call and re-verifies each over its own correspondences.

The one exception is the cross-run verdict, the pairwise-consistency
pruning of Enqvist, Josephson & Kahl (ICCV 2009) and the voting of Zeisl,
Sattler & Pollefeys (ICCV 2015) applied across retrieved images.  It
judges a call's runs whenever at least two of them draw, as in
estimate_temporary_pose; weighted_ransac_pnp makes a single run.
Only the first _FIRST_RUNS (2) runs, in the call's order (the retrieval
rank in estimate_temporary_pose), draw in round 1; the others wait, so
that hypotheses come from the best-ranked images first, as PROSAC (Chum &
Matas, CVPR 2005) orders them within a run.  Rows of the call's batches
with one family and a bitwise-equal query pixel are one query keypoint.
Before each round after the first, a run's best model is a winner when it
has at least min_inliers inliers, and a row is contradicted when another
run's winner holds the row's query keypoint as an inlier at a world point
more than _CONTRADICTION_M (0.3 m) away.  A run that has not ended, a
waiting one included, without a winner of its own and with fewer than
min_inliers rows that are not contradicted stops and returns None; a
waiting run stopped before round 2 has drawn nothing, and every other
waiting run starts in round 2.  A run that is not stopped returns bitwise
its result alone, as neither round sizes nor the round a run starts in
change its result.  A stopped run might still have found a pose later in
its run, and its image then scores 0 of 0 where that pose could have
scored more.  This is measured, not proven: on the bench workloads and
the acceptance-06 scenes, three stopped runs find a pose alone, each with
6 inliers, and each such pose scores 0 of 0, so no weight moves there.

Every run applies two bounds, both the RANSAC bound of Fischler & Bolles
(1981) at a fixed confidence of 0.999: the iterations after which a sample
of three inliers has been drawn with that confidence, given the chance p
that one sample is all inliers.  The adaptive bound takes p of the best
model so far, as (inlier ratio)**3, the with-replacement approximation of
the count.  In a weighted run (weights not all equal) a best model with at
least min_inliers inliers takes the larger of that and a lower bound on p
under weighted sampling, from its inlier weight mass M, the share of the
sampling weight its inliers hold (guided sampling that stops on its prior,
as in Tordoff & Murray's Guided-MLESAC, TPAMI 2005).  M is the chance that
the first pick is an inlier.  A sample's picks are distinct: after
inliers holding s of the weight are picked, the next pick is one with
chance (M - s) / (1 - s), which falls as s grows, and s is at most a after
one pick and a + b after two, with a and b the two largest inlier shares.
So the bound is M (M - a) / (1 - a) (M - a - b) / (1 - a - b)
(_mass_chance), exact when the inliers' shares are equal.  A model below
min_inliers never stops a run, however heavy its inliers.  Uniform weights
keep the count bound exactly.  The min-inliers bound is taken from the
start at the smallest acceptable ratio, min_inliers / n: the run stops
once it has probably shown that no model reaches min_inliers.  A run
given fewer than max(4, min_inliers) correspondences draws nothing and
returns no model: a P3P model fits its own three rows, so a fourth row is
the first that can verify it.  A winning candidate becomes a RigidPose
once, when the run ends, and only if it keeps min_inliers inliers.

A run stopped that early may return a model fitted to a noisy sample and
short of the full consensus.  local_optimization refits it (LO-RANSAC,
Chum, Matas & Kittler, DAGM 2003) by Gauss-Newton steps on its inliers
re-collected at 2x and 1x the threshold, none of which may lower the
inlier count, before refine_pose refines it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geometry import CameraIntrinsics, RigidPose, _FrozenArrays, pixel_rays, project_points
from .matching import CorrespondenceBatch

__all__ = [
    "RansacConfig",
    "PnPSolution",
    "solve_p3p",
    "estimate_temporary_pose",
    "weighted_ransac_pnp",
    "local_optimization",
    "refine_pose",
]

_COLLINEAR_AREA_TOL = 1e-12

# Samples in a RANSAC round while more than 2 * _CHUNK iterations are
# left, and the most a run draws in a round before its first iteration
# (the round schedule: module docstring).
_CHUNK = 64
_FIRST_ROUND = 16

# The cross-run verdict's radius: another run's winner contradicts a row
# when it holds the row's query keypoint as an inlier at a world point
# farther than this, in metres (three default fusion voxels).
_CONTRADICTION_M = 0.3

# Runs of a judged call that draw in round 1, in the call's order; the
# rest wait for the verdict before round 2.  estimate_temporary_pose gets
# its images in retrieval rank, and the verdict's winners come from the
# best-ranked ones: on the bench workloads (canyon-day, canyon-daynight,
# canyon-long) rank 0 poses in 20/20, 40/40 and 20/20 queries and rank 1
# in 17/20, 24/40 and 19/20.  With 1, queries take more rounds, and
# canyon-daynight's stage took about 15% more CPU time (2 cores); 3 took
# about as long as 2; 4 cut canyon-day's temporary draws by 43%, against
# 63% with 2.
_FIRST_RUNS = 2

# A RANSAC run draws at most _MAX_SAMPLE_ATTEMPTS * max_iterations minimal
# samples, degenerate ones included, before it gives up.
_MAX_SAMPLE_ATTEMPTS = 20

# A minimal sample whose pixels span less than this is degenerate.
_MIN_PIXEL_SPAN_PX = 10.0

# Probability with which both stopping bounds have drawn an all-inlier sample.
_CONFIDENCE = 0.999

# Gauss-Newton steps that polish each P3P candidate, and refine_pose's
# Levenberg-Marquardt step cap and relative cost-decrease stop.
_POLISH_STEPS = 3
_REFINE_MAX_STEPS = 100
_REFINE_RELATIVE_TOL = 1e-10

# local_optimization of a RANSAC winner: the multiples of the inlier
# threshold at which its inliers are re-collected, in order, and the
# Gauss-Newton steps taken on each set.
_LO_THRESHOLD_FACTORS = (2.0, 1.0)
_LO_STEPS = 2

# Identities, made once rather than per refinement step.
_EYE3, _EYE6 = np.eye(3), np.eye(6)
_EYE3.setflags(write=False)
_EYE6.setflags(write=False)

# Why _p3p_batch rejects a row (index 0: no rejection).
_P3P_ERRORS = (None, "world points are collinear", "degenerate bearing vectors (parallel rays)")


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross product of two (..., 3) arrays of one shape."""
    out = np.empty(a.shape)
    out[..., 0] = a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]
    out[..., 1] = a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2]
    out[..., 2] = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    return out


def _norm(v: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean norm of (..., 3) arrays."""
    return np.sqrt(v[..., 0] * v[..., 0] + v[..., 1] * v[..., 1] + v[..., 2] * v[..., 2])


def _quartic_roots_batch(A: np.ndarray) -> np.ndarray:
    """Closed-form (Ferrari) roots of the quartics in the rows of (H, 5)
    coefficients a4..a0, as (H, 4) complex.

    Rows with a vanishing resolvent or non-finite closed-form roots take
    their companion matrices' eigenvalues from one stacked call, bitwise
    np.roots of each row with a nonzero constant term.  Rows whose
    coefficients or companion matrix are not finite (as at a zero leading
    coefficient) have no roots (all NaN).  Per row at 2,000 rows: 0.3 us in
    closed form, 2.4 us more if rejected, 21 us for np.roots (2 cores,
    numpy 2.4).  The caller Newton-polishes the real roots.
    """
    a4, a3, a2, a1, a0 = A.T
    with np.errstate(all="ignore"):
        b = a3 / a4
        c = a2 / a4
        d = a1 / a4
        e = a0 / a4
        b2 = b * b
        p = -3.0 * b2 / 8.0 + c
        q = b2 * b / 8.0 - b * c / 2.0 + d
        r = -3.0 * b2 * b2 / 256.0 + b2 * c / 16.0 - b * d / 4.0 + e

        pp = -p * p / 12.0 - r
        qq = -p * p * p / 108.0 + p * r / 3.0 - q * q / 8.0
        disc = (qq * qq / 4.0 + pp * pp * pp / 27.0).astype(complex)
        rr = -qq / 2.0 + disc**0.5
        u = rr ** (1.0 / 3.0)
        y = np.where(
            u == 0,
            -5.0 * p / 6.0 - qq.astype(complex) ** (1.0 / 3.0),
            -5.0 * p / 6.0 - pp / (3.0 * u) + u,
        )
        w = (p + 2.0 * y) ** 0.5
        s1 = (-(3.0 * p + 2.0 * y + 2.0 * q / w)) ** 0.5
        s2 = (-(3.0 * p + 2.0 * y - 2.0 * q / w)) ** 0.5
        shift = -b / 4.0
        roots = np.stack(
            [
                shift + 0.5 * (w + s1),
                shift + 0.5 * (w - s1),
                shift + 0.5 * (-w + s2),
                shift + 0.5 * (-w - s2),
            ],
            axis=1,
        )
    # The companion's first row as np.roots forms it, -A[1:] / a4: finite,
    # with a finite a4, only if every coefficient is.
    top = -np.stack([b, c, d, e], axis=1)
    has_roots = np.isfinite(a4) & np.isfinite(top).all(axis=1)
    closed_ok = (np.abs(w) >= 1e-12) & np.isfinite(roots.view(np.float64)).all(axis=1)
    rest = has_roots & ~closed_ok
    if rest.any():
        companion = np.zeros((np.count_nonzero(rest), 4, 4))
        companion[:, 0] = top[rest]
        companion[:, 1:, :3] = _EYE3
        roots[rest] = np.linalg.eigvals(companion)
    roots[~has_roots] = np.nan
    return roots


def _newton_polish_roots(x: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Two Newton steps on (H, k) real roots of the (H, 5) quartics; an
    entry stops at a zero derivative or a non-finite step."""
    a4, a3, a2, a1, a0 = (A[:, j : j + 1] for j in range(5))
    active = np.ones(x.shape, dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(2):
            f = (((a4 * x + a3) * x + a2) * x + a1) * x + a0
            df = ((4.0 * a4 * x + 3.0 * a3) * x + 2.0 * a2) * x + a1
            step = f / df
            active &= (df != 0.0) & np.isfinite(step)
            x = np.where(active, x - step, x)
    return x


@dataclass(frozen=True)
class RansacConfig:
    """RANSAC settings; all logged with results.

    max_iterations caps both stopping bounds (module docstring).
    min_inliers rejects weak consensus (12 for final poses; the pipeline
    asks 6 of temporary per-retrieved-image poses); it is at least 3, as a
    P3P model fits its own three sample points.  The bounds' confidence,
    the degenerate pixel span and local_optimization's threshold factors
    and steps are module constants, not settings.
    """

    inlier_threshold_px: float = 8.0
    max_iterations: int = 10000
    min_inliers: int = 12
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.inlier_threshold_px > 0:
            raise ValueError("inlier threshold must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.min_inliers < 3:
            raise ValueError("min_inliers must be >= 3")


@dataclass(frozen=True)
class PnPSolution(_FrozenArrays):
    pose: RigidPose
    inlier_indices: np.ndarray
    mean_reprojection_error_px: float
    iterations_used: int = 0  # hypotheses (non-degenerate minimal samples) evaluated

    def __post_init__(self) -> None:
        self._store(inlier_indices=np.asarray(self.inlier_indices, dtype=np.int64).reshape(-1))

    @property
    def num_inliers(self) -> int:
        return len(self.inlier_indices)


# ── Minimal solver ───────────────────────────────────────────────────────


def _bearings_from_pixels(pixels: np.ndarray, K: CameraIntrinsics) -> np.ndarray:
    """Unit camera-frame rays for (N, 2) pixel coordinates."""
    f = pixel_rays(pixels, K)
    return f / np.linalg.norm(f, axis=1, keepdims=True)


def _matvec(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Stacked M @ v.  matmul runs the same BLAS kernel per slice as on a
    single matrix, so results are bitwise those of the unbatched product."""
    return np.matmul(M, v[..., None])[..., 0]


def _ray_frame(f1: np.ndarray, f2: np.ndarray, f3: np.ndarray):
    """Intermediate camera frame T (rows e1, e2, e3) of the first two rays,
    the third ray in it, and the cross-product norm that flags parallel rays."""
    e3 = _cross(f1, f2)
    n3 = _norm(e3)
    e3 = e3 / n3[:, None]
    T = np.stack([f1, _cross(e3, f1), e3], axis=1)
    return T, _matvec(T, f3), n3


def _p3p_batch(
    P: np.ndarray, f: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Raw pose candidates for H minimal sets at once.

    P holds (H, 3, 3) world points and f (H, 3, 3) unit bearings.  Direct
    computation of camera position and orientation: build an intermediate
    camera frame from the first two rays and an intermediate world frame
    from the first two points, reduce to a quartic in the cosine of the
    remaining free angle, and back-substitute.  Every step runs on the
    whole batch; products go through _matvec and matmul so that a row gets
    bitwise the candidates it would get alone.

    Returns R (H, 4, 3, 3) world-to-camera rotations, C (H, 4, 3) centres,
    valid (H, 4) marking the finite candidates in root order, and status
    (H,) indexing _P3P_ERRORS for rows rejected as collinear or parallel.
    Callers are expected to polish and verify candidates by reprojection.
    """
    with np.errstate(all="ignore"):
        P1, P2, P3 = P[:, 0], P[:, 1], P[:, 2]
        f1, f2, f3 = f[:, 0], f[:, 1], f[:, 2]
        collinear = 0.5 * _norm(_cross(P2 - P1, P3 - P1)) <= _COLLINEAR_AREA_TOL
        _, f3_t, n3 = _ray_frame(f1, f2, f3)
        parallel = n3 < 1e-12
        # Swap the first two correspondences so the free angle stays in [0, pi].
        swap = (f3_t[:, 2] > 0.0)[:, None]
        f1, f2 = np.where(swap, f2, f1), np.where(swap, f1, f2)
        P1, P2 = np.where(swap, P2, P1), np.where(swap, P1, P2)
        T, f3_t, n3 = _ray_frame(f1, f2, f3)
        parallel |= n3 < 1e-12

        n1 = P2 - P1
        n1 = n1 / _norm(n1)[:, None]
        n3w = _cross(n1, P3 - P1)
        n3w = n3w / _norm(n3w)[:, None]
        n2 = _cross(n3w, n1)
        N = np.stack([n1, n2, n3w], axis=1)

        P3_n = _matvec(N, P3 - P1)
        d12 = _norm(P2 - P1)
        p1 = P3_n[:, 0]
        p2 = P3_n[:, 1]

        phi1 = f3_t[:, 0] / f3_t[:, 2]
        phi2 = f3_t[:, 1] / f3_t[:, 2]

        cos_beta = _matvec(f1[:, None], f2)[:, 0]
        b = 1.0 / (1.0 - cos_beta * cos_beta) - 1.0
        parallel |= b < 0.0
        b = np.where(cos_beta >= 0.0, np.sqrt(b), -np.sqrt(b))

        phi1_2 = phi1 * phi1
        phi2_2 = phi2 * phi2
        p1_2 = p1 * p1
        p1_3 = p1_2 * p1
        p1_4 = p1_3 * p1
        p2_2 = p2 * p2
        p2_3 = p2_2 * p2
        p2_4 = p2_3 * p2
        d12_2 = d12 * d12
        b_2 = b * b

        a4 = -phi2_2 * p2_4 - p2_4 * phi1_2 - p2_4
        a3 = 2.0 * p2_3 * d12 * b + 2.0 * phi2_2 * p2_3 * d12 * b - 2.0 * phi2 * p2_3 * phi1 * d12
        a2 = (
            -phi2_2 * p2_2 * p1_2
            - phi2_2 * p2_2 * d12_2 * b_2
            - phi2_2 * p2_2 * d12_2
            + phi2_2 * p2_4
            + p2_4 * phi1_2
            + 2.0 * p1 * p2_2 * d12
            + 2.0 * phi1 * phi2 * p1 * p2_2 * d12 * b
            - p2_2 * p1_2 * phi1_2
            + 2.0 * p1 * p2_2 * phi2_2 * d12
            - p2_2 * d12_2 * b_2
            - 2.0 * p1_2 * p2_2
        )
        a1 = (
            2.0 * p1_2 * p2 * d12 * b
            + 2.0 * phi2 * p2_3 * phi1 * d12
            - 2.0 * phi2_2 * p2_3 * d12 * b
            - 2.0 * p1 * p2 * d12_2 * b
        )
        a0 = (
            -2.0 * phi2 * p2_2 * phi1 * p1 * d12 * b
            + phi2_2 * p2_2 * d12_2
            + 2.0 * p1_3 * d12
            - p1_2 * d12_2
            + phi2_2 * p2_2 * p1_2
            - p1_4
            - 2.0 * phi2_2 * p2_2 * p1 * d12
            + p2_2 * phi1_2 * p1_2
            + phi2_2 * p2_2 * d12_2 * b_2
        )
        status = np.where(collinear, 1, np.where(parallel, 2, 0))
        A = np.stack([a4, a3, a2, a1, a0], axis=1)
        ok = status == 0
        roots = np.full((len(P), 4), np.nan, dtype=complex)
        if ok.any():
            roots[ok] = _quartic_roots_batch(A[ok])
        real = np.abs(roots.imag) <= 1e-6 * np.maximum(1.0, np.abs(roots.real))

        # Back-substitution, one column per root; (H, 1) row terms broadcast.
        phi1, phi2, p1, p2, d12, b = (v[:, None] for v in (phi1, phi2, p1, p2, d12, b))
        cos_theta = np.clip(_newton_polish_roots(roots.real, A), -1.0, 1.0)
        denom = -phi1 * cos_theta * p2 / phi2 + p1 - d12
        cot_alpha = (-phi1 * p1 / phi2 - cos_theta * p2 + d12 * b) / denom
        sin_theta = np.sqrt(np.maximum(0.0, 1.0 - cos_theta * cos_theta))
        sin_alpha = np.sqrt(1.0 / (cot_alpha * cot_alpha + 1.0))
        cos_alpha = np.sqrt(np.maximum(0.0, 1.0 - sin_alpha * sin_alpha))
        cos_alpha = np.where(cot_alpha < 0.0, -cos_alpha, cos_alpha)

        scale = sin_alpha * b + cos_alpha
        C_n = np.empty(cos_theta.shape + (3,))
        C_n[..., 0] = cos_alpha
        C_n[..., 1] = cos_theta * sin_alpha
        C_n[..., 2] = sin_theta * sin_alpha
        C_n *= (d12 * scale)[..., None]
        C = P1[:, None] + _matvec(N.transpose(0, 2, 1)[:, None], C_n)
        Q = np.empty(cos_theta.shape + (3, 3))
        Q[..., 0, 0] = -cos_alpha
        Q[..., 0, 1] = -sin_alpha * cos_theta
        Q[..., 0, 2] = -sin_alpha * sin_theta
        Q[..., 1, 0] = sin_alpha
        Q[..., 1, 1] = -cos_alpha * cos_theta
        Q[..., 1, 2] = -cos_alpha * sin_theta
        Q[..., 2, 0] = 0.0
        Q[..., 2, 1] = -sin_theta
        Q[..., 2, 2] = cos_theta
        R = T.transpose(0, 2, 1)[:, None] @ Q @ N[:, None]
    valid = (
        real
        & ~(np.abs(denom) < 1e-15)
        & np.isfinite(R).all(axis=(2, 3))
        & np.isfinite(C).all(axis=2)
    )
    return R, C, valid, status


def _errors(R: np.ndarray, C: np.ndarray, points: np.ndarray, pixels: np.ndarray,
            K: CameraIntrinsics, residuals: bool = True) -> tuple[Optional[np.ndarray], np.ndarray]:
    """Residual vectors (..., 2N) of poses R (..., 3, 3), C (..., 3) over N
    correspondences and each correspondence's reprojection error (..., N),
    both inf at or behind the camera.  With residuals=False the residual
    array is not built and None stands in its place; the errors are the
    same bits.  A pose's row is bitwise the one it gets alone for N >= 2
    (project_points)."""
    projected, depth = project_points(points, R, C, K)
    behind = ~(depth > 0.0)
    diff = projected - pixels
    # np.linalg.norm of each residual pair, bitwise, without its wrapper.
    sq = diff * diff
    err = sq[..., 0] + sq[..., 1]
    np.sqrt(err, out=err)
    err[behind] = np.inf
    if not residuals:
        return None, err
    diff[behind] = np.inf
    return diff.reshape(depth.shape[:-1] + (2 * depth.shape[-1],)), err


def _skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrices [v]x (..., 3, 3) of vectors v (..., 3)."""
    S = np.zeros(v.shape[:-1] + (9,))
    # Row-major slots of -v0, -v1, -v2 and of v0, v1, v2.
    S[..., [5, 6, 1]] = -v
    S[..., [7, 2, 3]] = v
    return S.reshape(v.shape + (3,))


def _pose_jacobian(
    R: np.ndarray, C: np.ndarray, points: np.ndarray, K: CameraIntrinsics
) -> np.ndarray:
    """Jacobians (..., 2N, 6) of the reprojection residuals of poses
    R (..., 3, 3), C (..., 3) over points (..., N, 3) wrt the local pose
    update [omega, dC]: R <- Exp(omega) @ R, C <- C + dC.  Rows of points
    behind the camera are zero.  A pose's rows are bitwise those it gets alone."""
    cam = (points - C[..., None, :]) @ np.swapaxes(R, -1, -2)
    x, y = cam[..., 0], cam[..., 1]
    front = cam[..., 2] > 0.0
    z = np.where(front, cam[..., 2], 1.0)
    zz = z * z
    # d(res)/d(cam) has rows (fx/z, 0, -fx x/z^2) and (0, fy/z, -fy y/z^2);
    # d(cam)/d(omega) = -[cam]x and d(cam)/d(dC) = -R.  Products with the
    # zero entries are left out.
    du0, du2 = K.fx / z, -K.fx * x / zz
    dv1, dv2 = K.fy / z, -K.fy * y / zz
    mR = -R[..., None, :, :]
    J = np.empty(cam.shape[:-1] + (2, 6))
    J[..., 0, 0] = du2 * y
    J[..., 0, 1] = du0 * z + du2 * -x
    J[..., 0, 2] = du0 * -y
    J[..., 0, 3:] = du0[..., None] * mR[..., 0, :] + du2[..., None] * mR[..., 2, :]
    J[..., 1, 0] = dv1 * -z + dv2 * y
    J[..., 1, 1] = dv2 * -x
    J[..., 1, 2] = dv1 * x
    J[..., 1, 3:] = dv1[..., None] * mR[..., 1, :] + dv2[..., None] * mR[..., 2, :]
    J[~front] = 0.0
    lead = cam.shape[:-1]
    return J.reshape(lead[:-1] + (2 * lead[-1], 6))


def _exp_so3(w: np.ndarray) -> np.ndarray:
    """Rodrigues rotations (..., 3, 3) of rotation vectors w (..., 3); the
    identity below 1e-12 rad."""
    # As a stacked matmul the angle is bitwise np.linalg.norm of one vector.
    theta = np.sqrt((w[..., None, :] @ w[..., :, None])[..., 0, 0])
    small = theta < 1e-12
    Kx = _skew(w / np.where(small, 1.0, theta)[..., None])
    R = (_EYE3 + np.sin(theta)[..., None, None] * Kx
         + (1.0 - np.cos(theta))[..., None, None] * (Kx @ Kx))
    R[small] = _EYE3
    return R


def _pose_step(R: np.ndarray, C: np.ndarray, J: np.ndarray, res: np.ndarray,
               lam: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """One Gauss-Newton step (Levenberg-Marquardt at damping lam > 0) of
    poses R (..., 3, 3), C (..., 3) with residuals res (..., 2N) and their
    Jacobians J (..., 2N, 6): solves (J^T J + lam I) delta = -J^T res and
    returns Exp(delta_omega) @ R and C + delta_C.  A pose's step is bitwise
    the one it gets alone.  Raises LinAlgError if any system is singular."""
    Jt = np.swapaxes(J, -1, -2)
    delta = np.linalg.solve(Jt @ J + lam * _EYE6, -(Jt @ res[..., None]))[..., 0]
    return _exp_so3(delta[..., :3]) @ R, C + delta[..., 3:]


def _polish_pose(R: np.ndarray, C: np.ndarray, points: np.ndarray, pixels: np.ndarray,
                 K: CameraIntrinsics) -> tuple[np.ndarray, np.ndarray]:
    """_POLISH_STEPS Gauss-Newton steps (_pose_step) on the reprojections of
    M minimal sets at once: R (M, 3, 3), C (M, 3), points (M, 3, 3), pixels
    (M, 3, 2).  A candidate stops where it is once its residuals or
    Jacobian turn non-finite or its square Jacobian is singular (zero
    determinant)."""
    R, C = R.copy(), C.copy()
    active = np.ones(len(R), dtype=bool)
    for _ in range(_POLISH_STEPS):
        res = _errors(R, C, points, pixels, K)[0]
        J = _pose_jacobian(R, C, points, K)
        active &= np.isfinite(res).all(axis=1) & np.isfinite(J).all(axis=(1, 2))
        active[active] = np.linalg.det(J[active]) != 0.0
        step = np.nonzero(active)[0]
        R[step], C[step] = _pose_step(R[step], C[step], J[step], res[step])
    return R, C


def solve_p3p(points: np.ndarray, K: CameraIntrinsics,
              pixels: np.ndarray) -> list[list[RigidPose]]:
    """Camera poses consistent with each of H minimal sets: (H, 3, 3) world
    points and (H, 3, 2) pixels, exactly 3 correspondences per row.

    Returns one list of 0 to 4 poses per row, in root order, from one
    _p3p_batch call and one stacked Gauss-Newton polish of every candidate;
    each kept pose is snapped to a rotation and passes the RigidPose
    constructor's checks.  A candidate is kept when it reprojects its row's
    points within 1e-6 px, so a double root that survives the polish gives
    its pose twice; a row gets bitwise the poses it gets alone.  No
    pipeline stage calls it: RANSAC scores the raw _p3p_batch candidates,
    and the polish and the filter run only here (README, step 5, gives the
    measured gap).  Raises, naming the first such row, on collinear world
    points or parallel rays."""
    points = np.asarray(points, dtype=np.float64)
    pix = np.asarray(pixels, dtype=np.float64)
    if points.shape[1:] != (3, 3) or pix.shape != points.shape[:1] + (3, 2):
        raise ValueError(f"exactly 3 correspondences per row required, got points of shape "
                         f"{points.shape} and pixels of shape {pix.shape}")
    bearings = _bearings_from_pixels(pix.reshape(-1, 2), K).reshape(points.shape)
    R, C, valid, status = _p3p_batch(points, bearings)
    if status.any():
        h = int(np.flatnonzero(status)[0])
        raise ValueError(f"{_P3P_ERRORS[status[h]]} (row {h})")
    row = np.nonzero(valid)[0]
    R[valid], C[valid] = _polish_pose(R[valid], C[valid], points[row], pix[row], K)
    kept = valid.copy()
    kept[valid] = (_errors(R[valid], C[valid], points[row], pix[row], K,
                           residuals=False)[1] < 1e-6).all(axis=1)
    # Back-substitution lets orthonormality drift; snap to the nearest rotation.
    R[kept] = _orthonormalized(R[kept])
    poses = map(RigidPose, R[kept], C[kept])
    return [[next(poses) for _ in range(n)] for n in kept.sum(axis=1).tolist()]


# ── RANSAC ───────────────────────────────────────────────────────────────


def _draw_minimal_samples(rng: np.random.Generator, weights: np.ndarray, m: int) -> np.ndarray:
    """(m, 3) minimal samples; each row holds three distinct indices drawn
    sequentially with probability proportional to weight, renormalizing
    over the remaining items.  Used by both weighted and unweighted
    (uniform-weight) RANSAC.

    Rows are drawn in order from 3m consecutive rng.random() values, so the
    picks and the generator state equal those of m one-sample draws.
    """
    n = len(weights)
    u = rng.random(3 * m).reshape(m, 3)
    W = np.tile(np.asarray(weights, dtype=np.float64), (m, 1))
    picks = np.empty((m, 3), dtype=np.int64)
    rows = np.arange(m)
    for k in range(3):
        total = W.sum(axis=1)
        empty = np.nonzero(total <= 0.0)[0]
        if len(empty):
            # Fewer than 3 positively weighted items remain; fall back to
            # uniform over the not-yet-picked rest.
            W[empty] = 1.0
            W[empty[:, None], picks[empty, :k]] = 0.0
            total[empty] = W[empty].sum(axis=1)
        cum = np.cumsum(W, axis=1)
        # Entries of cum not above r: searchsorted(cum, r, side="right").
        i = (cum <= (u[:, k] * total)[:, None]).sum(axis=1)
        # r can round up to the last entry of cum (u near 1, or the pairwise
        # total above the running sum): take the last item still weighted.
        over = np.nonzero(i == n)[0]
        i[over] = n - 1 - np.argmax(W[over, ::-1] > 0.0, axis=1)
        picks[:, k] = i
        W[rows, picks[:, k]] = 0.0
    return picks


def _degenerate_samples(points: np.ndarray, pixels: np.ndarray) -> np.ndarray:
    """(m,) mask of minimal samples, given as (m, 3, 3) world points and
    (m, 3, 2) pixels, whose points are near-collinear or whose pixels span
    less than _MIN_PIXEL_SPAN_PX."""
    v1 = points[:, 1] - points[:, 0]
    v2 = points[:, 2] - points[:, 0]
    area2 = _norm(_cross(v1, v2))
    n1 = _norm(v1)
    n2 = _norm(v2)
    with np.errstate(divide="ignore", invalid="ignore"):
        sin_angle = area2 / (n1 * n2)
    d = pixels[:, [0, 0, 1]] - pixels[:, [1, 2, 2]]
    span = np.hypot(d[..., 0], d[..., 1]).max(axis=1)
    return (
        (n1 < 1e-12)
        | (n2 < 1e-12)
        | (area2 <= 2.0 * _COLLINEAR_AREA_TOL)
        | (sin_angle < 1e-3)
        | (span < _MIN_PIXEL_SPAN_PX)
    )


def _score_hypotheses(
    R: np.ndarray,
    C: np.ndarray,
    points: np.ndarray,
    pixels: np.ndarray,
    K: CameraIntrinsics,
    threshold: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Unweighted inlier count and (M, N) inlier mask of M pose hypotheses
    (R (M, 3, 3), C (M, 3)) over all N correspondences, from one stacked
    _errors call that builds no residual array; points at or behind a
    camera are never inliers.  The count alone ranks hypotheses (module
    docstring)."""
    inl = _errors(R, C, points, pixels, K, residuals=False)[1] < threshold
    return inl.sum(axis=1), inl


def _mass_chance(shares: np.ndarray) -> float:
    """Lower bound on the chance that one weighted minimal sample (three
    distinct items, _draw_minimal_samples) is all inliers, given the
    inliers' shares of the total sampling weight: the mass bound of the
    module docstring, 0 when the two largest shares hold all of it (what
    they leave of it is below 1e-12, the sum's rounding)."""
    M = float(shares.sum())
    b, a = np.sort(shares)[-2:].tolist()
    if M - a - b < 1e-12:
        return 0.0
    return M * (M - a) / (1.0 - a) * (M - a - b) / (1.0 - a - b)


def _iterations_needed(p: float, cfg: RansacConfig) -> int:
    """Fischler & Bolles' RANSAC bound at chance p that one minimal sample
    is all inliers: the iterations after which such a sample has been drawn
    with probability _CONFIDENCE, capped at cfg.max_iterations.  It is 1 at
    p = 1, and the cap when no positive p moves 1 - p off 1."""
    denom = math.log(max(1e-300, 1.0 - p))
    if denom >= 0.0:
        return cfg.max_iterations
    return min(cfg.max_iterations, int(math.ceil(math.log(1.0 - _CONFIDENCE) / denom)))


class _RansacRun:
    """One RANSAC run's correspondences, generator, iterations run (it),
    stopping bound (needed) and best model.

    needed starts at the min-inliers bound (at least 1) and drops to each
    new best model's adaptive bound (module docstring), never below the
    iterations already run.
    The replay keeps the best candidate's raw R and C; _finish re-verifies
    them when every run has stopped.
    """

    def __init__(self, batch: CorrespondenceBatch, K: CameraIntrinsics, cfg: RansacConfig,
                 weights: Optional[np.ndarray]) -> None:
        n = len(batch)
        self.n = n
        self.cfg = cfg
        self.K = K
        self.points, self.pixels = batch.points, batch.pixels
        self.weights = (np.full(n, 1.0 / n) if weights is None
                        else np.asarray(weights, dtype=np.float64))
        # Each item's share of the sampling weight; under equal weights the
        # mass is the inlier ratio: no prior.
        self.prior = (None if np.all(self.weights == self.weights[0])
                      else self.weights / self.weights.sum())
        # Built on the first draw, so that a run the verdict stops before it
        # draws costs only this constructor.
        self.rng: Optional[np.random.Generator] = None
        self.bearings: Optional[np.ndarray] = None
        self.best_count = 0
        self.best_R: Optional[np.ndarray] = None
        self.best_C: Optional[np.ndarray] = None
        self.best_inliers: Optional[np.ndarray] = None
        self.needed = max(1, _iterations_needed((cfg.min_inliers / n) ** 3, cfg))
        self.it = 0
        self.draws_left = _MAX_SAMPLE_ATTEMPTS * cfg.max_iterations

    def _round_size(self) -> int:
        """Samples this round draws, degenerate ones included, by the round
        schedule of the module docstring."""
        left = self.needed - self.it
        size = _CHUNK if left > 2 * _CHUNK else left + left // 4 + 4
        if self.it == 0:
            size = min(size, _FIRST_ROUND)
        return min(size, self.draws_left)

    def draw(self) -> np.ndarray:
        """This round's minimal samples, degenerate ones included."""
        if self.rng is None:
            self.rng = np.random.default_rng(self.cfg.seed)
            self.bearings = _bearings_from_pixels(self.pixels, self.K)
        drawn = _draw_minimal_samples(self.rng, self.weights, self._round_size())
        self.draws_left -= len(drawn)
        return drawn

    def replay(self, R: np.ndarray, C: np.ndarray, valid: np.ndarray, K: CameraIntrinsics) -> None:
        """Score this run's P3P candidates (one row per kept sample, in draw
        order) and take them one iteration at a time.  A round with no valid
        candidate only counts its iterations."""
        cfg = self.cfg
        per_sample = valid.sum(axis=1).tolist()
        R, C = R[valid], C[valid]
        if not len(R):
            self.it += len(per_sample)
            return
        counts, inl = _score_hypotheses(R, C, self.points, self.pixels, K,
                                        cfg.inlier_threshold_px)
        counts = counts.tolist()

        cand = 0
        for solved in per_sample:
            if self.it >= self.needed:
                break
            self.it += 1
            first = cand
            cand += solved
            for c in range(first, cand):
                count = counts[c]
                if count > self.best_count:
                    self.best_R, self.best_C = R[c], C[c]
                    self.best_count, self.best_inliers = count, inl[c]
                    p = (count / self.n) ** 3
                    if self.prior is not None and count >= cfg.min_inliers:
                        p = max(p, _mass_chance(self.prior[inl[c]]))
                    self.needed = min(self.needed,
                                      max(self.it, _iterations_needed(p, cfg)))


def _contradiction_pairs(batches: Sequence[CorrespondenceBatch]) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (a, b) of rows of the concatenated batches that place one
    query keypoint (one family, bitwise one pixel) in two different batches
    at world points more than _CONTRADICTION_M apart, in both orders."""
    families = np.concatenate([batch.families for batch in batches])
    bits = np.concatenate([batch.pixels for batch in batches]).view(np.int64)
    points = np.concatenate([batch.points for batch in batches])
    owner = np.repeat(np.arange(len(batches)), [len(batch) for batch in batches])
    order = np.lexsort((bits[:, 1], bits[:, 0], families))
    families, bits = families[order], bits[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (families[1:] != families[:-1]) | (bits[1:] != bits[:-1]).any(axis=1)
    start = np.flatnonzero(new)
    size = np.diff(np.append(start, len(order)))
    # Each row of a keypoint's group is paired with every row of the group.
    g = np.repeat(size, size)
    a = np.repeat(order, g)
    b = order[np.repeat(np.repeat(start, size), g) + np.arange(len(a))
              - np.repeat(np.cumsum(g) - g, g)]
    far = (owner[a] != owner[b]) & (_norm(points[a] - points[b]) > _CONTRADICTION_M)
    return a[far], b[far]


class _Verdict:
    """The cross-run verdict (module docstring) over the drawing runs of
    one call, whose batches hold the query keypoints."""

    def __init__(self, runs: Sequence[_RansacRun],
                 batches: Sequence[CorrespondenceBatch]) -> None:
        self.runs = runs
        self.starts = np.cumsum([0] + [run.n for run in runs[:-1]])
        self.a, self.b = _contradiction_pairs(batches)

    def __call__(self, live: list[_RansacRun]) -> list[_RansacRun]:
        """The live runs that go on.  A stopped run drops its model, so
        _finish returns None for it."""
        won = [run.best_count >= run.cfg.min_inliers for run in self.runs]
        if not any(won):
            return live
        held = np.concatenate([run.best_inliers if w else np.zeros(run.n, dtype=bool)
                               for run, w in zip(self.runs, won)])
        contradicted = np.zeros(len(held), dtype=bool)
        contradicted[self.a[held[self.b]]] = True
        free = np.add.reduceat(~contradicted, self.starts, dtype=np.int64).tolist()
        stopped = {run for run, w, k in zip(self.runs, won, free)
                   if not w and k < run.cfg.min_inliers}
        for run in stopped.intersection(live):
            run.best_R = None
        return [run for run in live if run not in stopped]


def _ransac_pnp(
    runs: Sequence[tuple[CorrespondenceBatch, RansacConfig, Optional[np.ndarray]]],
    K: CameraIntrinsics,
) -> list[Optional[PnPSolution]]:
    """Independent RANSAC-PnP runs, given as (batch, cfg, weights) with
    weights None for uniform sampling, advanced in lockstep rounds (module
    docstring); one result per run, bitwise the one the run gets alone and
    under any round sizes.  A run with fewer than max(4, min_inliers)
    correspondences returns None before any draw.  Every run's first round
    draws at most _FIRST_ROUND samples.  Per round, one _degenerate_samples
    and one _p3p_batch call cover every live run's samples; one _finish
    call re-verifies every run's best model.

    With at least two drawing runs, only the first _FIRST_RUNS of them
    draw in round 1, and before each later round the cross-run verdict
    stops the runs that the others' winners contradict, waiting runs
    included; a stopped run returns None, one stopped while waiting has
    drawn nothing, and every other run returns its result alone.
    """
    state = [None if len(batch) < max(4, cfg.min_inliers) else _RansacRun(batch, K, cfg, weights)
             for batch, cfg, weights in runs]
    live = [run for run in state if run is not None]
    judge = None
    if len(live) >= 2:
        judge = _Verdict(live, [batch for (batch, _, _), run in zip(runs, state) if run is not None])
        # Round 1: the first _FIRST_RUNS runs draw; the rest wait for the
        # verdict on their winners.
        _lockstep_round(live[:_FIRST_RUNS], K)
    while live := [run for run in live if run.it < run.needed and run.draws_left]:
        if judge is not None and not (live := judge(live)):
            break
        _lockstep_round(live, K)
    return _finish(state, K)


def _lockstep_round(live: Sequence[_RansacRun], K: CameraIntrinsics) -> None:
    """One round of the live runs: each draws, one _degenerate_samples and
    one _p3p_batch call cover every run's samples, and each run replays its
    own candidates.  A round in which no run keeps a sample solves nothing."""
    drawn = [run.draw() for run in live]
    degenerate = _degenerate_samples(
        np.concatenate([run.points[d] for run, d in zip(live, drawn)]),
        np.concatenate([run.pixels[d] for run, d in zip(live, drawn)]),
    )
    parts = np.split(degenerate, np.cumsum([len(d) for d in drawn[:-1]]))
    kept = [d[~bad][: run.needed - run.it] for run, d, bad in zip(live, drawn, parts)]
    if not any(len(s) for s in kept):
        return
    R, C, valid, _ = _p3p_batch(
        np.concatenate([run.points[s] for run, s in zip(live, kept)]),
        np.concatenate([run.bearings[s] for run, s in zip(live, kept)]),
    )
    start = 0
    for run, samples in zip(live, kept):
        stop = start + len(samples)
        run.replay(R[start:stop], C[start:stop], valid[start:stop], K)
        start = stop


def _finish(state: Sequence[Optional[_RansacRun]],
            K: CameraIntrinsics) -> list[Optional[PnPSolution]]:
    """Each stopped run's solution, None for a None entry, a run with no
    model, or a model that keeps fewer than min_inliers inliers.

    One _orthonormalized call snaps every best model to a rotation (the SVD
    runs per matrix, so bitwise as alone), and one _errors call per run
    restates its model's inliers over its own correspondences.  A
    RigidPose is built only for an accepted model; the orthonormalized
    matrices are rotations it accepts.
    """
    solved = [i for i, run in enumerate(state) if run is not None and run.best_R is not None]
    results: list[Optional[PnPSolution]] = [None] * len(state)
    if not solved:
        return results
    R = _orthonormalized(np.stack([state[i].best_R for i in solved]))
    for i, R_run in zip(solved, R):
        run = state[i]
        _, err = _errors(R_run, run.best_C, run.points, run.pixels, K, residuals=False)
        inl = err < run.cfg.inlier_threshold_px
        if np.count_nonzero(inl) >= run.cfg.min_inliers:
            results[i] = PnPSolution(RigidPose(R_run, run.best_C), np.flatnonzero(inl),
                                     float(err[inl].mean()), run.it)
    return results


def _orthonormalized(R: np.ndarray) -> np.ndarray:
    """Nearest rotations to finite R (..., 3, 3), through one stacked SVD."""
    U, _, Vt = np.linalg.svd(R)
    D = np.zeros(U.shape)
    D[..., 0, 0] = D[..., 1, 1] = 1.0
    D[..., 2, 2] = np.linalg.det(U @ Vt)
    return U @ D @ Vt


def estimate_temporary_pose(
    batches: Sequence[CorrespondenceBatch],
    K: CameraIntrinsics,
    cfgs: Sequence[RansacConfig],
) -> list[Optional[PnPSolution]]:
    """Plain (uniform-sampling) RANSAC + P3P over each retrieved image's
    correspondences, batches[i] under cfgs[i], all runs in one lockstep
    loop under the cross-run verdict (module docstring); one result per
    batch.  The batches come in retrieval rank: the first two that draw
    start in round 1, and the others wait for the verdict on their
    winners.  A result is None when its batch has fewer than
    max(4, min_inliers) correspondences, when no model reaches min_inliers,
    or when the verdict stopped its run, before or after its first draw,
    because the other batches' winners contradict it.  Otherwise it equals
    what the batch gets in a call of its own."""
    return _ransac_pnp([(batch, cfg, None) for batch, cfg in zip(batches, cfgs, strict=True)], K)


def weighted_ransac_pnp(
    batch: CorrespondenceBatch,
    weights: np.ndarray,
    K: CameraIntrinsics,
    cfg: RansacConfig,
) -> Optional[PnPSolution]:
    """RANSAC + P3P with minimal samples drawn by weight, one per batch row.

    The weights must be finite, non-negative and normalized to sum to 1
    (see scoring.normalize_weights); inlier counting is identical to the
    unweighted loop.  Raises when fewer than 4 correspondences are given;
    returns None when no model reaches min_inliers.
    """
    if len(batch) < 4:
        raise ValueError(f"need at least 4 correspondences, got {len(batch)}")
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (len(batch),) or not np.all(np.isfinite(weights) & (weights >= 0.0)):
        raise ValueError(f"need {len(batch)} finite, non-negative weights, one per row")
    total = weights.sum()
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"weights must sum to 1, got {total!r}")
    return _ransac_pnp([(batch, cfg, weights)], K)[0]


# ── Refinement ───────────────────────────────────────────────────────────


def local_optimization(
    solution: PnPSolution,
    batch: CorrespondenceBatch,
    K: CameraIntrinsics,
    inlier_threshold_px: float,
) -> PnPSolution:
    """LO-RANSAC's refit of a RANSAC winner (Chum, Matas & Kittler, DAGM
    2003) on the run's correspondences and inlier threshold.

    For each factor of _LO_THRESHOLD_FACTORS (2x, then 1x the threshold) in
    turn, the inliers at factor * threshold are re-collected and take up to
    _LO_STEPS (2) Gauss-Newton steps.  A step is kept only if the inlier
    count at the threshold does not fall; the first step that would lower
    it, whose normal equations are singular, or whose residuals or Jacobian
    are not finite (a kept step moved a row of the set behind the camera),
    ends that set.  A set equal
    to the last one stepped on, or at first to the winner's own inliers, is
    not stepped on: its steps would repeat what refine_pose's
    Levenberg-Marquardt does on it next.  So a winner with no
    correspondence between 1x and 2x the threshold is returned as it is.

    Returns the settled pose, its inliers at the threshold, their mean
    error and the run's iterations; the solution itself when no step is
    kept.
    """
    threshold = inlier_threshold_px
    R, C = solution.pose.rotation, solution.pose.center
    points, pixels = batch.points, batch.pixels
    res, err = _errors(R, C, points, pixels, K)
    stepped = err < threshold
    count = np.count_nonzero(stepped)
    moved = False
    for factor in _LO_THRESHOLD_FACTORS:
        inl = err < factor * threshold
        if np.array_equal(inl, stepped):
            continue
        stepped = inl
        set_points, rows = points[inl], np.repeat(inl, 2)
        for _ in range(_LO_STEPS):
            set_res, J = res[rows], _pose_jacobian(R, C, set_points, K)
            if not (np.isfinite(set_res).all() and np.isfinite(J).all()):
                break
            try:
                R_new, C_new = _pose_step(R, C, J, set_res)
            except np.linalg.LinAlgError:
                break
            res_new, err_new = _errors(R_new, C_new, points, pixels, K)
            new_count = np.count_nonzero(err_new < threshold)
            if new_count < count:
                break
            R, C, res, err, count, moved = R_new, C_new, res_new, err_new, new_count, True
    if not moved:
        return solution
    inl = err < threshold
    return PnPSolution(RigidPose(R, C), np.flatnonzero(inl), float(err[inl].mean()),
                       solution.iterations_used)


def refine_pose(
    initial: PnPSolution,
    batch: CorrespondenceBatch,
    K: CameraIntrinsics,
) -> RigidPose:
    """Levenberg-Marquardt minimization of the summed squared reprojection
    error over the solution's inliers.

    It takes at most _REFINE_MAX_STEPS (100) steps and stops early once a
    step changes the cost by a relative amount below _REFINE_RELATIVE_TOL
    (1e-10), and keeps that step only if it lowers the cost.

    The rotation is updated multiplicatively through the exponential map (3
    local parameters), so iterates stay on the rotation manifold.  The cost
    never increases across accepted steps; if no step improves, the initial
    pose is returned unchanged.
    """
    idx = initial.inlier_indices
    points, pixels = batch.points[idx], batch.pixels[idx]
    R = np.array(initial.pose.rotation)
    C = np.array(initial.pose.center)

    res = _errors(R, C, points, pixels, K)[0]
    if not np.isfinite(res).all():
        return initial.pose
    cost = float(res @ res)
    if cost == 0.0:
        return initial.pose

    lam = 1e-6
    for _ in range(_REFINE_MAX_STEPS):
        try:
            R_new, C_new = _pose_step(R, C, _pose_jacobian(R, C, points, K), res, lam)
        except np.linalg.LinAlgError:
            lam *= 10.0
            continue
        res_new = _errors(R_new, C_new, points, pixels, K)[0]
        if np.isfinite(res_new).all():
            cost_new = float(res_new @ res_new)
        else:
            cost_new = np.inf
        if cost_new < cost:
            rel = (cost - cost_new) / cost
            R, C, res, cost = R_new, C_new, res_new, cost_new
            lam = max(lam / 3.0, 1e-12)
            if rel < _REFINE_RELATIVE_TOL or cost == 0.0:
                break
        elif cost_new - cost < _REFINE_RELATIVE_TOL * cost:
            # Rounding at the minimum: raising lam would only shrink the step.
            break
        else:
            lam *= 10.0
            if lam > 1e12:
                break
    return RigidPose(R, C)
