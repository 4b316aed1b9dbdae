"""Absolute camera pose from 2D-3D correspondences.

Contents: a three-point minimal solver (direct quartic parametrization of
the camera position along the feature rays), a plain RANSAC loop for
per-retrieved-image temporary poses, a weighted RANSAC whose minimal
samples are drawn with probability proportional to the semantic weights,
and Levenberg-Marquardt reprojection refinement with the rotation updated
on its manifold.

Weighted and unweighted RANSAC share one code path (the unweighted case
runs with uniform weights), so equal weights reproduce plain RANSAC draw
for draw under the same seed.  Inlier counting is never weighted; weights
only bias hypothesis sampling.

Hypotheses are evaluated in chunks: a chunk's minimal samples are drawn,
checked for degeneracy, solved by one vectorized P3P and scored by one
reprojection of every candidate against every correspondence.  Draws and
selection stay sequential: samples come from the generator in the same
order as one draw per iteration would take them, and the iterations are
replayed in order with the same best-selection rule and adaptive stopping
bound, so a run returns what the one-hypothesis-per-iteration loop returns
up to rounding in the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import CameraIntrinsics, RigidPose, pixel_rays, project_points
from .matching import CorrespondenceBatch

__all__ = [
    "RansacConfig",
    "PnPSolution",
    "solve_p3p",
    "estimate_temporary_pose",
    "weighted_ransac_pnp",
    "refine_pose",
]

_COLLINEAR_AREA_TOL = 1e-12

# Minimal samples drawn, checked, solved and scored together per RANSAC
# chunk.  Working memory per chunk is O(_CHUNK * N) whatever max_iterations
# is; a chunk may solve up to _CHUNK - 1 hypotheses past the adaptive stop.
_CHUNK = 64

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


def _quartic_roots(coeffs: np.ndarray) -> np.ndarray:
    """Eigenvalue roots of one quartic (a4..a0), NaN-padded to 4 entries;
    used only for rows where the closed form in _quartic_roots_batch fails."""
    roots = np.full(4, np.nan, dtype=complex)
    found = np.roots(coeffs)
    roots[: len(found)] = found
    return roots


def _quartic_roots_batch(A: np.ndarray) -> np.ndarray:
    """Closed-form (Ferrari) roots of the quartics in the rows of (H, 5)
    coefficients a4..a0, as (H, 4) complex.

    Rows with a zero leading coefficient, a vanishing resolvent or
    non-finite closed-form roots take the eigenvalue fallback.  Rows with
    non-finite coefficients have no roots (all NaN).  Roughly 20x faster
    than np.roots per row; the caller Newton-polishes the real roots, so
    last-ulp accuracy is not required here.
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
    finite = np.isfinite(A).all(axis=1)
    closed_ok = (a4 != 0.0) & (np.abs(w) >= 1e-12) & np.isfinite(roots.view(np.float64)).all(axis=1)
    for h in np.nonzero(finite & ~closed_ok)[0]:
        roots[h] = _quartic_roots(A[h])
    roots[~finite] = np.nan
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
    """RANSAC constants; all logged with results.

    confidence drives the adaptive iteration bound; max_iterations caps it.
    min_inliers rejects weak consensus (12 for final poses, 6 is a sensible
    choice for temporary per-retrieved-image poses).  Samples are rejected
    and redrawn when the 3 world points are near-collinear or the 3 pixels
    span less than min_pixel_span_px.
    """

    inlier_threshold_px: float = 8.0
    max_iterations: int = 10000
    confidence: float = 0.999
    min_inliers: int = 12
    seed: int = 0
    min_pixel_span_px: float = 10.0
    max_sample_attempts: int = 20
    adaptive_stopping: bool = True  # False runs exactly max_iterations

    def __post_init__(self) -> None:
        if not self.inlier_threshold_px > 0:
            raise ValueError("inlier threshold must be positive")
        if not (0.0 < self.confidence < 1.0):
            raise ValueError("confidence must lie in (0, 1)")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True)
class PnPSolution:
    pose: RigidPose
    inlier_indices: np.ndarray
    mean_reprojection_error_px: float
    iterations_used: int = 0

    def __post_init__(self) -> None:
        idx = np.asarray(self.inlier_indices, dtype=np.int64).reshape(-1)
        idx.setflags(write=False)
        object.__setattr__(self, "inlier_indices", idx)

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


def _reprojection_residuals(
    R: np.ndarray, C: np.ndarray, points: np.ndarray, pixels: np.ndarray, K: CameraIntrinsics
) -> np.ndarray:
    """Residual vector (2N,); residuals of points at or behind the camera
    are set to inf."""
    projected, depth = project_points(points, R, C, K)
    return np.where((depth > 0.0)[:, None], projected - pixels, np.inf).reshape(-1)


def _pose_jacobian(
    R: np.ndarray, C: np.ndarray, points: np.ndarray, K: CameraIntrinsics
) -> np.ndarray:
    """Jacobian (2N, 6) of reprojection residuals wrt the local pose update
    [omega, dC]: R <- Exp(omega) @ R, C <- C + dC.  Rows of points behind
    the camera are zero."""
    n = len(points)
    cam = (points - C) @ R.T
    J = np.zeros((2 * n, 6))
    front = cam[:, 2] > 0.0
    z = cam[front, 2]
    x = cam[front, 0]
    y = cam[front, 1]
    # d(res)/d(cam): 2x3 per point.
    du = np.zeros((front.sum(), 3))
    dv = np.zeros((front.sum(), 3))
    du[:, 0] = K.fx / z
    du[:, 2] = -K.fx * x / (z * z)
    dv[:, 1] = K.fy / z
    dv[:, 2] = -K.fy * y / (z * z)
    # d(cam)/d(omega) = -[cam]x, d(cam)/d(dC) = -R.
    p = cam[front]
    skew = np.zeros((front.sum(), 3, 3))
    skew[:, 0, 1] = -p[:, 2]
    skew[:, 0, 2] = p[:, 1]
    skew[:, 1, 0] = p[:, 2]
    skew[:, 1, 2] = -p[:, 0]
    skew[:, 2, 0] = -p[:, 1]
    skew[:, 2, 1] = p[:, 0]
    dcam = np.concatenate([-skew, -np.broadcast_to(R, (front.sum(), 3, 3))], axis=2)
    rows = np.nonzero(front)[0]
    J[2 * rows, :] = np.einsum("nk,nkj->nj", du, dcam)
    J[2 * rows + 1, :] = np.einsum("nk,nkj->nj", dv, dcam)
    return J


def _exp_so3(w: np.ndarray) -> np.ndarray:
    theta = np.linalg.norm(w)
    if theta < 1e-12:
        return np.eye(3)
    a = w / theta
    K = np.array([[0, -a[2], a[1]], [a[2], 0, -a[0]], [-a[1], a[0], 0]], dtype=np.float64)
    return np.eye(3) + math.sin(theta) * K + (1.0 - math.cos(theta)) * (K @ K)


def _polish_pose(
    R: np.ndarray,
    C: np.ndarray,
    points: np.ndarray,
    pixels: np.ndarray,
    K: CameraIntrinsics,
    iterations: int = 3,
) -> tuple[np.ndarray, np.ndarray]:
    """Few Gauss-Newton steps on the reprojection of a minimal set; with 6
    residuals and 6 parameters this converges to machine precision from any
    reasonable candidate."""
    for _ in range(iterations):
        res = _reprojection_residuals(R, C, points, pixels, K)
        if not np.all(np.isfinite(res)):
            return R, C
        J = _pose_jacobian(R, C, points, K)
        try:
            delta = np.linalg.lstsq(J, -res, rcond=None)[0]
        except np.linalg.LinAlgError:
            return R, C
        R = _exp_so3(delta[:3]) @ R
        C = C + delta[3:]
    return R, C


def solve_p3p(points: np.ndarray, K: CameraIntrinsics, pixels: np.ndarray) -> list[RigidPose]:
    """Camera poses consistent with exactly 3 correspondences: an (3, 3)
    array of world points and an (3, 2) array of pixels.

    Returns 0 to 4 poses; every returned pose reprojects the three points
    within 1e-6 px (candidates are polished by Gauss-Newton and filtered by
    that bound).  Raises on collinear world points or parallel rays.
    """
    points = np.asarray(points, dtype=np.float64)
    pix = np.asarray(pixels, dtype=np.float64)
    if points.shape != (3, 3) or pix.shape != (3, 2):
        raise ValueError(f"exactly 3 correspondences required, got points of shape "
                         f"{points.shape} and pixels of shape {pix.shape}")

    bearings = _bearings_from_pixels(pix, K)
    R_all, C_all, valid, status = _p3p_batch(points[None], bearings[None])
    if status[0]:
        raise ValueError(_P3P_ERRORS[status[0]])
    out: list[RigidPose] = []
    for R, C in zip(R_all[0][valid[0]], C_all[0][valid[0]]):
        R, C = _polish_pose(R, C, points, pix, K)
        res = _reprojection_residuals(R, C, points, pix, K)
        if not np.all(np.isfinite(res)):
            continue
        err = np.linalg.norm(res.reshape(-1, 2), axis=1)
        if np.max(err) >= 1e-6:
            continue
        # Orthonormality can drift slightly through back-substitution; snap
        # to the nearest rotation before constructing the pose.
        pose = RigidPose(*_orthonormalized(R, C))
        if not any(
            np.linalg.norm(pose.center - p.center) < 1e-9
            and np.max(np.abs(pose.rotation - p.rotation)) < 1e-9
            for p in out
        ):
            out.append(pose)
    return out


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
        picks[:, k] = np.minimum(i, n - 1)
        W[rows, picks[:, k]] = 0.0
    return picks


def _degenerate_samples(points: np.ndarray, pixels: np.ndarray, cfg: RansacConfig) -> np.ndarray:
    """(m,) mask of minimal samples, given as (m, 3, 3) world points and
    (m, 3, 2) pixels, whose points are near-collinear or whose pixels span
    less than cfg.min_pixel_span_px."""
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
        | (span < cfg.min_pixel_span_px)
    )


def _schedule(ok: np.ndarray, iterations: int, attempts_per_iteration: int) -> tuple[list, int]:
    """Assign drawn samples (ok marks the non-degenerate ones) to up to
    `iterations` RANSAC iterations in draw order.  An iteration takes the
    first non-degenerate sample among its next attempts_per_iteration
    draws, or none when all of them are degenerate; scheduling stops at an
    iteration whose draws run past the end of `ok`.  Returns each
    iteration's sample index (-1 for none) and the number of draws used."""
    good = np.flatnonzero(ok).tolist()
    sched = []
    p = 0  # next unused draw
    k = 0  # good[k] is the first non-degenerate draw at or after p
    while len(sched) < iterations:
        end = p + attempts_per_iteration
        if k < len(good) and good[k] < end:
            p = good[k] + 1
            sched.append(good[k])
            k += 1
        elif end <= len(ok):
            sched.append(-1)
            p = end
        else:
            break
    return sched, p


def _score_hypotheses(
    R: np.ndarray,
    C: np.ndarray,
    points: np.ndarray,
    pixels: np.ndarray,
    K: CameraIntrinsics,
    threshold: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Unweighted inlier count and mean inlier error of M pose hypotheses
    (R (M, 3, 3), C (M, 3)) over all N correspondences, from one (M, N)
    reprojection; points at or behind a camera are never inliers."""
    projected, _ = project_points(points, R, C, K)
    d = projected - pixels
    err = np.hypot(d[..., 0], d[..., 1])  # NaN, so never an inlier, behind a camera
    inl = err < threshold
    count = inl.sum(axis=1)
    mean_err = np.where(inl, err, 0.0).sum(axis=1) / np.maximum(count, 1)
    return count, mean_err


def _ransac_pnp(
    batch: CorrespondenceBatch,
    K: CameraIntrinsics,
    cfg: RansacConfig,
    weights: Optional[np.ndarray],
) -> Optional[PnPSolution]:
    """RANSAC-PnP evaluated in chunks, decided one draw at a time.

    Each chunk tops up a pool of drawn minimal samples to _CHUNK (draws the
    previous chunk did not use stay at its head, in order), flags the
    degenerate ones, assigns samples to iterations exactly as a one-sample
    loop would (first non-degenerate of up to max_sample_attempts draws),
    solves P3P and scores every candidate for the whole chunk at once, then
    replays the iterations in order with the best-selection rule and the
    adaptive stopping bound.  Results are those of the sequential loop up
    to rounding in the solver; work done for iterations past the stop is
    discarded.
    """
    n = len(batch)
    points, pixels = batch.points, batch.pixels
    bearings = _bearings_from_pixels(pixels, K)
    w = np.full(n, 1.0 / n) if weights is None else np.asarray(weights, dtype=np.float64)

    rng = np.random.default_rng(cfg.seed)
    best_count = 0
    best_err = np.inf
    best_pose: Optional[RigidPose] = None
    needed = cfg.max_iterations
    it = 0
    # At least one iteration's worth of draws in hand, so that every chunk
    # schedules at least one iteration.
    pool_size = max(_CHUNK, cfg.max_sample_attempts)
    drawn = np.empty((0, 3), dtype=np.int64)
    ok = np.empty(0, dtype=bool)
    while it < needed:
        fresh = _draw_minimal_samples(rng, w, pool_size - len(drawn))
        drawn = np.concatenate([drawn, fresh])
        ok = np.concatenate([ok, ~_degenerate_samples(points[fresh], pixels[fresh], cfg)])
        sched, used = _schedule(ok, min(_CHUNK, needed - it), cfg.max_sample_attempts)
        samples = drawn[[j for j in sched if j >= 0]]
        drawn, ok = drawn[used:], ok[used:]

        R, C, valid, _ = _p3p_batch(points[samples], bearings[samples])
        per_sample = valid.sum(axis=1).tolist()
        R, C = R[valid], C[valid]
        counts, mean_errs = _score_hypotheses(R, C, points, pixels, K, cfg.inlier_threshold_px)
        counts, mean_errs = counts.tolist(), mean_errs.tolist()

        cand = 0
        solved = iter(per_sample)
        for j in sched:
            if it >= needed:
                break
            it += 1
            if j < 0:
                continue
            first = cand
            cand += next(solved)
            for c in range(first, cand):
                count = counts[c]
                if count == 0:
                    continue
                mean_err = mean_errs[c]
                if count > best_count or (count == best_count and mean_err < best_err):
                    try:
                        best_pose = RigidPose(*_orthonormalized(R[c], C[c]))
                    except ValueError:
                        continue
                    best_count = count
                    best_err = mean_err
                    if cfg.adaptive_stopping:
                        ratio = count / n
                        if ratio >= 1.0:
                            needed = min(needed, it)
                        else:
                            denom = math.log(max(1e-300, 1.0 - ratio**3))
                            needed = min(
                                cfg.max_iterations,
                                max(it, int(math.ceil(math.log(1.0 - cfg.confidence) / denom))),
                            )

    if best_pose is None:
        return None
    # Re-verification pass: the returned solution restates its own inliers.
    res = _reprojection_residuals(best_pose.rotation, best_pose.center, points, pixels, K)
    err = np.linalg.norm(res.reshape(-1, 2), axis=1)
    err = np.where(np.isfinite(err), err, np.inf)
    inl = err < cfg.inlier_threshold_px
    if int(inl.sum()) < cfg.min_inliers:
        return None
    return PnPSolution(
        pose=best_pose,
        inlier_indices=np.nonzero(inl)[0],
        mean_reprojection_error_px=float(err[inl].mean()),
        iterations_used=it,
    )


def _orthonormalized(R: np.ndarray, C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    U, _, Vt = np.linalg.svd(R)
    Rn = U @ np.diag([1.0, 1.0, np.linalg.det(U @ Vt)]) @ Vt
    return Rn, C


def estimate_temporary_pose(
    batch: CorrespondenceBatch,
    K: CameraIntrinsics,
    cfg: RansacConfig,
) -> Optional[PnPSolution]:
    """Plain (uniform-sampling) RANSAC + P3P over one retrieved image's
    correspondences; None when fewer than 4 correspondences exist or no
    model reaches min_inliers.  The batch's weights are ignored."""
    if len(batch) < 4:
        return None
    return _ransac_pnp(batch, K, cfg, weights=None)


def weighted_ransac_pnp(
    batch: CorrespondenceBatch,
    K: CameraIntrinsics,
    cfg: RansacConfig,
) -> Optional[PnPSolution]:
    """RANSAC + P3P with minimal samples drawn by correspondence weight.

    Weights must be normalized to sum to 1 (see
    scoring.normalize_weights); inlier counting is identical to the
    unweighted loop.  Raises when fewer than 4 correspondences are given;
    returns None when no model reaches min_inliers.
    """
    if len(batch) < 4:
        raise ValueError(f"need at least 4 correspondences, got {len(batch)}")
    total = batch.weights.sum()
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"weights must sum to 1, got {total!r}")
    return _ransac_pnp(batch, K, cfg, weights=batch.weights)


# ── Refinement ───────────────────────────────────────────────────────────


def refine_pose(
    initial: PnPSolution,
    batch: CorrespondenceBatch,
    K: CameraIntrinsics,
    max_iterations: int = 100,
    relative_tolerance: float = 1e-10,
) -> RigidPose:
    """Levenberg-Marquardt minimization of the summed squared reprojection
    error over the solution's inliers.

    The rotation is updated multiplicatively through the exponential map (3
    local parameters), so iterates stay on the rotation manifold.  The cost
    never increases across accepted steps; if no step improves, the initial
    pose is returned unchanged.
    """
    idx = initial.inlier_indices
    points, pixels = batch.points[idx], batch.pixels[idx]
    R = np.array(initial.pose.rotation)
    C = np.array(initial.pose.center)

    res = _reprojection_residuals(R, C, points, pixels, K)
    if not np.all(np.isfinite(res)):
        return initial.pose
    cost = float(res @ res)
    if cost == 0.0:
        return initial.pose

    lam = 1e-6
    for _ in range(max_iterations):
        J = _pose_jacobian(R, C, points, K)
        H = J.T @ J
        g = J.T @ res
        try:
            delta = np.linalg.solve(H + lam * np.eye(6), -g)
        except np.linalg.LinAlgError:
            lam *= 10.0
            continue
        R_new = _exp_so3(delta[:3]) @ R
        C_new = C + delta[3:]
        res_new = _reprojection_residuals(R_new, C_new, points, pixels, K)
        if np.all(np.isfinite(res_new)):
            cost_new = float(res_new @ res_new)
        else:
            cost_new = np.inf
        if cost_new < cost:
            rel = (cost - cost_new) / cost
            R, C, res, cost = R_new, C_new, res_new, cost_new
            lam = max(lam / 3.0, 1e-12)
            if rel < relative_tolerance or cost == 0.0:
                break
        else:
            lam *= 10.0
            if lam > 1e12:
                break
    return RigidPose(R, C)
