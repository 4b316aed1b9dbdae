"""Scalar reference implementations of the RANSAC-PnP hot path.

semloc.pnp draws, checks, solves and scores minimal samples a round at a
time.  These are the one-sample-at-a-time versions it replaced, kept as
test oracles: the batched code must give the same draws, the same
degeneracy decisions, the same P3P candidates in the same order, and the
same RANSAC results.

Four deliberate differences from the loop as it first shipped: a quartic
with non-finite coefficients (two identical bearings put f3 in the plane of
the first two rays) yields no roots instead of raising LinAlgError out of
np.roots, and one with a zero leading coefficient none instead of a cubic's,
which is the behaviour the batched solver specifies; a run in
which every drawn sample is degenerate returns None, as the production loop
does, instead of falling back to a DLT pose; and an iteration is one
non-degenerate sample, with degenerate draws redrawn without counting and
the run capped at _MAX_SAMPLE_ATTEMPTS * max_iterations draws, instead of
an iteration that gives up after 20 degenerate draws in a row; and equal
inlier counts keep the model drawn first instead of the one of lower mean
inlier error.

Like the production loop, a run given fewer than max(4, min_inliers)
correspondences returns None before drawing, and with adaptive=True (the
production rule) the iteration budget starts at the min-inliers bound, the
RANSAC bound at inlier ratio min_inliers / n, and a weighted run stops at
the bound that a best model's inlier weight shares give once that model
has min_inliers inliers.  Unlike it, the oracle builds a RigidPose at
every improvement, and takes the stopping rule and the minimum pixel span
as arguments: adaptive=False runs exactly max_iterations, which the
library does when its _iterations_needed is patched to return the cap.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from semloc.geometry import CameraIntrinsics, RigidPose
from semloc.matching import CorrespondenceBatch
from semloc.pnp import (
    PnPSolution,
    _CONFIDENCE,
    _MAX_SAMPLE_ATTEMPTS,
    _MIN_PIXEL_SPAN_PX,
    RansacConfig,
    _bearings_from_pixels,
    _orthonormalized,
    _errors,
)

_COLLINEAR_AREA_TOL = 1e-12


def _cross3(a, b) -> np.ndarray:
    return np.array(
        [
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        ]
    )


def _norm3(v) -> float:
    return math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])


def quartic_roots(a4: float, a3: float, a2: float, a1: float, a0: float) -> np.ndarray:
    """Closed-form (Ferrari) roots of one quartic, with eigenvalue fallback;
    none for non-finite coefficients or a zero leading coefficient."""
    if a4 == 0.0 or not np.isfinite([a4, a3, a2, a1, a0]).all():
        return np.empty(0, dtype=complex)
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
    disc = complex(qq * qq / 4.0 + pp * pp * pp / 27.0)
    rr = -qq / 2.0 + disc ** 0.5
    u = rr ** (1.0 / 3.0)
    if u == 0:
        y = -5.0 * p / 6.0 - complex(qq) ** (1.0 / 3.0)
    else:
        y = -5.0 * p / 6.0 - pp / (3.0 * u) + u
    w = (p + 2.0 * y) ** 0.5
    if abs(w) < 1e-12:
        return np.roots([a4, a3, a2, a1, a0]).astype(complex)
    s1 = (-(3.0 * p + 2.0 * y + 2.0 * q / w)) ** 0.5
    s2 = (-(3.0 * p + 2.0 * y - 2.0 * q / w)) ** 0.5
    shift = -b / 4.0
    roots = np.array(
        [
            shift + 0.5 * (w + s1),
            shift + 0.5 * (w - s1),
            shift + 0.5 * (-w + s2),
            shift + 0.5 * (-w - s2),
        ],
        dtype=complex,
    )
    if not np.all(np.isfinite(roots.view(np.float64))):
        return np.roots([a4, a3, a2, a1, a0]).astype(complex)
    return roots


def newton_polish_root(x: float, coeffs: tuple) -> float:
    a4, a3, a2, a1, a0 = coeffs
    for _ in range(2):
        f = (((a4 * x + a3) * x + a2) * x + a1) * x + a0
        df = ((4.0 * a4 * x + 3.0 * a3) * x + 2.0 * a2) * x + a1
        if df == 0.0:
            break
        step = f / df
        if not math.isfinite(step):
            break
        x -= step
    return x


def p3p_quartic(P: np.ndarray, f: np.ndarray) -> tuple[tuple, tuple]:
    """Quartic coefficients (a4..a0) in the cosine of the free angle, plus
    the frames and terms back-substitution needs; raises ValueError on
    collinear points or parallel rays."""
    P1, P2, P3 = P[0], P[1], P[2]
    v1 = P2 - P1
    v2 = P3 - P1
    if 0.5 * _norm3(_cross3(v1, v2)) <= _COLLINEAR_AREA_TOL:
        raise ValueError("world points are collinear")

    f1, f2, f3 = f[0], f[1], f[2]
    e1 = f1
    e3 = _cross3(f1, f2)
    n3 = _norm3(e3)
    if n3 < 1e-12:
        raise ValueError("degenerate bearing vectors (parallel rays)")
    e3 = e3 / n3
    e2 = _cross3(e3, e1)
    T = np.stack([e1, e2, e3])
    f3_t = T @ f3
    if f3_t[2] > 0.0:
        # Swap the first two correspondences so the free angle stays in [0, pi].
        f1, f2 = f[1], f[0]
        P1, P2 = P[1], P[0]
        e1 = f1
        e3 = _cross3(f1, f2)
        n3 = _norm3(e3)
        if n3 < 1e-12:
            raise ValueError("degenerate bearing vectors (parallel rays)")
        e3 = e3 / n3
        e2 = _cross3(e3, e1)
        T = np.stack([e1, e2, e3])
        f3_t = T @ f3

    n1 = P2 - P1
    n1 = n1 / _norm3(n1)
    n3w = _cross3(n1, P3 - P1)
    n3w = n3w / _norm3(n3w)
    n2 = _cross3(n3w, n1)
    N = np.stack([n1, n2, n3w])

    P3_n = N @ (P3 - P1)
    d12 = _norm3(P2 - P1)
    p1 = P3_n[0]
    p2 = P3_n[1]

    phi1 = f3_t[0] / f3_t[2]
    phi2 = f3_t[1] / f3_t[2]

    cos_beta = float(np.dot(f1, f2))
    b = 1.0 / (1.0 - cos_beta * cos_beta) - 1.0
    if b < 0.0:
        raise ValueError("degenerate bearing vectors (parallel rays)")
    b = math.sqrt(b) if cos_beta >= 0.0 else -math.sqrt(b)

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
    return (a4, a3, a2, a1, a0), (T, N, P1, phi1, phi2, p1, p2, d12, b)


def p3p_candidates(P: np.ndarray, f: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Raw pose candidates (R, C) from 3 world points and 3 unit bearings;
    raises ValueError on collinear points or parallel rays."""
    (a4, a3, a2, a1, a0), (T, N, P1, phi1, phi2, p1, p2, d12, b) = p3p_quartic(P, f)
    roots = quartic_roots(a4, a3, a2, a1, a0)
    out = []
    for root in roots:
        if abs(root.imag) > 1e-6 * max(1.0, abs(root.real)):
            continue
        x = newton_polish_root(float(root.real), (a4, a3, a2, a1, a0))
        cos_theta = float(np.clip(x, -1.0, 1.0))
        denom = -phi1 * cos_theta * p2 / phi2 + p1 - d12
        if abs(denom) < 1e-15:
            continue
        cot_alpha = (-phi1 * p1 / phi2 - cos_theta * p2 + d12 * b) / denom
        sin_theta = math.sqrt(max(0.0, 1.0 - cos_theta * cos_theta))
        sin_alpha = math.sqrt(1.0 / (cot_alpha * cot_alpha + 1.0))
        cos_alpha = math.sqrt(max(0.0, 1.0 - sin_alpha * sin_alpha))
        if cot_alpha < 0.0:
            cos_alpha = -cos_alpha

        scale = sin_alpha * b + cos_alpha
        C_n = d12 * scale * np.array(
            [cos_alpha, cos_theta * sin_alpha, sin_theta * sin_alpha]
        )
        C = P1 + N.T @ C_n
        Q = np.array(
            [
                [-cos_alpha, -sin_alpha * cos_theta, -sin_alpha * sin_theta],
                [sin_alpha, -cos_alpha * cos_theta, -cos_alpha * sin_theta],
                [0.0, -sin_theta, cos_theta],
            ]
        )
        R_w2c = T.T @ Q @ N
        out.append((R_w2c, C))
    return out


def draw_minimal_sample(rng: np.random.Generator, weights: np.ndarray) -> np.ndarray:
    """Three distinct indices, drawn sequentially with probability
    proportional to weight, renormalizing over the remaining items."""
    w = weights.astype(np.float64).copy()
    picks = np.empty(3, dtype=np.int64)
    for k in range(3):
        total = w.sum()
        if total <= 0.0:
            # Fewer than 3 positively weighted items remain; fall back to
            # uniform over the not-yet-picked rest.
            w = np.ones(len(weights))
            w[picks[:k]] = 0.0
            total = w.sum()
        cum = np.cumsum(w)
        r = rng.random() * total
        i = int(np.searchsorted(cum, r, side="right"))
        if i == len(w):  # r rounded up to the total: the last item still weighted
            i = int(np.flatnonzero(w)[-1])
        picks[k] = i
        w[i] = 0.0
    return picks


def sample_is_degenerate(points: np.ndarray, pixels: np.ndarray, span_px: float) -> bool:
    v1 = points[1] - points[0]
    v2 = points[2] - points[0]
    area2 = _norm3(_cross3(v1, v2))
    n1 = _norm3(v1)
    n2 = _norm3(v2)
    if n1 < 1e-12 or n2 < 1e-12 or area2 <= 2.0 * _COLLINEAR_AREA_TOL:
        return True
    if area2 / (n1 * n2) < 1e-3:  # near-collinear: sin of spanned angle
        return True
    span = max(
        math.hypot(pixels[0, 0] - pixels[1, 0], pixels[0, 1] - pixels[1, 1]),
        math.hypot(pixels[0, 0] - pixels[2, 0], pixels[0, 1] - pixels[2, 1]),
        math.hypot(pixels[1, 0] - pixels[2, 0], pixels[1, 1] - pixels[2, 1]),
    )
    return span < span_px


def weighted_sample_chance(shares: np.ndarray) -> float:
    """Lower bound on the chance that three distinct weighted picks are all
    inliers, given the inliers' shares of the sampling weight: the first
    pick holds M = sum(shares), and the second and third at least
    (M - a) / (1 - a) and (M - a - b) / (1 - a - b) after the two heaviest
    inliers a and b are gone."""
    M = float(shares.sum())
    b, a = np.sort(shares)[-2:].tolist()
    if M - a - b <= 0.0:
        return 0.0
    return M * (M - a) / (1.0 - a) * (M - a - b) / (1.0 - a - b)


def ransac_bound(p: float, confidence: float) -> float:
    """Uncapped RANSAC bound: iterations that draw an all-inlier sample with
    the given confidence when one sample is all inliers with chance p (inf
    when p cannot move 1 - p off 1)."""
    denom = math.log(max(1e-300, 1.0 - p))
    if denom >= 0.0:
        return math.inf
    return math.ceil(math.log(1.0 - confidence) / denom)


def ransac_pnp(
    batch: CorrespondenceBatch,
    K: CameraIntrinsics,
    cfg: RansacConfig,
    weights: Optional[np.ndarray],
    *,
    adaptive: bool = True,
    span_px: float = _MIN_PIXEL_SPAN_PX,
    confidence: float = _CONFIDENCE,
) -> Optional[PnPSolution]:
    """One hypothesis per iteration: draw a non-degenerate sample (a
    degenerate draw is redrawn and does not count), solve, score, keep a
    candidate with more inliers than every one before it, update the
    adaptive bound.  The budget starts at the min-inliers bound, and a run
    gives up after _MAX_SAMPLE_ATTEMPTS * max_iterations draws.  Under
    weights that are not all equal, a best model with at least min_inliers
    inliers takes its bound at the larger chance of an all-inlier sample,
    by its inlier ratio cubed or by weighted_sample_chance.  adaptive=False runs exactly max_iterations; a
    sample whose pixels span less than span_px is degenerate; both bounds
    are taken at the given confidence."""
    n = len(batch)
    if n < max(4, cfg.min_inliers):
        return None
    points, pixels = batch.points, batch.pixels
    w = np.full(n, 1.0 / n) if weights is None else np.asarray(weights, dtype=np.float64)
    shares = None if np.all(w == w[0]) else w / w.sum()

    rng = np.random.default_rng(cfg.seed)
    best_count = 0
    best_pose: Optional[RigidPose] = None
    needed = cfg.max_iterations
    if adaptive:
        needed = max(1, min(needed, ransac_bound((cfg.min_inliers / n) ** 3, confidence)))
    it = 0
    draws_left = _MAX_SAMPLE_ATTEMPTS * cfg.max_iterations
    while it < needed and draws_left:
        draws_left -= 1
        sample = draw_minimal_sample(rng, w)
        if sample_is_degenerate(points[sample], pixels[sample], span_px):
            continue
        it += 1
        try:
            candidates = p3p_candidates(points[sample], _bearings_from_pixels(pixels[sample], K))
        except ValueError:
            continue
        for R, C in candidates:
            cam = (points - C) @ R.T
            front = cam[:, 2] > 0.0
            err = np.full(n, np.inf)
            z = cam[front, 2]
            dx = K.fx * cam[front, 0] / z + K.cx - pixels[front, 0]
            dy = K.fy * cam[front, 1] / z + K.cy - pixels[front, 1]
            err[front] = np.hypot(dx, dy)
            inl = err < cfg.inlier_threshold_px
            count = int(inl.sum())
            if count > best_count:
                try:
                    best_pose = RigidPose(_orthonormalized(R), C)
                except ValueError:
                    continue
                best_count = count
                if adaptive:
                    p = (count / n) ** 3
                    if shares is not None and count >= cfg.min_inliers:
                        p = max(p, weighted_sample_chance(shares[inl]))
                    needed = min(needed, max(it, ransac_bound(p, confidence)))

    if best_pose is None:
        return None
    res = _errors(best_pose.rotation, best_pose.center, points, pixels, K)[0]
    err = np.linalg.norm(res.reshape(-1, 2), axis=1)
    inl = err < cfg.inlier_threshold_px
    if int(inl.sum()) < cfg.min_inliers:
        return None
    return PnPSolution(
        pose=best_pose,
        inlier_indices=np.nonzero(inl)[0],
        mean_reprojection_error_px=float(err[inl].mean()),
        iterations_used=it,
    )
