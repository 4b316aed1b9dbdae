"""Shared test fixtures and small scene builders.

Heavy synthetic datasets are module-scoped; every random draw is seeded so
the suite is fully deterministic.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np
import pytest

from semloc import pnp, scoring, semantic_map
from semloc.geometry import CameraIntrinsics, RigidPose
from semloc.matching import CorrespondenceBatch


def rodrigues(axis, angle):
    """Independent Rodrigues construction used as the test-side oracle."""
    a = np.asarray(axis, dtype=np.float64)
    a = a / np.linalg.norm(a)
    K = np.array([[0, -a[2], a[1]], [a[2], 0, -a[0]], [-a[1], a[0], 0]], dtype=np.float64)
    return np.eye(3) + math.sin(angle) * K + (1 - math.cos(angle)) * (K @ K)


def pinhole_project(point, pose, K):
    """Scalar pinhole projection used as the test-side oracle; None at or
    behind the camera plane."""
    cam = pose.rotation @ (np.asarray(point, dtype=np.float64) - pose.center)
    if cam[2] <= 0.0:
        return None
    return np.array([K.fx * cam[0] / cam[2] + K.cx, K.fy * cam[1] / cam[2] + K.cy])


def pinhole_back_project(pixel, depth, pose, K):
    """Scalar inverse of pinhole_project for a z-depth (test-side oracle)."""
    x, y = float(pixel[0]), float(pixel[1])
    cam = np.array([(x - K.cx) / K.fx * depth, (y - K.cy) / K.fy * depth, depth])
    return pose.rotation.T @ cam + pose.center


def random_pose(rng, scale=2.0):
    axis = rng.normal(size=3)
    angle = rng.uniform(0.0, math.pi)
    return RigidPose(rodrigues(axis, angle), rng.normal(scale=scale, size=3))


def default_intrinsics(width=640, height=480):
    return CameraIntrinsics(fx=420.0, fy=400.0, cx=320.0, cy=240.0, width=width, height=height)


def synthetic_correspondences(rng, K, pose, n, outlier_frac=0.0, pixel_noise=0.0):
    """Exact 2D-3D pairs for a known pose, with optional gross outliers
    (world point displaced) and pixel noise on the inliers."""
    depths = rng.uniform(2.0, 10.0, size=n)
    px = rng.uniform(10, K.width - 10, size=n)
    py = rng.uniform(10, K.height - 10, size=n)
    n_out = int(round(outlier_frac * n))
    pixels, points = [], []
    for i in range(n):
        cam = np.array([
            (px[i] - K.cx) / K.fx * depths[i],
            (py[i] - K.cy) / K.fy * depths[i],
            depths[i],
        ])
        world = pose.rotation.T @ cam + pose.center
        if i < n_out:
            world = world + rng.normal(scale=3.0, size=3)
        pixel = np.array([px[i], py[i]])
        if pixel_noise > 0:
            pixel = pixel + rng.normal(scale=pixel_noise, size=2)
        pixels.append(pixel)
        points.append(world)
    return CorrespondenceBatch(np.array(pixels), np.array(points))


@contextlib.contextmanager
def patched_ransac_rule(fixed_budget=False, span_px=None):
    """Within the block, semloc.pnp runs RANSAC by another rule than the
    production one: with fixed_budget every run solves exactly
    cfg.max_iterations minimal samples (both stopping bounds return the
    cap), and span_px replaces the minimum pixel span of a non-degenerate
    sample."""
    with pytest.MonkeyPatch.context() as m:
        if fixed_budget:
            m.setattr(pnp, "_iterations_needed", lambda p, cfg: cfg.max_iterations)
        if span_px is not None:
            m.setattr(pnp, "_MIN_PIXEL_SPAN_PX", span_px)
        yield


@contextlib.contextmanager
def patched_round_size(size):
    """Within the block, every semloc.pnp RANSAC round draws size minimal
    samples (fewer at the run's draw cap) in place of the rounds fitted to
    the run's remaining bound."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(pnp._RansacRun, "_round_size", lambda run: min(size, run.draws_left))
        yield


@contextlib.contextmanager
def patched_gate_margins(distance=None, angle=None):
    """Within the block, semloc.scoring gates with the given distance and
    angle margins in place of the production ones (None keeps one)."""
    with pytest.MonkeyPatch.context() as m:
        if distance is not None:
            m.setattr(scoring, "_DISTANCE_MARGIN", distance)
        if angle is not None:
            m.setattr(scoring, "_ANGLE_MARGIN", angle)
        yield


@contextlib.contextmanager
def patched_depth_filter(neighbor_count=None, min_consistent=None):
    """Within the block, semloc.semantic_map selects neighbor_count filter
    neighbors per record and keeps a depth confirmed by min_consistent of
    them, in place of the production counts (None keeps one)."""
    with pytest.MonkeyPatch.context() as m:
        if neighbor_count is not None:
            m.setattr(semantic_map, "DEFAULT_FILTER_NEIGHBOR_COUNT", neighbor_count)
        if min_consistent is not None:
            m.setattr(semantic_map, "_MIN_CONSISTENT_NEIGHBORS", min_consistent)
        yield


@pytest.fixture(scope="session")
def zero_noise_dataset():
    """Small zero-noise canyon shared by pipeline-level tests.

    Database cameras must be dense enough along the street that same-side
    views overlap, otherwise the depth filter has no confirming neighbor.
    """
    from semloc.synthetic import generate_scene, street_canyon_spec

    spec = street_canyon_spec(seed=301, n_db=10, n_queries=4, image_size=(96, 72),
                              anchors_per_plane=20, length=18.0)
    return generate_scene(spec)
