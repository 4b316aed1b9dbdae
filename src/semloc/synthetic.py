"""Analytic synthetic scenes with exact ground truth for every pipeline
stage.

Scenes are piecewise-planar street canyons: rectangular facade planes with
Cityscapes class labels, a database camera trajectory, and query poses.
Depth and label images are rendered by closed-form ray-plane intersection
(exact up to pixel-center sampling), so depth filtering, fusion, and
semantic scoring can all be checked against independent recomputation.

Features are synthesized at the projections of scene anchor points, which
lie on every plane but the road.  Each anchor owns one latent descriptor
per feature family; an observation is the latent plus Gaussian noise whose
scale depends on the image's condition tag (day/night), with per-condition
dropout.  This corruption model is what lets the suite reproduce the
qualitative complementarity of a handcrafted and a learned feature family
without any CNNs: the handcrafted-like family is sharp by day and
collapses at night, the learned-like family is mildly noisy everywhere but
keeps working at night.

World frame: x right, y DOWN, z forward; the ground plane sits at y = 0
and cameras at negative y.  Rendered depth is z-depth along the optical
axis, matching the depth-map convention of the rest of the package.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .geometry import (CameraIntrinsics, RigidPose, _FrozenArrays, pixel_rays, project_points,
                       rotation_about_axis)
from .formats import DataFormatError, Dataset, key_value_lines
from .matching import FeatureSet
from .semantic_map import CONDITIONS, MAX_CLASS_ID, UNLABELED, DatabaseImageRecord, QueryImage

__all__ = [
    "FacadePlane",
    "FamilySpec",
    "SceneSpec",
    "SyntheticDataset",
    "trace_rays",
    "render_depth_and_labels",
    "sample_plane_points",
    "generate_scene",
    "street_canyon_spec",
    "symmetric_canyon_spec",
    "parse_scene_spec_file",
]


@dataclass(frozen=True)
class FacadePlane(_FrozenArrays):
    """Rectangle corner + two edge vectors spanning it, with a class label."""

    corner: np.ndarray
    edge_u: np.ndarray
    edge_v: np.ndarray
    label: int

    def __post_init__(self) -> None:
        c = np.asarray(self.corner, dtype=np.float64).reshape(3)
        u = np.asarray(self.edge_u, dtype=np.float64).reshape(3)
        v = np.asarray(self.edge_v, dtype=np.float64).reshape(3)
        if np.linalg.norm(np.cross(u, v)) < 1e-12:
            raise ValueError("plane edges are parallel")
        if not (0 <= self.label <= MAX_CLASS_ID):
            raise ValueError(f"label {self.label} outside Cityscapes ids 0..{MAX_CLASS_ID}")
        self._store(corner=c, edge_u=u, edge_v=v)

    def normal(self) -> np.ndarray:
        n = np.cross(self.edge_u, self.edge_v)
        return n / np.linalg.norm(n)


@dataclass
class FamilySpec:
    """A synthetic feature family and its per-condition corruption model."""

    name: str
    dim: int = 16
    sigma: dict = field(default_factory=lambda: {"day": 0.0, "night": 0.0})
    dropout: dict = field(default_factory=lambda: {"day": 0.0, "night": 0.0})
    location_sigma: dict = field(default_factory=lambda: {"day": 0.0, "night": 0.0})


@dataclass
class SceneSpec:
    seed: int
    intrinsics: CameraIntrinsics
    planes: list
    db_poses: list
    query_poses: list
    query_conditions: list
    families: list
    anchors_per_plane: int = 40  # on every plane but the road (label 0)
    global_dim: int = 64
    global_sigma: dict = field(default_factory=lambda: {"day": 0.0, "night": 0.0})

    def validate(self) -> None:
        if len(self.db_poses) < 2:
            raise ValueError("need at least 2 database cameras")
        if len(self.query_poses) != len(self.query_conditions):
            raise ValueError("query poses and condition tags disagree in length")
        for c in self.query_conditions:
            if c not in CONDITIONS:
                raise ValueError(f"unknown condition tag {c!r}")
        if not any(p.label != 0 for p in self.planes):
            raise ValueError("scene has no plane but the road to carry anchors")
        names = [f.name for f in self.families]
        if len(set(names)) != len(names):
            raise ValueError("feature family names must be distinct")
        if self.anchors_per_plane < 1:
            raise ValueError("anchors_per_plane must be >= 1")


@dataclass
class SyntheticDataset(Dataset):
    """A generated Dataset with the spec that made it and its anchors."""

    spec: SceneSpec
    anchor_positions: np.ndarray  # (A, 3)


# ── Analytic rendering ───────────────────────────────────────────────────


def trace_rays(
    planes: Sequence[FacadePlane],
    pose: RigidPose,
    K: CameraIntrinsics,
    pixels: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest plane hit for camera rays through the given pixels.

    Returns (depth, plane_index); depth is the z-depth of the hit (the ray
    parameter for a direction with unit camera-frame z), 0 where nothing is
    hit, with plane_index -1 there.
    """
    dirs_world = pixel_rays(pixels, K) @ pose.rotation  # row-wise R^T @ dir
    n = len(dirs_world)
    origin = pose.center

    best_t = np.full(n, np.inf)
    best_plane = np.full(n, -1, dtype=np.int64)
    for idx, plane in enumerate(planes):
        normal = plane.normal()
        denom = dirs_world @ normal
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(
                np.abs(denom) > 1e-12,
                np.dot(plane.corner - origin, normal) / denom,
                np.inf,
            )
        hit = (t > 1e-9) & np.isfinite(t)
        if not np.any(hit):
            continue
        X = origin + t[hit, None] * dirs_world[hit]
        rel = X - plane.corner
        uu = float(np.dot(plane.edge_u, plane.edge_u))
        vv = float(np.dot(plane.edge_v, plane.edge_v))
        a = rel @ plane.edge_u / uu
        b = rel @ plane.edge_v / vv
        inside = (a >= 0.0) & (a <= 1.0) & (b >= 0.0) & (b <= 1.0)
        sel = np.nonzero(hit)[0][inside]
        closer = t[sel] < best_t[sel]
        sel = sel[closer]
        best_t[sel] = t[sel]
        best_plane[sel] = idx
    depth = np.where(np.isfinite(best_t), best_t, 0.0)
    return depth, best_plane


def render_depth_and_labels(
    planes: Sequence[FacadePlane], pose: RigidPose, K: CameraIntrinsics
) -> tuple[np.ndarray, np.ndarray]:
    """Exact depth (float32, 0 = no hit) and label (uint8, 255 = no hit)
    images sampled at pixel centers."""
    xs, ys = np.meshgrid(np.arange(K.width), np.arange(K.height))
    pixels = np.stack([xs.ravel(), ys.ravel()], axis=1).astype(np.float64)
    depth, plane_idx = trace_rays(planes, pose, K, pixels)
    labels = np.full(len(pixels), UNLABELED, dtype=np.uint8)
    hit = plane_idx >= 0
    plane_labels = np.array([p.label for p in planes], dtype=np.uint8)
    labels[hit] = plane_labels[plane_idx[hit]]
    return (
        depth.reshape(K.height, K.width).astype(np.float32),
        labels.reshape(K.height, K.width),
    )


_PLANE_MARGIN = 0.05  # inset of sampled plane points, as a fraction of each edge


def sample_plane_points(plane: FacadePlane, count: int, rng: np.random.Generator) -> np.ndarray:
    """Jittered grid of points on a plane, inset by _PLANE_MARGIN from the
    borders."""
    lu = np.linalg.norm(plane.edge_u)
    lv = np.linalg.norm(plane.edge_v)
    nu = max(1, int(round(math.sqrt(count * lu / max(lv, 1e-9)))))
    nv = max(1, int(math.ceil(count / nu)))
    us, vs = np.meshgrid(
        (np.arange(nu) + 0.5) / nu,
        (np.arange(nv) + 0.5) / nv,
    )
    uv = np.stack([us.ravel(), vs.ravel()], axis=1)[:count]
    jitter = rng.uniform(-0.4, 0.4, size=uv.shape) / np.array([nu, nv])
    uv = np.clip(uv + jitter, _PLANE_MARGIN, 1.0 - _PLANE_MARGIN)
    return plane.corner + uv[:, :1] * plane.edge_u + uv[:, 1:] * plane.edge_v


# ── Dataset generation ───────────────────────────────────────────────────


def _inside_image(pixels: np.ndarray, K: CameraIntrinsics) -> np.ndarray:
    """Mask of (N, 2) pixels inside [0, W - 1] x [0, H - 1], where an anchor
    counts as seen and a keypoint is kept.  Stricter than nearest_pixel's
    [-0.5, W - 0.5) cells, so every keypoint reads a pixel of its image."""
    x, y = pixels[:, 0], pixels[:, 1]
    return (x >= 0.0) & (x <= K.width - 1) & (y >= 0.0) & (y <= K.height - 1)


def _visible_anchor_mask(
    anchors: np.ndarray,
    planes: Sequence[FacadePlane],
    pose: RigidPose,
    K: CameraIntrinsics,
) -> tuple[np.ndarray, np.ndarray]:
    """(visible mask, projected pixels).  An anchor is visible when it
    projects inside the image and no plane hit lies strictly closer along
    its exact viewing ray."""
    pixels, depth = project_points(anchors, pose.rotation, pose.center, K)
    inb = (depth > 1e-9) & _inside_image(pixels, K)
    visible = inb.copy()
    if np.any(inb):
        t_hit, _ = trace_rays(planes, pose, K, pixels[inb])
        visible[inb] &= t_hit >= depth[inb] - 1e-9
    return visible, pixels


def _make_feature_sets(
    spec: SceneSpec,
    condition: str,
    visible: np.ndarray,
    pixels: np.ndarray,
    codes: dict,
    K: CameraIntrinsics,
    rng: np.random.Generator,
) -> dict:
    """One FeatureSet per family for a single image.

    All random draws are full-anchor-sized so the stream layout does not
    depend on visibility.
    """
    out = {}
    n = len(visible)
    for fam in spec.families:
        drop = rng.random(n)
        loc_noise = rng.normal(size=(n, 2))
        desc_noise = rng.normal(size=(n, fam.dim))
        keep = visible & (drop >= fam.dropout.get(condition, 0.0))
        locs = pixels[keep] + fam.location_sigma.get(condition, 0.0) * loc_noise[keep]
        inb = _inside_image(locs, K)
        descs = codes[fam.name][keep] + fam.sigma.get(condition, 0.0) * desc_noise[keep]
        out[fam.name] = FeatureSet(
            family=fam.name, locations=locs[inb], descriptors=descs[inb]
        )
    return out


def generate_scene(spec: SceneSpec) -> SyntheticDataset:
    """Render the full dataset: database records, query bundles, ground
    truth poses and anchors.  Deterministic given the spec (one seeded
    generator, fixed draw order)."""
    spec.validate()
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))

    anchors = np.concatenate([sample_plane_points(plane, spec.anchors_per_plane, rng)
                              for plane in spec.planes if plane.label != 0], axis=0)

    # each anchor's latent descriptor per family, and its global one
    codes = {f.name: rng.normal(size=(len(anchors), f.dim)) for f in spec.families}
    global_codes = rng.normal(size=(len(anchors), spec.global_dim))

    def render_view(kind: str, image_id: str, pose: RigidPose, condition: str):
        """One camera view: its depth map, and the keyword arguments that
        DatabaseImageRecord and QueryImage share.  Database and query views
        both come from here, so every view draws from ``rng`` in one order."""
        K = spec.intrinsics
        depth, labels = render_depth_and_labels(spec.planes, pose, K)
        if not np.any(depth > 0):
            raise ValueError(f"{kind} camera {image_id} sees no scene geometry")
        visible, pixels = _visible_anchor_mask(anchors, spec.planes, pose, K)
        features = _make_feature_sets(spec, condition, visible, pixels, codes, K, rng)
        gnoise = rng.normal(size=spec.global_dim)
        if not np.any(visible):
            raise ValueError(f"{kind} camera {image_id} sees no anchors")
        gdesc = global_codes[visible].mean(axis=0) + spec.global_sigma.get(condition, 0.0) * gnoise
        return depth, dict(image_id=image_id, intrinsics=K, labels=labels,
                           global_descriptor=gdesc.astype(np.float64), features=features)

    db_records = []
    for i, pose in enumerate(spec.db_poses):
        depth, fields = render_view("database", f"db{i:03d}", pose, "day")
        db_records.append(DatabaseImageRecord(pose=pose, depth=depth, **fields))
    queries = [
        QueryImage(condition=condition, **render_view("query", f"q{i:03d}", pose, condition)[1])
        for i, (pose, condition) in enumerate(zip(spec.query_poses, spec.query_conditions))
    ]
    return SyntheticDataset(
        db_records=db_records,
        queries=queries,
        gt_poses={q.image_id: pose for q, pose in zip(queries, spec.query_poses)},
        families=[(f.name, f.dim) for f in spec.families],
        spec=spec,
        anchor_positions=anchors,
    )


# ── Scene presets ────────────────────────────────────────────────────────

_WALL_PALETTE_A = (2, 8, 3, 2, 8)  # building / vegetation / wall mix
_WALL_PALETTE_B = (4, 5, 1, 4, 5)  # fence / pole / sidewalk mix


def _canyon_planes(
    length: float,
    half_width: float,
    height: float,
    stripe: float,
    palette_for_z,
) -> list:
    """Two striped facade walls plus a road strip on the ground."""
    planes = []
    n_stripes = int(round(length / stripe))
    for side, x in ((0, -half_width), (1, half_width)):
        for s in range(n_stripes):
            z0 = s * stripe
            palette = palette_for_z(z0)
            label = palette[(s + side) % len(palette)]
            planes.append(
                FacadePlane(
                    corner=np.array([x, -height, z0]),
                    edge_u=np.array([0.0, 0.0, stripe]),
                    edge_v=np.array([0.0, height, 0.0]),
                    label=label,
                )
            )
    planes.append(
        FacadePlane(
            corner=np.array([-half_width, 0.0, 0.0]),
            edge_u=np.array([2.0 * half_width, 0.0, 0.0]),
            edge_v=np.array([0.0, 0.0, length]),
            label=0,  # road
        )
    )
    return planes


def _canyon_pose(x: float, y: float, z: float, yaw_deg: float) -> RigidPose:
    """Camera at (x, y, z) looking down-street (+z) rotated by yaw about the
    vertical (world y) axis; positive yaw turns toward the +x wall."""
    R = rotation_about_axis(np.array([0.0, 1.0, 0.0]), math.radians(yaw_deg))
    return RigidPose(R.T, np.array([x, y, z]))


_PROFILES = {
    # FamilySpec keywords per family kind and SceneSpec keywords; what a
    # profile leaves out keeps its all-zero default.
    "zero": {"corner": {}, "blob": {}, "scene": {}},
    # Handcrafted-like family collapses at night; learned-like family is a
    # little noisy and sparse everywhere but keeps working at night.
    "day_night": {
        "corner": dict(sigma={"day": 0.05, "night": 1.6}, dropout={"day": 0.05, "night": 0.35},
                       location_sigma={"day": 0.0, "night": 0.0}),
        "blob": dict(sigma={"day": 0.25, "night": 0.35}, dropout={"day": 0.25, "night": 0.45},
                     location_sigma={"day": 0.5, "night": 0.6}),
        "scene": dict(global_sigma={"day": 0.01, "night": 0.03}),
    },
}


_CANYON_YAW_DEG = 62.0  # street_canyon_spec's camera yaw off the street axis


def street_canyon_spec(
    seed: int = 0,
    n_db: int = 20,
    n_queries: int = 50,
    image_size: tuple = (160, 120),
    noise_profile: str = "zero",
    night_fraction: float = 0.0,
    anchors_per_plane: int = 30,
    length: float = 40.0,
) -> SceneSpec:
    """Striped two-wall street canyon with a zig-zag camera trajectory.

    Cameras alternate between facing the left and right wall at a fairly
    frontal angle (_CANYON_YAW_DEG); grazing views would blow up the
    half-pixel depth-lookup error of lifted correspondences.
    """
    if noise_profile not in _PROFILES:
        raise ValueError(f"unknown noise profile {noise_profile!r}")
    if not 0.0 <= night_fraction <= 1.0:
        raise ValueError(f"night_fraction must lie in [0, 1], got {night_fraction}")
    prof = _PROFILES[noise_profile]
    w, h = image_size
    K = CameraIntrinsics(fx=1.05 * w, fy=1.05 * w, cx=w / 2.0, cy=h / 2.0, width=w, height=h)
    planes = _canyon_planes(length, 4.0, 6.0, 4.0, lambda z0: _WALL_PALETTE_A)

    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC0FFEE)))
    db_poses = []
    for i in range(n_db):
        z = 2.0 + (length - 6.0) * i / max(n_db - 1, 1)
        yaw = _CANYON_YAW_DEG if i % 2 == 0 else -_CANYON_YAW_DEG
        x = 0.4 if i % 2 == 0 else -0.4
        db_poses.append(_canyon_pose(x, -1.5, z, yaw))

    query_poses = []
    conditions = []
    n_night = int(round(night_fraction * n_queries))
    for i in range(n_queries):
        z = float(rng.uniform(3.0, length - 5.0))
        yaw = float(rng.uniform(_CANYON_YAW_DEG - 7.0, _CANYON_YAW_DEG + 7.0))
        yaw *= 1 if i % 2 == 0 else -1
        x = float(rng.uniform(-0.8, 0.8))
        y = float(-1.5 + rng.uniform(-0.2, 0.2))
        query_poses.append(_canyon_pose(x, y, z, yaw))
        conditions.append("night" if i < n_night else "day")

    families = [
        FamilySpec(name="corner", dim=16, **prof["corner"]),
        FamilySpec(name="blob", dim=16, **prof["blob"]),
    ]
    return SceneSpec(
        seed=seed,
        intrinsics=K,
        planes=planes,
        db_poses=db_poses,
        query_poses=query_poses,
        query_conditions=conditions,
        families=families,
        anchors_per_plane=anchors_per_plane,
        global_dim=64,
        **prof["scene"],
    )


def symmetric_canyon_spec(
    seed: int = 0,
    n_db: int = 16,
    image_size: tuple = (64, 48),
    length: float = 40.0,
) -> SceneSpec:
    """Canyon whose two halves are geometrically congruent (z -> z + L/2)
    but carry different semantic palettes.  The stage for retrieval
    confusions: a wrong retrieved image from the far half produces a
    self-consistent but misplaced pose that only semantics can reject."""
    w, h = image_size
    K = CameraIntrinsics(fx=0.9 * w, fy=0.9 * w, cx=w / 2.0, cy=h / 2.0, width=w, height=h)
    half = length / 2.0
    planes = _canyon_planes(
        length, 4.0, 6.0, 4.0,
        lambda z0: _WALL_PALETTE_A if z0 < half else _WALL_PALETTE_B,
    )
    db_poses = []
    per_half = n_db // 2
    for i in range(n_db):
        in_first = i < per_half
        base = 2.0 if in_first else half + 2.0
        span = half - 5.0
        k = i if in_first else i - per_half
        z = base + span * k / max(per_half - 1, 1)
        yaw = 50.0 if i % 2 == 0 else -50.0
        db_poses.append(_canyon_pose(0.4 if i % 2 == 0 else -0.4, -1.5, z, yaw))
    return SceneSpec(
        seed=seed,
        intrinsics=K,
        planes=planes,
        db_poses=db_poses,
        query_poses=[],
        query_conditions=[],
        families=[FamilySpec(name="corner", dim=16)],
        anchors_per_plane=6,
        global_dim=32,
    )


# ── Scene spec files ─────────────────────────────────────────────────────

_PRESETS = {"canyon": street_canyon_spec, "symmetric": symmetric_canyon_spec}

# scene spec key -> type of its value; every key but ``preset`` (canyon |
# symmetric, default canyon) is a keyword argument of the preset function,
# except that image_width and image_height together make its image_size
_SPEC_KEYS = {
    "preset": str, "seed": int, "n_db": int, "n_queries": int, "image_width": int,
    "image_height": int, "noise_profile": str, "night_fraction": float,
    "anchors_per_plane": int, "length": float,
}


def parse_scene_spec_file(path, seed: Optional[int] = None) -> SceneSpec:
    """Build a SceneSpec from a small key-value preset file.

    Keys left out take the preset function's defaults.  Unknown keys and
    keys the chosen preset does not take are rejected, and a value the
    preset or SceneSpec.validate refuses fails as a DataFormatError naming
    the file.  A ``seed`` given here replaces the file's before the preset
    draws any pose.
    """
    values: dict = {}
    lines: dict = {}
    for lineno, key, val in key_value_lines(path):
        if key not in _SPEC_KEYS:
            raise DataFormatError(path, None, f"unknown scene spec key {key!r}", lineno)
        try:
            values[key] = _SPEC_KEYS[key](val)
        except ValueError:
            raise DataFormatError(path, None, f"bad value for {key}: {val!r}", lineno) from None
        lines[key] = lineno

    if seed is not None:
        values["seed"] = seed
    preset = values.pop("preset", "canyon")
    if preset not in _PRESETS:
        raise DataFormatError(path, None, f"unknown scene preset {preset!r}", lines["preset"])
    make = _PRESETS[preset]
    params = inspect.signature(make).parameters
    if "image_width" in values or "image_height" in values:
        w, h = params["image_size"].default
        values["image_size"] = (values.pop("image_width", w), values.pop("image_height", h))
    for key in values:
        if key not in params:
            raise DataFormatError(path, None, f"preset {preset!r} takes no {key!r}", lines[key])
    try:
        spec = make(**values)
        spec.validate()
    except ValueError as exc:
        raise DataFormatError(path, None, f"preset {preset!r}: {exc}") from None
    return spec
