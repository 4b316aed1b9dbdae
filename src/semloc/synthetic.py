"""Analytic synthetic scenes with exact ground truth for every pipeline
stage.

Scenes are piecewise-planar street canyons: rectangular facade planes with
Cityscapes class labels, a database camera trajectory, and query poses.
Depth and label images are rendered by closed-form ray-plane intersection
(exact up to pixel-center sampling), so depth filtering, fusion, and
semantic scoring can all be checked against independent recomputation.

Features are synthesized at the projections of scene anchor points.  Each
anchor owns one latent descriptor per feature family; an observation is the
latent plus Gaussian noise whose scale depends on the image's condition tag
(day/night), with per-condition dropout.  This corruption model is what
lets the suite reproduce the qualitative complementarity of a handcrafted
and a learned feature family without any CNNs: the handcrafted-like family
is sharp by day and collapses at night, the learned-like family is mildly
noisy everywhere but keeps working at night.

World frame: x right, y DOWN, z forward; the ground plane sits at y = 0
and cameras at negative y.  Rendered depth is z-depth along the optical
axis, matching the depth-map convention of the rest of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .geometry import CameraIntrinsics, RigidPose, pixel_rays, project_points, rotation_about_axis
from .matching import FeatureFamily, FeatureSet
from .semantic_map import UNLABELED, DatabaseImageRecord, QueryImage

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

_CONDITIONS = ("day", "night")


@dataclass(frozen=True)
class FacadePlane:
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
        if not (0 <= self.label <= 18):
            raise ValueError(f"label {self.label} outside Cityscapes ids 0..18")
        object.__setattr__(self, "corner", c)
        object.__setattr__(self, "edge_u", u)
        object.__setattr__(self, "edge_v", v)

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
    use_mutual_nn: bool = True
    ratio: Optional[float] = None

    def family(self) -> FeatureFamily:
        return FeatureFamily(
            name=self.name,
            descriptor_dim=self.dim,
            use_mutual_nn=self.use_mutual_nn,
            ratio=self.ratio,
        )


@dataclass
class SceneSpec:
    seed: int
    intrinsics: CameraIntrinsics
    planes: list
    db_poses: list
    query_poses: list
    query_conditions: list
    families: list
    anchors_per_plane: int = 40
    anchor_plane_indices: Optional[list] = None  # None = anchors on every plane
    global_dim: int = 64
    global_sigma: dict = field(default_factory=lambda: {"day": 0.0, "night": 0.0})

    def validate(self) -> None:
        if len(self.db_poses) < 2:
            raise ValueError("need at least 2 database cameras")
        if len(self.query_poses) != len(self.query_conditions):
            raise ValueError("query poses and condition tags disagree in length")
        for c in self.query_conditions:
            if c not in _CONDITIONS:
                raise ValueError(f"unknown condition tag {c!r}")
        if len(self.planes) == 0:
            raise ValueError("scene has no geometry")
        names = [f.name for f in self.families]
        if len(set(names)) != len(names):
            raise ValueError("feature family names must be distinct")
        if self.anchors_per_plane < 1:
            raise ValueError("anchors_per_plane must be >= 1")


@dataclass
class SyntheticDataset:
    spec: SceneSpec
    db_records: list
    queries: list
    gt_poses: dict  # query id -> RigidPose
    anchor_positions: np.ndarray
    anchor_plane: np.ndarray
    latents: dict  # family name -> (A, dim)
    global_latents: np.ndarray

    def families(self) -> list:
        return [f.family() for f in self.spec.families]


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


def sample_plane_points(
    plane: FacadePlane, count: int, rng: np.random.Generator, margin: float = 0.05
) -> np.ndarray:
    """Jittered grid of points on a plane, inset by ``margin`` (fraction of
    each edge) from the borders."""
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
    uv = np.clip(uv + jitter, margin, 1.0 - margin)
    return plane.corner + uv[:, :1] * plane.edge_u + uv[:, 1:] * plane.edge_v


# ── Dataset generation ───────────────────────────────────────────────────


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
    inb = (depth > 1e-9) & K.contains(pixels)
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
    latents: dict,
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
        inb = K.contains(locs)
        descs = latents[fam.name][keep] + fam.sigma.get(condition, 0.0) * desc_noise[keep]
        out[fam.name] = FeatureSet(
            family=fam.name, locations=locs[inb], descriptors=descs[inb]
        )
    return out


def generate_scene(spec: SceneSpec) -> SyntheticDataset:
    """Render the full dataset: database records, query bundles, ground
    truth poses, anchors and latent descriptors.  Deterministic given the
    spec (one seeded generator, fixed draw order)."""
    spec.validate()
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    K = spec.intrinsics

    anchor_planes = (
        list(range(len(spec.planes)))
        if spec.anchor_plane_indices is None
        else list(spec.anchor_plane_indices)
    )
    positions = []
    plane_of = []
    for pi in anchor_planes:
        pts = sample_plane_points(spec.planes[pi], spec.anchors_per_plane, rng)
        positions.append(pts)
        plane_of.extend([pi] * len(pts))
    anchors = np.concatenate(positions, axis=0)
    anchor_plane = np.array(plane_of, dtype=np.int64)

    latents = {f.name: rng.normal(size=(len(anchors), f.dim)) for f in spec.families}
    global_latents = rng.normal(size=(len(anchors), spec.global_dim))

    db_records = []
    for i, pose in enumerate(spec.db_poses):
        image_id = f"db{i:03d}"
        depth, labels = render_depth_and_labels(spec.planes, pose, K)
        if not np.any(depth > 0):
            raise ValueError(f"database camera {image_id} sees no scene geometry")
        visible, pixels = _visible_anchor_mask(anchors, spec.planes, pose, K)
        feats = _make_feature_sets(spec, "day", visible, pixels, latents, K, rng)
        gnoise = rng.normal(size=spec.global_dim)
        if not np.any(visible):
            raise ValueError(f"database camera {image_id} sees no anchors")
        gdesc = global_latents[visible].mean(axis=0) + spec.global_sigma.get("day", 0.0) * gnoise
        db_records.append(
            DatabaseImageRecord(
                image_id=image_id,
                intrinsics=K,
                pose=pose,
                depth=depth,
                labels=labels,
                global_descriptor=gdesc.astype(np.float64),
                features=feats,
            )
        )

    queries = []
    gt_poses = {}
    for i, (pose, condition) in enumerate(zip(spec.query_poses, spec.query_conditions)):
        image_id = f"q{i:03d}"
        depth, labels = render_depth_and_labels(spec.planes, pose, K)
        if not np.any(depth > 0):
            raise ValueError(f"query camera {image_id} sees no scene geometry")
        visible, pixels = _visible_anchor_mask(anchors, spec.planes, pose, K)
        feats = _make_feature_sets(spec, condition, visible, pixels, latents, K, rng)
        gnoise = rng.normal(size=spec.global_dim)
        if not np.any(visible):
            raise ValueError(f"query camera {image_id} sees no anchors")
        gdesc = (
            global_latents[visible].mean(axis=0)
            + spec.global_sigma.get(condition, 0.0) * gnoise
        )
        queries.append(
            QueryImage(
                image_id=image_id,
                intrinsics=K,
                labels=labels,
                global_descriptor=gdesc.astype(np.float64),
                features=feats,
                condition=condition,
            )
        )
        gt_poses[image_id] = pose

    return SyntheticDataset(
        spec=spec,
        db_records=db_records,
        queries=queries,
        gt_poses=gt_poses,
        anchor_positions=anchors,
        anchor_plane=anchor_plane,
        latents=latents,
        global_latents=global_latents,
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


def _canyon_pose(x: float, y: float, z: float, yaw_deg: float, pitch_deg: float = 0.0) -> RigidPose:
    """Camera at (x, y, z) looking down-street (+z) rotated by yaw about the
    vertical (world y) axis; positive yaw turns toward the +x wall."""
    R = rotation_about_axis(np.array([1.0, 0.0, 0.0]), math.radians(pitch_deg)) @ (
        rotation_about_axis(np.array([0.0, 1.0, 0.0]), math.radians(yaw_deg))
    )
    return RigidPose(R.T, np.array([x, y, z]))


_PROFILES = {
    # sigma / dropout / location_sigma per condition, per family kind.
    "zero": {
        "corner": dict(sigma={"day": 0.0, "night": 0.0}, dropout={"day": 0.0, "night": 0.0},
                       location_sigma={"day": 0.0, "night": 0.0}),
        "blob": dict(sigma={"day": 0.0, "night": 0.0}, dropout={"day": 0.0, "night": 0.0},
                     location_sigma={"day": 0.0, "night": 0.0}),
        "global_sigma": {"day": 0.0, "night": 0.0},
    },
    # Handcrafted-like family collapses at night; learned-like family is a
    # little noisy and sparse everywhere but keeps working at night.
    "day_night": {
        "corner": dict(sigma={"day": 0.05, "night": 1.6}, dropout={"day": 0.05, "night": 0.35},
                       location_sigma={"day": 0.0, "night": 0.0}),
        "blob": dict(sigma={"day": 0.25, "night": 0.35}, dropout={"day": 0.25, "night": 0.45},
                     location_sigma={"day": 0.5, "night": 0.6}),
        "global_sigma": {"day": 0.01, "night": 0.03},
    },
}


def street_canyon_spec(
    seed: int = 0,
    n_db: int = 20,
    n_queries: int = 50,
    image_size: tuple = (160, 120),
    noise_profile: str = "zero",
    night_fraction: float = 0.0,
    anchors_per_plane: int = 30,
    length: float = 40.0,
    yaw_deg: float = 62.0,
) -> SceneSpec:
    """Striped two-wall street canyon with a zig-zag camera trajectory.

    Cameras alternate between facing the left and right wall at a fairly
    frontal angle; grazing views would blow up the half-pixel depth-lookup
    error of lifted correspondences.
    """
    if noise_profile not in _PROFILES:
        raise ValueError(f"unknown noise profile {noise_profile!r}")
    prof = _PROFILES[noise_profile]
    w, h = image_size
    K = CameraIntrinsics(fx=1.05 * w, fy=1.05 * w, cx=w / 2.0, cy=h / 2.0, width=w, height=h)
    planes = _canyon_planes(length, 4.0, 6.0, 4.0, lambda z0: _WALL_PALETTE_A)

    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC0FFEE)))
    db_poses = []
    for i in range(n_db):
        z = 2.0 + (length - 6.0) * i / max(n_db - 1, 1)
        yaw = yaw_deg if i % 2 == 0 else -yaw_deg
        x = 0.4 if i % 2 == 0 else -0.4
        db_poses.append(_canyon_pose(x, -1.5, z, yaw))

    query_poses = []
    conditions = []
    n_night = int(round(night_fraction * n_queries))
    for i in range(n_queries):
        z = float(rng.uniform(3.0, length - 5.0))
        yaw = float(rng.uniform(yaw_deg - 7.0, yaw_deg + 7.0)) * (1 if i % 2 == 0 else -1)
        x = float(rng.uniform(-0.8, 0.8))
        y = float(-1.5 + rng.uniform(-0.2, 0.2))
        query_poses.append(_canyon_pose(x, y, z, yaw))
        conditions.append("night" if i < n_night else "day")

    families = [
        FamilySpec(name="corner", dim=16, **prof["corner"]),
        FamilySpec(name="blob", dim=16, **prof["blob"]),
    ]
    wall_planes = [i for i, p in enumerate(planes) if p.label != 0]
    return SceneSpec(
        seed=seed,
        intrinsics=K,
        planes=planes,
        db_poses=db_poses,
        query_poses=query_poses,
        query_conditions=conditions,
        families=families,
        anchors_per_plane=anchors_per_plane,
        anchor_plane_indices=wall_planes,
        global_dim=64,
        global_sigma=prof["global_sigma"],
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
        anchor_plane_indices=[i for i, p in enumerate(planes) if p.label != 0],
        global_dim=32,
    )


# ── Scene spec files ─────────────────────────────────────────────────────

_SPEC_KEYS = {
    "preset", "seed", "n_db", "n_queries", "image_width", "image_height",
    "noise_profile", "night_fraction", "anchors_per_plane", "length",
}


def parse_scene_spec_file(path: str) -> SceneSpec:
    """Build a SceneSpec from a small key-value preset file.

    Recognized keys: preset (canyon | symmetric), seed, n_db, n_queries,
    image_width, image_height, noise_profile (zero | day_night),
    night_fraction, anchors_per_plane, length.  Unknown keys are rejected.
    """
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in _SPEC_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown scene spec key {key!r}")
            values[key] = val

    preset = values.get("preset", "canyon")
    seed = int(values.get("seed", "0"))
    size = (int(values.get("image_width", "160")), int(values.get("image_height", "120")))
    if preset == "canyon":
        return street_canyon_spec(
            seed=seed,
            n_db=int(values.get("n_db", "20")),
            n_queries=int(values.get("n_queries", "50")),
            image_size=size,
            noise_profile=values.get("noise_profile", "zero"),
            night_fraction=float(values.get("night_fraction", "0.0")),
            anchors_per_plane=int(values.get("anchors_per_plane", "30")),
            length=float(values.get("length", "40.0")),
        )
    if preset == "symmetric":
        return symmetric_canyon_spec(
            seed=seed,
            n_db=int(values.get("n_db", "16")),
            image_size=size,
            length=float(values.get("length", "40.0")),
        )
    raise ValueError(f"unknown scene preset {preset!r}")
