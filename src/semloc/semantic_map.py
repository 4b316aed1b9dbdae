"""Dense semantic 3D map construction.

Stages: depth-map filtering against neighbor views, voxel-grid fusion of the
filtered depth maps into a point cloud, per-point semantic label voting,
removal of unstable classes, and per-point visibility cones (distance range,
extreme viewing directions, visible angle).  Each stage runs on columns of
all points at once; the map itself is the columnar DenseMap.

Depth maps are (H, W) float arrays holding z-depth in meters; values <= 0
mark invalid pixels.  Label images are (H, W) uint8 arrays of Cityscapes
train ids 0..18, with 255 meaning unlabeled.  Label lookups use the nearest
pixel (round half up); labels are categorical so no interpolation.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .geometry import (
    CameraIntrinsics,
    RigidPose,
    back_project_pixels,
    nearest_pixel,
    project_points,
)

logger = logging.getLogger(__name__)

__all__ = [
    "CITYSCAPES_CLASS_NAMES",
    "UNLABELED",
    "DEFAULT_UNSTABLE_CLASS_IDS",
    "DepthFilterConfig",
    "DenseMap",
    "DatabaseImageRecord",
    "QueryImage",
    "FusedPoint",
    "BuildStats",
    "filter_depth_map",
    "fuse_depth_maps",
    "select_filter_neighbors",
    "build_dense_map",
]

# Cityscapes train ids.
CITYSCAPES_CLASS_NAMES = (
    "road", "sidewalk", "building", "wall", "fence", "pole",
    "traffic_light", "traffic_sign", "vegetation", "terrain", "sky",
    "person", "rider", "car", "truck", "bus", "train", "motorcycle",
    "bicycle",
)
UNLABELED = 255

# Dynamic objects plus sky: noise sources for localization, removed from maps.
DEFAULT_UNSTABLE_CLASS_IDS = frozenset({10, 11, 12, 13, 14, 15, 16, 17, 18})


# ── Record types ─────────────────────────────────────────────────────────


@dataclass
class DatabaseImageRecord:
    """A calibrated database image with its per-image map-building inputs."""

    image_id: str
    intrinsics: CameraIntrinsics
    pose: RigidPose
    depth: np.ndarray
    labels: np.ndarray
    global_descriptor: Optional[np.ndarray] = None
    features: dict = field(default_factory=dict)  # family name -> FeatureSet

    def __post_init__(self) -> None:
        shape = (self.intrinsics.height, self.intrinsics.width)
        if self.depth.shape != shape:
            raise ValueError(
                f"{self.image_id}: depth shape {self.depth.shape} != image size {shape}"
            )
        if self.labels.shape != shape:
            raise ValueError(
                f"{self.image_id}: label shape {self.labels.shape} != image size {shape}"
            )
        if not np.all(np.isfinite(self.depth)):
            raise ValueError(f"{self.image_id}: depth map contains non-finite values")
        bad = ~((self.labels <= 18) | (self.labels == UNLABELED))
        if np.any(bad):
            raise ValueError(f"{self.image_id}: label ids outside 0..18 / 255")


@dataclass
class QueryImage:
    """A query: calibrated image with segmentation, features and global
    descriptor, but no pose."""

    image_id: str
    intrinsics: CameraIntrinsics
    labels: np.ndarray
    global_descriptor: Optional[np.ndarray] = None
    features: dict = field(default_factory=dict)
    condition: str = "day"

    def __post_init__(self) -> None:
        if self.condition not in ("day", "night"):
            raise ValueError(f"unknown condition tag {self.condition!r}")
        shape = (self.intrinsics.height, self.intrinsics.width)
        if self.labels.shape != shape:
            raise ValueError(
                f"{self.image_id}: label shape {self.labels.shape} != image size {shape}"
            )


@dataclass(frozen=True)
class DepthFilterConfig:
    """Relative-tolerance depth consistency check.

    A depth survives when |d_r - d_n| / d_n < tau on at least
    min_consistent_neighbors neighbor views, where d_r is the depth of the
    back-projected point seen from the neighbor and d_n the neighbor's own
    stored depth at that pixel.  The absolute value makes the test symmetric;
    the one-sided form would accept arbitrarily occluded points.

    neighbor_ids, when given, maps image id -> expected neighbor id list and
    is checked against the records actually supplied.
    """

    tau: float = 0.01
    min_consistent_neighbors: int = 1
    neighbor_ids: Optional[dict] = None

    def __post_init__(self) -> None:
        if not self.tau > 0:
            raise ValueError("tau must be positive")
        if self.min_consistent_neighbors < 1:
            raise ValueError("min_consistent_neighbors must be >= 1")


class DenseMap:
    """The fused map points as parallel columns.

    Row i is one point: position, semantic label, number of contributing
    database images (support), and its visibility cone: d_min/d_max, the
    extreme Euclidean distances to observing camera centers; v_l/v_u, the
    unit point-to-camera directions of the widest pair; v_m, their unit
    bisector; theta, the angle between v_l and v_u.  Indexing with a mask
    or an index array yields the sub-map of those rows.
    """

    def __init__(
        self,
        positions: np.ndarray,
        labels: np.ndarray,
        v_l: np.ndarray,
        v_u: np.ndarray,
        theta: np.ndarray,
        d_min: np.ndarray,
        d_max: np.ndarray,
        support: np.ndarray,
    ) -> None:
        n = len(positions)
        self.positions = np.asarray(positions, dtype=np.float64).reshape(n, 3)
        self.labels = np.asarray(labels, dtype=np.int64).reshape(n)
        self.v_l = np.asarray(v_l, dtype=np.float64).reshape(n, 3)
        self.v_u = np.asarray(v_u, dtype=np.float64).reshape(n, 3)
        self.theta = np.asarray(theta, dtype=np.float64).reshape(n)
        self.d_min = np.asarray(d_min, dtype=np.float64).reshape(n)
        self.d_max = np.asarray(d_max, dtype=np.float64).reshape(n)
        self.support = np.asarray(support, dtype=np.int64).reshape(n)
        # Bisector of the extreme directions, recomputed rather than stored.
        s = self.v_l + self.v_u
        norms = np.linalg.norm(s, axis=1)
        safe = norms > 1e-12
        self.v_m = np.where(safe[:, None], s / np.where(safe, norms, 1.0)[:, None], self.v_l)

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, index) -> "DenseMap":
        idx = np.asarray(index)
        return DenseMap(
            self.positions[idx], self.labels[idx], self.v_l[idx], self.v_u[idx],
            self.theta[idx], self.d_min[idx], self.d_max[idx], self.support[idx],
        )


@dataclass(frozen=True)
class FusedPoint:
    """Voxel-merged point with the ids of the images whose pixels fell in
    the voxel (in database list order)."""

    position: np.ndarray
    image_ids: tuple


@dataclass
class BuildStats:
    """Point counts before/after each map-building stage."""

    valid_pixels_before_filter: int = 0
    valid_pixels_after_filter: int = 0
    fused_points: int = 0
    labeled_points: int = 0
    stable_points: int = 0


# ── Operations ───────────────────────────────────────────────────────────


def filter_depth_map(
    target: DatabaseImageRecord,
    neighbors: Sequence[DatabaseImageRecord],
    cfg: DepthFilterConfig,
) -> np.ndarray:
    """Keep only depths confirmed by reprojection into neighbor views.

    Every valid pixel is back-projected to world, reprojected into each
    neighbor, and compared against the neighbor's stored depth at the
    nearest pixel.  A neighbor with no valid depth there (or the point
    behind its camera / out of bounds) does not count.  Returns a new depth
    map with unconfirmed pixels set to 0.
    """
    if len(neighbors) == 0:
        raise ValueError("neighbor list must be non-empty")
    if cfg.neighbor_ids is not None:
        expected = list(cfg.neighbor_ids.get(target.image_id, []))
        got = [n.image_id for n in neighbors]
        if expected != got:
            raise ValueError(
                f"{target.image_id}: neighbor records {got} do not match "
                f"configured neighbor ids {expected}"
            )

    valid = target.depth > 0.0
    vy, vx = np.nonzero(valid)
    if len(vy) == 0:
        return np.zeros_like(target.depth)
    pixels = np.stack([vx, vy], axis=1).astype(np.float64)
    depths = target.depth[vy, vx].astype(np.float64)
    world = back_project_pixels(pixels, depths, target.pose, target.intrinsics)

    support = np.zeros(len(world), dtype=np.int64)
    for nb in neighbors:
        px, d_r = project_points(world, nb.pose.rotation, nb.pose.center, nb.intrinsics)
        ij, inb = nearest_pixel(px, nb.intrinsics)
        d_n = np.zeros(len(world))
        d_n[inb] = nb.depth[ij[inb, 1], ij[inb, 0]]
        ok = inb & (d_n > 0.0)
        ok[ok] &= np.abs(d_r[ok] - d_n[ok]) / d_n[ok] < cfg.tau
        support += ok.astype(np.int64)

    out = np.zeros_like(target.depth)
    keep = support >= cfg.min_consistent_neighbors
    out[vy[keep], vx[keep]] = target.depth[vy[keep], vx[keep]]
    return out


def fuse_depth_maps(
    records: Sequence[DatabaseImageRecord], voxel_size: float
) -> list[FusedPoint]:
    """Merge back-projected depth pixels on a voxel grid.

    One point per occupied voxel, at the centroid of its members;
    contributing ids are the union of the member source images.  Voxels are
    emitted in first-touch order (records in list order, pixels row-major),
    so the result is deterministic for a given input order.
    """
    if len(records) == 0:
        raise ValueError("record list must be non-empty")
    if not voxel_size > 0:
        raise ValueError("voxel size must be positive")

    sums: dict[tuple, np.ndarray] = {}
    counts: dict[tuple, int] = {}
    contrib: dict[tuple, dict] = {}
    for rec_idx, rec in enumerate(records):
        valid = rec.depth > 0.0
        vy, vx = np.nonzero(valid)
        if len(vy) == 0:
            continue
        pixels = np.stack([vx, vy], axis=1).astype(np.float64)
        depths = rec.depth[vy, vx].astype(np.float64)
        world = back_project_pixels(pixels, depths, rec.pose, rec.intrinsics)
        cells = np.floor(world / voxel_size).astype(np.int64).tolist()
        for k, cell in enumerate(cells):
            key = tuple(cell)
            if key in sums:
                sums[key] += world[k]
                counts[key] += 1
                contrib[key][rec_idx] = None
            else:
                sums[key] = world[k].copy()
                counts[key] = 1
                contrib[key] = {rec_idx: None}

    out = []
    for key in sums:
        ids = tuple(records[i].image_id for i in sorted(contrib[key]))
        out.append(FusedPoint(position=sums[key] / counts[key], image_ids=ids))
    return out


# ── Map building ─────────────────────────────────────────────────────────


def select_filter_neighbors(
    records: Sequence[DatabaseImageRecord], count: int = 4
) -> dict:
    """Nearest-camera-center neighbor lists (excluding self) for filtering."""
    if len(records) < 2:
        raise ValueError("need at least 2 database images to select neighbors")
    centers = np.stack([r.pose.center for r in records])
    out = {}
    for i, rec in enumerate(records):
        d = np.linalg.norm(centers - centers[i], axis=1)
        order = np.argsort(d, kind="stable")
        picked = [j for j in order if j != i][: min(count, len(records) - 1)]
        out[rec.image_id] = [records[j].image_id for j in picked]
    return out


def _vote_labels_bulk(
    positions: np.ndarray,
    contrib_indices: list,
    records: Sequence[DatabaseImageRecord],
) -> np.ndarray:
    """Label of every fused point: the modal label over its reprojections
    into its contributing images, ties going to the smallest class id, and
    255 when no reprojection lands on a labeled pixel."""
    n = len(positions)
    votes = np.zeros((n, 19), dtype=np.int64)
    point_rows: dict[int, list] = {}
    for row, idxs in enumerate(contrib_indices):
        for ri in idxs:
            point_rows.setdefault(ri, []).append(row)
    for ri, rows in point_rows.items():
        rec = records[ri]
        rows = np.asarray(rows)
        px, _ = project_points(positions[rows], rec.pose.rotation, rec.pose.center, rec.intrinsics)
        ij, ok = nearest_pixel(px, rec.intrinsics)
        if not np.any(ok):
            continue
        labels = rec.labels[ij[ok, 1], ij[ok, 0]].astype(np.int64)
        keep = labels != UNLABELED
        np.add.at(votes, (rows[ok][keep], labels[keep]), 1)
    out = np.full(n, UNLABELED, dtype=np.int64)
    voted = votes.sum(axis=1) > 0
    out[voted] = np.argmax(votes[voted], axis=1)
    return out


def _cones_bulk(
    positions: np.ndarray,
    contrib_indices: list,
    records: Sequence[DatabaseImageRecord],
) -> tuple[np.ndarray, ...]:
    """Visibility cone columns (d_min, d_max, v_l, v_u, theta) of every
    fused point over its contributing camera centers.  The extreme pair is
    the first strictly widest (i, j) pair in contributor order; with a
    single distinct center the cone is a ray: v_l = v_u and theta = 0."""
    n = len(positions)
    max_s = max(len(ix) for ix in contrib_indices)
    centers = np.stack([r.pose.center for r in records])
    cam = np.zeros((n, max_s, 3))
    mask = np.zeros((n, max_s), dtype=bool)
    for row, idxs in enumerate(contrib_indices):
        cam[row, : len(idxs)] = centers[list(idxs)]
        mask[row, : len(idxs)] = True

    diff = cam - positions[:, None, :]
    dist = np.linalg.norm(diff, axis=2)
    if np.any(dist[mask] < 1e-9):
        raise ValueError("a fused point coincides with a camera center")
    dirs = np.where(mask[:, :, None], diff / np.where(mask, dist, 1.0)[:, :, None], 0.0)

    d_min = np.where(mask, dist, np.inf).min(axis=1)
    d_max = np.where(mask, dist, -np.inf).max(axis=1)

    # Pairwise angles over the (small) padded axis.
    cos = np.einsum("nik,njk->nij", dirs, dirs)
    cos = np.clip(cos, -1.0, 1.0)
    ang = np.arccos(cos)
    pair_mask = mask[:, :, None] & mask[:, None, :]
    iu, ju = np.triu_indices(max_s, k=1)
    if len(iu) == 0:
        theta = np.zeros(n)
        v_l = dirs[:, 0, :]
        v_u = dirs[:, 0, :]
    else:
        flat = np.where(pair_mask[:, iu, ju], ang[:, iu, ju], -1.0)
        arg = np.argmax(flat, axis=1)
        theta = flat[np.arange(n), arg]
        no_pair = theta < 0.0
        theta[no_pair] = 0.0
        li = np.where(no_pair, 0, iu[arg])
        ui = np.where(no_pair, 0, ju[arg])
        v_l = dirs[np.arange(n), li, :]
        v_u = dirs[np.arange(n), ui, :]
    return d_min, d_max, v_l, v_u, theta


def build_dense_map(
    records: Sequence[DatabaseImageRecord],
    filter_cfg: DepthFilterConfig | None = None,
    voxel_size: float = 0.05,
    unstable: frozenset | set = DEFAULT_UNSTABLE_CLASS_IDS,
    neighbor_count: int = 4,
) -> tuple[DenseMap, BuildStats]:
    """Full map build: filter -> fuse -> vote -> cones -> drop unstable.

    Per-stage point counts are logged and returned in BuildStats.
    """
    if filter_cfg is None:
        filter_cfg = DepthFilterConfig()
    stats = BuildStats()
    stats.valid_pixels_before_filter = int(sum((r.depth > 0).sum() for r in records))

    neighbor_ids = filter_cfg.neighbor_ids or select_filter_neighbors(records, neighbor_count)
    by_id = {r.image_id: r for r in records}
    cfg = DepthFilterConfig(
        tau=filter_cfg.tau,
        min_consistent_neighbors=filter_cfg.min_consistent_neighbors,
        neighbor_ids=neighbor_ids,
    )
    filtered = []
    for rec in records:
        nbs = [by_id[i] for i in neighbor_ids[rec.image_id]]
        new_depth = filter_depth_map(rec, nbs, cfg)
        filtered.append(
            DatabaseImageRecord(
                image_id=rec.image_id,
                intrinsics=rec.intrinsics,
                pose=rec.pose,
                depth=new_depth,
                labels=rec.labels,
                global_descriptor=rec.global_descriptor,
                features=rec.features,
            )
        )
    stats.valid_pixels_after_filter = int(sum((r.depth > 0).sum() for r in filtered))
    logger.info(
        "depth filter kept %d / %d pixels",
        stats.valid_pixels_after_filter,
        stats.valid_pixels_before_filter,
    )

    fused = fuse_depth_maps(filtered, voxel_size)
    stats.fused_points = len(fused)
    logger.info("fused %d points at voxel size %.3g m", len(fused), voxel_size)
    if len(fused) == 0:
        return DenseMap(*[np.zeros(0)] * 8), stats

    id_to_idx = {r.image_id: i for i, r in enumerate(records)}
    positions = np.stack([f.position for f in fused])
    contrib = [tuple(id_to_idx[i] for i in f.image_ids) for f in fused]

    labels = _vote_labels_bulk(positions, contrib, filtered)
    labeled = labels != UNLABELED
    stats.labeled_points = int(labeled.sum())
    logger.info("voted labels: %d / %d points labeled", stats.labeled_points, len(fused))

    # Unstable and unlabeled points go before cones are computed.
    stable = labeled & ~np.isin(labels, np.array(sorted(unstable), dtype=np.int64))
    stats.stable_points = int(stable.sum())
    logger.info(
        "removed unstable classes: %d / %d labeled points kept",
        stats.stable_points,
        stats.labeled_points,
    )
    if stats.stable_points == 0:
        logger.warning("dense map is empty after unstable-class removal")
        return DenseMap(*[np.zeros(0)] * 8), stats

    positions = positions[stable]
    labels = labels[stable]
    contrib = [c for c, keep in zip(contrib, stable) if keep]
    supports = np.array([len(c) for c in contrib], dtype=np.int64)
    d_min, d_max, v_l, v_u, theta = _cones_bulk(positions, contrib, records)
    return DenseMap(positions, labels, v_l, v_u, theta, d_min, d_max, supports), stats
