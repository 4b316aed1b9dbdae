"""Dense semantic 3D map construction.

Stages: depth-map filtering against neighbor views, voxel-grid fusion of the
filtered depth maps into a point cloud, per-point semantic label voting,
removal of unstable classes, and per-point visibility cones (distance range,
extreme viewing directions, visible angle).  Fusion streams the records into
a running voxel table and yields a FusedCloud, whose table of (point, image)
contributor pairs feeds both the vote and the cones; those run on columns
of points (the cones in fixed-size chunks), and the map itself is the
columnar DenseMap.  Fusion's working memory thus follows the voxels plus
one record's pixels; the filtered depth maps it reads (4 bytes a pixel)
are the build's only arrays over every record's pixels.

Depth maps are (H, W) float arrays holding z-depth in meters; values <= 0
mark invalid pixels.  Label images are (H, W) uint8 arrays of Cityscapes
train ids 0..18, with 255 meaning unlabeled.  Both are read at the nearest
pixel (geometry.sample_grid); a read outside the image gives depth 0 or 255.
"""

from __future__ import annotations

import dataclasses
import functools
import logging
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .geometry import (
    CameraIntrinsics,
    RigidPose,
    _FrozenArrays,
    _RowTable,
    back_project_pixels,
    project_points,
    sample_grid,
)

logger = logging.getLogger(__name__)

__all__ = [
    "CITYSCAPES_CLASS_NAMES",
    "MAX_CLASS_ID",
    "UNLABELED",
    "CONDITIONS",
    "DEFAULT_UNSTABLE_CLASS_IDS",
    "DEFAULT_VOXEL_SIZE",
    "DEFAULT_FILTER_NEIGHBOR_COUNT",
    "label_ids_valid",
    "DepthFilterConfig",
    "DenseMap",
    "DatabaseImageRecord",
    "LiftTable",
    "LIFTED",
    "OUTSIDE_IMAGE",
    "INVALID_DEPTH",
    "QueryImage",
    "FusedCloud",
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
MAX_CLASS_ID = len(CITYSCAPES_CLASS_NAMES) - 1  # valid class ids are 0..MAX_CLASS_ID
UNLABELED = 255

# Condition tags a query image carries.
CONDITIONS = ("day", "night")

# Dynamic objects plus sky: noise sources for localization, removed from maps.
DEFAULT_UNSTABLE_CLASS_IDS = frozenset({10, 11, 12, 13, 14, 15, 16, 17, 18})

# Fusion voxel edge (m) and nearest database views each depth map is checked on.
DEFAULT_VOXEL_SIZE = 0.05
DEFAULT_FILTER_NEIGHBOR_COUNT = 4

# Neighbor views that must confirm a depth for it to survive the filter.
_MIN_CONSISTENT_NEIGHBORS = 1

# Bits per axis of a packed voxel key; cells lie within +-_KEY_HALF of the
# anchor cell.
_KEY_BITS = 21
_KEY_HALF = 1 << (_KEY_BITS - 1)

# Points per chunk of the visibility-cone computation.
_CONE_CHUNK_POINTS = 4096


def label_ids_valid(labels: np.ndarray) -> bool:
    """Whether every label is a class id 0..MAX_CLASS_ID or UNLABELED."""
    return bool(np.all((labels <= MAX_CLASS_ID) | (labels == UNLABELED)))


# ── Record types ─────────────────────────────────────────────────────────


# Status of a keypoint in a LiftTable.
LIFTED, OUTSIDE_IMAGE, INVALID_DEPTH = 0, 1, 2


@dataclass(frozen=True)
class LiftTable(_RowTable):
    """Every keypoint of one feature family in one database image, lifted
    through the image's depth map.

    status[i] is LIFTED, OUTSIDE_IMAGE (the keypoint's nearest pixel, round
    half up, lies outside the image) or INVALID_DEPTH (the depth there is
    <= 0).  points[i] is the world point of a LIFTED keypoint: its
    continuous location back-projected with the depth at its nearest pixel.
    Other rows are NaN.  Both columns are read-only, and a row is bitwise
    the point that lifting its keypoint alone gives (back_project_pixels
    does not depend on the row count).
    """

    points: np.ndarray
    status: np.ndarray


def _lift_keypoints(locations: np.ndarray, depth: np.ndarray, pose: RigidPose,
                    K: CameraIntrinsics) -> LiftTable:
    """LiftTable of keypoints at (N, 2) locations.  Raises ValueError when
    a keypoint inside the image sits on a non-finite depth or lifts to a
    non-finite point."""
    d, inside = sample_grid(depth, locations, K, 0.0)
    # Non-finite depths pass on to back-projection, which rejects them.
    lifted = ~(d <= 0.0)
    points = np.full((len(d), 3), np.nan)
    points[lifted] = back_project_pixels(locations[lifted], d[lifted], pose, K)
    if not np.all(np.isfinite(points[lifted])):
        raise ValueError("world points must be finite")
    status = np.where(lifted, LIFTED, np.where(inside, INVALID_DEPTH, OUTSIDE_IMAGE)).astype(np.int8)
    return LiftTable(points, status)


def _check_labels(image_id: str, K: CameraIntrinsics, labels: np.ndarray) -> None:
    """Raise ValueError unless labels is an image-sized array of valid ids."""
    shape = (K.height, K.width)
    if labels.shape != shape:
        raise ValueError(f"{image_id}: label shape {labels.shape} != image size {shape}")
    if not label_ids_valid(labels):
        raise ValueError(f"{image_id}: label ids outside 0..{MAX_CLASS_ID} / {UNLABELED}")


@dataclass(frozen=True)
class DatabaseImageRecord(_FrozenArrays):
    """A calibrated database image with its per-image map-building inputs.

    The record is frozen; its depth, labels and global descriptor are
    read-only views (the caller's arrays keep their flags) and features a
    dict of its own.  lift_table(family) lifts every keypoint of
    features[family] once and caches the table on the record until that
    FeatureSet is replaced (compared by identity).  dataclasses.replace, a
    copy and an unpickled record start with an empty cache.
    """

    image_id: str
    intrinsics: CameraIntrinsics
    pose: RigidPose
    depth: np.ndarray
    labels: np.ndarray
    global_descriptor: Optional[np.ndarray] = None
    features: dict = field(default_factory=dict)  # family name -> FeatureSet
    # family name -> (FeatureSet, LiftTable)
    _lift_tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        shape = (self.intrinsics.height, self.intrinsics.width)
        if self.depth.shape != shape:
            raise ValueError(
                f"{self.image_id}: depth shape {self.depth.shape} != image size {shape}"
            )
        if not np.all(np.isfinite(self.depth)):
            raise ValueError(f"{self.image_id}: depth map contains non-finite values")
        _check_labels(self.image_id, self.intrinsics, self.labels)
        self._store(depth=self.depth, labels=self.labels,
                    global_descriptor=self.global_descriptor, features=dict(self.features))

    def lift_table(self, family: str) -> LiftTable:
        """The LiftTable of features[family], built on first use and kept
        until that FeatureSet is replaced.  Threads whose first lifts race
        may each build the table; the builds are equal and the last one
        stays."""
        features = self.features[family]
        cached = self._lift_tables.get(family)
        if cached is not None and cached[0] is features:
            return cached[1]
        table = _lift_keypoints(features.locations, self.depth, self.pose, self.intrinsics)
        self._lift_tables[family] = (features, table)
        return table


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
        if self.condition not in CONDITIONS:
            raise ValueError(f"unknown condition tag {self.condition!r}")
        _check_labels(self.image_id, self.intrinsics, self.labels)


@dataclass(frozen=True)
class DepthFilterConfig:
    """Relative-tolerance depth consistency check.

    A depth survives when |d_r - d_n| / d_n < tau on at least
    _MIN_CONSISTENT_NEIGHBORS (one) neighbor view, where d_r is the depth of
    the back-projected point seen from the neighbor and d_n the neighbor's
    own stored depth at that pixel.  The absolute value makes the test
    symmetric; the one-sided form would accept arbitrarily occluded points.
    """

    tau: float = 0.01

    def __post_init__(self) -> None:
        if not self.tau > 0:
            raise ValueError("tau must be positive")


@dataclass(frozen=True, eq=False)
class DenseMap(_RowTable):
    """The fused map points as parallel columns.

    Row i is one point: position, semantic label, number of contributing
    database images (support), and its visibility cone: d_min/d_max, the
    extreme Euclidean distances to observing camera centers; v_l/v_u, the
    unit point-to-camera directions of the widest pair; v_m, their unit
    bisector; theta, the angle between v_l and v_u.  Indexing with a mask
    or an index array yields the sub-map of those rows and their v_m (v_m
    is computed row by row, so the bits are the same as recomputing it).
    The columns are read-only views: a k-d tree over the positions is
    built on first use and cached on the map.

    A column whose array already has its dtype is a view of the array passed
    to the constructor, not a copy, so a caller must not write that array
    after building the map: the map's points would move under the cached
    tree.  read_dense_map and build_dense_map pass arrays that no one else
    holds (a freshly read record array and freshly computed columns), and
    indexing passes fancy-indexed copies.
    """

    positions: np.ndarray
    labels: np.ndarray
    v_l: np.ndarray
    v_u: np.ndarray
    theta: np.ndarray
    d_min: np.ndarray
    d_max: np.ndarray
    support: np.ndarray
    v_m: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        n = len(self.positions)
        self._store(
            positions=np.asarray(self.positions, dtype=np.float64).reshape(n, 3),
            labels=np.asarray(self.labels, dtype=np.int64).reshape(n),
            v_l=np.asarray(self.v_l, dtype=np.float64).reshape(n, 3),
            v_u=np.asarray(self.v_u, dtype=np.float64).reshape(n, 3),
            theta=np.asarray(self.theta, dtype=np.float64).reshape(n),
            d_min=np.asarray(self.d_min, dtype=np.float64).reshape(n),
            d_max=np.asarray(self.d_max, dtype=np.float64).reshape(n),
            support=np.asarray(self.support, dtype=np.int64).reshape(n),
        )
        # Bisector of the extreme directions, recomputed rather than stored.
        s = self.v_l + self.v_u
        norms = np.linalg.norm(s, axis=1)
        safe = norms > 1e-12
        self._store(v_m=np.where(safe[:, None], s / np.where(safe, norms, 1.0)[:, None], self.v_l))

    @functools.cached_property
    def position_tree(self) -> cKDTree:
        """k-d tree over the positions, built on first access rather than
        in ``__init__``, so that sub-maps never searched build none."""
        return cKDTree(self.positions)


@dataclass(frozen=True)
class FusedCloud(_FrozenArrays):
    """Voxel-fused points as columns.

    positions (N, 3) holds one point per occupied voxel.  pairs (P, 2) holds
    every distinct [point, record index] contributor pair: the point's voxel
    received a pixel of that record.  Pairs are sorted by point and then by
    record, so each point's contributors are in database list order.
    """

    positions: np.ndarray
    pairs: np.ndarray

    def __len__(self) -> int:
        return len(self.positions)


@dataclass
class BuildStats:
    """Point counts before/after each map-building stage."""

    valid_pixels_before_filter: int = 0
    valid_pixels_after_filter: int = 0
    fused_points: int = 0
    labeled_points: int = 0
    stable_points: int = 0


# ── Operations ───────────────────────────────────────────────────────────


def _valid_world_points(rec: DatabaseImageRecord) -> tuple[np.ndarray, ...]:
    """Rows, columns and back-projected world points of the record's valid
    depth pixels, row-major."""
    vy, vx = np.nonzero(rec.depth > 0.0)
    pixels = np.stack([vx, vy], axis=1).astype(np.float64)
    depths = rec.depth[vy, vx].astype(np.float64)
    return vy, vx, back_project_pixels(pixels, depths, rec.pose, rec.intrinsics)


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
    vy, vx, world = _valid_world_points(target)

    support = np.zeros(len(world), dtype=np.int64)
    for nb in neighbors:
        px, d_r = project_points(world, nb.pose.rotation, nb.pose.center, nb.intrinsics)
        d_n, _ = sample_grid(nb.depth, px, nb.intrinsics, 0.0)
        ok = d_n > 0.0
        ok[ok] &= np.abs(d_r[ok] - d_n[ok]) / d_n[ok] < cfg.tau
        support += ok.astype(np.int64)

    out = np.zeros_like(target.depth)
    keep = support >= _MIN_CONSISTENT_NEIGHBORS
    out[vy[keep], vx[keep]] = target.depth[vy[keep], vx[keep]]
    return out


def fuse_depth_maps(
    records: Sequence[DatabaseImageRecord], voxel_size: float
) -> FusedCloud:
    """Merge back-projected depth pixels on a voxel grid.

    One point per occupied voxel, at the centroid of its members; its
    contributors are the records whose pixels fell in the voxel.  Points
    are numbered in first-touch order (records in list order, pixels
    row-major), so the result is deterministic for a given input order.

    The records are streamed: each is back-projected once and merged into a
    running table of the occupied voxels, so memory follows the voxels and
    one record's pixels, not every pixel at once.  A voxel's key packs its
    cell relative to an anchor cell, the first valid pixel's, in
    _KEY_BITS (21) bits per axis, so keys do not depend on the world
    origin.  Raises ValueError ("too fine for int64 voxel keys") when a
    cell lies 2**20 or more cells from the anchor on some axis: about
    +-104 km at 0.1 m voxels, +-52 km at DEFAULT_VOXEL_SIZE.
    """
    if len(records) == 0:
        raise ValueError("record list must be non-empty")
    if not voxel_size > 0:
        raise ValueError("voxel size must be positive")

    anchor = None
    keys = np.zeros(0, dtype=np.int64)  # occupied voxel keys, sorted
    points_of_keys = np.zeros(0, dtype=np.int64)  # their point numbers
    # np.add.at adds rows in index order.  Seeded with -0.0, the identity of
    # float addition (0.0 would turn a -0.0 member into +0.0), each sum is
    # bitwise its members added one at a time in record and pixel order.
    sums = np.full((0, 3), -0.0)
    counts = np.zeros(0, dtype=np.int64)
    n = 0
    pair_keys = [np.zeros(0, dtype=np.int64)]
    for i, rec in enumerate(records):
        world = _valid_world_points(rec)[2]
        if len(world) == 0:
            continue
        cells = np.floor(world / voxel_size)
        if anchor is None:
            anchor = cells[0].copy()
        # The cells are whole floats, so a difference below 2**20 is exact.
        cells -= anchor
        if not np.all(np.abs(cells) < _KEY_HALF):
            raise ValueError(f"voxel size {voxel_size} is too fine for int64 voxel keys")
        cells = (cells + _KEY_HALF).astype(np.int64)
        rec_keys = (cells[:, 0] << 2 * _KEY_BITS) | (cells[:, 1] << _KEY_BITS) | cells[:, 2]
        uniq, first, inverse = np.unique(rec_keys, return_index=True, return_inverse=True)

        at = np.searchsorted(keys, uniq)
        known = at < len(keys)
        known[known] = keys[at[known]] == uniq[known]
        point_of = np.empty(len(uniq), dtype=np.int64)
        point_of[known] = points_of_keys[at[known]]
        # New voxels take the next numbers in the order of their first pixel.
        new = np.flatnonzero(~known)
        point_of[new[np.argsort(first[new])]] = np.arange(n, n + len(new))
        keys = np.insert(keys, at[new], uniq[new])
        points_of_keys = np.insert(points_of_keys, at[new], point_of[new])
        n += len(new)

        if n > len(sums):
            capacity = max(n, 2 * len(sums))
            sums = np.concatenate([sums, np.full((capacity - len(sums), 3), -0.0)])
            counts = np.concatenate([counts, np.zeros(capacity - len(counts), dtype=np.int64)])
        np.add.at(sums, point_of[inverse], world)
        counts[point_of] += np.bincount(inverse, minlength=len(uniq))
        pair_keys.append(point_of * len(records) + i)

    positions = sums[:n] / counts[:n, None]
    del sums, counts
    # Each record's points are distinct, so every pair key is too.
    pair_keys = np.concatenate(pair_keys)
    pair_keys.sort()
    pairs = np.stack([pair_keys // len(records), pair_keys % len(records)], axis=1)
    return FusedCloud(positions, pairs)


# ── Map building ─────────────────────────────────────────────────────────


def select_filter_neighbors(records: Sequence[DatabaseImageRecord]) -> dict:
    """Nearest-camera-center neighbor lists (excluding self) for filtering,
    DEFAULT_FILTER_NEIGHBOR_COUNT long or all other records if fewer."""
    if len(records) < 2:
        raise ValueError("need at least 2 database images to select neighbors")
    centers = np.stack([r.pose.center for r in records])
    out = {}
    for i, rec in enumerate(records):
        order = np.argsort(np.linalg.norm(centers - centers[i], axis=1), kind="stable")
        picked = order[order != i][:DEFAULT_FILTER_NEIGHBOR_COUNT]
        out[rec.image_id] = [records[j].image_id for j in picked]
    return out


def _vote_labels_bulk(
    positions: np.ndarray,
    pairs: np.ndarray,
    records: Sequence[DatabaseImageRecord],
) -> np.ndarray:
    """Label of every fused point: the modal label over its reprojections
    into its contributing images (pairs as in FusedCloud), ties going to the
    smallest class id, and 255 when no reprojection lands on a labeled
    pixel.  A point gets at most one vote per record, so the counts are
    held in the smallest unsigned dtype that holds len(records)."""
    n = len(positions)
    votes = np.zeros((n, MAX_CLASS_ID + 1), dtype=np.min_scalar_type(len(records)))
    by_image = pairs[np.argsort(pairs[:, 1], kind="stable")]
    images, starts = np.unique(by_image[:, 1], return_index=True)
    for ri, rows in zip(images, np.split(by_image[:, 0], starts[1:])):
        rec = records[ri]
        px, _ = project_points(positions[rows], rec.pose.rotation, rec.pose.center, rec.intrinsics)
        labels, _ = sample_grid(rec.labels, px, rec.intrinsics, UNLABELED)
        keep = labels != UNLABELED
        # A record's rows are distinct points, so no vote cell repeats.
        votes[rows[keep], labels[keep]] += 1
    out = np.argmax(votes, axis=1)
    out[~votes.any(axis=1)] = UNLABELED
    return out


def _cones_bulk(
    positions: np.ndarray,
    pairs: np.ndarray,
    records: Sequence[DatabaseImageRecord],
) -> tuple[np.ndarray, ...]:
    """Visibility cone columns (d_min, d_max, v_l, v_u, theta) of every
    fused point over its contributing camera centers (pairs as in
    FusedCloud).  The extreme pair is the first strictly widest (i, j) pair
    in contributor order; with a single distinct center the cone is a ray:
    v_l = v_u and theta = 0.  Points are taken _CONE_CHUNK_POINTS at a time,
    the pairs split at point boundaries; a point's cone does not depend on
    its chunk."""
    n = len(positions)
    centers = np.stack([r.pose.center for r in records])
    cones = (np.empty(n), np.empty(n), np.empty((n, 3)), np.empty((n, 3)), np.empty(n))
    starts = np.arange(0, n, _CONE_CHUNK_POINTS)
    bounds = np.append(np.searchsorted(pairs[:, 0], starts), len(pairs))
    for lo, a, b in zip(starts, bounds[:-1], bounds[1:]):
        hi = min(lo + _CONE_CHUNK_POINTS, n)
        chunk = _chunk_cones(positions[lo:hi], pairs[a:b, 0] - lo, centers[pairs[a:b, 1]])
        for column, values in zip(cones, chunk):
            column[lo:hi] = values
    return cones


def _chunk_cones(positions: np.ndarray, points: np.ndarray,
                 centers: np.ndarray) -> tuple[np.ndarray, ...]:
    """_cones_bulk's columns for M points, from each pair's point (sorted,
    0..M-1) and camera center."""
    n = len(positions)
    support = np.bincount(points, minlength=n)
    slot = np.arange(len(points)) - (np.cumsum(support) - support)[points]
    max_s = max(int(support.max()), 2)  # two slots at least: pairs are never empty
    cam = np.zeros((n, max_s, 3))
    mask = np.zeros((n, max_s), dtype=bool)
    cam[points, slot] = centers
    mask[points, slot] = True
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
    filter_cfg: DepthFilterConfig = DepthFilterConfig(),
    voxel_size: float = DEFAULT_VOXEL_SIZE,
    unstable: frozenset | set = DEFAULT_UNSTABLE_CLASS_IDS,
) -> tuple[DenseMap, BuildStats]:
    """Full map build: filter -> fuse -> vote -> cones -> drop unstable.

    Per-stage point counts are logged and returned in BuildStats.
    """
    stats = BuildStats()
    stats.valid_pixels_before_filter = int(sum((r.depth > 0).sum() for r in records))

    neighbor_ids = select_filter_neighbors(records)
    by_id = {r.image_id: r for r in records}
    filtered = [
        dataclasses.replace(rec, depth=filter_depth_map(
            rec, [by_id[i] for i in neighbor_ids[rec.image_id]], filter_cfg))
        for rec in records
    ]
    stats.valid_pixels_after_filter = int(sum((r.depth > 0).sum() for r in filtered))
    logger.info(
        "depth filter kept %d / %d pixels",
        stats.valid_pixels_after_filter,
        stats.valid_pixels_before_filter,
    )

    fused = fuse_depth_maps(filtered, voxel_size)
    # Only fusion reads the filtered depths; the vote and the cones read
    # the records' labels and poses.
    del filtered
    stats.fused_points = len(fused)
    logger.info("fused %d points at voxel size %.3g m", len(fused), voxel_size)

    labels = _vote_labels_bulk(fused.positions, fused.pairs, records)
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

    positions = fused.positions[stable]
    pairs = fused.pairs[stable[fused.pairs[:, 0]]]
    del fused
    pairs[:, 0] = (np.cumsum(stable) - 1)[pairs[:, 0]]
    supports = np.bincount(pairs[:, 0], minlength=len(positions))
    d_min, d_max, v_l, v_u, theta = _cones_bulk(positions, pairs, records)
    return DenseMap(positions, labels[stable], v_l, v_u, theta, d_min, d_max, supports), stats
