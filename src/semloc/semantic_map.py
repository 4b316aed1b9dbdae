"""Dense semantic 3D map construction.

Stages: depth-map filtering against neighbor views, voxel-grid fusion of the
filtered depth pixels into a point cloud, per-point semantic label voting,
removal of unstable classes, and per-point visibility cones (distance range,
extreme viewing directions, visible angle).  The build filters and fuses in
one streamed pass: each record's valid depth pixels are back-projected
once, confirmed against its neighbors' raw depth (neighbor views behind
which every point lies are skipped) and merged into a running voxel table,
which yields a FusedCloud.  Its table of (point, image) contributor pairs
feeds both the vote and the cones; those run on columns of points (the
cones in fixed-size chunks), and the map itself is the columnar DenseMap.
The build's working memory thus follows the voxels plus one record's
pixels; it holds no array over every record's pixels beyond the records'
own depth maps and label images.

Depth maps are (H, W) float arrays holding z-depth in meters; values <= 0
mark invalid pixels.  Label images are (H, W) uint8 arrays of Cityscapes
train ids 0..18, with 255 meaning unlabeled.  Both are read at the nearest
pixel (geometry.sample_grid); a read outside the image gives depth 0 or 255.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .geometry import (
    CameraIntrinsics,
    RigidPose,
    _FrozenArrays,
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

# Consecutive map rows per block of DenseMap's block bounds.
_BLOCK_ROWS = 256


def label_ids_valid(labels: np.ndarray) -> bool:
    """Whether every label is a class id 0..MAX_CLASS_ID or UNLABELED."""
    return bool(np.all((labels <= MAX_CLASS_ID) | (labels == UNLABELED)))


# ── Record types ─────────────────────────────────────────────────────────


# Status of a keypoint in a LiftTable.
LIFTED, OUTSIDE_IMAGE, INVALID_DEPTH = 0, 1, 2


@dataclass(frozen=True)
class LiftTable(_FrozenArrays):
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


@dataclass(frozen=True)
class QueryImage(_FrozenArrays):
    """A query: calibrated image with segmentation, features and global
    descriptor, but no pose.  Frozen like DatabaseImageRecord: its labels
    and global descriptor are read-only views and features a dict of its
    own."""

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
        self._store(labels=self.labels, global_descriptor=self.global_descriptor,
                    features=dict(self.features))


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
        if not 0 < self.tau < math.inf:  # nan and inf fail
            raise ValueError("tau must be positive")


@dataclass(frozen=True, eq=False)
class DenseMap(_FrozenArrays):
    """The fused map points as parallel columns.

    Row i is one point: position, semantic label, number of contributing
    database images (support), and its visibility cone: d_min/d_max, the
    extreme Euclidean distances to observing camera centers; v_l/v_u, the
    unit point-to-camera directions of the widest pair; v_m, their unit
    bisector; theta, the angle between v_l and v_u.  A map is read whole
    or at row indices (scoring.gate_visible returns the gated rows); no
    map of selected rows is built.  The columns are read-only views, and
    positions is column-major, so the gate reads each coordinate as one
    contiguous column.

    The constructor also derives the gate's block bounds.  For each block
    of _BLOCK_ROWS consecutive rows (the last may be shorter),
    block_low[:, j] and block_high[:, j] hold the least and greatest x, y
    and z of its positions and block_reach[j] its greatest d_max; NaN rows
    are ignored, so a block is NaN only where all its rows are.  Like v_m
    they are recomputed whenever a map is constructed (building, a MAP1
    read, a copy, an unpickling), never stored or cached.

    A column whose array already has its dtype (and for positions its
    column-major layout) is a view of the array passed to the constructor,
    not a copy, so a caller must not write that array after building the
    map: v_m and the block bounds, derived when the map is built, would go
    stale.  read_dense_map and build_dense_map pass arrays that no one else
    holds (a freshly read record array and freshly computed columns).
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
    block_low: np.ndarray = field(init=False)
    block_high: np.ndarray = field(init=False)
    block_reach: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        n = len(self.positions)
        self._store(
            positions=np.asfortranarray(np.reshape(self.positions, (n, 3)), np.float64),
            labels=np.asarray(self.labels, dtype=np.int64).reshape(n),
            v_l=np.asarray(self.v_l, dtype=np.float64).reshape(n, 3),
            v_u=np.asarray(self.v_u, dtype=np.float64).reshape(n, 3),
            theta=np.asarray(self.theta, dtype=np.float64).reshape(n),
            d_min=np.asarray(self.d_min, dtype=np.float64).reshape(n),
            d_max=np.asarray(self.d_max, dtype=np.float64).reshape(n),
            support=np.asarray(self.support, dtype=np.int64).reshape(n),
        )
        # Bisector of the extreme directions, recomputed rather than stored,
        # one column at a time: (x^2 + y^2) + z^2 is np.linalg.norm's sum.
        s = self.v_l + self.v_u
        x, y, z = s.T
        norms = np.sqrt((x * x + y * y) + z * z)
        safe = norms > 1e-12
        norms[~safe] = 1.0
        v_m = np.empty_like(s)
        for k in range(3):
            v_m[:, k] = np.where(safe, s[:, k] / norms, self.v_l[:, k])
        starts = np.arange(0, n, _BLOCK_ROWS)
        columns = self.positions.T  # (3, n), C-contiguous
        self._store(
            v_m=v_m,
            block_low=np.fmin.reduceat(columns, starts, axis=1),
            block_high=np.fmax.reduceat(columns, starts, axis=1),
            block_reach=np.fmax.reduceat(self.d_max, starts),
        )

    def __len__(self) -> int:
        return len(self.positions)


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


def _confirm(world: np.ndarray, neighbors: Sequence[DatabaseImageRecord],
             tau: float) -> tuple[np.ndarray, int]:
    """Mask of the (N, 3) world points that at least
    _MIN_CONSISTENT_NEIGHBORS of the neighbor views confirm, and the number
    of neighbor views skipped because they see no point.

    A point is confirmed by a neighbor when its depth d_r there and the
    neighbor's stored depth d_n at its nearest pixel satisfy
    |d_r - d_n| / d_n < tau.  One (k, 3) @ (3, N) product of the neighbors'
    optical axes with the points, minus each center's offset, gives every
    point's depth in every neighbor.  A neighbor whose depths all lie below
    -1e-9 * (max|X| + |C|) is skipped: project_points gives its points NaN
    pixels, which read depth 0, so it confirms nothing.  The margin is far
    wider than the rounding gap between the two depth computations, so the
    skip is exact: the mask is bitwise what projecting into every neighbor
    gives.
    """
    axes = np.stack([nb.pose.rotation[2] for nb in neighbors])
    centers = np.stack([nb.pose.center for nb in neighbors])
    # Each neighbor's largest depth; a row of the product is contiguous.
    deepest = ((axes @ world.T).max(axis=1, initial=-np.inf)
               - np.einsum("kj,kj->k", axes, centers))
    scale = np.abs(world).max(initial=0.0) + np.linalg.norm(centers, axis=1)
    sees = deepest >= -1e-9 * scale

    support = np.zeros(len(world), dtype=np.int64)
    for nb in itertools.compress(neighbors, sees):
        px, d_r = project_points(world, nb.pose.rotation, nb.pose.center, nb.intrinsics)
        d_n, _ = sample_grid(nb.depth, px, nb.intrinsics, 0.0)
        ok = d_n > 0.0
        ok[ok] &= np.abs(d_r[ok] - d_n[ok]) / d_n[ok] < tau
        support += ok.astype(np.int64)
    return support >= _MIN_CONSISTENT_NEIGHBORS, int(len(sees) - sees.sum())


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
    map with unconfirmed pixels set to 0.  build_dense_map runs the same
    confirmation on the points it fuses, without building this map.
    """
    if len(neighbors) == 0:
        raise ValueError("neighbor list must be non-empty")
    vy, vx, world = _valid_world_points(target)
    keep, _ = _confirm(world, neighbors, cfg.tau)
    out = np.zeros_like(target.depth)
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
    return _fuse_points((_valid_world_points(rec)[2] for rec in records), len(records),
                        voxel_size)


def _fuse_points(clouds: Iterable[np.ndarray], n_records: int,
                 voxel_size: float) -> FusedCloud:
    """fuse_depth_maps over a stream of n_records (N_i, 3) world point
    arrays, one per record in list order, each in its pixels' row-major
    order.  Each array is merged into the voxel table as it arrives; the
    voxel size is checked before the stream is read."""
    if not 0 < voxel_size < math.inf:  # nan and inf fail
        raise ValueError("voxel size must be positive")

    anchor = None
    keys = np.zeros(0, dtype=np.int64)  # occupied voxel keys, sorted
    points_of_keys = np.zeros(0, dtype=np.int64)  # their point numbers
    # np.add.at adds in index order, on one row per coordinate by its 1-D
    # fast path.  Seeded with -0.0, the identity of float addition (0.0
    # would turn a -0.0 member into +0.0), each sum is bitwise its members
    # added one at a time in record and pixel order.
    sums = np.full((3, 0), -0.0)
    counts = np.zeros(0, dtype=np.int64)
    n = 0
    pair_keys = [np.zeros(0, dtype=np.int64)]
    for i, world in enumerate(clouds):
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

        if n > len(counts):
            grow = max(n, 2 * len(counts)) - len(counts)
            sums = np.concatenate([sums, np.full((3, grow), -0.0)], axis=1)
            counts = np.concatenate([counts, np.zeros(grow, dtype=np.int64)])
        rows = point_of[inverse]
        for k in range(3):
            np.add.at(sums[k], rows, world[:, k])
        counts[point_of] += np.bincount(inverse, minlength=len(uniq))
        pair_keys.append(point_of * n_records + i)

    positions = (sums[:, :n] / counts[:n]).T.copy()
    del sums, counts
    # Each record's points are distinct, so every pair key is too.
    pair_keys = np.concatenate(pair_keys)
    pair_keys.sort()
    pairs = np.stack([pair_keys // n_records, pair_keys % n_records], axis=1)
    return FusedCloud(positions, pairs)


# ── Map building ─────────────────────────────────────────────────────────


def select_filter_neighbors(records: Sequence[DatabaseImageRecord]) -> np.ndarray:
    """Filter neighbors of every record as an (R, k) int64 array of indices
    into records: row i holds the k records other than i with the nearest
    camera centers, nearest first and ties in list order, where
    k = min(DEFAULT_FILTER_NEIGHBOR_COUNT, R - 1)."""
    if len(records) < 2:
        raise ValueError("need at least 2 database images to select neighbors")
    centers = np.stack([r.pose.center for r in records])
    k = min(DEFAULT_FILTER_NEIGHBOR_COUNT, len(records) - 1)
    orders = (np.argsort(np.linalg.norm(centers - c, axis=1), kind="stable") for c in centers)
    return np.array([order[order != i][:k] for i, order in enumerate(orders)], dtype=np.int64)


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

    The filter and fusion are one streamed pass over the records: each
    record's valid depth pixels are back-projected once, confirmed against
    its filter neighbors' raw depth and merged into fusion's running voxel
    table, so no filtered depth map is built.  The map is bitwise
    filter_depth_map on every record followed by fuse_depth_maps on the
    filtered records.  Per-stage point counts are logged and returned in
    BuildStats.
    """
    stats = BuildStats()
    neighbors = select_filter_neighbors(records)

    def confirmed_points():
        skipped = 0
        for rec, nbs in zip(records, neighbors):
            world = _valid_world_points(rec)[2]
            keep, n_skipped = _confirm(world, [records[j] for j in nbs], filter_cfg.tau)
            stats.valid_pixels_before_filter += len(world)
            stats.valid_pixels_after_filter += int(keep.sum())
            skipped += n_skipped
            yield world[keep]
        # Reached when fusion asks for a record after the last one.
        logger.info(
            "depth filter kept %d / %d pixels; %d of %d neighbor views saw no point",
            stats.valid_pixels_after_filter,
            stats.valid_pixels_before_filter,
            skipped,
            neighbors.size,
        )

    # The cloud is passed straight on, so it is freed before the cones.
    return _map_from_cloud(_fuse_points(confirmed_points(), len(records), voxel_size),
                           records, voxel_size, unstable, stats), stats


def _map_from_cloud(
    fused: FusedCloud,
    records: Sequence[DatabaseImageRecord],
    voxel_size: float,
    unstable: frozenset | set,
    stats: BuildStats,
) -> DenseMap:
    """The build after fusion: vote, drop unstable and unlabeled points,
    cones.  Fills the fused, labeled and stable counts of stats.  The cloud
    is released before the cones when the caller holds no other reference
    to it."""
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
    return DenseMap(positions, labels[stable], v_l, v_u, theta, d_min, d_max, supports)
