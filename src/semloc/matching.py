"""Per-family 2D-2D descriptor matching and lifting matches to 2D-3D
correspondences through database depth maps.

Lifting reads each database image's LiftTable, which holds every
keypoint's world point and is built once per image and family
(DatabaseImageRecord.lift_table), so a query's lift is a gather.

A feature family is a named keypoint+descriptor type (e.g. a handcrafted
corner detector or a learned detector).  Every family is matched by one
rule, mutual nearest neighbors in descriptor space.  Hybrid operation
simply pools correspondences from several families; families with
complementary strengths cover for each other across imaging conditions.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np
from scipy.spatial.distance import cdist

from .semantic_map import LIFTED, OUTSIDE_IMAGE, DatabaseImageRecord

__all__ = [
    "FeatureSet",
    "CorrespondenceBatch",
    "LiftResult",
    "match_family",
    "lift_to_3d",
]


@dataclass(frozen=True)
class FeatureSet:
    """Keypoints of one family in one image: (N, 2) pixel locations and
    (N, dim) descriptors, all finite, as read-only views (the caller's
    arrays keep their flags)."""

    family: str
    locations: np.ndarray
    descriptors: np.ndarray

    def __post_init__(self) -> None:
        loc = np.asarray(self.locations, dtype=np.float64).reshape(-1, 2)
        desc = np.asarray(self.descriptors, dtype=np.float64)
        if desc.ndim != 2:
            desc = desc.reshape(len(loc), -1) if desc.size else desc.reshape(0, 0)
        if len(loc) != len(desc):
            raise ValueError("locations and descriptors disagree in length")
        if not (np.all(np.isfinite(loc)) and np.all(np.isfinite(desc))):
            raise ValueError(f"{self.family}: non-finite keypoint location or descriptor")
        for name, column in (("locations", loc), ("descriptors", desc.view())):
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.locations)


@dataclass(frozen=True)
class CorrespondenceBatch:
    """2D-3D correspondences as columns, one row per correspondence.

    Row i pairs query pixel pixels[i] (N, 2) with world point points[i]
    (N, 3), lifted through database image image_ids[i] by feature family
    families[i]; weights[i] is its sampling weight for pose estimation
    (all 1 when not given).  Rows are selected with batch[mask_or_indices]
    and batches pooled with CorrespondenceBatch.concat; no deduplication
    happens, so a pixel matched by several families or retrieved images
    contributes several rows.

    The constructor checks the columns once and makes them read-only.
    Row selection, concat and lift_to_3d assemble their batches from
    columns that were already checked, without checking them again.  A
    column whose array already has its dtype and shape is a view of the
    array passed in, so a caller must not write that array after building
    the batch.
    """

    pixels: np.ndarray
    points: np.ndarray
    image_ids: np.ndarray
    families: np.ndarray
    weights: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        pixels = np.asarray(self.pixels, dtype=np.float64).reshape(-1, 2)
        points = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        image_ids = np.asarray(self.image_ids, dtype=str).reshape(-1)
        families = np.asarray(self.families, dtype=str).reshape(-1)
        n = len(pixels)
        weights = np.ones(n) if self.weights is None else np.asarray(
            self.weights, dtype=np.float64).reshape(-1)
        if not len(points) == len(image_ids) == len(families) == len(weights) == n:
            raise ValueError("correspondence columns disagree in row count")
        if not np.all(np.isfinite(points)):
            raise ValueError("world points must be finite")
        if not np.all(weights >= 0.0):
            raise ValueError("weights must be non-negative")
        _set_columns(self, (pixels, points, image_ids, families, weights))

    @classmethod
    def _of_checked(cls, *columns: np.ndarray) -> "CorrespondenceBatch":
        """A batch of columns, in field order, that hold rows of checked
        batches: each has its dtype and shape and no one else holds it."""
        batch = object.__new__(cls)
        _set_columns(batch, columns)
        return batch

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, rows) -> "CorrespondenceBatch":
        return self._of_checked(*(getattr(self, name)[rows] for name in _COLUMNS))

    @classmethod
    def concat(cls, batches: Sequence["CorrespondenceBatch"]) -> "CorrespondenceBatch":
        """Rows of every batch in order; an empty sequence gives an empty
        batch."""
        if not batches:
            return cls([], [], [], [])
        return cls._of_checked(*(np.concatenate([getattr(b, name) for b in batches])
                                 for name in _COLUMNS))


_COLUMNS = tuple(f.name for f in fields(CorrespondenceBatch))


def _set_columns(batch: CorrespondenceBatch, columns) -> None:
    for name, column in zip(_COLUMNS, columns):
        column.setflags(write=False)
        object.__setattr__(batch, name, column)


@dataclass(frozen=True)
class LiftResult:
    correspondences: CorrespondenceBatch
    dropped_out_of_bounds: int = 0
    dropped_invalid_depth: int = 0


def match_family(query_set: FeatureSet, db_set: FeatureSet) -> np.ndarray:
    """Mutual nearest-neighbor matches between two sets of one family, as
    an (M, 2) int64 array of [query_index, db_index] rows in query order.

    A pair matches when each descriptor is the other's nearest by L2
    distance, so each query index and each database index appears at most
    once.
    """
    if query_set.family != db_set.family:
        raise ValueError(f"query set belongs to family {query_set.family!r}, "
                         f"database set to family {db_set.family!r}")
    nq, nd = len(query_set), len(db_set)
    if nq == 0 or nd == 0:
        return np.zeros((0, 2), dtype=np.int64)
    if query_set.descriptors.shape[1] != db_set.descriptors.shape[1]:
        raise ValueError(
            f"query descriptors have dim {query_set.descriptors.shape[1]}, "
            f"database descriptors {db_set.descriptors.shape[1]}"
        )

    d = cdist(query_set.descriptors, db_set.descriptors)
    nn = np.argmin(d, axis=1)
    mutual = np.argmin(d, axis=0)[nn] == np.arange(nq)
    rows = np.nonzero(mutual)[0]
    return np.stack([rows, nn[rows]], axis=1)


def lift_to_3d(
    matches: np.ndarray,
    query_set: FeatureSet,
    db: DatabaseImageRecord,
) -> LiftResult:
    """Turn 2D-2D matches ([query_index, db_index] rows, as match_family
    returns them) into 2D-3D correspondences via the database depth map.

    The world points are rows of db.lift_table(query_set.family), which
    lifts every database keypoint once: the depth is read at the keypoint's
    nearest pixel and its continuous location back-projected with that
    depth.  Matches over invalid depth or outside the image are dropped and
    counted.
    """
    table = db.lift_table(query_set.family)
    status = table.status[matches[:, 1]]
    kept = matches[status == LIFTED]
    n = len(kept)
    batch = CorrespondenceBatch._of_checked(
        query_set.locations[kept[:, 0]],
        table.points[kept[:, 1]],
        np.full(n, db.image_id),
        np.full(n, query_set.family),
        np.ones(n),
    )
    out_of_bounds = int(np.count_nonzero(status == OUTSIDE_IMAGE))
    return LiftResult(batch, dropped_out_of_bounds=out_of_bounds,
                      dropped_invalid_depth=len(matches) - n - out_of_bounds)
