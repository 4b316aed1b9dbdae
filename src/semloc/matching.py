"""Per-family 2D-2D descriptor matching and lifting matches to 2D-3D
correspondences through database depth maps.

A feature family is a named keypoint+descriptor type (e.g. a handcrafted
corner detector or a learned detector) with its own matching rules.  Hybrid
operation simply pools correspondences from several families; families with
complementary strengths cover for each other across imaging conditions.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np
from scipy.spatial.distance import cdist

from .geometry import back_project_pixels, nearest_pixel
from .semantic_map import DatabaseImageRecord

__all__ = [
    "FeatureFamily",
    "FeatureSet",
    "Match2D2D",
    "CorrespondenceBatch",
    "LiftResult",
    "match_family",
    "lift_to_3d",
]


@dataclass(frozen=True)
class FeatureFamily:
    """Matching rules for one feature family.

    ratio, when set, applies Lowe's test: keep a match only when
    best/second-best distance < ratio (kept when fewer than 2 candidates
    exist).  Mutual nearest-neighbor validation is on by default.
    """

    name: str
    descriptor_dim: int
    use_mutual_nn: bool = True
    ratio: Optional[float] = None

    def __post_init__(self) -> None:
        if self.descriptor_dim < 1:
            raise ValueError("descriptor dimension must be >= 1")
        if self.ratio is not None and not (0.0 < self.ratio <= 1.0):
            raise ValueError(f"ratio must lie in (0, 1], got {self.ratio}")


@dataclass(frozen=True)
class FeatureSet:
    """Keypoints of one family in one image: (N, 2) pixel locations and
    (N, dim) descriptors, all finite."""

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
        object.__setattr__(self, "locations", loc)
        object.__setattr__(self, "descriptors", desc)

    def __len__(self) -> int:
        return len(self.locations)


@dataclass(frozen=True)
class Match2D2D:
    query_index: int
    db_index: int
    family: str
    distance: float


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
        for name, value in (("pixels", pixels), ("points", points), ("image_ids", image_ids),
                            ("families", families), ("weights", weights)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, rows) -> "CorrespondenceBatch":
        return CorrespondenceBatch(*(getattr(self, f.name)[rows] for f in fields(self)))

    @classmethod
    def concat(cls, batches: Sequence["CorrespondenceBatch"]) -> "CorrespondenceBatch":
        """Rows of every batch in order; an empty sequence gives an empty
        batch."""
        columns = [[getattr(b, f.name) for b in batches] for f in fields(cls)]
        return cls(*(np.concatenate(c) if c else [] for c in columns))


@dataclass(frozen=True)
class LiftResult:
    correspondences: CorrespondenceBatch
    dropped_out_of_bounds: int = 0
    dropped_invalid_depth: int = 0


def match_family(
    query_set: FeatureSet, db_set: FeatureSet, family: FeatureFamily
) -> list[Match2D2D]:
    """Nearest-neighbor matches under the family's validation rules.

    Each query index appears at most once; with mutual validation each
    database index does too.
    """
    for s, side in ((query_set, "query"), (db_set, "database")):
        if s.family != family.name:
            raise ValueError(f"{side} set belongs to family {s.family!r}, not {family.name!r}")
        if len(s) and s.descriptors.shape[1] != family.descriptor_dim:
            raise ValueError(
                f"{side} descriptors have dim {s.descriptors.shape[1]}, "
                f"family expects {family.descriptor_dim}"
            )
    nq, nd = len(query_set), len(db_set)
    if nq == 0 or nd == 0:
        return []

    d = cdist(query_set.descriptors, db_set.descriptors)
    nn = np.argmin(d, axis=1)
    best = d[np.arange(nq), nn]

    keep = np.ones(nq, dtype=bool)
    if family.ratio is not None and nd >= 2:
        part = np.partition(d, 1, axis=1)
        second = part[:, 1]
        # best < ratio * second also rejects the ambiguous 0/0 case.
        keep &= best < family.ratio * second
    if family.use_mutual_nn:
        nn_back = np.argmin(d, axis=0)
        keep &= nn_back[nn] == np.arange(nq)

    return [
        Match2D2D(query_index=int(i), db_index=int(nn[i]), family=family.name,
                  distance=float(best[i]))
        for i in np.nonzero(keep)[0]
    ]


def lift_to_3d(
    matches: Sequence[Match2D2D],
    query_set: FeatureSet,
    db: DatabaseImageRecord,
) -> LiftResult:
    """Turn 2D-2D matches into 2D-3D correspondences via the database depth
    map.

    The database keypoints come from db.features[match.family].  The depth
    is read at the nearest pixel to the database keypoint; the keypoint's
    continuous location is then back-projected with that depth.  Matches
    over invalid depth or outside the image are dropped and counted.
    """
    n = len(matches)
    locs = np.array([db.features[m.family].locations[m.db_index] for m in matches]).reshape(n, 2)
    pix, inside = nearest_pixel(locs, db.intrinsics)
    depth = np.zeros(n)
    depth[inside] = db.depth[pix[inside, 1], pix[inside, 0]]
    # Non-finite depths pass on to back-projection, which rejects them.
    kept = np.nonzero(inside & ~(depth <= 0.0))[0]
    query_rows = np.array([matches[i].query_index for i in kept], dtype=np.int64)
    batch = CorrespondenceBatch(
        pixels=query_set.locations[query_rows],
        points=back_project_pixels(locs[kept], depth[kept], db.pose, db.intrinsics),
        image_ids=[db.image_id] * len(kept),
        families=[matches[i].family for i in kept],
    )
    n_inside = int(inside.sum())
    return LiftResult(batch, dropped_out_of_bounds=n - n_inside,
                      dropped_invalid_depth=n_inside - len(kept))
