"""Top-k image retrieval over precomputed global descriptors.

Descriptors are opaque fixed-length vectors (4096-dimensional in typical
CNN-based setups); ranking uses the L2 distance between L2-normalized
vectors, evaluated by exhaustive linear scan.  Database sizes here are
small enough that exactness beats approximate search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import _FrozenArrays

__all__ = [
    "GlobalDescriptor",
    "RetrievalConfig",
    "RetrievalIndex",
    "build_index",
    "query_top_k",
]


@dataclass(frozen=True)
class GlobalDescriptor(_FrozenArrays):
    image_id: str
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if not np.all(np.isfinite(v)):
            raise ValueError(f"{self.image_id}: descriptor contains non-finite values")
        self._store(values=v)


@dataclass(frozen=True)
class RetrievalConfig:
    """Number of candidates to retrieve; clamped to the database size at
    query time."""

    top_k: int = 20

    def __post_init__(self) -> None:
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")


@dataclass(frozen=True)
class RetrievalIndex(_FrozenArrays):
    """L2-normalized descriptors in insertion order, with a read-only
    matrix."""

    ids: tuple[str, ...]
    matrix: np.ndarray  # (N, D), rows unit length

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


def _unit_row(d: GlobalDescriptor, dim: int) -> np.ndarray:
    """d's values scaled to unit length, the row it adds to or compares
    with an index of dimension dim; rejects a zero vector and any other
    dimension.  load_dataset runs the same check on database descriptors."""
    if d.values.shape[0] != dim:
        raise ValueError(f"{d.image_id}: dimension {d.values.shape[0]} != index dimension {dim}")
    n = np.linalg.norm(d.values)
    if n <= 0.0:
        raise ValueError(f"{d.image_id}: zero-norm descriptor cannot be normalized")
    return d.values / n


def build_index(descriptors: list[GlobalDescriptor]) -> RetrievalIndex:
    """Normalize and stack descriptors; rejects zero vectors and mixed
    dimensions.  Duplicate vectors are retained with their own ids."""
    if len(descriptors) == 0:
        raise ValueError("descriptor list must be non-empty")
    dim = descriptors[0].values.shape[0]
    return RetrievalIndex(tuple(d.image_id for d in descriptors),
                          np.stack([_unit_row(d, dim) for d in descriptors]))


def query_top_k(
    index: RetrievalIndex, query: GlobalDescriptor, cfg: RetrievalConfig
) -> list[tuple[str, float]]:
    """Ascending (image id, distance) list of the min(top_k, size) nearest
    database images; equal distances break by image id."""
    dist = np.linalg.norm(index.matrix - _unit_row(query, index.dim), axis=1)
    ranked = sorted(zip(index.ids, dist.tolist()), key=lambda t: (t[1], t[0]))
    return ranked[: min(cfg.top_k, len(index))]
