"""Copies and unpickled objects of the frozen array types.

A copy, a deep copy or a pickle round trip is rebuilt through the
constructor: every array stays read-only and bitwise equal to the
original's, and nothing cached on the original (a record's lift tables)
comes along.  A map's positions stay column-major.
"""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from semloc.formats import read_dense_map, write_dense_map
from semloc.matching import lift_to_3d, match_family
from semloc.pnp import PnPSolution
from semloc.retrieval import GlobalDescriptor, build_index
from semloc.scoring import gate_visible
from semloc.semantic_map import _BLOCK_ROWS, build_dense_map, fuse_depth_maps
from semloc.synthetic import FacadePlane
from map_oracle import block_bounds

COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
}


@pytest.fixture(scope="module")
def canyon_map(zero_noise_dataset):
    dense_map, _ = build_dense_map(zero_noise_dataset.db_records, voxel_size=0.12)
    return dense_map


def _instances(ds, dense_map):
    """One instance of each frozen array type, with its caches filled."""
    rec = ds.db_records[0]
    family = next(iter(rec.features))
    query_set = ds.queries[0].features[family]
    lifted = lift_to_3d(match_family(query_set, rec.features[family]), query_set, rec)
    assert len(lifted.correspondences) > 0
    return {
        "CorrespondenceBatch": lifted.correspondences,
        "DenseMap": dense_map,
        "LiftTable": rec.lift_table(family),
        "FusedCloud": fuse_depth_maps(ds.db_records[:2], 0.5),
        "RigidPose": rec.pose,
        "FeatureSet": rec.features[family],
        "PnPSolution": PnPSolution(rec.pose, [0, 3, 4], 0.25, iterations_used=7),
        "DatabaseImageRecord": rec,
        "QueryImage": ds.queries[0],
        "GlobalDescriptor": GlobalDescriptor(rec.image_id, rec.global_descriptor),
        "RetrievalIndex": build_index([GlobalDescriptor(r.image_id, r.global_descriptor)
                                       for r in ds.db_records]),
        "FacadePlane": ds.spec.planes[0],
    }


def _assert_same_frozen_arrays(copied, original, where):
    assert type(copied) is type(original), where
    if isinstance(original, np.ndarray):
        assert not copied.flags.writeable, where
        assert copied.dtype == original.dtype and copied.shape == original.shape, where
        assert copied.tobytes() == original.tobytes(), where
    elif isinstance(original, dict):
        assert copied.keys() == original.keys(), where
        for key in original:
            _assert_same_frozen_arrays(copied[key], original[key], f"{where}[{key!r}]")
    elif dataclasses.is_dataclass(original):
        # no cache comes along: neither a cached property nor lift tables
        assert vars(copied).keys() <= {f.name for f in dataclasses.fields(original)}, where
        assert getattr(copied, "_lift_tables", {}) == {}, where
        for f in dataclasses.fields(original):
            if f.name != "_lift_tables":
                _assert_same_frozen_arrays(getattr(copied, f.name), getattr(original, f.name),
                                           f"{where}.{f.name}")
    else:
        assert copied == original, where


@pytest.mark.parametrize("how", sorted(COPIES))
@pytest.mark.parametrize("kind", ["CorrespondenceBatch", "DenseMap", "LiftTable",
                                  "FusedCloud", "RigidPose", "FeatureSet", "PnPSolution",
                                  "DatabaseImageRecord", "QueryImage", "GlobalDescriptor",
                                  "RetrievalIndex", "FacadePlane"])
def test_copies_keep_read_only_arrays_and_drop_caches(zero_noise_dataset, canyon_map, kind, how):
    original = _instances(zero_noise_dataset, canyon_map)[kind]
    copied = COPIES[how](original)
    assert copied is not original
    _assert_same_frozen_arrays(copied, original, kind)
    if kind in ("DatabaseImageRecord", "QueryImage"):
        assert copied.features is not original.features
    if kind == "DatabaseImageRecord":
        assert original._lift_tables  # the original's cache was filled


@pytest.mark.parametrize("how", sorted(COPIES))
def test_a_copied_map_gates_the_same_rows(zero_noise_dataset, canyon_map, how):
    copied = COPIES[how](canyon_map)
    spec = zero_noise_dataset.spec
    for pose in [rec.pose for rec in zero_noise_dataset.db_records] + list(spec.query_poses):
        ours, theirs = gate_visible(copied, pose), gate_visible(canyon_map, pose)
        assert len(theirs) > 0
        assert np.array_equal(ours, theirs)
    assert copied.positions.flags.f_contiguous


def test_map_positions_are_column_major(canyon_map, tmp_path):
    # the gate reads each coordinate of every row as one contiguous column,
    # on the built map and on its MAP1 read-back alike
    write_dense_map(tmp_path / "map.bin", canyon_map)
    read_back = read_dense_map(tmp_path / "map.bin")
    for dense_map in (canyon_map, read_back):
        assert dense_map.positions.flags.f_contiguous
        assert not dense_map.positions.flags.c_contiguous
    assert np.array_equal(read_back.positions,
                          canyon_map.positions.astype(np.float32).astype(np.float64))


@pytest.mark.parametrize("path", ["built", "MAP1", *sorted(COPIES)])
def test_block_bounds_are_derived_on_every_construction_path(canyon_map, tmp_path, path):
    # the bounds are not stored or carried along: each way of making a map
    # derives them from its own positions and d_max (float32 ones after a
    # MAP1 read)
    if path == "MAP1":
        write_dense_map(tmp_path / "map.bin", canyon_map)
        dense_map = read_dense_map(tmp_path / "map.bin")
    elif path == "built":
        dense_map = canyon_map
    else:
        dense_map = COPIES[path](canyon_map)
    expected = block_bounds(dense_map, _BLOCK_ROWS)
    assert len(expected[2]) == -(-len(dense_map) // _BLOCK_ROWS) > 1
    for name, column in zip(("block_low", "block_high", "block_reach"), expected):
        derived = getattr(dense_map, name)
        assert not derived.flags.writeable, name
        assert derived.dtype == column.dtype and derived.shape == column.shape, name
        assert derived.tobytes() == column.tobytes(), name
