"""Binary/text format round-trip and validation tests.

Random instances are generated with float32-representable payloads so
Load(Store(x)) compares exactly equal.
"""

import numpy as np
import pytest

from semloc.formats import (
    CameraRecord,
    DataFormatError,
    read_cameras,
    read_dense_map,
    read_depth_map,
    read_estimates,
    read_feature_set,
    read_global_descriptor,
    read_label_image,
    read_manifest,
    write_cameras,
    write_dense_map,
    write_depth_map,
    write_estimates,
    write_feature_set,
    write_global_descriptor,
    write_label_image,
)
from semloc.geometry import CameraIntrinsics
from semloc.matching import FeatureSet
from semloc.semantic_map import DenseMap

from conftest import random_pose


def _f32(rng, *shape, low=-10.0, high=10.0):
    return rng.uniform(low, high, size=shape).astype(np.float32).astype(np.float64)


class TestDepthMap:
    def test_roundtrip_random(self, tmp_path):
        rng = np.random.default_rng(0)
        for i in range(100):
            h, w = int(rng.integers(1, 20)), int(rng.integers(1, 20))
            depth = rng.uniform(0, 10, size=(h, w)).astype(np.float32)
            depth[rng.random((h, w)) < 0.3] = 0.0
            p = tmp_path / f"d{i}.bin"
            write_depth_map(p, depth)
            assert np.array_equal(read_depth_map(p), depth)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.bin"
        p.write_bytes(b"XXXX" + b"\x00" * 8)
        with pytest.raises(DataFormatError, match="magic"):
            read_depth_map(p)

    def test_truncated(self, tmp_path):
        p = tmp_path / "x.bin"
        write_depth_map(p, np.ones((4, 4), dtype=np.float32))
        p.write_bytes(p.read_bytes()[:-3])
        with pytest.raises(DataFormatError, match="end of file"):
            read_depth_map(p)

    def test_trailing_bytes(self, tmp_path):
        p = tmp_path / "x.bin"
        write_depth_map(p, np.ones((2, 2), dtype=np.float32))
        p.write_bytes(p.read_bytes() + b"zz")
        with pytest.raises(DataFormatError, match="trailing"):
            read_depth_map(p)


class TestLabelImage:
    def test_roundtrip_random(self, tmp_path):
        rng = np.random.default_rng(1)
        for i in range(100):
            h, w = int(rng.integers(1, 20)), int(rng.integers(1, 20))
            lab = rng.integers(0, 19, size=(h, w)).astype(np.uint8)
            lab[rng.random((h, w)) < 0.2] = 255
            p = tmp_path / f"l{i}.bin"
            write_label_image(p, lab)
            assert np.array_equal(read_label_image(p), lab)

    def test_invalid_ids_rejected(self, tmp_path):
        p = tmp_path / "l.bin"
        lab = np.full((2, 2), 99, dtype=np.uint8)
        write_label_image(p, lab)
        with pytest.raises(DataFormatError, match="label ids"):
            read_label_image(p)


class TestFeatureSet:
    def test_roundtrip_random(self, tmp_path):
        rng = np.random.default_rng(2)
        for i in range(100):
            n = int(rng.integers(0, 30))
            dim = int(rng.integers(1, 12))
            fs = FeatureSet(
                family=f"fam{i % 3}",
                locations=_f32(rng, n, 2, low=0, high=100),
                descriptors=_f32(rng, n, dim) if n else np.zeros((0, dim)),
            )
            p = tmp_path / f"f{i}.bin"
            write_feature_set(p, fs)
            back = read_feature_set(p)
            assert back.family == fs.family
            assert np.array_equal(back.locations, fs.locations)
            if n:
                assert np.array_equal(back.descriptors, fs.descriptors)

    def test_unicode_family_name(self, tmp_path):
        fs = FeatureSet(family="famille-é", locations=np.zeros((0, 2)), descriptors=np.zeros((0, 4)))
        p = tmp_path / "f.bin"
        write_feature_set(p, fs)
        assert read_feature_set(p).family == "famille-é"

    def test_nan_location_rejected(self, tmp_path):
        fs = FeatureSet(family="fam", locations=[[3.0, 4.0], [5.0, 6.0]], descriptors=np.ones((2, 3)))
        p = tmp_path / "f.bin"
        write_feature_set(p, fs)
        data = bytearray(p.read_bytes())
        first_x = 4 + 4 + len(b"fam") + 8
        data[first_x: first_x + 4] = np.float32(np.nan).tobytes()
        p.write_bytes(bytes(data))
        with pytest.raises(DataFormatError, match="f.bin.*non-finite"):
            read_feature_set(p)


class TestGlobalDescriptor:
    def test_roundtrip_random(self, tmp_path):
        rng = np.random.default_rng(3)
        for i in range(100):
            dim = int(rng.integers(1, 300))
            v = _f32(rng, dim)
            p = tmp_path / f"g{i}.bin"
            write_global_descriptor(p, v)
            assert np.array_equal(read_global_descriptor(p), v)


def _random_dense_map(rng, n):
    v = rng.normal(size=(n, 3))
    v_l = (v / np.linalg.norm(v, axis=1, keepdims=True)).astype(np.float32).astype(np.float64)
    u = rng.normal(size=(n, 3))
    v_u = (u / np.linalg.norm(u, axis=1, keepdims=True)).astype(np.float32).astype(np.float64)
    d_min = rng.uniform(1, 5, n).astype(np.float32).astype(np.float64)
    return DenseMap(
        positions=_f32(rng, n, 3),
        labels=rng.integers(0, 19, n),
        v_l=v_l,
        v_u=v_u,
        theta=rng.uniform(0, 3, n).astype(np.float32).astype(np.float64),
        d_min=d_min,
        d_max=d_min * 2.0,
        support=rng.integers(1, 1000, n),
    )


class TestDenseMapFormat:
    def test_roundtrip_random(self, tmp_path):
        rng = np.random.default_rng(4)
        for i in range(100):
            dm = _random_dense_map(rng, int(rng.integers(0, 40)))
            p = tmp_path / f"m{i}.bin"
            write_dense_map(p, dm)
            back = read_dense_map(p)
            assert np.array_equal(back.positions, dm.positions)
            assert np.array_equal(back.labels, dm.labels)
            assert np.array_equal(back.v_l, dm.v_l)
            assert np.array_equal(back.v_u, dm.v_u)
            assert np.array_equal(back.theta, dm.theta)
            assert np.array_equal(back.d_min, dm.d_min)
            assert np.array_equal(back.d_max, dm.d_max)
            assert np.array_equal(back.support, dm.support)

    def test_support_range_guard(self, tmp_path):
        rng = np.random.default_rng(5)
        dm = _random_dense_map(rng, 2)
        dm.support[0] = 70000
        with pytest.raises(ValueError, match="uint16"):
            write_dense_map(tmp_path / "m.bin", dm)

    def test_corrupt_map_rejected_on_load(self, tmp_path):
        rng = np.random.default_rng(6)
        dm = _random_dense_map(rng, 3)
        dm.labels[1] = 99
        p = tmp_path / "m.bin"
        write_dense_map(p, dm)
        with pytest.raises(DataFormatError, match="labels"):
            read_dense_map(p)
        dm2 = _random_dense_map(rng, 3)
        dm2.d_min[0] = 5.0
        dm2.d_max[0] = 1.0
        write_dense_map(p, dm2)
        with pytest.raises(DataFormatError, match="distance range"):
            read_dense_map(p)


class TestCameraFiles:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(6)
        recs = []
        for i in range(25):
            K = CameraIntrinsics(
                fx=float(rng.uniform(50, 500)), fy=float(rng.uniform(50, 500)),
                cx=float(rng.uniform(0, 99)), cy=float(rng.uniform(0, 99)),
                width=100, height=100,
            )
            recs.append(CameraRecord(f"im{i:03d}", K, random_pose(rng)))
        p = tmp_path / "cameras.txt"
        write_cameras(p, recs)
        back = read_cameras(p)
        assert [r.image_id for r in back] == [r.image_id for r in recs]
        for a, b in zip(recs, back):
            assert a.intrinsics == b.intrinsics
            # pose passes through a quaternion: exact center, rotation to 1e-12
            assert np.array_equal(a.pose.center, b.pose.center)
            assert np.max(np.abs(a.pose.rotation - b.pose.rotation)) < 1e-12

    def test_quaternion_line_roundtrips_exactly(self, tmp_path):
        # the on-disk datum is the quaternion; a loaded file rewrites
        # byte-identically
        rng = np.random.default_rng(7)
        recs = [CameraRecord("a", CameraIntrinsics(100.0, 100.0, 50.0, 50.0, 100, 100),
                             random_pose(rng))]
        p1 = tmp_path / "c1.txt"
        p2 = tmp_path / "c2.txt"
        write_cameras(p1, recs)
        write_cameras(p2, read_cameras(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_duplicate_id_rejected(self, tmp_path):
        rng = np.random.default_rng(8)
        K = CameraIntrinsics(100.0, 100.0, 50.0, 50.0, 100, 100)
        recs = [CameraRecord("a", K, random_pose(rng)), CameraRecord("a", K, random_pose(rng))]
        p = tmp_path / "c.txt"
        write_cameras(p, recs)
        with pytest.raises(DataFormatError, match="duplicate"):
            read_cameras(p)

    def test_field_count_validation(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("a 1 2 3\n")
        with pytest.raises(DataFormatError, match="14 fields"):
            read_cameras(p)


class TestEstimates:
    def test_roundtrip(self, tmp_path):
        from semloc.pipeline import LocalizationResult

        rng = np.random.default_rng(9)
        results = [
            LocalizationResult("q0", "day", random_pose(rng)),
            LocalizationResult("q1", "night", None, failure_reason="no correspondences"),
            LocalizationResult("q2", "day", random_pose(rng)),
        ]
        p = tmp_path / "est.txt"
        write_estimates(p, results)
        est, cond = read_estimates(p)
        assert cond == {"q0": "day", "q1": "night", "q2": "day"}
        assert est["q1"] is None
        assert np.array_equal(est["q0"].center, results[0].pose.center)
        assert np.max(np.abs(est["q0"].rotation - results[0].pose.rotation)) < 1e-12

    def test_rejects_malformed(self, tmp_path):
        p = tmp_path / "est.txt"
        p.write_text("q0 day teleported 1 2 3\n")
        with pytest.raises(DataFormatError, match="kind"):
            read_estimates(p)


class TestDatasetLayout:
    def test_save_load_roundtrip(self, tmp_path, zero_noise_dataset):
        from semloc.formats import load_dataset, save_dataset

        ds = zero_noise_dataset
        root = tmp_path / "data"
        save_dataset(ds, root)
        loaded = load_dataset(root)
        assert [r.image_id for r in loaded.db_records] == [r.image_id for r in ds.db_records]
        assert [q.image_id for q in loaded.queries] == [q.image_id for q in ds.queries]
        ra, rb = ds.db_records[1], loaded.db_records[1]
        assert np.array_equal(ra.depth, rb.depth)
        assert np.array_equal(ra.labels, rb.labels)
        for fam in ra.features:
            # written as float32; loading returns exactly the stored values
            assert np.array_equal(
                ra.features[fam].locations.astype(np.float32),
                rb.features[fam].locations.astype(np.float32),
            )
        for q in ds.queries:
            gt = ds.gt_poses[q.image_id]
            back = loaded.gt_poses[q.image_id]
            assert np.array_equal(gt.center, back.center)
            assert np.max(np.abs(gt.rotation - back.rotation)) < 1e-12

    def test_missing_file_detected(self, tmp_path, zero_noise_dataset):
        from semloc.formats import save_dataset

        root = tmp_path / "data"
        save_dataset(zero_noise_dataset, root)
        victim = next(root.glob("database/*.depth.bin"))
        victim.unlink()
        with pytest.raises(DataFormatError, match="missing referenced files"):
            read_manifest(root)
