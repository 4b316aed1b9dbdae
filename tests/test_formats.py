"""Binary/text format round-trip and validation tests.

Random instances are generated with float32-representable payloads so
Load(Store(x)) compares exactly equal.
"""

import inspect
import re
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semloc.config import parse_config_file
from semloc.formats import (
    _MAP_DTYPE,
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
    text_lines,
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


# A float32 signalling NaN: casting it to float64 raises numpy's "invalid"
# floating-point flag, a RuntimeWarning.
_SIGNALLING_NAN = struct.pack("<I", 0x7F800001)


def _with_signalling_nan(data: bytes, offset: int) -> bytes:
    return data[:offset] + _SIGNALLING_NAN + data[offset + 4:]


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

    def test_non_utf8_family_name_rejected(self, tmp_path):
        p = tmp_path / "f.bin"
        p.write_bytes(b"FEA1" + struct.pack("<I", 2) + b"\xff\xfe" + struct.pack("<II", 0, 0))
        with pytest.raises(DataFormatError, match="f.bin @ byte 8: family name is not UTF-8"):
            read_feature_set(p)

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

    def test_signalling_nan_rejected(self, tmp_path):
        fs = FeatureSet(family="fam", locations=[[3.0, 4.0], [5.0, 6.0]], descriptors=np.ones((2, 3)))
        p = tmp_path / "f.bin"
        write_feature_set(p, fs)
        clean = p.read_bytes()
        first_x = 4 + 4 + len(b"fam") + 8
        # a location, then a descriptor value
        for offset in (first_x, first_x + 8 + 4):
            p.write_bytes(_with_signalling_nan(clean, offset))
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(DataFormatError, match="f.bin.*non-finite"):
                    read_feature_set(p)

    def test_oversized_dim_rejected_before_dtype(self, tmp_path):
        # count 1, dim 2^29: a record dtype that large is invalid, so the
        # length check must come first
        p = tmp_path / "f.bin"
        p.write_bytes(b"FEA1" + struct.pack("<I", 1) + b"f" + struct.pack("<II", 1, 2**29)
                      + bytes(8))
        assert p.stat().st_size == 25
        with pytest.raises(DataFormatError, match="unexpected end of file"):
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

    def test_signalling_nan_loads(self, tmp_path):
        # the reader returns the NaN; GlobalDescriptor, and so the pipeline's
        # per-query "bad global descriptor" failure, rejects it
        p = tmp_path / "g.bin"
        write_global_descriptor(p, np.ones(4))
        p.write_bytes(_with_signalling_nan(p.read_bytes(), 8 + 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            values = read_global_descriptor(p)
        assert np.array_equal(np.isnan(values), [False, True, False, False])


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


_DENSE_MAP_COLUMNS = tuple(inspect.signature(DenseMap).parameters)


def _corrupted(dm, column, index, value):
    """A DenseMap equal to dm but for column[index] = value."""
    columns = {name: getattr(dm, name).copy() for name in _DENSE_MAP_COLUMNS}
    columns[column][index] = value
    return DenseMap(**columns)


def _write_patched_map(path, dm, stored):
    """A valid MAP1 file of dm whose bytes then hold, for each column, the
    value stored[column] = (row, value) at that row."""
    write_dense_map(path, dm)
    data = bytearray(path.read_bytes())
    rec = np.frombuffer(data, dtype=_MAP_DTYPE, count=len(dm), offset=8)
    for column, (row, value) in stored.items():
        rec[column][row] = value
    path.write_bytes(data)


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
        # the writer refuses every map whose file the reader would refuse or
        # read back with other values: the uint8 labels and uint16 support
        # would wrap (274 -> 18, -1 -> 65535), and float32 would round a
        # distance to 0 or overflow to inf; it writes nothing then
        rng = np.random.default_rng(5)
        p = tmp_path / "m.bin"
        for column, value, message in [
            ("support", 70000, "uint16"),
            ("support", -1, ">= 1"),
            ("support", 0, ">= 1"),
            ("labels", 274, "labels"),
            ("labels", 19, "labels"),
            ("labels", 255, "labels"),
            ("labels", 300, "labels"),
            ("labels", -1, "labels"),
            ("d_min", 1e-50, "distance range"),
            ("d_max", 1e39, "non-finite"),
            ("theta", 3.5, "angle"),
        ]:
            dm = _corrupted(_random_dense_map(rng, 2), column, 0, value)
            with pytest.raises(ValueError, match=message):
                write_dense_map(p, dm)
            assert not p.exists()

    def test_corrupt_map_rejected_on_load(self, tmp_path):
        rng = np.random.default_rng(6)
        p = tmp_path / "m.bin"
        _write_patched_map(p, _random_dense_map(rng, 3), {"labels": (1, 99)})
        with pytest.raises(DataFormatError, match="labels"):
            read_dense_map(p)
        _write_patched_map(p, _random_dense_map(rng, 3), {"d_min": (0, 5.0), "d_max": (0, 1.0)})
        with pytest.raises(DataFormatError, match="distance range"):
            read_dense_map(p)

    def test_columns_are_read_only(self):
        # the map caches a k-d tree over its positions, so a column written
        # in place would leave the tree stale
        dm = _random_dense_map(np.random.default_rng(7), 3)
        for name in _DENSE_MAP_COLUMNS + ("v_m",):
            with pytest.raises(ValueError, match="read-only"):
                getattr(dm, name)[0] = 0
        assert dm.position_tree.query_ball_point(dm.positions[1], 1e-9) == [1]


def _writer_made_files() -> dict:
    """One small file of each binary format as its writer makes it, by magic."""
    rng = np.random.default_rng(9)
    made = {
        b"DMP1": (write_depth_map, rng.uniform(0.5, 9.0, (3, 4))),
        b"LBL1": (write_label_image, rng.integers(0, 19, (3, 4))),
        b"FEA1": (write_feature_set,
                  FeatureSet("fam", _f32(rng, 3, 2, low=0, high=100), _f32(rng, 3, 4))),
        b"GDS1": (write_global_descriptor, _f32(rng, 8)),
        b"MAP1": (write_dense_map, _random_dense_map(rng, 3)),
    }
    files = {}
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "f.bin"
        for magic, (write, value) in made.items():
            write(path, value)
            files[magic] = path.read_bytes()
    return files


_WRITER_MADE = _writer_made_files()

# Each format's reader, and the float arrays a loaded file holds that must
# be finite; a GDS1 may hold non-finite values, which GlobalDescriptor rejects.
_READERS = {
    b"DMP1": (read_depth_map, lambda depth: [depth]),
    b"LBL1": (read_label_image, lambda labels: []),
    b"FEA1": (read_feature_set, lambda fs: [fs.locations, fs.descriptors]),
    b"GDS1": (read_global_descriptor, lambda values: []),
    b"MAP1": (read_dense_map, lambda m: [m.positions, m.v_l, m.v_u, m.theta, m.d_min, m.d_max]),
}


@st.composite
def damaged_files(draw):
    """(magic, bytes): a writer-made file cut short or with 1-3 bits flipped."""
    magic = draw(st.sampled_from(sorted(_WRITER_MADE)))
    data = bytearray(_WRITER_MADE[magic])
    if draw(st.booleans()):
        return magic, bytes(data[: draw(st.integers(0, len(data) - 1))])
    for bit in draw(st.lists(st.integers(0, 8 * len(data) - 1), min_size=1, max_size=3,
                             unique=True)):
        data[bit // 8] ^= 1 << (bit % 8)
    return magic, bytes(data)


@pytest.fixture(scope="module")
def damaged_path(tmp_path_factory):
    return tmp_path_factory.mktemp("damaged") / "f.bin"


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(damaged_files())
# the first location of the FEA1 file and the first value of the GDS1 file
@example((b"FEA1", _with_signalling_nan(_WRITER_MADE[b"FEA1"], 4 + 4 + 3 + 8)))
@example((b"GDS1", _with_signalling_nan(_WRITER_MADE[b"GDS1"], 8)))
def test_damaged_binary_file_fails_cleanly_or_loads(damaged_path, damaged):
    magic, data = damaged
    damaged_path.write_bytes(data)
    read, float_arrays = _READERS[magic]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            loaded = read(damaged_path)
        except DataFormatError:
            return
    assert all(np.isfinite(a).all() for a in float_arrays(loaded))


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
        # this seed-7 pose's camera line survives a read and rewrite byte
        # for byte.  Not every pose's does: matrix_to_quaternion(
        # quaternion_to_matrix(q)) differs from q in the last bit for
        # about 44% of random poses
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

    def test_every_failure_reason_writes_one_field(self, tmp_path):
        # whitespace inside a reason becomes "_", and an empty reason is
        # "unknown", so each failure line has the 4 fields the reader needs
        from semloc.pipeline import LocalizationResult

        reasons = ["no consensus", "a\tb\nc  d ", "   ", "", None]
        results = [LocalizationResult(f"q{i}", "day", None, failure_reason=r)
                   for i, r in enumerate(reasons)]
        p = tmp_path / "est.txt"
        write_estimates(p, results)
        assert p.read_text().splitlines()[1:] == [
            "q0 day failed no_consensus", "q1 day failed a_b_c_d", "q2 day failed unknown",
            "q3 day failed unknown", "q4 day failed unknown"]
        assert read_estimates(p)[0] == {f"q{i}": None for i in range(len(reasons))}

    def test_rejects_malformed(self, tmp_path):
        p = tmp_path / "est.txt"
        p.write_text("q0 day teleported 1 2 3\n")
        with pytest.raises(DataFormatError, match="kind"):
            read_estimates(p)

    @pytest.mark.parametrize("line, fields", [
        ("q000 day failed no_consensus trailing junk 1 2", 4),
        ("q000 day failed no consensus", 4),
        ("q000 day pose 1 0 0 0 1 2", 10),
        ("q000 day pose 1 0 0 0 1 2 3 4", 10),
    ], ids=["failed-trailing-fields", "failed-two-word-reason", "pose-short", "pose-long"])
    def test_rejects_a_line_with_another_field_count(self, tmp_path, line, fields):
        # a line holds exactly the fields write_estimates writes for its kind
        p = tmp_path / "est.txt"
        p.write_text(f"q001 night failed no_consensus\n{line}\n")
        kind = line.split()[2]
        with pytest.raises(DataFormatError, match=rf"est\.txt:2: {kind} line needs {fields} fields"):
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

        # a loaded dataset saves again: every file but the camera lines
        # (whose quaternions may move in the last bit) is byte-identical
        again = tmp_path / "again"
        save_dataset(loaded, again)
        files = sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(again) for p in again.rglob("*") if p.is_file())
        for rel in files:
            if rel.name != "cameras.txt":
                assert (root / rel).read_bytes() == (again / rel).read_bytes(), rel
        reloaded = load_dataset(again)
        pairs = [(a.pose, b.pose) for a, b in zip(loaded.db_records, reloaded.db_records)]
        pairs += [(loaded.gt_poses[q], reloaded.gt_poses[q]) for q in loaded.gt_poses]
        assert len(pairs) == len(ds.db_records) + len(ds.queries)
        for a, b in pairs:
            assert np.array_equal(a.center, b.center)
            assert np.max(np.abs(a.rotation - b.rotation)) < 1e-12

    def test_missing_file_detected(self, tmp_path, zero_noise_dataset):
        from semloc.formats import load_dataset, save_dataset

        root = tmp_path / "data"
        save_dataset(zero_noise_dataset, root)
        victim = next(root.glob("database/*.depth.bin"))
        victim.unlink()
        with pytest.raises(DataFormatError, match=re.escape(f"{victim}: file not found")):
            load_dataset(root)

    def test_non_integer_family_dim_rejected(self, tmp_path, zero_noise_dataset):
        from semloc.formats import load_dataset, save_dataset

        root = tmp_path / "data"
        save_dataset(zero_noise_dataset, root)
        path = root / "manifest.txt"
        path.write_text(path.read_text().replace("family = corner 16", "family = corner x"))
        with pytest.raises(DataFormatError, match=re.escape(f"{path}:2: family needs")):
            load_dataset(root)

    def test_query_descriptor_dim_checked(self, tmp_path, zero_noise_dataset):
        # a query feature file must hold the manifest's descriptor dim, as a
        # database one must
        from semloc.formats import load_dataset, save_dataset

        root = tmp_path / "data"
        save_dataset(zero_noise_dataset, root)
        path = root / "queries" / "q003.corner.feat.bin"
        fs = read_feature_set(path)
        write_feature_set(path, FeatureSet("corner", fs.locations, fs.descriptors[:, :8]))
        message = f"{path}: descriptor dim 8 != manifest dim 16"
        with pytest.raises(DataFormatError, match=re.escape(message)):
            load_dataset(root)


@pytest.mark.parametrize("rel_path,write", [
    ("database/db003.labels.bin", lambda p: write_label_image(p, np.zeros((10, 10), np.uint8))),
    ("database/db001.depth.bin", lambda p: write_depth_map(p, np.ones((7, 9), np.float32))),
    ("queries/q002.labels.bin", lambda p: write_label_image(p, np.zeros((12, 5), np.uint8))),
])
def test_grid_size_checked_against_camera(tmp_path, zero_noise_dataset, rel_path, write):
    from semloc.formats import load_dataset, save_dataset

    root = tmp_path / "data"
    save_dataset(zero_noise_dataset, root)
    write(root / rel_path)
    with pytest.raises(DataFormatError, match=re.escape(f"{root / rel_path}: grid shape")):
        load_dataset(root)


@pytest.mark.parametrize("case", ["non-finite", "zero-norm", "wrong-length"])
def test_bad_database_descriptor_names_its_file(tmp_path, zero_noise_dataset, case):
    # a database descriptor that the retrieval index would refuse fails the
    # load at its file, while a query's loads and fails that query alone
    from semloc.formats import load_dataset, save_dataset

    root = tmp_path / "data"
    save_dataset(zero_noise_dataset, root)
    good = read_global_descriptor(root / "database" / "db003.gdesc.bin")
    bad, message = {
        "non-finite": (np.where(np.arange(len(good)) == 5, np.nan, good),
                       "descriptor contains non-finite values"),
        "zero-norm": (np.zeros_like(good), "zero-norm descriptor cannot be normalized"),
        "wrong-length": (good[:3], f"dimension 3 != index dimension {len(good)}"),
    }[case]
    write_global_descriptor(root / "queries" / "q001.gdesc.bin", bad)
    assert len(load_dataset(root).queries[1].global_descriptor) == len(bad)
    path = root / "database" / "db003.gdesc.bin"
    write_global_descriptor(path, bad)
    with pytest.raises(DataFormatError, match=re.escape(f"{path}: db003: {message}")):
        load_dataset(root)


class TestTextFiles:
    def test_error_names_line_not_byte(self, tmp_path):
        (tmp_path / "manifest.txt").write_text("family = corner 16\nframes = 3\n")
        with pytest.raises(DataFormatError) as info:
            read_manifest(tmp_path)
        assert str(info.value) == f"{tmp_path / 'manifest.txt'}:2: unknown manifest key 'frames'"
        assert (info.value.line, info.value.offset) == (2, None)

    def test_repeated_family_fails_at_its_second_line(self, tmp_path):
        # a second declaration would read every file of that family twice
        (tmp_path / "manifest.txt").write_text(
            "family = corner 16\nfamily = line 8\ndb = db000\nfamily = corner 16\n"
        )
        with pytest.raises(DataFormatError) as info:
            read_manifest(tmp_path)
        assert str(info.value) == f"{tmp_path / 'manifest.txt'}:4: repeated family 'corner'"

    @pytest.mark.parametrize("value", ["db003 db004", ""], ids=["two-ids", "empty"])
    def test_db_line_names_one_id(self, tmp_path, value):
        # a bad db line fails at its own line, not as a missing camera line
        (tmp_path / "manifest.txt").write_text(f"family = corner 16\ndb = db000\ndb = {value}\n")
        with pytest.raises(DataFormatError) as info:
            read_manifest(tmp_path)
        assert str(info.value) == f"{tmp_path / 'manifest.txt'}:3: db needs 'id'"

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataFormatError, match="nowhere.txt: file not found"):
            list(text_lines(tmp_path / "nowhere.txt"))

    def test_non_utf8_rejected(self, tmp_path):
        p = tmp_path / "cameras.txt"
        p.write_bytes(b"a \xff\xfe 1\n")
        with pytest.raises(DataFormatError, match="not UTF-8"):
            read_cameras(p)


def _camera_text(tmp_path):
    rng = np.random.default_rng(10)
    K = CameraIntrinsics(100.0, 90.0, 50.0, 40.0, 100, 80)
    p = tmp_path / "write.txt"
    write_cameras(p, [CameraRecord(i, K, random_pose(rng)) for i in ("a", "b")])
    return p.read_text()


def _estimates_text(tmp_path):
    from semloc.pipeline import LocalizationResult

    rng = np.random.default_rng(11)
    p = tmp_path / "write.txt"
    write_estimates(p, [LocalizationResult("q0", "day", random_pose(rng)),
                        LocalizationResult("q1", "night", None, failure_reason="no consensus")])
    return p.read_text()


def _poses(poses: dict):
    return {k: None if v is None else (v.rotation.tolist(), v.center.tolist())
            for k, v in poses.items()}


def _scene(path):
    from semloc.synthetic import parse_scene_spec_file

    spec = parse_scene_spec_file(path)
    return (spec.seed, spec.intrinsics, len(spec.db_poses), spec.query_conditions)


# reader name -> (file name, clean text, read to a comparable value)
_TEXT_READERS = {
    "cameras": ("cameras.txt", _camera_text, lambda p: [
        (c.image_id, c.intrinsics, c.pose.rotation.tolist(), c.pose.center.tolist())
        for c in read_cameras(p)]),
    "manifest": ("manifest.txt", lambda _: "family = corner 16\ndb = db000\nquery = q000 night\n",
                 lambda p: vars(read_manifest(p.parent))),
    "estimates": ("est.txt", _estimates_text,
                  lambda p: (_poses(read_estimates(p)[0]), read_estimates(p)[1])),
    "config": ("config.txt", lambda _: "seed = 3\nmap.unstable_classes = 10,13\n", parse_config_file),
    "scene spec": ("scene.txt", lambda _: "preset = canyon\nn_db = 4\nn_queries = 2\nseed = 5\n",
                   _scene),
}


@pytest.mark.parametrize("reader", sorted(_TEXT_READERS))
def test_text_readers_skip_blank_lines_and_comments(tmp_path, reader):
    name, text, read = _TEXT_READERS[reader]
    clean = text(tmp_path)
    noisy = "".join(f"\n   \n# note\n{line}\t# trailing = comment\n" for line in clean.splitlines())
    (tmp_path / "clean").mkdir()
    (tmp_path / "noisy").mkdir()
    (tmp_path / "clean" / name).write_text(clean)
    (tmp_path / "noisy" / name).write_text(noisy)
    assert read(tmp_path / "noisy" / name) == read(tmp_path / "clean" / name)
