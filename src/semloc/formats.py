"""Bit-exact on-disk formats: binary images/features/maps plus small text
files for cameras, manifests, and estimates.

All multi-byte values are little-endian; every binary file starts with a
4-byte magic that doubles as a format version (e.g. ``DMP1``).  Binary
payloads are float32 / uint8 / uint16, so loading returns exactly the
stored values; text files serialize floats with repr(), which round-trips
float64 exactly.

Dataset directory layout::

    root/
      manifest.txt                  ids, conditions, feature families
      database/cameras.txt          one line per image: intrinsics + pose
      database/<id>.depth.bin       DMP1
      database/<id>.labels.bin      LBL1
      database/<id>.gdesc.bin       GDS1
      database/<id>.<family>.feat.bin   FEA1
      queries/cameras.txt           intrinsics + ground-truth pose
      queries/<id>.labels.bin / .gdesc.bin / .<family>.feat.bin

Camera line: ``id fx fy cx cy width height qw qx qy qz cx_w cy_w cz_w``
with a unit world-to-camera quaternion and the camera center in meters.
Quaternions exist only at this file layer; they are converted to rotation
matrices on load.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

from .geometry import CameraIntrinsics, RigidPose, matrix_to_quaternion, quaternion_to_matrix
from .matching import FeatureSet
from .retrieval import GlobalDescriptor, _unit_row
from .semantic_map import (CONDITIONS, MAX_CLASS_ID, UNLABELED, DatabaseImageRecord, DenseMap,
                           QueryImage, label_ids_valid)

__all__ = [
    "DataFormatError",
    "text_lines",
    "key_value_lines",
    "write_depth_map", "read_depth_map",
    "write_label_image", "read_label_image",
    "write_feature_set", "read_feature_set",
    "write_global_descriptor", "read_global_descriptor",
    "write_dense_map", "read_dense_map",
    "CameraRecord",
    "write_cameras", "read_cameras",
    "write_manifest", "read_manifest",
    "DatasetManifest",
    "Dataset", "save_dataset", "load_dataset",
    "write_estimates", "read_estimates",
    "write_report_files",
]


class DataFormatError(ValueError):
    """A file failed validation.  The message starts with the path, then the
    byte offset of a binary file (``path @ byte N``) or the line number of a
    text file (``path:N``), where known."""

    def __init__(self, path, offset: Optional[int], message: str,
                 line: Optional[int] = None) -> None:
        if line is not None:
            where = f"{path}:{line}"
        else:
            where = f"{path}" if offset is None else f"{path} @ byte {offset}"
        super().__init__(f"{where}: {message}")
        self.path = str(path)
        self.offset = offset
        self.line = line


def text_lines(path) -> Iterator[tuple[int, str]]:
    """(line number, text) for each line of a UTF-8 text file, with the text
    after a ``#`` and surrounding whitespace removed; empty results are
    skipped.  Every text file semloc reads goes through here: cameras,
    manifest, estimates, pipeline config and scene spec."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise DataFormatError(path, None, "file not found") from None
    except UnicodeDecodeError:
        raise DataFormatError(path, None, "not UTF-8 text") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def key_value_lines(path, unique: bool = True) -> Iterator[tuple[int, str, str]]:
    """(line number, key, value) for each ``key = value`` line of a text
    file, both sides stripped; the manifest, pipeline config and scene spec
    are read through here.  With unique, a key given twice fails at its
    second line."""
    seen = set()
    for lineno, line in text_lines(path):
        if "=" not in line:
            raise DataFormatError(path, None, "expected 'key = value'", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if unique and key in seen:
            raise DataFormatError(path, None, f"repeated key {key!r}", lineno)
        seen.add(key)
        yield lineno, key, value


class _Reader:
    def __init__(self, path) -> None:
        self.path = Path(path)
        try:
            self.data = self.path.read_bytes()
        except FileNotFoundError:
            raise DataFormatError(path, None, "file not found") from None
        self.pos = 0

    def fail(self, message: str):
        raise DataFormatError(self.path, self.pos, message)

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            self.fail(f"unexpected end of file (need {n} bytes)")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def magic(self, expected: bytes) -> None:
        got = self.take(4)
        if got != expected:
            self.fail(f"bad magic {got!r}, expected {expected!r}")

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def array(self, dtype, count: int) -> np.ndarray:
        dt = np.dtype(dtype)
        raw = self.take(dt.itemsize * count)
        return np.frombuffer(raw, dtype=dt, count=count)

    def done(self) -> None:
        if self.pos != len(self.data):
            self.fail(f"{len(self.data) - self.pos} trailing bytes")


def _write_binary(path, magic: bytes, header: Sequence[int], payload: bytes) -> None:
    """The layout every binary format shares: magic, u32 header, payload."""
    Path(path).write_bytes(magic + struct.pack(f"<{len(header)}I", *header) + payload)


# ── Binary image formats ─────────────────────────────────────────────────


def _write_grid(path, magic: bytes, array: np.ndarray) -> None:
    """One image grid: magic, u32 width, u32 height, row-major values."""
    h, w = array.shape
    _write_binary(path, magic, (w, h), array.tobytes())


def _read_grid(path, magic: bytes, dtype) -> np.ndarray:
    r = _Reader(path)
    r.magic(magic)
    w = r.u32()
    h = r.u32()
    values = r.array(dtype, w * h).reshape(h, w)
    r.done()
    return values.copy()


def write_depth_map(path, depth: np.ndarray) -> None:
    _write_grid(path, b"DMP1", np.ascontiguousarray(depth, dtype="<f4"))


def read_depth_map(path) -> np.ndarray:
    values = _read_grid(path, b"DMP1", "<f4")
    if not np.all(np.isfinite(values)):
        raise DataFormatError(path, None, "depth map contains non-finite values")
    return values


def write_label_image(path, labels: np.ndarray) -> None:
    _write_grid(path, b"LBL1", np.ascontiguousarray(labels, dtype=np.uint8))


def read_label_image(path) -> np.ndarray:
    values = _read_grid(path, b"LBL1", np.uint8)
    if not label_ids_valid(values):
        raise DataFormatError(path, None, f"label ids outside 0..{MAX_CLASS_ID} / {UNLABELED}")
    return values


def _feature_dtype(dim: int) -> np.dtype:
    return np.dtype([("x", "<f4"), ("y", "<f4"), ("descriptor", "<f4", (dim,))])


def write_feature_set(path, features: FeatureSet) -> None:
    name = features.family.encode("utf-8")
    count, dim = features.descriptors.shape
    rec = np.empty(count, dtype=_feature_dtype(dim))
    rec["x"] = features.locations[:, 0]
    rec["y"] = features.locations[:, 1]
    rec["descriptor"] = features.descriptors
    # an empty set is stored with dim 0
    payload = name + struct.pack("<II", count, dim if count else 0) + rec.tobytes()
    _write_binary(path, b"FEA1", (len(name),), payload)


def read_feature_set(path) -> FeatureSet:
    r = _Reader(path)
    r.magic(b"FEA1")
    name_len = r.u32()
    try:
        name = r.take(name_len).decode("utf-8")
    except UnicodeDecodeError:
        raise DataFormatError(path, r.pos - name_len, "family name is not UTF-8") from None
    count = r.u32()
    dim = r.u32()
    if count:
        # The byte count is checked before a huge dim reaches np.dtype.
        raw = r.take(count * 4 * (2 + dim))
        rec = np.frombuffer(raw, dtype=_feature_dtype(dim), count=count)
        # A signalling NaN warns when cast; FeatureSet rejects the NaN below.
        with np.errstate(invalid="ignore"):
            locations = np.stack([rec["x"], rec["y"]], axis=1).astype(np.float64)
            descriptors = rec["descriptor"].astype(np.float64).reshape(count, dim)
    else:
        locations = np.zeros((0, 2))
        descriptors = np.zeros((0, dim))
    r.done()
    try:
        return FeatureSet(family=name, locations=locations, descriptors=descriptors)
    except ValueError as exc:
        raise DataFormatError(path, None, str(exc)) from None


def write_global_descriptor(path, desc: np.ndarray) -> None:
    v = np.ascontiguousarray(desc, dtype="<f4").reshape(-1)
    _write_binary(path, b"GDS1", (len(v),), v.tobytes())


def read_global_descriptor(path) -> np.ndarray:
    r = _Reader(path)
    r.magic(b"GDS1")
    dim = r.u32()
    # A signalling NaN warns when cast; the NaN is returned for the caller to reject.
    with np.errstate(invalid="ignore"):
        values = r.array("<f4", dim).astype(np.float64)
    r.done()
    return values


# One MAP1 point record; the field names are the DenseMap columns.
_MAP_DTYPE = np.dtype(
    [
        ("positions", "<f4", (3,)),
        ("labels", "u1"),
        ("v_l", "<f4", (3,)),
        ("v_u", "<f4", (3,)),
        ("theta", "<f4"),
        ("d_min", "<f4"),
        ("d_max", "<f4"),
        ("support", "<u2"),
    ]
)


def _map_problem(rec: np.ndarray, labels: np.ndarray, support: np.ndarray) -> Optional[str]:
    """Why MAP1 refuses a map, or None.  rec holds the columns as stored;
    labels and support are the integers the file is to hold, which the
    writer takes from the map because the record's uint8 / uint16 wrap."""
    if not all(np.all(np.isfinite(rec[name])) for name in _MAP_DTYPE.names):
        return "map contains non-finite values"
    if np.any((labels < 0) | (labels > MAX_CLASS_ID)):
        return f"map labels outside 0..{MAX_CLASS_ID}"
    if np.any(support < 1):
        return "map support must be >= 1"
    if np.any(support > 0xFFFF):
        return "support exceeds the uint16 range of the map format"
    d_min, d_max, theta = (rec[name].astype(np.float64) for name in ("d_min", "d_max", "theta"))
    if np.any((d_min <= 0) | (d_min > d_max)):
        return "invalid visibility distance range"
    # stored values are float32-quantized; allow that much slack
    if np.any((theta < 0) | (theta > np.pi + 1e-6)):
        return "visible angle outside [0, pi]"
    return None


def write_dense_map(path, dense_map: DenseMap) -> None:
    """Write MAP1; a map that read_dense_map would refuse, or read back with
    other labels or support, raises ValueError and writes nothing."""
    rec = np.empty(len(dense_map), dtype=_MAP_DTYPE)
    with np.errstate(over="ignore"):  # a float32 overflow is refused as non-finite
        for name in _MAP_DTYPE.names:
            rec[name] = getattr(dense_map, name)
    problem = _map_problem(rec, dense_map.labels, dense_map.support)
    if problem:
        raise ValueError(problem)
    _write_binary(path, b"MAP1", (len(rec),), rec.tobytes())


def read_dense_map(path) -> DenseMap:
    r = _Reader(path)
    r.magic(b"MAP1")
    n = r.u32()
    rec = r.array(_MAP_DTYPE, n)
    r.done()
    problem = _map_problem(rec, rec["labels"], rec["support"])
    if problem:
        raise DataFormatError(path, None, problem)
    return DenseMap(**{name: rec[name] for name in _MAP_DTYPE.names})


# ── Text files ───────────────────────────────────────────────────────────


def _pose_fields(pose: RigidPose) -> list[str]:
    """``qw qx qy qz cx cy cz``: world-to-camera quaternion and center."""
    q = matrix_to_quaternion(pose.rotation)
    return [repr(float(v)) for v in (*q, *pose.center)]


def _parse_pose(fields: Sequence[str]) -> RigidPose:
    """Inverse of _pose_fields; raises ValueError on a malformed pose."""
    q = np.array([float(v) for v in fields[:4]])
    c = np.array([float(v) for v in fields[4:]])
    return RigidPose(quaternion_to_matrix(q), c)


@dataclass(frozen=True)
class CameraRecord:
    image_id: str
    intrinsics: CameraIntrinsics
    pose: RigidPose


def write_cameras(path, records: Sequence[CameraRecord]) -> None:
    lines = ["# id fx fy cx cy width height qw qx qy qz cx_w cy_w cz_w"]
    for rec in records:
        k = rec.intrinsics
        intr = [repr(float(v)) for v in (k.fx, k.fy, k.cx, k.cy)] + [str(k.width), str(k.height)]
        lines.append(" ".join([rec.image_id, *intr, *_pose_fields(rec.pose)]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_cameras(path) -> list[CameraRecord]:
    out = []
    seen = set()
    for lineno, line in text_lines(path):
        parts = line.split()
        if len(parts) != 14:
            raise DataFormatError(path, None, f"expected 14 fields, got {len(parts)}", lineno)
        image_id = parts[0]
        if image_id in seen:
            raise DataFormatError(path, None, f"duplicate image id {image_id!r}", lineno)
        seen.add(image_id)
        try:
            fx, fy, cx, cy = (float(v) for v in parts[1:5])
            width, height = int(parts[5]), int(parts[6])
            intr = CameraIntrinsics(fx=fx, fy=fy, cx=cx, cy=cy, width=width, height=height)
            pose = _parse_pose(parts[7:])
        except ValueError as exc:
            raise DataFormatError(path, None, str(exc), lineno) from None
        out.append(CameraRecord(image_id=image_id, intrinsics=intr, pose=pose))
    return out


@dataclass
class DatasetManifest:
    families: list  # (name, dim)
    db_ids: list
    query_ids: list
    conditions: dict  # query id -> day|night


def write_manifest(path, manifest: DatasetManifest) -> None:
    lines = ["# semloc dataset manifest v1"]
    for name, dim in manifest.families:
        lines.append(f"family = {name} {dim}")
    for i in manifest.db_ids:
        lines.append(f"db = {i}")
    for q in manifest.query_ids:
        lines.append(f"query = {q} {manifest.conditions[q]}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_manifest(root) -> DatasetManifest:
    """Parse ``root/manifest.txt``; load_dataset reads the files it names."""
    path = Path(root) / "manifest.txt"
    families: list = []
    db_ids: list = []
    query_ids: list = []
    conditions: dict = {}
    # family, db and query lines each name one item, so their keys repeat
    for lineno, key, val in key_value_lines(path, unique=False):
        parts = val.split()
        if key == "family":
            if len(parts) != 2 or not parts[1].isdecimal():
                raise DataFormatError(path, None, "family needs 'name dim'", lineno)
            if any(name == parts[0] for name, _ in families):
                raise DataFormatError(path, None, f"repeated family {parts[0]!r}", lineno)
            families.append((parts[0], int(parts[1])))
        elif key == "db":
            if len(parts) != 1:
                raise DataFormatError(path, None, "db needs 'id'", lineno)
            db_ids.append(val)
        elif key == "query":
            if len(parts) != 2 or parts[1] not in CONDITIONS:
                raise DataFormatError(path, None, "query needs 'id day|night'", lineno)
            query_ids.append(parts[0])
            conditions[parts[0]] = parts[1]
        else:
            raise DataFormatError(path, None, f"unknown manifest key {key!r}", lineno)
    ids = db_ids + query_ids
    if len(set(ids)) != len(ids):
        raise DataFormatError(path, None, "image ids are not unique")
    return DatasetManifest(
        families=families, db_ids=db_ids, query_ids=query_ids, conditions=conditions,
    )


def write_estimates(path, results: Sequence) -> None:
    """One line per query: pose as quaternion + center, or a failure reason.

    ``results`` holds pipeline.LocalizationResult objects.
    """
    lines = ["# semloc estimates v1"]
    for res in results:
        if res.pose is not None:
            vals = " ".join(_pose_fields(res.pose))
            lines.append(f"{res.query_id} {res.condition} pose {vals}")
        else:
            reason = "_".join((res.failure_reason or "").split()) or "unknown"
            lines.append(f"{res.query_id} {res.condition} failed {reason}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_estimates(path) -> tuple[dict, dict]:
    """Returns (estimates, conditions): query id -> RigidPose | None and
    query id -> condition tag."""
    estimates: dict = {}
    conditions: dict = {}
    for lineno, line in text_lines(path):
        parts = line.split()
        if len(parts) < 4:
            raise DataFormatError(path, None, "short estimate line", lineno)
        qid, condition, kind = parts[0], parts[1], parts[2]
        if condition not in CONDITIONS:
            raise DataFormatError(path, None, f"unknown condition {condition!r}", lineno)
        if qid in estimates:
            raise DataFormatError(path, None, f"duplicate query id {qid!r}", lineno)
        # the fields write_estimates writes: a quaternion and centre, or one reason
        count = {"pose": 10, "failed": 4}.get(kind)
        if count is None:
            raise DataFormatError(path, None, f"unknown record kind {kind!r}", lineno)
        if len(parts) != count:
            raise DataFormatError(path, None, f"{kind} line needs {count} fields", lineno)
        conditions[qid] = condition
        try:
            estimates[qid] = _parse_pose(parts[3:]) if kind == "pose" else None
        except ValueError as exc:
            raise DataFormatError(path, None, str(exc), lineno) from None
    return estimates, conditions


# ── Whole-dataset save / load ────────────────────────────────────────────


@dataclass
class Dataset:
    """Database records, queries, each query's ground-truth pose, and the
    feature families every image holds."""

    db_records: list  # DatabaseImageRecord
    queries: list  # QueryImage
    gt_poses: dict  # query id -> RigidPose
    families: list  # (name, dim)


def _write_image_files(base: Path, image) -> None:
    """Labels, global descriptor and per-family features of one image."""
    write_label_image(base / f"{image.image_id}.labels.bin", image.labels)
    write_global_descriptor(base / f"{image.image_id}.gdesc.bin", image.global_descriptor)
    for fam, fs in image.features.items():
        write_feature_set(base / f"{image.image_id}.{fam}.feat.bin", fs)


def save_dataset(dataset: Dataset, root) -> None:
    """Write a dataset, generated or loaded, in the standard layout."""
    root = Path(root)
    db_dir, query_dir = root / "database", root / "queries"
    db_dir.mkdir(parents=True, exist_ok=True)
    query_dir.mkdir(parents=True, exist_ok=True)

    write_cameras(
        db_dir / "cameras.txt",
        [CameraRecord(r.image_id, r.intrinsics, r.pose) for r in dataset.db_records],
    )
    write_cameras(
        query_dir / "cameras.txt",
        [
            CameraRecord(q.image_id, q.intrinsics, dataset.gt_poses[q.image_id])
            for q in dataset.queries
        ],
    )
    for rec in dataset.db_records:
        write_depth_map(db_dir / f"{rec.image_id}.depth.bin", rec.depth)
        _write_image_files(db_dir, rec)
    for q in dataset.queries:
        _write_image_files(query_dir, q)
    write_manifest(root / "manifest.txt", DatasetManifest(
        families=dataset.families,
        db_ids=[r.image_id for r in dataset.db_records],
        query_ids=[q.image_id for q in dataset.queries],
        conditions={q.image_id: q.condition for q in dataset.queries},
    ))


def _cameras_for(path: Path, image_ids: Sequence[str]) -> list[CameraRecord]:
    """The camera lines of ``image_ids``, in that order."""
    cams = {c.image_id: c for c in read_cameras(path)}
    for image_id in image_ids:
        if image_id not in cams:
            raise DataFormatError(path, None, f"no camera line for {image_id!r}")
    return [cams[i] for i in image_ids]


def _read_sized_grid(read, path: Path, cam: CameraRecord) -> np.ndarray:
    """A depth or label grid, which must have its camera line's size."""
    grid = read(path)
    size = (cam.intrinsics.height, cam.intrinsics.width)
    if grid.shape != size:
        raise DataFormatError(path, None, f"grid shape {grid.shape} != camera size {size}")
    return grid


def _read_image_files(manifest: DatasetManifest, base: Path, cam: CameraRecord) -> dict:
    """Labels, global descriptor and per-family features of one image, as
    keyword arguments of DatabaseImageRecord and QueryImage.  Each feature
    file must hold the family and descriptor dim the manifest declares."""
    features = {}
    for name, dim in manifest.families:
        path = base / f"{cam.image_id}.{name}.feat.bin"
        fs = read_feature_set(path)
        if fs.family != name:
            raise DataFormatError(path, None, f"family {fs.family!r} != manifest entry {name!r}")
        if len(fs) and fs.descriptors.shape[1] != dim:
            got = fs.descriptors.shape[1]
            raise DataFormatError(path, None, f"descriptor dim {got} != manifest dim {dim}")
        features[name] = fs
    return dict(
        labels=_read_sized_grid(read_label_image, base / f"{cam.image_id}.labels.bin", cam),
        global_descriptor=read_global_descriptor(base / f"{cam.image_id}.gdesc.bin"),
        features=features,
    )


def load_dataset(root) -> Dataset:
    """Load a dataset directory, validating dimensions and family names.
    A missing or malformed file raises DataFormatError naming it."""
    root = Path(root)
    manifest = read_manifest(root)
    db_dir, query_dir = root / "database", root / "queries"
    db_records = [
        DatabaseImageRecord(
            image_id=cam.image_id,
            intrinsics=cam.intrinsics,
            pose=cam.pose,
            depth=_read_sized_grid(read_depth_map, db_dir / f"{cam.image_id}.depth.bin", cam),
            **_read_image_files(manifest, db_dir, cam),
        )
        for cam in _cameras_for(db_dir / "cameras.txt", manifest.db_ids)
    ]
    # The retrieval index's checks, run here so that a bad database
    # descriptor names its file; a bad query descriptor fails that query alone.
    for rec in db_records:
        try:
            _unit_row(GlobalDescriptor(rec.image_id, rec.global_descriptor),
                      len(db_records[0].global_descriptor))
        except ValueError as exc:
            raise DataFormatError(db_dir / f"{rec.image_id}.gdesc.bin", None, str(exc)) from None
    query_cams = _cameras_for(query_dir / "cameras.txt", manifest.query_ids)
    queries = [
        QueryImage(
            image_id=cam.image_id,
            intrinsics=cam.intrinsics,
            condition=manifest.conditions[cam.image_id],
            **_read_image_files(manifest, query_dir, cam),
        )
        for cam in query_cams
    ]
    return Dataset(
        db_records=db_records,
        queries=queries,
        gt_poses={cam.image_id: cam.pose for cam in query_cams},
        families=manifest.families,
    )


def write_report_files(out_prefix, report, rendered: str) -> tuple[Path, Path]:
    text_path = Path(str(out_prefix) + ".txt")
    json_path = Path(str(out_prefix) + ".json")
    text_path.write_text(rendered, encoding="utf-8")
    json_path.write_text(
        json.dumps(asdict(report), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return text_path, json_path
