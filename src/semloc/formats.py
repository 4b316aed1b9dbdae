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
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .geometry import (
    CameraIntrinsics,
    RigidPose,
    matrix_to_quaternion,
    quaternion_to_matrix,
)
from .matching import FeatureSet
from .semantic_map import DatabaseImageRecord, DenseMap, QueryImage

__all__ = [
    "DataFormatError",
    "write_depth_map", "read_depth_map",
    "write_label_image", "read_label_image",
    "write_feature_set", "read_feature_set",
    "write_global_descriptor", "read_global_descriptor",
    "write_dense_map", "read_dense_map",
    "CameraRecord",
    "write_cameras", "read_cameras",
    "write_manifest", "read_manifest",
    "DatasetManifest",
    "save_dataset", "load_dataset", "LoadedDataset",
    "write_estimates", "read_estimates",
    "write_report_files",
]


class DataFormatError(ValueError):
    """A file failed validation; message carries path and byte offset."""

    def __init__(self, path, offset: Optional[int], message: str) -> None:
        where = f"{path}" if offset is None else f"{path} @ byte {offset}"
        super().__init__(f"{where}: {message}")
        self.path = str(path)
        self.offset = offset


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


# ── Binary image formats ─────────────────────────────────────────────────


def write_depth_map(path, depth: np.ndarray) -> None:
    d = np.ascontiguousarray(depth, dtype="<f4")
    h, w = d.shape
    with open(path, "wb") as fh:
        fh.write(b"DMP1")
        fh.write(struct.pack("<II", w, h))
        fh.write(d.tobytes())


def read_depth_map(path) -> np.ndarray:
    r = _Reader(path)
    r.magic(b"DMP1")
    w = r.u32()
    h = r.u32()
    values = r.array("<f4", w * h).reshape(h, w)
    r.done()
    if not np.all(np.isfinite(values)):
        raise DataFormatError(path, None, "depth map contains non-finite values")
    return values.copy()


def write_label_image(path, labels: np.ndarray) -> None:
    lab = np.ascontiguousarray(labels, dtype=np.uint8)
    h, w = lab.shape
    with open(path, "wb") as fh:
        fh.write(b"LBL1")
        fh.write(struct.pack("<II", w, h))
        fh.write(lab.tobytes())


def read_label_image(path) -> np.ndarray:
    r = _Reader(path)
    r.magic(b"LBL1")
    w = r.u32()
    h = r.u32()
    values = r.array(np.uint8, w * h).reshape(h, w)
    r.done()
    bad = ~((values <= 18) | (values == 255))
    if np.any(bad):
        raise DataFormatError(path, None, "label ids outside 0..18 / 255")
    return values.copy()


def write_feature_set(path, features: FeatureSet) -> None:
    name = features.family.encode("utf-8")
    count = len(features)
    dim = features.descriptors.shape[1] if count else 0
    dt = np.dtype([("x", "<f4"), ("y", "<f4"), ("descriptor", "<f4", (max(dim, 1),))])
    with open(path, "wb") as fh:
        fh.write(b"FEA1")
        fh.write(struct.pack("<I", len(name)))
        fh.write(name)
        fh.write(struct.pack("<II", count, dim))
        if count:
            rec = np.empty(count, dtype=dt)
            rec["x"] = features.locations[:, 0].astype("<f4")
            rec["y"] = features.locations[:, 1].astype("<f4")
            rec["descriptor"] = features.descriptors.astype("<f4")
            fh.write(rec.tobytes())


def read_feature_set(path) -> FeatureSet:
    r = _Reader(path)
    r.magic(b"FEA1")
    name_len = r.u32()
    name = r.take(name_len).decode("utf-8")
    count = r.u32()
    dim = r.u32()
    if count:
        dt = np.dtype([("x", "<f4"), ("y", "<f4"), ("descriptor", "<f4", (dim,))])
        rec = r.array(dt, count)
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
    with open(path, "wb") as fh:
        fh.write(b"GDS1")
        fh.write(struct.pack("<I", len(v)))
        fh.write(v.tobytes())


def read_global_descriptor(path) -> np.ndarray:
    r = _Reader(path)
    r.magic(b"GDS1")
    dim = r.u32()
    values = r.array("<f4", dim).astype(np.float64)
    r.done()
    return values


_MAP_DTYPE = np.dtype(
    [
        ("position", "<f4", (3,)),
        ("label", "u1"),
        ("v_l", "<f4", (3,)),
        ("v_u", "<f4", (3,)),
        ("theta", "<f4"),
        ("d_min", "<f4"),
        ("d_max", "<f4"),
        ("support", "<u2"),
    ]
)


def write_dense_map(path, dense_map: DenseMap) -> None:
    n = len(dense_map)
    if n and int(dense_map.support.max()) > 0xFFFF:
        raise ValueError("support exceeds the uint16 range of the map format")
    rec = np.empty(n, dtype=_MAP_DTYPE)
    rec["position"] = dense_map.positions.astype("<f4")
    rec["label"] = dense_map.labels.astype(np.uint8)
    rec["v_l"] = dense_map.v_l.astype("<f4")
    rec["v_u"] = dense_map.v_u.astype("<f4")
    rec["theta"] = dense_map.theta.astype("<f4")
    rec["d_min"] = dense_map.d_min.astype("<f4")
    rec["d_max"] = dense_map.d_max.astype("<f4")
    rec["support"] = dense_map.support.astype(np.uint16)
    with open(path, "wb") as fh:
        fh.write(b"MAP1")
        fh.write(struct.pack("<I", n))
        fh.write(rec.tobytes())


def read_dense_map(path) -> DenseMap:
    r = _Reader(path)
    r.magic(b"MAP1")
    n = r.u32()
    rec = r.array(_MAP_DTYPE, n)
    r.done()
    dense_map = DenseMap(
        positions=rec["position"].astype(np.float64).reshape(n, 3),
        labels=rec["label"].astype(np.int64),
        v_l=rec["v_l"].astype(np.float64).reshape(n, 3),
        v_u=rec["v_u"].astype(np.float64).reshape(n, 3),
        theta=rec["theta"].astype(np.float64),
        d_min=rec["d_min"].astype(np.float64),
        d_max=rec["d_max"].astype(np.float64),
        support=rec["support"].astype(np.int64),
    )
    if n:
        finite = all(
            np.all(np.isfinite(a))
            for a in (dense_map.positions, dense_map.v_l, dense_map.v_u,
                      dense_map.theta, dense_map.d_min, dense_map.d_max)
        )
        if not finite:
            raise DataFormatError(path, None, "map contains non-finite values")
        if np.any(dense_map.labels > 18):
            raise DataFormatError(path, None, "map labels outside 0..18")
        if np.any(dense_map.support < 1):
            raise DataFormatError(path, None, "map support must be >= 1")
        bad_range = (dense_map.d_min <= 0) | (dense_map.d_min > dense_map.d_max)
        if np.any(bad_range):
            raise DataFormatError(path, None, "invalid visibility distance range")
        # stored values are float32-quantized; allow that much slack
        if np.any((dense_map.theta < 0) | (dense_map.theta > np.pi + 1e-6)):
            raise DataFormatError(path, None, "visible angle outside [0, pi]")
    return dense_map


# ── Camera text files ────────────────────────────────────────────────────


@dataclass(frozen=True)
class CameraRecord:
    image_id: str
    intrinsics: CameraIntrinsics
    pose: RigidPose


def write_cameras(path, records: Sequence[CameraRecord]) -> None:
    lines = ["# id fx fy cx cy width height qw qx qy qz cx_w cy_w cz_w"]
    for rec in records:
        k = rec.intrinsics
        q = matrix_to_quaternion(rec.pose.rotation)
        c = rec.pose.center
        parts = [rec.image_id] + [
            repr(float(v))
            for v in (k.fx, k.fy, k.cx, k.cy)
        ] + [str(k.width), str(k.height)] + [repr(float(v)) for v in (*q, *c)]
        lines.append(" ".join(parts))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_cameras(path) -> list[CameraRecord]:
    out = []
    seen = set()
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise DataFormatError(path, None, "file not found") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 14:
            raise DataFormatError(path, lineno, f"expected 14 fields, got {len(parts)}")
        image_id = parts[0]
        if image_id in seen:
            raise DataFormatError(path, lineno, f"duplicate image id {image_id!r}")
        seen.add(image_id)
        try:
            fx, fy, cx, cy = (float(v) for v in parts[1:5])
            width, height = int(parts[5]), int(parts[6])
            q = np.array([float(v) for v in parts[7:11]])
            c = np.array([float(v) for v in parts[11:14]])
            intr = CameraIntrinsics(fx=fx, fy=fy, cx=cx, cy=cy, width=width, height=height)
            pose = RigidPose(quaternion_to_matrix(q), c)
        except ValueError as exc:
            raise DataFormatError(path, lineno, str(exc)) from None
        out.append(CameraRecord(image_id=image_id, intrinsics=intr, pose=pose))
    return out


# ── Manifest ─────────────────────────────────────────────────────────────


@dataclass
class DatasetManifest:
    root: Path
    families: list  # (name, dim)
    db_ids: list
    query_ids: list
    conditions: dict  # query id -> day|night

    def db_dir(self) -> Path:
        return self.root / "database"

    def query_dir(self) -> Path:
        return self.root / "queries"


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
    root = Path(root)
    path = root / "manifest.txt"
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise DataFormatError(path, None, "file not found") from None
    families: list = []
    db_ids: list = []
    query_ids: list = []
    conditions: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataFormatError(path, lineno, "expected 'key = value'")
        key, val = (part.strip() for part in line.split("=", 1))
        if key == "family":
            parts = val.split()
            if len(parts) != 2:
                raise DataFormatError(path, lineno, "family needs 'name dim'")
            families.append((parts[0], int(parts[1])))
        elif key == "db":
            db_ids.append(val)
        elif key == "query":
            parts = val.split()
            if len(parts) != 2 or parts[1] not in ("day", "night"):
                raise DataFormatError(path, lineno, "query needs 'id day|night'")
            query_ids.append(parts[0])
            conditions[parts[0]] = parts[1]
        else:
            raise DataFormatError(path, lineno, f"unknown manifest key {key!r}")
    ids = db_ids + query_ids
    if len(set(ids)) != len(ids):
        raise DataFormatError(path, None, "image ids are not unique")
    manifest = DatasetManifest(
        root=root, families=families, db_ids=db_ids, query_ids=query_ids,
        conditions=conditions,
    )
    _validate_manifest_files(manifest)
    return manifest


def _dataset_paths(manifest: DatasetManifest, image_id: str, is_query: bool) -> dict:
    base = manifest.query_dir() if is_query else manifest.db_dir()
    paths = {
        "labels": base / f"{image_id}.labels.bin",
        "gdesc": base / f"{image_id}.gdesc.bin",
    }
    if not is_query:
        paths["depth"] = base / f"{image_id}.depth.bin"
    for name, _dim in manifest.families:
        paths[f"feat:{name}"] = base / f"{image_id}.{name}.feat.bin"
    return paths


def _validate_manifest_files(manifest: DatasetManifest) -> None:
    missing = []
    for d in (manifest.db_dir() / "cameras.txt", manifest.query_dir() / "cameras.txt"):
        if not d.exists():
            missing.append(str(d))
    for image_id in manifest.db_ids:
        for p in _dataset_paths(manifest, image_id, is_query=False).values():
            if not p.exists():
                missing.append(str(p))
    for image_id in manifest.query_ids:
        for p in _dataset_paths(manifest, image_id, is_query=True).values():
            if not p.exists():
                missing.append(str(p))
    if missing:
        raise DataFormatError(
            manifest.root / "manifest.txt", None,
            f"missing referenced files: {missing[:5]}{'...' if len(missing) > 5 else ''}",
        )


# ── Whole-dataset save / load ────────────────────────────────────────────


@dataclass
class LoadedDataset:
    manifest: DatasetManifest
    db_records: list
    queries: list
    gt_poses: dict


def save_dataset(dataset, root) -> None:
    """Write a generated synthetic dataset in the standard layout."""
    root = Path(root)
    (root / "database").mkdir(parents=True, exist_ok=True)
    (root / "queries").mkdir(parents=True, exist_ok=True)

    fams = [(f.name, f.dim) for f in dataset.spec.families]
    manifest = DatasetManifest(
        root=root,
        families=fams,
        db_ids=[r.image_id for r in dataset.db_records],
        query_ids=[q.image_id for q in dataset.queries],
        conditions={q.image_id: q.condition for q in dataset.queries},
    )

    write_cameras(
        root / "database" / "cameras.txt",
        [CameraRecord(r.image_id, r.intrinsics, r.pose) for r in dataset.db_records],
    )
    write_cameras(
        root / "queries" / "cameras.txt",
        [
            CameraRecord(q.image_id, q.intrinsics, dataset.gt_poses[q.image_id])
            for q in dataset.queries
        ],
    )
    for rec in dataset.db_records:
        base = root / "database"
        write_depth_map(base / f"{rec.image_id}.depth.bin", rec.depth)
        write_label_image(base / f"{rec.image_id}.labels.bin", rec.labels)
        write_global_descriptor(base / f"{rec.image_id}.gdesc.bin", rec.global_descriptor)
        for fam, fs in rec.features.items():
            write_feature_set(base / f"{rec.image_id}.{fam}.feat.bin", fs)
    for q in dataset.queries:
        base = root / "queries"
        write_label_image(base / f"{q.image_id}.labels.bin", q.labels)
        write_global_descriptor(base / f"{q.image_id}.gdesc.bin", q.global_descriptor)
        for fam, fs in q.features.items():
            write_feature_set(base / f"{q.image_id}.{fam}.feat.bin", fs)
    write_manifest(root / "manifest.txt", manifest)


def load_dataset(root) -> LoadedDataset:
    """Load a dataset directory, validating dimensions and family names."""
    manifest = read_manifest(root)
    db_cams = {c.image_id: c for c in read_cameras(manifest.db_dir() / "cameras.txt")}
    q_cams = {c.image_id: c for c in read_cameras(manifest.query_dir() / "cameras.txt")}

    db_records = []
    for image_id in manifest.db_ids:
        if image_id not in db_cams:
            raise DataFormatError(
                manifest.db_dir() / "cameras.txt", None, f"no camera line for {image_id!r}"
            )
        cam = db_cams[image_id]
        paths = _dataset_paths(manifest, image_id, is_query=False)
        features = {}
        for name, dim in manifest.families:
            fs = read_feature_set(paths[f"feat:{name}"])
            if fs.family != name:
                raise DataFormatError(
                    paths[f"feat:{name}"], None,
                    f"family {fs.family!r} does not match manifest entry {name!r}",
                )
            if len(fs) and fs.descriptors.shape[1] != dim:
                raise DataFormatError(
                    paths[f"feat:{name}"], None,
                    f"descriptor dim {fs.descriptors.shape[1]} != manifest dim {dim}",
                )
            features[name] = fs
        db_records.append(
            DatabaseImageRecord(
                image_id=image_id,
                intrinsics=cam.intrinsics,
                pose=cam.pose,
                depth=read_depth_map(paths["depth"]),
                labels=read_label_image(paths["labels"]),
                global_descriptor=read_global_descriptor(paths["gdesc"]),
                features=features,
            )
        )

    queries = []
    gt_poses = {}
    for image_id in manifest.query_ids:
        if image_id not in q_cams:
            raise DataFormatError(
                manifest.query_dir() / "cameras.txt", None, f"no camera line for {image_id!r}"
            )
        cam = q_cams[image_id]
        paths = _dataset_paths(manifest, image_id, is_query=True)
        features = {}
        for name, dim in manifest.families:
            fs = read_feature_set(paths[f"feat:{name}"])
            if fs.family != name:
                raise DataFormatError(
                    paths[f"feat:{name}"], None,
                    f"family {fs.family!r} does not match manifest entry {name!r}",
                )
            features[name] = fs
        queries.append(
            QueryImage(
                image_id=image_id,
                intrinsics=cam.intrinsics,
                labels=read_label_image(paths["labels"]),
                global_descriptor=read_global_descriptor(paths["gdesc"]),
                features=features,
                condition=manifest.conditions[image_id],
            )
        )
        gt_poses[image_id] = cam.pose
    return LoadedDataset(
        manifest=manifest, db_records=db_records, queries=queries, gt_poses=gt_poses
    )


# ── Estimates and reports ────────────────────────────────────────────────


def write_estimates(path, results: Sequence) -> None:
    """One line per query: pose as quaternion + center, or a failure reason.

    ``results`` holds pipeline.LocalizationResult objects.
    """
    lines = ["# semloc estimates v1"]
    for res in results:
        if res.pose is not None:
            q = matrix_to_quaternion(res.pose.rotation)
            c = res.pose.center
            vals = " ".join(repr(float(v)) for v in (*q, *c))
            lines.append(f"{res.query_id} {res.condition} pose {vals}")
        else:
            reason = (res.failure_reason or "unknown").replace(" ", "_")
            lines.append(f"{res.query_id} {res.condition} failed {reason}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_estimates(path) -> tuple[dict, dict]:
    """Returns (estimates, conditions): query id -> RigidPose | None and
    query id -> condition tag."""
    estimates: dict = {}
    conditions: dict = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise DataFormatError(path, None, "file not found") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < 4:
            raise DataFormatError(path, lineno, "short estimate line")
        qid, condition, kind = parts[0], parts[1], parts[2]
        if condition not in ("day", "night"):
            raise DataFormatError(path, lineno, f"unknown condition {condition!r}")
        if qid in estimates:
            raise DataFormatError(path, lineno, f"duplicate query id {qid!r}")
        conditions[qid] = condition
        if kind == "pose":
            if len(parts) != 10:
                raise DataFormatError(path, lineno, "pose line needs 7 numbers")
            try:
                q = np.array([float(v) for v in parts[3:7]])
                c = np.array([float(v) for v in parts[7:10]])
                estimates[qid] = RigidPose(quaternion_to_matrix(q), c)
            except ValueError as exc:
                raise DataFormatError(path, lineno, str(exc)) from None
        elif kind == "failed":
            estimates[qid] = None
        else:
            raise DataFormatError(path, lineno, f"unknown record kind {kind!r}")
    return estimates, conditions


def write_report_files(out_prefix, report, rendered: str) -> tuple[Path, Path]:
    from .evaluation import report_to_dict

    text_path = Path(str(out_prefix) + ".txt")
    json_path = Path(str(out_prefix) + ".json")
    text_path.write_text(rendered, encoding="utf-8")
    json_path.write_text(
        json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return text_path, json_path
