"""The benchmark's workloads and their cached on-disk inputs.

Each workload is one fixed synthetic street canyon plus a pipeline config.
The scene does not depend on the run's seed: across different scenes the
accuracy metrics spread wider than any bound worth keeping (median position
error on canyon-day ranged 2.8-3.8 mm over six 20-query scenes).  The seed
instead draws the order in which the single client sends the queries.  As
the pipeline derives every RANSAC seed from the query's position in the
batch, the seed also redraws every random sample of the localization.

Scenes are generated once per checkout in a child process (so generation
does not count toward the measured process's peak memory), written with
``formats.save_dataset``, checked against the generated records, and
sealed with a digest of the files that every run verifies before use.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from semloc import PipelineConfig, generate_scene, street_canyon_spec
from semloc.formats import load_dataset, save_dataset

CACHE_DIR = Path(__file__).resolve().parent / ".cache"
DIGEST_FILE = "inputs.sha256"
GENERATE_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    name: str
    scene: dict  # street_canyon_spec arguments
    config: Callable[[], PipelineConfig]
    setup_reps: int  # set-ups per run; setup_s is their median
    from_disk: bool  # set-up loads the dataset and writes and reads MAP1
    exact: bool  # every query must land within acceptance-01's tolerance


def _acceptance_01_config() -> PipelineConfig:
    return PipelineConfig(seed=7, ransac_inlier_threshold_px=0.8, fusion_voxel_size=0.10,
                          top_k_day=8, temp_ransac_max_iterations=300)


def _acceptance_06_config() -> PipelineConfig:
    return PipelineConfig(seed=17, ransac_inlier_threshold_px=2.5, fusion_voxel_size=0.10,
                          top_k_day=6, top_k_night=6, temp_ransac_max_iterations=150,
                          ransac_max_iterations=1000)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="canyon-day",
            # The first 20 queries of the acceptance-01 scene.
            scene=dict(seed=2026, n_db=20, n_queries=20, noise_profile="zero"),
            config=_acceptance_01_config,
            setup_reps=7,
            from_disk=False,
            exact=True,
        ),
        Workload(
            name="canyon-daynight",
            scene=dict(seed=31, n_db=20, n_queries=40, image_size=(96, 72), anchors_per_plane=40,
                       noise_profile="day_night", night_fraction=0.5),
            config=_acceptance_06_config,
            setup_reps=7,
            from_disk=False,
            exact=False,
        ),
        Workload(
            name="canyon-long",
            scene=dict(seed=2026, n_db=80, n_queries=20, image_size=(160, 120), length=128.0,
                       noise_profile="zero"),
            config=_acceptance_01_config,
            setup_reps=5,
            from_disk=True,
            exact=False,
        ),
    )
}


def tree_digest(root: Path) -> str:
    """SHA-256 over every file's relative path and bytes, except the digest
    file itself."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file() and p.name != DIGEST_FILE):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def inputs_dir(workload: Workload) -> Path:
    """Cache directory, keyed by the scene arguments so that changing them
    regenerates the inputs."""
    key = hashlib.sha256(json.dumps(workload.scene, sort_keys=True).encode()).hexdigest()
    return CACHE_DIR / f"{workload.name}-{key[:12]}"


def ensure_inputs(workload: Workload, run_py: Path) -> Path:
    """Directory of the workload's saved dataset, generated on first use."""
    root = inputs_dir(workload)
    if not (root / DIGEST_FILE).is_file():
        subprocess.run([sys.executable, str(run_py), "--make-inputs", workload.name],
                       check=True, timeout=GENERATE_TIMEOUT_S)
    return root


def inputs_intact(root: Path) -> bool:
    return (root / DIGEST_FILE).read_text().strip() == tree_digest(root)


def _f32(a) -> np.ndarray:
    """What the on-disk formats keep of a float array."""
    return np.asarray(a, dtype=np.float32).astype(np.float64)


def _same_features(loaded: dict, generated: dict) -> bool:
    return loaded.keys() == generated.keys() and all(
        np.array_equal(loaded[f].locations, _f32(generated[f].locations))
        and np.array_equal(loaded[f].descriptors, _f32(generated[f].descriptors))
        for f in generated
    )


def _same_pose(a, b) -> bool:
    # Rotations pass through a quaternion on disk; centers round-trip exactly.
    return np.allclose(a.rotation, b.rotation, rtol=0.0, atol=1e-12) and np.array_equal(
        a.center, b.center)


def check_loaded(loaded, generated) -> list[str]:
    """Differences between a loaded dataset and the generated one it was
    saved from, up to the float32 storage of images and descriptors."""
    problems = []
    if [r.image_id for r in loaded.db_records] != [r.image_id for r in generated.db_records]:
        problems.append("database ids differ")
    if [q.image_id for q in loaded.queries] != [q.image_id for q in generated.queries]:
        problems.append("query ids differ")
    if problems:
        return problems
    for lr, gr in zip(loaded.db_records, generated.db_records):
        if not (lr.intrinsics == gr.intrinsics and _same_pose(lr.pose, gr.pose)
                and np.array_equal(lr.depth, _f32(gr.depth))
                and np.array_equal(lr.labels, gr.labels)
                and np.array_equal(lr.global_descriptor, _f32(gr.global_descriptor))
                and _same_features(lr.features, gr.features)):
            problems.append(f"database record {gr.image_id} differs")
    for lq, gq in zip(loaded.queries, generated.queries):
        if not (lq.intrinsics == gq.intrinsics and lq.condition == gq.condition
                and np.array_equal(lq.labels, gq.labels)
                and np.array_equal(lq.global_descriptor, _f32(gq.global_descriptor))
                and _same_features(lq.features, gq.features)
                and _same_pose(loaded.gt_poses[gq.image_id], generated.gt_poses[gq.image_id])):
            problems.append(f"query {gq.image_id} differs")
    return problems


def make_inputs(workload: Workload) -> None:
    """Generate, save, verify and seal one workload's dataset."""
    root = inputs_dir(workload)
    tmp = CACHE_DIR / f".{workload.name}.{os.getpid()}.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    generated = generate_scene(street_canyon_spec(**workload.scene))
    save_dataset(generated, tmp)
    problems = check_loaded(load_dataset(tmp), generated)
    if problems:
        shutil.rmtree(tmp, ignore_errors=True)
        raise RuntimeError(f"{workload.name}: saved dataset does not load back: {problems}")
    (tmp / DIGEST_FILE).write_text(tree_digest(tmp) + "\n")
    shutil.rmtree(root, ignore_errors=True)
    tmp.rename(root)
