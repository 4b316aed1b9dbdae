"""Build a dense semantic map from a synthetic street canyon, stage by stage.

The scene is a pair of striped facade walls plus a road, rendered into
per-camera depth and label images by exact ray-plane intersection.  The map
build then runs: depth filtering against neighbor views, voxel-grid fusion,
semantic label voting, unstable-class removal, and visibility cones.
"""

import numpy as np

from semloc.semantic_map import (
    CITYSCAPES_CLASS_NAMES,
    DepthFilterConfig,
    build_dense_map,
    filter_depth_map,
    select_filter_neighbors,
)
from semloc.synthetic import generate_scene, street_canyon_spec

spec = street_canyon_spec(seed=8, n_db=12, n_queries=0, image_size=(96, 72),
                          anchors_per_plane=10, length=24.0)
ds = generate_scene(spec)
print(f"scene: {len(spec.planes)} planes, {len(ds.db_records)} database cameras, "
      f"{spec.intrinsics.width}x{spec.intrinsics.height} px")

# ── depth filtering on one image ─────────────────────────────────────────
neighbors = select_filter_neighbors(ds.db_records, count=4)
rec = ds.db_records[5]
by_id = {r.image_id: r for r in ds.db_records}
nbs = [by_id[i] for i in neighbors[rec.image_id]]
cfg = DepthFilterConfig(tau=0.01, min_consistent_neighbors=1)
filtered = filter_depth_map(rec, nbs, cfg)
print(f"\n{rec.image_id}: neighbors {neighbors[rec.image_id]}")
print(f"  valid depths {int((rec.depth > 0).sum())} -> {int((filtered > 0).sum())} "
      f"after the |d_r - d_n|/d_n < {cfg.tau} consistency test")

# a corrupted depth does not survive filtering
corrupted = rec.depth.copy()
corrupted[30, 40] *= 1.5
rec_bad = type(rec)(image_id=rec.image_id, intrinsics=rec.intrinsics, pose=rec.pose,
                    depth=corrupted, labels=rec.labels)
refiltered = filter_depth_map(rec_bad, nbs, cfg)
print(f"  pixel (40, 30) scaled by 1.5x: kept={bool(refiltered[30, 40] > 0)}")

# ── full build ───────────────────────────────────────────────────────────
dense_map, stats = build_dense_map(ds.db_records, filter_cfg=cfg, voxel_size=0.1)
print(f"\nmap build: {stats.valid_pixels_before_filter} px "
      f"-> {stats.valid_pixels_after_filter} filtered "
      f"-> {stats.fused_points} fused "
      f"-> {stats.labeled_points} labeled "
      f"-> {stats.stable_points} stable points")

counts = np.bincount(dense_map.labels, minlength=19)
print("\nlabel histogram:")
for cid in np.nonzero(counts)[0]:
    print(f"  {CITYSCAPES_CLASS_NAMES[cid]:12s} {counts[cid]}")

multi = dense_map.support > 1
print(f"\nvisibility cones: {int(multi.sum())} multi-view points "
      f"(max support {int(dense_map.support.max())}), "
      f"median visible angle {np.degrees(np.median(dense_map.theta[multi])):.1f} deg, "
      f"distance range {dense_map.d_min.min():.1f} .. {dense_map.d_max.max():.1f} m")
widest = int(np.argmax(dense_map.theta))
print(f"widest cone: label={CITYSCAPES_CLASS_NAMES[dense_map.labels[widest]]}, "
      f"theta={np.degrees(dense_map.theta[widest]):.1f} deg, "
      f"support={dense_map.support[widest]}")
