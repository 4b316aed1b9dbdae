"""Semantic consistency as a pose-quality signal.

Map points are gated by their visibility cones at a candidate pose, then
projected into the query segmentation; the count of label agreements is
the semantic consistency score.  Displacing the pose away from the truth
collapses the score through three compounding effects: cone gating rejects
points no longer seen from a familiar distance/direction, survivors drift
out of the image, and the ones still projecting start landing on pixels of
the wrong class.  That decay is what lets the score rank retrieved images.
"""

import numpy as np

from semloc.config import PipelineConfig
from semloc.geometry import RigidPose
from semloc.pipeline import build_map
from semloc.scoring import gate_visible, semantic_consistency_score
from semloc.synthetic import generate_scene, street_canyon_spec

spec = street_canyon_spec(seed=5, n_db=12, n_queries=1, image_size=(96, 72),
                          anchors_per_plane=10, length=24.0)
ds = generate_scene(spec)
dense_map, _ = build_map(ds.db_records, PipelineConfig(fusion_voxel_size=0.1))
print(f"dense map: {len(dense_map)} labeled points")

query = ds.queries[0]
gt = ds.gt_poses[query.image_id]

for axis, name in ((np.array([0.0, 0.0, 1.0]), "down-street (z)"),
                   (np.array([1.0, 0.0, 0.0]), "across-street (x)")):
    print(f"\nscore vs displacement {name} for {query.image_id}:")
    print(f"{'offset (m)':>12s} {'gated':>7s} {'projected':>10s} {'consistent':>11s}")
    for offset in (0.0, 0.3, 0.6, 1.0, 1.5, 2.0):
        pose = RigidPose(gt.rotation, gt.center + offset * axis)
        rows = gate_visible(dense_map, pose)  # cones widened by 1.2x and 0.1 rad
        s = semantic_consistency_score(dense_map, rows, pose, query.intrinsics, query.labels)
        print(f"{offset:12.1f} {len(rows):7d} {s.projected:10d} {s.consistent:11d}")

print("\nacross-street displacement shows the label term directly: at 0.3-0.6 m")
print("many points still project into the image but land on the wrong stripe,")
print("so consistent < projected; by 1-2 m the score is essentially zero while")
print("the true pose keeps a perfect count. a wrong retrieved image, whose")
print("temporary pose is far off, can therefore be recognized by its score.")
