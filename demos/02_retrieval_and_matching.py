"""Retrieve candidate database images and match hybrid feature families.

Global descriptors in the synthetic harness pool the latent appearance of
the anchors visible in each image, so cameras with overlapping views rank
close.  Matching then runs per family (mutual nearest neighbors), and the
matches are lifted through the retrieved image's depth map into 2D-3D
correspondences.
"""

import numpy as np

from semloc.matching import CorrespondenceBatch, lift_to_3d, match_family
from semloc.retrieval import GlobalDescriptor, RetrievalConfig, build_index, query_top_k
from semloc.synthetic import generate_scene, street_canyon_spec

spec = street_canyon_spec(seed=21, n_db=14, n_queries=3, image_size=(96, 72),
                          anchors_per_plane=24, length=28.0)
ds = generate_scene(spec)

index = build_index([GlobalDescriptor(r.image_id, r.global_descriptor) for r in ds.db_records])
query = ds.queries[0]
gt_z = ds.gt_poses[query.image_id].center[2]
print(f"query {query.image_id} sits at z = {gt_z:.1f} m along the street")

hits = query_top_k(index, GlobalDescriptor(query.image_id, query.global_descriptor),
                   RetrievalConfig(top_k=5))
print("\ntop-5 retrieved database images (distance, camera z):")
by_id = {r.image_id: r for r in ds.db_records}
for image_id, dist in hits:
    print(f"  {image_id}  d={dist:.3f}  z={by_id[image_id].pose.center[2]:5.1f} m")

db = by_id[hits[0][0]]
print(f"\nmatching against {db.image_id}:")
per_family = []
for fam_spec in spec.families:
    name = fam_spec.name
    matches = match_family(query.features[name], db.features[name])
    lifted = lift_to_3d(matches, query.features[name], db)
    per_family.append(lifted.correspondences)
    print(f"  {name:7s}: {len(query.features[name])} query kps x "
          f"{len(db.features[name])} db kps -> {len(matches)} mutual-NN matches, "
          f"{len(lifted.correspondences)} lifted "
          f"({lifted.dropped_invalid_depth} invalid depth, "
          f"{lifted.dropped_out_of_bounds} out of bounds)")

pooled = CorrespondenceBatch.concat(per_family)
print(f"\nhybrid pool: {len(pooled)} correspondences "
      f"({np.sum(pooled.families == 'corner')} corner + "
      f"{np.sum(pooled.families == 'blob')} blob)")

# all lifted points should reproject close to their query keypoints at the
# ground-truth pose (zero-noise scene)
from semloc.geometry import project

gt = ds.gt_poses[query.image_id]
residuals = []
for X, x in zip(pooled.points, pooled.pixels):
    pix = project(X, gt, query.intrinsics)
    if pix is not None:
        residuals.append(float(np.linalg.norm(pix - x)))
print(f"reprojection at the true pose: median {np.median(residuals):.2f} px, "
      f"p95 {np.percentile(residuals, 95):.2f} px")
