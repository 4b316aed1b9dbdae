"""Why the pose solver samples by semantic weight.

The scene is a street canyon whose two halves are geometrically congruent
but semantically different (different facade classes).  A query in the
first half retrieves, among others, a look-alike image from the far half;
its matches form a coherent consensus around a pose displaced by half the
street length.  With 60% of the pooled matches coming from that wrong
image, plain RANSAC happily returns the misplaced pose: it has the bigger
inlier count.  Semantic scoring gives the wrong image a near-zero score,
and weighting the hypothesis sampling by score steers the solver back to
the true pose; the inlier RULE is unchanged, only the sampling is biased.
"""

import math

import numpy as np

from semloc.config import PipelineConfig
from semloc.geometry import RigidPose, pixel_rays, rotation_about_axis
from semloc.matching import CorrespondenceBatch
from semloc.pipeline import build_map
from semloc.pnp import RansacConfig, estimate_temporary_pose, weighted_ransac_pnp
from semloc.scoring import (
    SemanticScore,
    gate_visible,
    normalize_weights,
    semantic_consistency_score,
)
from semloc.synthetic import (
    generate_scene,
    render_depth_and_labels,
    symmetric_canyon_spec,
    trace_rays,
)

spec = symmetric_canyon_spec(seed=41, n_db=16)
ds = generate_scene(spec)
dense_map, _ = build_map(ds.db_records, PipelineConfig(fusion_voxel_size=0.12))
K = spec.intrinsics
print(f"symmetric canyon: {len(dense_map)} map points, halves congruent under z -> z + 20")

rng = np.random.default_rng(1)
trials = 60
weighted_ok = 0
uniform_ok = 0
for trial in range(trials):
    # query in the first half
    z = float(rng.uniform(4.0, 14.0))
    yaw = float(rng.uniform(55.0, 69.0)) * (1 if rng.random() < 0.5 else -1)
    # eye height 1.5 m (world y points down), looking down-street (+z) turned
    # by yaw about the vertical axis
    x = float(rng.uniform(-0.5, 0.5))
    R = rotation_about_axis(np.array([0.0, 1.0, 0.0]), math.radians(yaw))
    q_pose = RigidPose(R.T, np.array([x, -1.5, z]))
    _, q_labels = render_depth_and_labels(spec.planes, q_pose, K)

    # 32 exact matches from the correct half, 48 from the congruent far half
    pts = []
    while len(pts) < 32:
        pix = np.stack([rng.uniform(2, K.width - 3, 128),
                        rng.uniform(2, K.height - 3, 128)], axis=1)
        t, pidx = trace_rays(spec.planes, q_pose, K, pix)
        labels = np.array([spec.planes[i].label if i >= 0 else 255 for i in pidx])
        ok = (pidx >= 0) & (t > 0) & (labels != 0)
        world = q_pose.center + (t[:, None] * pixel_rays(pix, K)) @ q_pose.rotation
        for j in np.nonzero(ok)[0][: 32 - len(pts)]:
            pts.append((pix[j], world[j]))
    pix_good = np.array([p for p, _ in pts])
    world_good = np.array([X for _, X in pts])
    good = CorrespondenceBatch(pix_good, world_good, ["good_img"] * 32, ["corner"] * 32)
    shift = np.array([0.0, 0.0, 20.0])
    j = np.arange(48) % 32
    wrong = CorrespondenceBatch(pix_good[j], world_good[j] + shift,
                                ["wrong_img"] * 48, ["corner"] * 48)
    corrs = CorrespondenceBatch.concat([good, wrong])

    # score each "retrieved image" through its temporary pose
    images = (("good_img", good), ("wrong_img", wrong))
    temps = estimate_temporary_pose(
        [sub for _, sub in images], K,
        [RansacConfig(inlier_threshold_px=2.0, min_inliers=6, seed=trial * 7 + len(img))
         for img, _ in images])
    scores = []
    for (img, _), temp in zip(images, temps):
        if temp is None:
            scores.append(SemanticScore(img, 0, 0))
            continue
        gated = gate_visible(dense_map, temp.pose)
        scores.append(semantic_consistency_score(gated, temp.pose, K, q_labels, image_id=img))
    if trial == 0:
        for s in scores:
            print(f"  {s.image_id}: {s.consistent} consistent of {s.projected} projected")

    # one sampling weight per pooled row, passed beside the batch
    weighted = normalize_weights(scores, corrs)
    uniform = np.full(len(corrs), 1.0 / len(corrs))
    cfg = RansacConfig(inlier_threshold_px=2.0, min_inliers=12, seed=trial * 13 + 5,
                       max_iterations=200)
    sw = weighted_ransac_pnp(corrs, weighted, K, cfg)
    su = weighted_ransac_pnp(corrs, uniform, K, cfg)
    weighted_ok += sw is not None and np.linalg.norm(sw.pose.center - q_pose.center) < 0.05
    uniform_ok += su is not None and np.linalg.norm(su.pose.center - q_pose.center) < 0.05

print(f"\nsuccess rate over {trials} paired trials (position error < 5 cm):")
print(f"  semantically weighted sampling: {100.0 * weighted_ok / trials:5.1f}%")
print(f"  uniform sampling:               {100.0 * uniform_ok / trials:5.1f}%")
print("\nuniform RANSAC locks onto the bigger (wrong) consensus; the weights")
print("keep the misplaced matches out of the minimal samples entirely.")
