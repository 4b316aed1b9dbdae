"""The whole pipeline end to end, day and night.

Generates a canyon dataset with the day/night corruption profile (the
handcrafted-like family degrades badly at night, the learned-like family
is mildly noisy but robust), builds the dense semantic map, localizes all
queries with hybrid features and semantically weighted RANSAC, and prints
the recall report.

The same flow is available from the shell:

    semloc synth scene.txt data/
    semloc build-map data/ config.txt map.bin
    semloc localize data/ map.bin config.txt estimates.txt
    semloc evaluate estimates.txt data/queries/cameras.txt report
"""

import time

from semloc.config import PipelineConfig
from semloc.evaluation import DAY_BUCKETS, NIGHT_BUCKETS, evaluate, render_report
from semloc.pipeline import build_map, localize_all
from semloc.synthetic import generate_scene, street_canyon_spec

spec = street_canyon_spec(seed=31, n_db=20, n_queries=60, image_size=(96, 72),
                          anchors_per_plane=40, noise_profile="day_night",
                          night_fraction=0.5)
ds = generate_scene(spec)
print(f"dataset: {len(ds.db_records)} database images, {len(ds.queries)} queries "
      f"({sum(q.condition == 'night' for q in ds.queries)} night)")

cfg = PipelineConfig(seed=17, ransac_inlier_threshold_px=2.5, fusion_voxel_size=0.10,
                     top_k_day=6, top_k_night=6, temp_ransac_max_iterations=150,
                     ransac_max_iterations=1000)

t0 = time.perf_counter()
dense_map, stats = build_map(ds.db_records, cfg)
print(f"map: {stats.stable_points} points in {time.perf_counter() - t0:.1f}s")

t0 = time.perf_counter()
results = localize_all(ds.queries, ds.db_records, dense_map, cfg)
ok = sum(1 for r in results if r.pose is not None)
print(f"localized {ok}/{len(results)} queries in {time.perf_counter() - t0:.1f}s")

estimates = {r.query_id: r.pose for r in results}
conditions = {q.image_id: q.condition for q in ds.queries}
report = evaluate(estimates, ds.gt_poses,
                  buckets={"day": DAY_BUCKETS, "night": NIGHT_BUCKETS},
                  conditions=conditions)
print("\nrecall report (position/orientation threshold pairs):")
print(render_report(report))

failed = [r for r in results if r.pose is None]
if failed:
    print("failure reasons:")
    for r in failed[:5]:
        print(f"  {r.query_id} ({r.condition}): {r.failure_reason}")
