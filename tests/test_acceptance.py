"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; the heavy statistical criteria use
fixed seeds and are fully deterministic.
"""

import dataclasses
import functools
import math
import time

import numpy as np
import pytest

from semloc.config import PipelineConfig
from semloc.evaluation import DAY_BUCKETS, NIGHT_BUCKETS, evaluate
from semloc.formats import (
    read_dense_map,
    read_depth_map,
    read_feature_set,
    read_global_descriptor,
    read_label_image,
    write_dense_map,
    write_depth_map,
    write_feature_set,
    write_global_descriptor,
    write_label_image,
    save_dataset,
)
from semloc.geometry import RigidPose, project_points, rotation_error_deg
from semloc.matching import CorrespondenceBatch, FeatureSet
from semloc.pipeline import build_map, localize_all
from semloc.pnp import (
    RansacConfig,
    _bearings_from_pixels,
    _draw_minimal_samples,
    _exp_so3,
    _p3p_batch,
    _pose_jacobian,
    _errors,
    estimate_temporary_pose,
    refine_pose,
    solve_p3p,
    weighted_ransac_pnp,
)
from semloc.scoring import (
    SemanticScore,
    gate_visible,
    normalize_weights,
    semantic_consistency_score,
)
from semloc.semantic_map import (_MIN_CONSISTENT_NEIGHBORS, DenseMap, DepthFilterConfig,
                                 filter_depth_map)
from semloc.synthetic import (
    generate_scene,
    render_depth_and_labels,
    street_canyon_spec,
    symmetric_canyon_spec,
    trace_rays,
    _canyon_pose,
)

from conftest import (
    default_intrinsics,
    patched_ransac_rule,
    random_pose,
    rodrigues,
    synthetic_correspondences,
)
from test_semantic_map import _K, _filter_oracle, _plane_depth, _record
from map_oracle import map_rows
from test_scoring import _score_oracle


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} [{'pass' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


# ── 1. end-to-end zero noise ─────────────────────────────────────────────


def test_acceptance_01_end_to_end_zero_noise():
    spec = street_canyon_spec(seed=2026, n_db=20, n_queries=50, noise_profile="zero")
    ds = generate_scene(spec)
    cfg = PipelineConfig(seed=7, ransac_inlier_threshold_px=0.8, fusion_voxel_size=0.10,
                         top_k_day=8, temp_ransac_max_iterations=300)
    t0 = time.perf_counter()
    dense_map, _ = build_map(ds.db_records, cfg)
    results = localize_all(ds.queries, ds.db_records, dense_map, cfg, threads=1)
    elapsed = time.perf_counter() - t0
    within = 0
    for r in results:
        if r.pose is None:
            continue
        gt = ds.gt_poses[r.query_id]
        pos = float(np.linalg.norm(r.pose.center - gt.center))
        rot = rotation_error_deg(gt.rotation, r.pose.rotation)
        within += pos <= 0.01 and rot <= 0.1
    ok = within == 50 and elapsed < 60.0
    _report(1, "end-to-end zero-noise", ok,
            f"{within}/50 within (0.01 m, 0.1 deg), {elapsed:.1f}s single-threaded")


# ── 2. rotation metric oracle ────────────────────────────────────────────


def test_acceptance_02_rotation_metric_oracle():
    rng = np.random.default_rng(202)
    worst = 0.0
    n = 10_000
    angles = rng.uniform(0.0, 180.0, size=n)
    angles[0] = 0.0
    angles[1] = 180.0
    for i in range(n):
        base = random_pose(rng).rotation
        rel = rodrigues(rng.normal(size=3), math.radians(angles[i]))
        err = rotation_error_deg(base, base @ rel)
        worst = max(worst, abs(err - angles[i]))
    ok = worst < 1e-6
    _report(2, "rotation metric oracle", ok,
            f"max |measured - constructed| = {worst:.2e} deg over {n} rotations incl. 0/180")


# ── 3. depth-filter oracle equivalence ───────────────────────────────────


def test_acceptance_03_depth_filter_oracle():
    defaults = DepthFilterConfig()
    assert defaults.tau == 0.01 and _MIN_CONSISTENT_NEIGHBORS == 1
    rng = np.random.default_rng(303)
    K = _K(8, 6, f=9.0)
    scenes = 0
    for _ in range(20):
        records = []
        for i in range(3):
            pose = RigidPose(
                rodrigues(rng.normal(size=3), rng.uniform(0, 0.1)),
                rng.normal(scale=0.3, size=3),
            )
            depth = _plane_depth(K, pose, plane_z=6.0)
            noise = 1.0 + rng.uniform(-0.02, 0.02, size=depth.shape)
            records.append(_record(f"im{i}", K, pose, depth * noise))
        out = filter_depth_map(records[0], records[1:], defaults)
        oracle = _filter_oracle(records[0], records[1:], defaults.tau,
                                _MIN_CONSISTENT_NEIGHBORS)
        assert np.array_equal(out > 0, oracle > 0)
        scenes += 1
    _report(3, "depth-filter oracle equivalence", scenes == 20,
            f"validity masks identical on {scenes}/20 random scenes (tau=0.01, N=1)")


# ── 4. semantic score oracle equivalence ─────────────────────────────────


def test_acceptance_04_semantic_score_oracle():
    poses_checked = 0
    exact = True
    for scene_seed in (401, 402, 403, 404, 405):
        spec = street_canyon_spec(seed=scene_seed, n_db=8, n_queries=1,
                                  image_size=(64, 48), anchors_per_plane=6, length=16.0)
        ds = generate_scene(spec)
        dense_map, _ = build_map(ds.db_records, PipelineConfig(fusion_voxel_size=0.2))
        q = ds.queries[0]
        rng = np.random.default_rng(1000 + scene_seed)
        for _ in range(20):
            pose = RigidPose(
                rodrigues(rng.normal(size=3), rng.uniform(0, math.pi)),
                np.array([rng.uniform(-3, 3), rng.uniform(-4, 0), rng.uniform(0, 16)]),
            )
            rows = gate_visible(dense_map, pose)
            score = semantic_consistency_score(dense_map, rows, pose, q.intrinsics, q.labels)
            c, p = _score_oracle(map_rows(dense_map, rows), pose, q.intrinsics, q.labels)
            exact &= (score.consistent, score.projected) == (c, p)
            poses_checked += 1
    _report(4, "semantic score oracle equivalence", exact and poses_checked == 100,
            f"exact integer match on {poses_checked} random poses over 5 scenes")


# ── 5. weighted vs unweighted RANSAC under contamination ─────────────────


def _contamination_trial(spec, dense_map, trial_seed, n_total=80, wrong_frac=0.6,
                         iterations=200, thr=2.0):
    """One paired trial on the symmetric canyon: 40% exact matches from the
    correct half, 60% from the congruent far half (a coherent but misplaced
    consensus).  Scores come from the real temporary-pose + gating + scoring
    path; success is a final position error below 5 cm."""
    rng = np.random.default_rng(np.random.SeedSequence((trial_seed, 0xBEEF)))
    K = spec.intrinsics
    half = 20.0
    z = float(rng.uniform(4.0, half - 6.0))
    yaw = float(rng.uniform(55.0, 69.0)) * (1 if rng.random() < 0.5 else -1)
    q_pose = _canyon_pose(float(rng.uniform(-0.5, 0.5)), -1.5, z, yaw)
    _, q_labels = render_depth_and_labels(spec.planes, q_pose, K)

    n_wrong = int(round(wrong_frac * n_total))
    n_good = n_total - n_wrong
    pts = []
    while len(pts) < n_good:
        pix = np.stack([rng.uniform(2, K.width - 3, 4 * n_good),
                        rng.uniform(2, K.height - 3, 4 * n_good)], axis=1)
        t, pidx = trace_rays(spec.planes, q_pose, K, pix)
        labels = np.array([spec.planes[i].label if i >= 0 else 255 for i in pidx])
        wall = (pidx >= 0) & (t > 0) & (labels != 0)
        dirs = np.stack([(pix[:, 0] - K.cx) / K.fx, (pix[:, 1] - K.cy) / K.fy,
                         np.ones(len(pix))], axis=1)
        world = q_pose.center + (t[:, None] * dirs) @ q_pose.rotation
        for j in np.nonzero(wall)[0]:
            if len(pts) >= n_good:
                break
            pts.append((pix[j], world[j]))
    pix_good = np.array([p for p, _ in pts])
    world_good = np.array([X for _, X in pts])
    good = CorrespondenceBatch(pix_good, world_good)
    shift = np.array([0.0, 0.0, half])
    j = np.arange(n_wrong) % len(pts)
    wrong = CorrespondenceBatch(pix_good[j], world_good[j] + shift)
    corrs = CorrespondenceBatch.concat([good, wrong])

    images = (("good_img", good), ("wrong_img", wrong))
    temps = estimate_temporary_pose(
        [sub for _, sub in images], K,
        [RansacConfig(inlier_threshold_px=thr, min_inliers=6, seed=trial_seed * 7 + len(img),
                      max_iterations=500) for img, _ in images])
    scores = []
    for (img, _), temp in zip(images, temps):
        if temp is None:
            scores.append(SemanticScore(0, 0))
            continue
        rows = gate_visible(dense_map, temp.pose)
        scores.append(semantic_consistency_score(dense_map, rows, temp.pose, K, q_labels))

    weighted = normalize_weights(scores, [good, wrong])
    uniform = np.full(len(corrs), 1.0 / len(corrs))
    final_cfg = RansacConfig(inlier_threshold_px=thr, min_inliers=12,
                             seed=trial_seed * 13 + 5, max_iterations=iterations)
    errors = {}
    for label, weights in (("weighted", weighted), ("uniform", uniform)):
        with patched_ransac_rule(fixed_budget=True):
            sol = weighted_ransac_pnp(corrs, weights, K, final_cfg)
        errors[label] = (np.inf if sol is None
                         else float(np.linalg.norm(sol.pose.center - q_pose.center)))
    return errors, scores


def test_acceptance_05_weighted_vs_unweighted_ransac():
    spec = symmetric_canyon_spec(seed=41, n_db=16)
    ds = generate_scene(spec)
    dense_map, _ = build_map(ds.db_records, PipelineConfig(seed=0, fusion_voxel_size=0.12))
    trials = 500
    w_ok = 0
    u_ok = 0
    score_sane = 0
    for t in range(trials):
        errors, scores = _contamination_trial(spec, dense_map, t)
        w_ok += errors["weighted"] < 0.05
        u_ok += errors["uniform"] < 0.05
        good, wrong = scores
        score_sane += wrong.consistent <= max(1, good.consistent // 5)
    w_rate = 100.0 * w_ok / trials
    u_rate = 100.0 * u_ok / trials
    ok = (w_rate - u_rate) >= 10.0 and score_sane >= 0.95 * trials
    _report(5, "weighted vs unweighted RANSAC", ok,
            f"weighted {w_rate:.1f}% vs unweighted {u_rate:.1f}% over {trials} paired "
            f"trials at 200 fixed iterations (wrong-image score near zero in "
            f"{score_sane}/{trials})")


# ── 6. hybrid-feature complementarity ────────────────────────────────────


def _subset_families(ds, names):
    db = [dataclasses.replace(r, features={k: v for k, v in r.features.items() if k in names})
          for r in ds.db_records]
    qs = [dataclasses.replace(q, features={k: v for k, v in q.features.items() if k in names})
          for q in ds.queries]
    return db, qs


def _tightest_recalls(results, gt_poses, conditions):
    """Day and night recall in each condition's tightest bucket, by
    semloc.evaluate."""
    report = evaluate({r.query_id: r.pose for r in results}, gt_poses,
                      buckets={"day": DAY_BUCKETS, "night": NIGHT_BUCKETS},
                      conditions=conditions)
    tightest = {g.condition: g.percentages[0] for g in report.groups}
    return tightest["day"], tightest["night"]


def test_acceptance_06_hybrid_feature_complementarity():
    spec = street_canyon_spec(seed=31, n_db=20, n_queries=200, image_size=(96, 72),
                              anchors_per_plane=40, noise_profile="day_night",
                              night_fraction=0.5)
    ds = generate_scene(spec)
    cfg = PipelineConfig(seed=17, ransac_inlier_threshold_px=2.5, fusion_voxel_size=0.10,
                         top_k_day=6, top_k_night=6, temp_ransac_max_iterations=150,
                         ransac_max_iterations=1000)
    dense_map, _ = build_map(ds.db_records, cfg)
    conditions = {q.image_id: q.condition for q in ds.queries}
    recalls = {}
    for label, fams in (("corner", {"corner"}), ("blob", {"blob"}),
                        ("hybrid", {"corner", "blob"})):
        db, qs = _subset_families(ds, fams)
        results = localize_all(qs, db, dense_map, cfg)
        recalls[label] = _tightest_recalls(results, ds.gt_poses, conditions)
    day_ok = recalls["hybrid"][0] >= max(recalls["corner"][0], recalls["blob"][0]) - 1.0
    night_ok = recalls["hybrid"][1] > max(recalls["corner"][1], recalls["blob"][1])
    _report(6, "hybrid-feature complementarity", day_ok and night_ok,
            "tightest-bucket recall day/night: "
            + ", ".join(f"{k}={v[0]:.0f}/{v[1]:.0f}" for k, v in recalls.items()))


# ── 7. weighted-sampling statistics ──────────────────────────────────────


def test_acceptance_07_weighted_sampling_statistics():
    # The first draw of every minimal sample is exactly multinomial in the
    # normalized weights (later draws renormalize over the remainder), so
    # the 3-sigma multinomial bound applies to first-draw frequencies.
    rng = np.random.default_rng(707)
    raw = rng.uniform(0.2, 3.0, size=25)
    weights = raw / raw.sum()
    draws = 100_000
    sampler = np.random.default_rng(708)
    first = _draw_minimal_samples(sampler, weights, draws)[:, 0]
    counts = np.bincount(first, minlength=len(weights))
    freq = counts / draws
    sigma = np.sqrt(weights * (1.0 - weights) / draws)
    deviations = np.abs(freq - weights) / sigma
    ok = bool(np.all(deviations <= 3.0))
    _report(7, "weighted-sampling statistics", ok,
            f"max deviation {deviations.max():.2f} sigma over {draws} samples, 25 weights")


# ── 8. refinement ────────────────────────────────────────────────────────


def test_acceptance_08_refinement():
    rng = np.random.default_rng(808)
    K = default_intrinsics()

    # analytic Jacobian vs central finite differences
    pose = random_pose(rng)
    corrs = synthetic_correspondences(rng, K, pose, 20, pixel_noise=1.0)
    points, pixels = corrs.points, corrs.pixels
    R0, C0 = np.array(pose.rotation), np.array(pose.center)
    J = _pose_jacobian(R0, C0, points, K)
    h = 1e-6
    worst_rel = 0.0
    for k in range(6):
        e = np.zeros(6)
        e[k] = h
        rp = _errors(_exp_so3(e[:3]) @ R0, C0 + e[3:], points, pixels, K)[0]
        rm = _errors(_exp_so3(-e[:3]) @ R0, C0 - e[3:], points, pixels, K)[0]
        fd = (rp - rm) / (2 * h)
        worst_rel = max(worst_rel, float(np.max(np.abs(J[:, k] - fd) /
                                                np.maximum(np.abs(J[:, k]), 1.0))))
    jac_ok = worst_rel < 1e-5

    # cost monotonicity and pose improvement over 200 noisy trials
    improved = 0
    cost_ok = True
    trials = 200
    for t in range(trials):
        gt = random_pose(rng)
        trial_corrs = synthetic_correspondences(rng, K, gt, 100, pixel_noise=1.0)
        sol = estimate_temporary_pose([trial_corrs], K, [RansacConfig(min_inliers=6, seed=t)])[0]
        pts = trial_corrs.points[sol.inlier_indices]
        pix = trial_corrs.pixels[sol.inlier_indices]
        r0 = _errors(sol.pose.rotation, sol.pose.center, pts, pix, K)[0]
        refined = refine_pose(sol, trial_corrs, K)
        r1 = _errors(refined.rotation, refined.center, pts, pix, K)[0]
        cost_ok &= float(r1 @ r1) <= float(r0 @ r0) + 1e-12
        improved += (np.linalg.norm(refined.center - gt.center)
                     < np.linalg.norm(sol.pose.center - gt.center))
    ok = jac_ok and cost_ok and improved >= 0.9 * trials
    _report(8, "refinement", ok,
            f"jacobian rel err {worst_rel:.1e}, cost monotone: {cost_ok}, "
            f"improved {improved}/{trials} noisy trials")


# ── 9. P3P self-consistency ──────────────────────────────────────────────


@functools.lru_cache(maxsize=1)
def _p3p_sets():
    """Acceptance-09's 10,000 exact minimal sets (rng 909), generated once:
    read-only true centres (n, 3), world points (n, 3, 3) and pixels
    (n, 3, 2)."""
    rng = np.random.default_rng(909)
    K = default_intrinsics()
    centers, points, pixels = [], [], []
    for _ in range(10_000):
        pose = random_pose(rng)
        corrs = synthetic_correspondences(rng, K, pose, 3)
        centers.append(pose.center)
        points.append(corrs.points)
        pixels.append(corrs.pixels)
    sets = np.array(centers), np.array(points), np.array(pixels)
    for array in sets:
        array.setflags(write=False)
    return sets


def test_acceptance_09_p3p_self_consistency():
    K = default_intrinsics()
    centers, points, pixels = _p3p_sets()
    n = len(centers)
    sols = solve_p3p(points, K, pixels=pixels)
    # every returned pose, with the row it was solved for
    row = np.repeat(np.arange(n), [len(s) for s in sols])
    R = np.array([s.rotation for row_sols in sols for s in row_sols])
    C = np.array([s.center for row_sols in sols for s in row_sols])
    back, depth = project_points(points[row], R, C, K)
    assert np.all(depth > 0.0)
    worst_reproj = float(np.linalg.norm(back - pixels[row], axis=2).max())
    found = np.linalg.norm(C - centers[row], axis=1) < 1e-6
    recovered = len(np.unique(row[found]))
    ok = worst_reproj < 1e-6 and recovered == n
    _report(9, "P3P self-consistency", ok,
            f"max reprojection {worst_reproj:.1e} px, ground truth recovered {recovered}/{n}")


def test_acceptance_09_raw_p3p_candidates():
    # RANSAC scores the raw _p3p_batch candidates, which solve_p3p polishes
    # before the check above.  On these sets 9,999 rows hold a raw candidate
    # within 1e-6 m of the true centre, the worst row's nearest candidate
    # is 2.71e-5 m off, and the worst nearest candidate reprojects at
    # 1.49e-6 px.  The bounds allow 9 more rows off and twice each error.
    K = default_intrinsics()
    centers, points, pixels = _p3p_sets()
    n = len(centers)
    bearings = _bearings_from_pixels(pixels.reshape(-1, 2), K).reshape(points.shape)
    R, C, valid, status = _p3p_batch(points, bearings)
    assert not status.any()
    off = np.where(valid, np.linalg.norm(C - centers[:, None], axis=2), np.inf)
    nearest = off.argmin(axis=1)
    rows = np.arange(n)
    off = off[rows, nearest]
    back, depth = project_points(points, R[rows, nearest], C[rows, nearest], K)
    assert np.all(depth > 0.0)
    worst_reproj = float(np.linalg.norm(back - pixels, axis=2).max())
    recovered = int(np.count_nonzero(off < 1e-6))
    ok = recovered >= n - 10 and off.max() < 5.5e-5 and worst_reproj < 3e-6
    _report(9, "raw P3P candidates", ok,
            f"true centre within 1e-6 m on {recovered}/{n} rows, worst nearest candidate "
            f"{off.max():.2e} m off, reprojecting within {worst_reproj:.2e} px")


# ── 10. format round-trips and byte-identical regeneration ───────────────


def test_acceptance_10_format_roundtrips(tmp_path):
    rng = np.random.default_rng(1010)

    def f32(*shape, low=-10.0, high=10.0):
        return rng.uniform(low, high, size=shape).astype(np.float32).astype(np.float64)

    exact = 0
    for i in range(100):
        h, w = int(rng.integers(1, 16)), int(rng.integers(1, 16))
        depth = rng.uniform(0, 9, size=(h, w)).astype(np.float32)
        p = tmp_path / "d.bin"
        write_depth_map(p, depth)
        assert np.array_equal(read_depth_map(p), depth)

        labels = rng.integers(0, 19, size=(h, w)).astype(np.uint8)
        p = tmp_path / "l.bin"
        write_label_image(p, labels)
        assert np.array_equal(read_label_image(p), labels)

        nfeat = int(rng.integers(1, 20))
        dim = int(rng.integers(1, 9))
        fs = FeatureSet("fam", f32(nfeat, 2, low=0, high=64), f32(nfeat, dim))
        p = tmp_path / "f.bin"
        write_feature_set(p, fs)
        back = read_feature_set(p)
        assert np.array_equal(back.locations, fs.locations)
        assert np.array_equal(back.descriptors, fs.descriptors)

        g = f32(int(rng.integers(1, 128)))
        p = tmp_path / "g.bin"
        write_global_descriptor(p, g)
        assert np.array_equal(read_global_descriptor(p), g)

        npts = int(rng.integers(1, 25))
        v = rng.normal(size=(npts, 3))
        v_l = (v / np.linalg.norm(v, axis=1, keepdims=True)).astype(np.float32).astype(np.float64)
        d_min = f32(npts, low=1, high=4)
        d_max = (d_min * 3).astype(np.float32).astype(np.float64)
        dm = DenseMap(f32(npts, 3), rng.integers(0, 19, npts), v_l, v_l.copy(),
                      np.zeros(npts), d_min, d_max, rng.integers(1, 99, npts))
        p = tmp_path / "m.bin"
        write_dense_map(p, dm)
        back = read_dense_map(p)
        assert all(
            np.array_equal(getattr(back, f), getattr(dm, f))
            for f in ("positions", "labels", "v_l", "v_u", "theta", "d_min", "d_max", "support")
        )
        exact += 1

    # byte-identical regeneration of dataset and map under a fixed seed
    spec_kwargs = dict(seed=77, n_db=6, n_queries=2, image_size=(64, 48),
                       anchors_per_plane=10, length=14.0)
    cfg = PipelineConfig(fusion_voxel_size=0.15)
    paths = []
    for name in ("a", "b"):
        ds = generate_scene(street_canyon_spec(**spec_kwargs))
        root = tmp_path / name
        save_dataset(ds, root)
        dense_map, _ = build_map(ds.db_records, cfg)
        write_dense_map(root / "dense_map.bin", dense_map)
        paths.append(root)
    files = sorted(p.relative_to(paths[0]) for p in paths[0].rglob("*") if p.is_file())
    identical = all((paths[0] / f).read_bytes() == (paths[1] / f).read_bytes() for f in files)
    ok = exact == 100 and identical and len(files) > 10
    _report(10, "format round-trips", ok,
            f"{exact}/100 instances exact per format; regeneration byte-identical "
            f"across {len(files)} files")


# ── 11. evaluation table ─────────────────────────────────────────────────


def test_acceptance_11_evaluation_table():
    # benchmark threshold interval sets
    assert [(b.max_position_m, b.max_orientation_deg) for b in DAY_BUCKETS] == [
        (0.25, 2.0), (0.5, 5.0), (5.0, 10.0)]
    assert [(b.max_position_m, b.max_orientation_deg) for b in NIGHT_BUCKETS] == [
        (0.5, 2.0), (1.0, 5.0), (5.0, 10.0)]

    rng = np.random.default_rng(1111)

    def with_error(gt, dp, dr):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        R = rodrigues(rng.normal(size=3), math.radians(dr)) @ gt.rotation
        return RigidPose(R, gt.center + dp * direction)

    day_cases = [
        (0.0, 0.0), (0.2, 1.5), (0.1, 0.1),   # all three day buckets
        (0.4, 4.0),                            # second and third
        (2.0, 8.0),                            # third only
        (9.0, 1.0),                            # none
    ]
    night_cases = [
        (0.3, 1.0), (0.45, 1.5),               # all three night buckets
        (0.9, 4.0),                            # second and third
        (3.0, 8.0),                            # third only
    ]
    gt = {}
    est = {}
    conditions = {}
    for i, (dp, dr) in enumerate(day_cases):
        qid = f"d{i}"
        gt[qid] = random_pose(rng)
        est[qid] = with_error(gt[qid], dp, dr)
        conditions[qid] = "day"
    for i, (dp, dr) in enumerate(night_cases):
        qid = f"n{i}"
        gt[qid] = random_pose(rng)
        est[qid] = with_error(gt[qid], dp, dr)
        conditions[qid] = "night"
    gt["d6"] = random_pose(rng)
    est["d6"] = None
    conditions["d6"] = "day"
    gt["n4"] = random_pose(rng)
    est["n4"] = None
    conditions["n4"] = "night"

    report = evaluate(est, gt, buckets={"day": DAY_BUCKETS, "night": NIGHT_BUCKETS},
                      conditions=conditions)
    day = next(g for g in report.groups if g.condition == "day")
    night = next(g for g in report.groups if g.condition == "night")
    # hand-computed: day 3/7, 4/7, 5/7; night 2/5, 3/5, 4/5
    day_expected = (100 * 3 / 7, 100 * 4 / 7, 100 * 5 / 7)
    night_expected = (100 * 2 / 5, 100 * 3 / 5, 100 * 4 / 5)
    ok = (day.total == 7 and night.total == 5
          and day.percentages == pytest.approx(day_expected)
          and night.percentages == pytest.approx(night_expected))
    _report(11, "evaluation table", ok,
            f"day {'/'.join(f'{p:.1f}' for p in day.percentages)}, "
            f"night {'/'.join(f'{p:.1f}' for p in night.percentages)} "
            f"(12 handcrafted cases, inclusive bounds)")
