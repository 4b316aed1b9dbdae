"""Recall report tests, including a hand-computed 12-case table."""

import json

import numpy as np
import pytest

from semloc.evaluation import (
    DAY_BUCKETS,
    NIGHT_BUCKETS,
    ThresholdBucket,
    evaluate,
    render_report,
)
from semloc.formats import write_report_files
from semloc.geometry import RigidPose

from conftest import random_pose, rodrigues


def _evaluate_day(estimates, gt, buckets=DAY_BUCKETS):
    """evaluate with every ground-truth query tagged day and scored on the
    given buckets."""
    return evaluate(estimates, gt, {"day": buckets}, conditions={q: "day" for q in gt})


def _pose_with_error(gt, pos_err, rot_err_deg, rng):
    axis = rng.normal(size=3)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    R = rodrigues(axis, np.radians(rot_err_deg)) @ gt.rotation
    return RigidPose(R, gt.center + pos_err * direction)


class TestEvaluate:
    def test_perfect_estimates(self):
        rng = np.random.default_rng(0)
        gt = {f"q{i}": random_pose(rng) for i in range(5)}
        report = _evaluate_day(dict(gt), gt)
        assert report.groups[0].percentages == (100.0, 100.0, 100.0)
        assert report.groups[0].failure_ids == ()

    def test_between_first_and_second_bucket(self):
        # 0.3 m / 1 degree misses (0.25, 2) but hits (0.5, 5) and (5, 10)
        rng = np.random.default_rng(1)
        gt = {"q0": random_pose(rng)}
        est = {"q0": _pose_with_error(gt["q0"], 0.3, 1.0, rng)}
        report = _evaluate_day(est, gt)
        assert report.groups[0].percentages == (0.0, 100.0, 100.0)

    def test_handcrafted_twelve_case_table(self):
        # (pos, rot) cases against the day set (0.25, 2), (0.5, 5), (5, 10):
        #   four hit every bucket, two miss only the first (pos or rot),
        #   two miss the first two, two miss all three, two fail outright.
        # Bucket membership needs BOTH bounds; boundaries are inclusive.
        rng = np.random.default_rng(2)
        cases = [
            (0.0, 0.0), (0.24, 1.9), (0.1, 1.9), (0.2, 0.5),      # all buckets
            (0.3, 1.0), (0.2, 4.0),                               # second and third
            (0.45, 9.0), (4.0, 6.0),                              # third only
            (6.0, 1.0), (0.1, 15.0),                              # none
        ]
        gt = {}
        est = {}
        for i, (dp, dr) in enumerate(cases):
            qid = f"q{i:02d}"
            gt[qid] = random_pose(rng)
            est[qid] = _pose_with_error(gt[qid], dp, dr, rng)
        gt["q10"] = random_pose(rng)
        est["q10"] = None
        gt["q11"] = random_pose(rng)  # absent from estimates entirely
        report = _evaluate_day(est, gt)
        g = report.groups[0]
        assert g.total == 12
        # hand-computed: 4/12, 6/12, 8/12
        assert g.percentages == pytest.approx((100 * 4 / 12, 100 * 6 / 12, 100 * 8 / 12))
        assert set(g.failure_ids) == {"q10", "q11"}

    def test_boundaries_are_inclusive(self):
        rng = np.random.default_rng(12)
        gt = {"a": random_pose(rng)}
        # axis-aligned offset: position error is exactly 0.25
        est = {"a": RigidPose(gt["a"].rotation, gt["a"].center + np.array([0.25, 0.0, 0.0]))}
        report = _evaluate_day(est, gt)
        assert report.groups[0].percentages[0] == 100.0
        # orientation boundary: bucket bound set to the exact computed error
        from semloc.geometry import rotation_error_deg
        est2 = {"a": _pose_with_error(gt["a"], 0.0, 2.0, rng)}
        err = rotation_error_deg(gt["a"].rotation, est2["a"].rotation)
        bucket = (ThresholdBucket(0.25, err),)
        report2 = _evaluate_day(est2, gt, bucket)
        assert report2.groups[0].percentages[0] == 100.0

    def test_missing_estimate_fails_all_buckets(self):
        rng = np.random.default_rng(3)
        gt = {"a": random_pose(rng), "b": random_pose(rng)}
        report = _evaluate_day({"a": gt["a"]}, gt)
        assert report.groups[0].percentages == (50.0, 50.0, 50.0)
        assert report.groups[0].failure_ids == ("b",)

    def test_unknown_estimate_id_rejected(self):
        rng = np.random.default_rng(4)
        gt = {"a": random_pose(rng)}
        with pytest.raises(ValueError, match="unknown query"):
            _evaluate_day({"a": gt["a"], "zz": gt["a"]}, gt)

    def test_empty_ground_truth_rejected(self):
        with pytest.raises(ValueError):
            _evaluate_day({}, {})

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        gt = {f"q{i}": random_pose(rng) for i in range(8)}
        est = {q: _pose_with_error(p, rng.uniform(0, 1), rng.uniform(0, 6), rng)
               for q, p in gt.items()}
        a = _evaluate_day(est, gt)
        items = list(est.items())[::-1]
        b = _evaluate_day(dict(items), dict(list(gt.items())[::-1]))
        assert a.groups[0].percentages == b.groups[0].percentages

    def test_condition_grouping(self):
        rng = np.random.default_rng(6)
        gt = {"d0": random_pose(rng), "n0": random_pose(rng)}
        est = {"d0": gt["d0"], "n0": None}
        report = evaluate(
            est, gt,
            buckets={"day": DAY_BUCKETS, "night": NIGHT_BUCKETS},
            conditions={"d0": "day", "n0": "night"},
        )
        assert [g.condition for g in report.groups] == ["day", "night"]
        assert report.groups[0].percentages == (100.0, 100.0, 100.0)
        assert report.groups[1].percentages == (0.0, 0.0, 0.0)

    def test_non_nested_buckets_rejected(self):
        rng = np.random.default_rng(7)
        gt = {"a": random_pose(rng)}
        bad = (ThresholdBucket(1.0, 2.0), ThresholdBucket(0.5, 5.0))
        with pytest.raises(ValueError, match="nested"):
            _evaluate_day(dict(gt), gt, bad)

    def test_monotone_percentages(self):
        rng = np.random.default_rng(8)
        gt = {f"q{i}": random_pose(rng) for i in range(30)}
        est = {q: _pose_with_error(p, rng.uniform(0, 2), rng.uniform(0, 12), rng)
               for q, p in gt.items()}
        report = _evaluate_day(est, gt)
        p = report.groups[0].percentages
        assert p[0] <= p[1] <= p[2]


class TestRenderAndSerialize:
    def test_render_all_pass(self):
        rng = np.random.default_rng(9)
        gt = {f"q{i}": random_pose(rng) for i in range(4)}
        text = render_report(_evaluate_day(dict(gt), gt))
        assert "100.0 / 100.0 / 100.0" in text

    def test_render_two_condition_rows(self):
        rng = np.random.default_rng(10)
        gt = {"d0": random_pose(rng), "n0": random_pose(rng)}
        report = evaluate(
            {"d0": gt["d0"], "n0": gt["n0"]}, gt,
            buckets={"day": DAY_BUCKETS, "night": NIGHT_BUCKETS},
            conditions={"d0": "day", "n0": "night"},
        )
        text = render_report(report)
        assert text.count("100.0 / 100.0 / 100.0") == 2
        assert "day (" in text and "night (" in text

    def test_report_roundtrip_reproduces_exactly(self, tmp_path):
        rng = np.random.default_rng(11)
        gt = {f"q{i}": random_pose(rng) for i in range(10)}
        est = {}
        for i, (q, p) in enumerate(gt.items()):
            est[q] = None if i % 4 == 0 else _pose_with_error(p, rng.uniform(0, 1), rng.uniform(0, 8), rng)
        report = _evaluate_day(est, gt)
        _, json_path = write_report_files(tmp_path / "report", report, render_report(report))
        g = json.loads(json_path.read_text())["groups"][0]
        assert tuple(g["percentages"]) == report.groups[0].percentages
        assert tuple(g["failure_ids"]) == report.groups[0].failure_ids
        # recompute percentages from serialized per-query errors
        counts = [0] * len(g["buckets"])
        for err in g["errors"].values():
            if err is None:
                continue
            for k, b in enumerate(g["buckets"]):
                if (err["position_error"] <= b["max_position_m"]
                        and err["orientation_error"] <= b["max_orientation_deg"]):
                    counts[k] += 1
        recomputed = tuple(100.0 * c / g["total"] for c in counts)
        assert recomputed == report.groups[0].percentages

    def test_bucket_bounds_validated(self):
        with pytest.raises(ValueError):
            ThresholdBucket(0.0, 2.0)
