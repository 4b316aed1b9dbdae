"""Tests of the benchmark's own arithmetic and instrumentation.

Run from the repository root:
    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import numpy as np
import pytest

from perfbench.calibrate import NOMINAL_PROBE_S, normalized_between, probe, speed_factor
from perfbench.metrics import median_errors, per_query_means, pooled_recall, tail_latency
from perfbench.spans import Span, Tracer, instrument, self_times
from semloc import DAY_BUCKETS, NIGHT_BUCKETS, RigidPose, evaluate


class TestTailLatency:
    def test_eleventh_largest_of_thirty(self):
        samples = [float(v) for v in np.random.default_rng(0).permutation(30)]
        value, percentile, n = tail_latency(samples)
        assert (value, n) == (19.0, 30)  # ten samples (20..29) lie beyond it
        assert percentile == pytest.approx(100.0 * 20 / 30)

    def test_exactly_eleven_samples(self):
        assert tail_latency([float(v) for v in range(11)]) == (0.0, 100.0 / 11, 11)

    def test_too_few_samples_give_the_maximum(self):
        assert tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)

    def test_no_samples_rejected(self):
        with pytest.raises(ValueError):
            tail_latency([])


def test_per_query_means_weigh_each_query_once():
    # three queries; the partial second pass repeated only the first one
    assert per_query_means([1.0, 2.0, 3.0, 3.0], 3) == [2.0, 2.0, 3.0]
    with pytest.raises(ValueError):
        per_query_means([1.0, 2.0], 3)


class TestSpeedNormalization:
    def test_factor_is_nominal_over_mean_probe(self):
        slow = 2.0 * NOMINAL_PROBE_S
        assert speed_factor([slow, slow]) == pytest.approx(0.5)
        assert speed_factor([NOMINAL_PROBE_S]) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            speed_factor([])

    def test_each_time_uses_the_probes_around_it(self):
        probes = [NOMINAL_PROBE_S, 3.0 * NOMINAL_PROBE_S, NOMINAL_PROBE_S]
        # first time between probes 1x and 3x (mean 2x), second between 3x and 1x
        assert normalized_between([4.0, 8.0], probes) == pytest.approx([2.0, 4.0])
        with pytest.raises(ValueError):
            normalized_between([4.0, 8.0], probes[:2])

    def test_probe_runs(self):
        assert probe() > 0.0


class TestSelfTimes:
    def test_nested_and_overlapping_children(self):
        spans = [
            Span(0, "root", 0.0, 10.0, None, None),
            Span(1, "a", 1.0, 3.0, 0, None),
            Span(2, "b", 2.0, 5.0, 0, None),  # overlaps a: [1, 5] covered once
            Span(3, "c", 6.0, 7.0, 0, None),
            Span(4, "c.child", 6.2, 6.7, 3, None),  # counts against c, not root
        ]
        selfs = self_times(spans)
        assert selfs[0] == pytest.approx(10.0 - 4.0 - 1.0)
        assert selfs[1] == pytest.approx(2.0)
        assert selfs[3] == pytest.approx(0.5)
        assert selfs[4] == pytest.approx(0.5)

    def test_tracer_links_parents_and_queries(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))
        tracer.query = "q7"
        tracer.call("outer", lambda: tracer.call("inner", lambda: None,
                                                 counts=lambda r: {"n": 3}))
        outer, inner = tracer.spans
        assert (outer.parent, inner.parent) == (None, outer.sid)
        assert outer.query == inner.query == "q7"
        assert inner.counts == {"n": 3}
        # outer: ticks 0..3, inner: ticks 1..2
        assert self_times(tracer.spans) == {0: 2.0, 1: 1.0}

    def test_instrument_restores_the_library(self):
        from semloc import pipeline, semantic_map

        before = (pipeline.estimate_temporary_pose, semantic_map.fuse_depth_maps)
        with instrument(Tracer()):
            assert pipeline.estimate_temporary_pose is not before[0]
            assert semantic_map.fuse_depth_maps is not before[1]
        assert (pipeline.estimate_temporary_pose, semantic_map.fuse_depth_maps) == before


def _shifted(pose, metres):
    return RigidPose(pose.rotation, pose.center + np.array([metres, 0.0, 0.0]))


class TestPooledRecall:
    def test_each_condition_uses_its_own_buckets(self):
        gt = {q: RigidPose.identity() for q in ("d0", "d1", "d2", "n0", "n1")}
        conditions = {"d0": "day", "d1": "day", "d2": "day", "n0": "night", "n1": "night"}
        estimates = {
            "d0": _shifted(gt["d0"], 0.1),  # all day buckets
            "d1": _shifted(gt["d1"], 0.4),  # misses day tight (0.25 m)
            "d2": None,  # unlocalized: misses every bucket
            "n0": _shifted(gt["n0"], 0.4),  # inside night tight (0.5 m)
            "n1": _shifted(gt["n1"], 3.0),  # coarse only
        }
        report = evaluate(estimates, gt, {"day": DAY_BUCKETS, "night": NIGHT_BUCKETS},
                          conditions=conditions)
        tight, mid, coarse = pooled_recall(report)
        assert tight == pytest.approx(2 / 5)
        assert mid == pytest.approx(3 / 5)
        assert coarse == pytest.approx(4 / 5)
        pos, rot = median_errors(report)
        assert pos == pytest.approx(0.4)
        assert rot == pytest.approx(0.0, abs=1e-9)
