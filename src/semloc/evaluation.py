"""Recall-style accuracy reporting for localization runs.

A query counts toward a threshold bucket when BOTH its position error and
its orientation error are within the bucket's bounds (inclusive).  Queries
without a pose estimate fail every bucket and are listed explicitly.
Bucket sets must be nested (each bucket at least as loose as the previous
in both bounds) so the reported percentages are non-decreasing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from .geometry import PoseError, RigidPose, pose_error

__all__ = [
    "DAY_BUCKETS",
    "NIGHT_BUCKETS",
    "ThresholdBucket",
    "ConditionRecall",
    "RecallReport",
    "evaluate",
    "render_report",
]


@dataclass(frozen=True)
class ThresholdBucket:
    max_position_m: float
    max_orientation_deg: float
    label: str = ""

    def __post_init__(self) -> None:
        if not (self.max_position_m > 0 and self.max_orientation_deg > 0):
            raise ValueError("bucket bounds must be positive")
        if not self.label:
            object.__setattr__(
                self, "label", f"{self.max_position_m:g}m/{self.max_orientation_deg:g}deg"
            )


# Long-term localization benchmark intervals: day-time and night-time sets.
DAY_BUCKETS = (
    ThresholdBucket(0.25, 2.0),
    ThresholdBucket(0.5, 5.0),
    ThresholdBucket(5.0, 10.0),
)
NIGHT_BUCKETS = (
    ThresholdBucket(0.5, 2.0),
    ThresholdBucket(1.0, 5.0),
    ThresholdBucket(5.0, 10.0),
)


def _check_nested(buckets: Sequence[ThresholdBucket]) -> None:
    if len(buckets) == 0:
        raise ValueError("bucket list must be non-empty")
    for a, b in zip(buckets, buckets[1:]):
        if b.max_position_m < a.max_position_m or b.max_orientation_deg < a.max_orientation_deg:
            raise ValueError(
                f"buckets must be nested: {b.label} is tighter than {a.label} in one bound"
            )


@dataclass
class ConditionRecall:
    """Recall percentages for one condition tag."""

    condition: str
    buckets: tuple
    percentages: tuple
    total: int
    failure_ids: tuple
    errors: dict = field(default_factory=dict)  # query id -> PoseError or None

    def __post_init__(self) -> None:
        if self.total <= 0:
            raise ValueError("a condition group must contain at least one query")
        for p in self.percentages:
            if not (0.0 <= p <= 100.0):
                raise ValueError("percentages must lie in [0, 100]")
        for a, b in zip(self.percentages, self.percentages[1:]):
            if b < a:
                raise ValueError("percentages must be non-decreasing across nested buckets")


@dataclass
class RecallReport:
    groups: list  # ConditionRecall, sorted by condition tag


def evaluate(
    estimates: Mapping[str, Optional[RigidPose]],
    ground_truth: Mapping[str, RigidPose],
    buckets: Mapping[str, Sequence[ThresholdBucket]],
    conditions: Mapping[str, str],
) -> RecallReport:
    """Pose errors against ground truth, bucketed per condition.

    Every ground-truth query must be listed, in the estimates (which may
    be missing or None, counted as failures) and in ``conditions``, which
    maps each query id to its condition tag.  ``buckets`` maps each tag to
    its bucket list.  An estimate for an unknown query id is an error.
    """
    if len(ground_truth) == 0:
        raise ValueError("ground truth is empty")
    unknown = set(estimates) - set(ground_truth)
    if unknown:
        raise ValueError(f"estimates for unknown query ids: {sorted(unknown)}")

    missing_cond = set(ground_truth) - set(conditions)
    if missing_cond:
        raise ValueError(f"missing condition tags for: {sorted(missing_cond)}")

    by_condition: dict[str, list] = {}
    for qid in ground_truth:
        by_condition.setdefault(conditions[qid], []).append(qid)

    groups = []
    for tag in sorted(by_condition):
        if tag not in buckets:
            raise ValueError(f"no bucket set for condition {tag!r}")
        bset = tuple(buckets[tag])
        _check_nested(bset)

        qids = sorted(by_condition[tag])
        errors: dict[str, Optional[PoseError]] = {}
        failures = []
        for qid in qids:
            est = estimates.get(qid)
            if est is None:
                errors[qid] = None
                failures.append(qid)
            else:
                errors[qid] = pose_error(ground_truth[qid], est)
        counts = [0] * len(bset)
        for err in errors.values():
            if err is None:
                continue
            for i, b in enumerate(bset):
                if err.position_error <= b.max_position_m and err.orientation_error <= b.max_orientation_deg:
                    counts[i] += 1
        total = len(qids)
        groups.append(
            ConditionRecall(
                condition=tag,
                buckets=bset,
                percentages=tuple(100.0 * c / total for c in counts),
                total=total,
                failure_ids=tuple(failures),
                errors=errors,
            )
        )
    return RecallReport(groups=groups)


def render_report(report: RecallReport) -> str:
    """Fixed-precision text table, one 'a / b / c' row per condition."""
    lines = []
    for g in report.groups:
        header = ", ".join(b.label for b in g.buckets)
        row = " / ".join(f"{p:.1f}" for p in g.percentages)
        lines.append(f"{g.condition} ({header}): {row}")
        lines.append(f"{g.condition}: {g.total} queries, {len(g.failure_ids)} failed")
        if g.failure_ids:
            lines.append(f"{g.condition} failures: {' '.join(g.failure_ids)}")
    return "\n".join(lines) + "\n"
