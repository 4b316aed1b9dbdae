"""Pure arithmetic behind the end-to-end metrics: latency percentiles and
recall pooled over day and night queries."""

from __future__ import annotations

import statistics
from typing import Sequence

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile


def tail_latency(samples: Sequence[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ``TAIL_BEYOND``
    samples beyond it.

    Returns ``(value, percentile, n)``: the value is the
    ``TAIL_BEYOND + 1``-th largest sample and the percentile is the share of
    samples at or below it.  With too few samples for the rule the maximum
    is returned at percentile 100.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("no latency samples")
    ordered = sorted(samples)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def per_query_means(latencies: Sequence[float], n_queries: int) -> list[float]:
    """Mean latency of each query over its samples, for a loop that cycled
    through ``n_queries`` queries in order (sample ``i`` is query
    ``i % n_queries``).  Each query then counts once, however many times a
    partial last pass repeated it."""
    if len(latencies) < n_queries:
        raise ValueError("the loop did not complete one pass")
    return [statistics.fmean(latencies[q::n_queries]) for q in range(n_queries)]


def pooled_recall(report) -> tuple[float, ...]:
    """Share of all queries inside their own condition's bucket, per bucket
    index, pooled over the condition groups of a ``semloc`` RecallReport."""
    total = sum(g.total for g in report.groups)
    n_buckets = {len(g.buckets) for g in report.groups}
    if len(n_buckets) != 1:
        raise ValueError("condition groups have different bucket counts")
    return tuple(
        sum(g.percentages[k] * g.total / 100.0 for g in report.groups) / total
        for k in range(n_buckets.pop())
    )


def median_errors(report) -> tuple[float, float]:
    """Median position (m) and orientation (deg) error over the localized
    queries of a RecallReport; NaN when none was localized."""
    errs = [e for g in report.groups for e in g.errors.values() if e is not None]
    if not errs:
        return float("nan"), float("nan")
    return (
        statistics.median(e.position_error for e in errs),
        statistics.median(e.orientation_error for e in errs),
    )
