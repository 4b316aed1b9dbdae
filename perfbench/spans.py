"""Spans recorded around semloc's layer boundaries, from outside the
library.

``instrument`` swaps the public functions that ``semloc.pipeline`` and
``semloc.semantic_map`` call through their own module namespaces for
wrappers that record a span per call, and restores the originals on exit.
Counts derived from a call's arguments and result are computed after its
span has ended, so they do not inflate the span.  Spans stay in memory
until ``write_spans`` is called at the end of a run.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    query: Optional[str]
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one thread of execution."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.query: Optional[str] = None  # id stamped on spans opened now
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable, *args, counts: Optional[Callable] = None, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``.

        ``counts(result, *args, **kwargs)`` returns the span's counts; it
        runs after the span has ended.
        """
        span = Span(len(self.spans), name, 0.0, 0.0,
                    self._stack[-1] if self._stack else None, self.query)
        self.spans.append(span)
        self._stack.append(span.sid)
        span.start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = self.clock()
            self._stack.pop()
        if counts is not None:
            span.counts = counts(result, *args, **kwargs)
        return result

    def wrap(self, name: str, fn: Callable, counts: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, counts=counts, **kwargs)

        return traced


class NoTracer:
    """Stand-in for Tracer in untraced runs: calls straight through."""

    query: Optional[str] = None

    def call(self, name: str, fn: Callable, *args, counts: Optional[Callable] = None, **kwargs):
        return fn(*args, **kwargs)


def _final_counts(result, corrs, *_args, **_kwargs) -> dict:
    if result is None:
        return {"ok": 0, "iterations": 0, "inliers": 0, "correspondences": len(corrs)}
    return {"ok": 1, "iterations": result.iterations_used,
            "inliers": result.num_inliers, "correspondences": len(corrs)}


# Function name in the module namespace -> (span name, counts).
PIPELINE_HOOKS = {
    "build_dense_map": ("semantic_map.build",
                        lambda r, *a, **k: {"map_points": len(r[0])}),
    "query_top_k": ("retrieval.query", None),
    "match_family": ("matching.match", lambda r, *a, **k: {"matches": len(r)}),
    "lift_to_3d": ("matching.lift",
                   lambda r, matches, *a, **k: {"in": len(matches),
                                                "kept": len(r.correspondences)}),
    "estimate_temporary_pose": ("pnp.temp", lambda r, *a, **k: {"ok": int(r is not None)}),
    "gate_visible": ("scoring.gate",
                     lambda r, dense_map, *a, **k: {"points_in": len(dense_map),
                                                    "passed": len(r)}),
    "semantic_consistency_score": ("scoring.score", None),
    "normalize_weights": ("scoring.weights", None),
    "weighted_ransac_pnp": ("pnp.final", _final_counts),
    "refine_pose": ("pnp.refine", None),
}
SEMANTIC_MAP_HOOKS = {
    "filter_depth_map": ("semantic_map.filter",
                         lambda r, target, *a, **k: {"pixels": int((target.depth > 0).sum()),
                                                     "kept": int((r > 0).sum())}),
    "fuse_depth_maps": ("semantic_map.fuse", lambda r, *a, **k: {"fused_points": len(r)}),
}


@contextmanager
def instrument(tracer: Tracer):
    """Route the library's layer calls through ``tracer`` while active."""
    from semloc import pipeline, semantic_map

    saved = []
    try:
        for module, hooks in ((pipeline, PIPELINE_HOOKS), (semantic_map, SEMANTIC_MAP_HOOKS)):
            for attr, (name, counts) in hooks.items():
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, tracer.wrap(name, original, counts))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted(children[s.sid]):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out[s.sid] = s.duration - covered
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced set-up (spans without a query id)
    and ``passes`` traced passes over the queries; query-phase figures are
    per pass."""
    selfs = self_times(spans)
    setup = defaultdict(list)
    query = defaultdict(list)
    for s in spans:
        (setup if s.query is None else query)[s.name].append(s)

    def secs(group, name, pred=lambda s: True):
        return sum(s.duration for s in group[name] if pred(s))

    def total(group, name, key, pred=lambda s: True):
        return sum(s.counts.get(key, 0) for s in group[name] if pred(s))

    ok = lambda s: s.counts.get("ok") == 1  # noqa: E731
    failed = lambda s: s.counts.get("ok") == 0  # noqa: E731
    temp_calls = len(query["pnp.temp"])
    temp_ok = total(query, "pnp.temp", "ok")
    filter_pixels = total(setup, "semantic_map.filter", "pixels")
    gate_in = total(query, "scoring.gate", "points_in")
    lift_in = total(query, "matching.lift", "in")
    p = float(passes)
    return {
        "pnp.temp_s": (secs(query, "pnp.temp") / p, "s"),
        "pnp.temp_calls": (temp_calls / p, "count"),
        "pnp.temp_fail": ((temp_calls - temp_ok) / p, "count"),
        "pnp.temp_fail_s": (secs(query, "pnp.temp", failed) / p, "s"),
        "pnp.temp_ok_ratio": (_ratio(temp_ok, temp_calls), "ratio"),
        "pnp.final_s": (secs(query, "pnp.final") / p, "s"),
        "pnp.final_fail": (sum(1 for s in query["pnp.final"] if failed(s)) / p, "count"),
        "pnp.final_iterations": (total(query, "pnp.final", "iterations", ok) / p, "count"),
        "pnp.final_inlier_ratio": (_ratio(total(query, "pnp.final", "inliers", ok),
                                          total(query, "pnp.final", "correspondences", ok)),
                                   "ratio"),
        "pnp.refine_s": (secs(query, "pnp.refine") / p, "s"),
        "semantic_map.filter_s": (secs(setup, "semantic_map.filter"), "s"),
        "semantic_map.filter_pixels": (filter_pixels, "count"),
        "semantic_map.filter_kept_ratio": (
            _ratio(total(setup, "semantic_map.filter", "kept"), filter_pixels), "ratio"),
        "semantic_map.fuse_s": (secs(setup, "semantic_map.fuse"), "s"),
        "semantic_map.fused_points": (total(setup, "semantic_map.fuse", "fused_points"), "count"),
        "semantic_map.vote_cone_s": (
            sum(selfs[s.sid] for s in setup["semantic_map.build"]), "s"),
        "semantic_map.map_points": (total(setup, "semantic_map.build", "map_points"), "count"),
        "scoring.gate_s": (secs(query, "scoring.gate") / p, "s"),
        "scoring.gate_points_in": (gate_in / p, "count"),
        "scoring.gate_pass_ratio": (_ratio(total(query, "scoring.gate", "passed"), gate_in),
                                    "ratio"),
        "scoring.score_s": (secs(query, "scoring.score") / p, "s"),
        "scoring.weights_s": (secs(query, "scoring.weights") / p, "s"),
        "matching.match_s": (secs(query, "matching.match") / p, "s"),
        "matching.matches": (total(query, "matching.match", "matches") / p, "count"),
        "matching.lift_s": (secs(query, "matching.lift") / p, "s"),
        "matching.lift_kept_ratio": (_ratio(total(query, "matching.lift", "kept"), lift_in),
                                     "ratio"),
        "retrieval.index_s": (secs(setup, "retrieval.index"), "s"),
        "retrieval.query_s": (secs(query, "retrieval.query") / p, "s"),
        "formats.load_s": (secs(setup, "formats.load"), "s"),
        "formats.map_write_s": (secs(setup, "formats.map_write"), "s"),
        "formats.map_read_s": (secs(setup, "formats.map_read"), "s"),
        "pipeline.query_self_s": (
            sum(selfs[s.sid] for s in query["pipeline.query"]) / p, "s"),
    }


def write_spans(spans: list[Span], path) -> None:
    """One JSON object per line, in the order the spans were opened."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(asdict(s), sort_keys=True) + "\n")
