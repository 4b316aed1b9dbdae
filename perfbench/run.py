"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload canyon-day --seed 1 --seconds 20 --trace 0

The load is a single client in a closed loop: it calls
``pipeline.localize_query`` for each query in order against one
``retrieval.build_index`` index, which is what ``localize_all(threads=1)``
does, and sends the next query only when the previous one returned.  After
the first pass over the workload's queries it keeps cycling through them
until ``--seconds`` have passed.

``--trace 0`` prints the end-to-end metrics.  It runs the machine-speed
probe of ``perfbench.calibrate`` before every set-up and every query, and
states the timings at the probe's nominal speed.  ``--trace 1`` prints the
per-layer metrics: it sets up once untraced and once traced, then runs
whole passes in which each query runs untraced and at once traced, until
``--seconds`` have passed, and reports the difference as the tracing
overhead.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Acceptance-01 tolerance for the zero-noise workload.
EXACT_POSITION_M = 0.01
EXACT_ROTATION_DEG = 0.1
EQUIVALENCE_QUERIES = 3  # queries re-run through localize_all(threads=1)


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--make-inputs", metavar="WORKLOAD",
                   help="generate and cache one workload's dataset, then exit")
    args = p.parse_args(argv)
    if args.make_inputs is None:
        missing = [f"--{k}" for k in ("workload", "seed", "seconds", "trace")
                   if getattr(args, k) is None]
        if missing:
            p.error("missing " + ", ".join(missing))
        if not args.seconds > 0:
            p.error("--seconds must be positive")
    return args


@dataclass
class Loop:
    latencies: list = field(default_factory=list)
    probes: list = field(default_factory=list)  # probe times: before each query, after the last
    first_pass: list = field(default_factory=list)  # LocalizationResult per query
    repeats: list = field(default_factory=list)  # (query position, result) after pass 1
    errors: Counter = field(default_factory=Counter)  # exception type name -> count
    elapsed: float = 0.0
    passes: int = 0

    def query(self, tracer, pos, q, ready, cfg, first: bool) -> None:
        """Localize one query and record its result and latency; ``first``
        marks the first pass.  An exception fails only this query."""
        from semloc.pipeline import LocalizationResult, localize_query

        tracer.query = q.image_id
        t0 = time.perf_counter()
        try:
            result = tracer.call("pipeline.query", localize_query,
                                 q, pos, ready.records, ready.dense_map, ready.index, cfg)
        except Exception as exc:  # one bad query must not void the run
            self.errors[type(exc).__name__] += 1
            result = LocalizationResult(query_id=q.image_id, condition=q.condition, pose=None,
                                        failure_reason=f"error {type(exc).__name__}")
        self.latencies.append(time.perf_counter() - t0)
        tracer.query = None
        if first:
            self.first_pass.append(result)
        else:
            self.repeats.append((pos, result))


def run_loop(queries, ready, cfg, seconds, paired=None):
    """Closed loop over ``queries`` until ``seconds`` have passed, at least
    one full pass.

    Unpaired, the speed probe runs before each query and after the last
    one, untimed.

    With ``paired=(tracer, traced_ready)`` every query runs untraced and then
    at once traced, against the traced set-up, and the loop stops only at a
    pass boundary; drift in machine speed then hits both sides alike.
    Returns the untraced Loop and the traced one (None when unpaired).
    """
    from perfbench import calibrate
    from perfbench.spans import NoTracer, instrument

    untraced, traced = Loop(), Loop() if paired else None
    no_tracer = NoTracer()
    n = len(queries)
    start = time.perf_counter()
    i = 0
    while True:
        pos = i % n
        if not paired:
            untraced.probes.append(calibrate.probe())
        untraced.query(no_tracer, pos, queries[pos], ready, cfg, i < n)
        if paired:
            tracer, traced_ready = paired
            with instrument(tracer):
                traced.query(tracer, pos, queries[pos], traced_ready, cfg, i < n)
        i += 1
        if i >= n and time.perf_counter() - start >= seconds and not (paired and i % n):
            break
    elapsed = time.perf_counter() - start
    if not paired:
        untraced.probes.append(calibrate.probe())
    for loop in filter(None, (untraced, traced)):
        loop.elapsed, loop.passes = elapsed, i // n
    return untraced, traced


@dataclass
class Ready:
    records: list
    dense_map: object
    index: object
    built_map: object = None  # the map before its MAP1 round trip
    map_bytes: int = 0


def set_up(workload, cfg, dataset, inputs, out_dir, tracer):
    """Inputs to ready-to-query: build_map + build_index, and on disk-backed
    workloads also load_dataset before and the MAP1 write and read after."""
    from semloc import GlobalDescriptor, build_index, build_map
    from semloc.formats import load_dataset, read_dense_map, write_dense_map

    if workload.from_disk:
        dataset = tracer.call("formats.load", load_dataset, inputs)
    records = dataset.db_records
    dense_map, _ = build_map(records, cfg)
    index = tracer.call("retrieval.index", lambda: build_index(
        [GlobalDescriptor(r.image_id, r.global_descriptor) for r in records]))
    ready = Ready(records, dense_map, index)
    if workload.from_disk:
        path = out_dir / "map.bin"
        tracer.call("formats.map_write", write_dense_map, path, dense_map)
        ready.built_map = dense_map
        ready.dense_map = tracer.call("formats.map_read", read_dense_map, path)
        ready.map_bytes = path.stat().st_size
    return ready


def timed_setups(reps, *args):
    """Set up ``reps`` times, with the speed probe before each set-up and
    after the last; returns the times, the probe times, the last set-up, and
    whether every set-up built the same map as the first."""
    from perfbench import calibrate

    times, probes, first_map, ready, deterministic = [], [], None, None, True
    for _ in range(reps):
        ready = None
        gc.collect()
        probes.append(calibrate.probe())
        t0 = time.perf_counter()
        ready = set_up(*args)
        times.append(time.perf_counter() - t0)
        if first_map is None:
            first_map = ready.dense_map
        else:
            deterministic &= same_map(first_map, ready.dense_map)
    probes.append(calibrate.probe())
    return times, probes, ready, deterministic


def same_map(a, b, stored=lambda x: x) -> bool:
    """Field-by-field equality of two maps, after passing ``b`` through
    ``stored``."""
    import numpy as np

    return all(np.array_equal(getattr(a, f), stored(getattr(b, f)))
               for f in ("positions", "labels", "v_l", "v_u", "theta", "d_min", "d_max",
                         "support"))


def estimates_bytes(results, path) -> bytes:
    from semloc.formats import write_estimates

    write_estimates(path, results)
    return path.read_bytes()


def pose_is_valid(pose) -> bool:
    import numpy as np

    R, C = pose.rotation, pose.center
    return bool(np.all(np.isfinite(R)) and np.all(np.isfinite(C))
                and np.max(np.abs(R @ R.T - np.eye(3))) < 1e-9 and np.linalg.det(R) > 0.0)


def accuracy(results, gt_poses):
    from semloc import DAY_BUCKETS, NIGHT_BUCKETS, evaluate

    return evaluate({r.query_id: r.pose for r in results},
                    {r.query_id: gt_poses[r.query_id] for r in results},
                    {"day": DAY_BUCKETS, "night": NIGHT_BUCKETS},
                    conditions={r.query_id: r.condition for r in results})


def run(args) -> int:
    import numpy as np

    from perfbench import calibrate, machine, metrics, spans, workloads
    from semloc.formats import load_dataset
    from semloc.pipeline import FAILURE_NO_CONSENSUS, FAILURE_NO_CORRESPONDENCES, localize_all

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    cfg = wl.config()
    inputs = workloads.ensure_inputs(wl, Path(__file__).resolve())
    checks = {"inputs_intact": workloads.inputs_intact(inputs)}
    dataset = load_dataset(inputs)
    order = np.random.default_rng(args.seed).permutation(len(dataset.queries))
    queries = [dataset.queries[i] for i in order]
    out_dir = BENCH_DIR / ".out" / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    setup_args = (wl, cfg, dataset, inputs, out_dir)

    untraced = spans.NoTracer()
    reps = wl.setup_reps if args.trace == 0 else 1
    setup_times, setup_probes, ready, checks["setup_deterministic"] = timed_setups(
        reps, *setup_args, untraced)
    if args.trace == 0:
        loop, _ = run_loop(queries, ready, cfg, args.seconds)
    else:
        tracer = spans.Tracer()
        with spans.instrument(tracer):
            t0 = time.perf_counter()
            traced_ready = tracer.call("setup", set_up, *setup_args, tracer)
            traced_setup_s = time.perf_counter() - t0
        loop, traced = run_loop(queries, ready, cfg, args.seconds, (tracer, traced_ready))

    first = loop.first_pass
    first_bytes = estimates_bytes(first, out_dir / "loop.txt")
    checks["repeats_identical"] = all(
        estimates_bytes([r], out_dir / "repeat.txt")
        == estimates_bytes([first[pos]], out_dir / "first.txt")
        for pos, r in loop.repeats)
    k = min(EQUIVALENCE_QUERIES, len(queries))
    try:
        batch = localize_all(queries[:k], ready.records, ready.dense_map, cfg, threads=1)
        checks["matches_localize_all"] = (estimates_bytes(batch, out_dir / "batch.txt")
                                          == estimates_bytes(first[:k], out_dir / "prefix.txt"))
    except Exception:  # a query that raises fails the gate; the loop counted it
        checks["matches_localize_all"] = False
    poses = [r.pose for r in first if r.pose is not None]
    checks["some_query_localized"] = bool(poses)
    checks["poses_finite_orthonormal"] = all(pose_is_valid(p) for p in poses)
    report = accuracy(first, dataset.gt_poses)
    if wl.exact:
        checks["within_acceptance_01_tolerance"] = all(
            e is not None and e.position_error <= EXACT_POSITION_M
            and e.orientation_error <= EXACT_ROTATION_DEG
            for g in report.groups for e in g.errors.values())
    if wl.from_disk:
        # MAP1 stores float32 fields; everything else must come back unchanged.
        checks["map_read_back"] = same_map(ready.dense_map, ready.built_map,
                                           lambda a: a.astype(np.float32).astype(a.dtype))

    failures = Counter(r.failure_reason for r in first if r.pose is None)
    attempted = len(loop.latencies)
    failed = sum(loop.errors.values())
    detail = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine.machine_info(ROOT),
        "queries": len(queries),
        "setup_samples": len(setup_times),
    }

    if args.trace == 0:
        raw_per_query = metrics.per_query_means(loop.latencies, len(queries))
        per_query = metrics.per_query_means(
            calibrate.normalized_between(loop.latencies, loop.probes), len(queries))
        tail, tail_pct, n = metrics.tail_latency(per_query)
        recall = metrics.pooled_recall(report)
        pos_err, rot_err = metrics.median_errors(report)
        out = {
            "setup_s": (statistics.median(calibrate.normalized_between(setup_times, setup_probes)),
                        "s"),
            "queries_per_s": (len(per_query) / sum(per_query), "1/s"),
            "query_p50_ms": (1e3 * statistics.median(per_query), "ms"),
            "query_tail_ms": (1e3 * tail, "ms"),
            "recall_tight": (recall[0], "share"),
            "recall_mid": (recall[1], "share"),
            "recall_coarse": (recall[2], "share"),
            "median_pos_err_m": (pos_err, "m"),
            "median_rot_err_deg": (rot_err, "deg"),
            "localized_share": (len(poses) / len(first), "share"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        detail.update({
            "latency_samples": n,
            "loop_samples": attempted,
            "tail_percentile": tail_pct,
            "passes": loop.passes,
            "loop_s": loop.elapsed,
            "failed_share": (len(first) - len(poses)) / len(first),
            "raw": {
                "setup_s": statistics.median(setup_times),
                "queries_per_s": len(raw_per_query) / sum(raw_per_query),
                "query_p50_ms": 1e3 * statistics.median(raw_per_query),
                "query_tail_ms": 1e3 * metrics.tail_latency(raw_per_query)[0],
            },
            "probe": {
                "nominal_s": calibrate.NOMINAL_PROBE_S,
                "setup_mean_s": statistics.fmean(setup_probes),
                "loop_mean_s": statistics.fmean(loop.probes),
                "loop_samples": len(loop.probes),
            },
            "failure_reasons": dict(failures),
            "errors": dict(loop.errors),
        })
    else:
        checks["trace_identical"] = (estimates_bytes(traced.first_pass, out_dir / "traced.txt")
                                     == first_bytes)
        checks["setup_deterministic"] &= same_map(ready.dense_map, traced_ready.dense_map)
        spans.write_spans(tracer.spans, out_dir / "spans.jsonl")
        untraced_s = setup_times[0] + sum(loop.latencies) / loop.passes
        traced_s = traced_setup_s + sum(traced.latencies) / traced.passes
        t_fail = Counter(r.failure_reason for r in traced.first_pass if r.pose is None)
        out = spans.layer_metrics(tracer.spans, traced.passes)
        out.update({
            "formats.map_bytes": (traced_ready.map_bytes, "bytes"),
            "pipeline.fail_no_correspondences": (t_fail[FAILURE_NO_CORRESPONDENCES], "count"),
            "pipeline.fail_no_consensus": (t_fail[FAILURE_NO_CONSENSUS], "count"),
            "pipeline.errors": (sum(traced.errors.values()), "count"),
            "trace.overhead_s": (traced_s - untraced_s, "s"),
        })
        attempted += len(traced.latencies)
        failed += sum(traced.errors.values())
        detail.update({
            "traced_passes": traced.passes,
            "untraced_setup_and_pass_s": untraced_s,
            "traced_setup_and_pass_s": traced_s,
            "spans": len(tracer.spans),
            "errors": dict(loop.errors + traced.errors),
        })

    correct = all(checks.values())
    detail["checks"] = checks
    for name, (value, unit) in out.items():
        print(f"{name:34s} {value:>14.6g} {unit}")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value if math.isfinite(value) else None, "unit": unit}
                    for name, (value, unit) in out.items()},
    }))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "semloc" / "__init__.py").is_file():
        print(f"perfbench: no semloc sources at {SRC}", file=sys.stderr)
        return 2
    # Import the library from this checkout, and this package by its name.
    sys.path[0:1] = [str(SRC), str(ROOT)]
    if args.make_inputs is not None:
        from perfbench import workloads

        workloads.make_inputs(workloads.WORKLOADS[args.make_inputs])
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
