"""Command-line entry points.

Subcommands::

    semloc synth      <scene-spec> <out-dir>              generate a dataset
    semloc build-map  <dataset> <config> <out-map>        build the dense map
    semloc localize   <dataset> <map> <config> <out>      localize all queries
    semloc evaluate   <estimates> <gt-cameras> <out-prefix>   score the estimates

Global flags: ``--seed N`` overrides the config file's seed and replaces the
scene spec's seed for ``synth``; ``--verbose`` logs at debug level.

Exit codes: 0 success, 1 usage error, 2 data error (an input that is
missing, unreadable or malformed, or an output that cannot be written).
Logs go to stderr; results only ever go to files.  ``evaluate`` needs one
estimate line per ground-truth query.
"""

from __future__ import annotations

import argparse
import errno
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import formats
from .config import PipelineConfig, parse_config_file
from .evaluation import DAY_BUCKETS, NIGHT_BUCKETS, evaluate, render_report
from .formats import DataFormatError
from .pipeline import build_map, localize_all
from .synthetic import generate_scene, parse_scene_spec_file

logger = logging.getLogger("semloc")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="semloc", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=None, help="override config and scene seed")
    parser.add_argument("--verbose", action="store_true", help="log at debug level")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("scene_spec")
    p.add_argument("out_dir")

    p = sub.add_parser("build-map", help="build the dense semantic map")
    p.add_argument("dataset")
    p.add_argument("config")
    p.add_argument("out_map")

    p = sub.add_parser("localize", help="localize every query in the dataset")
    p.add_argument("dataset")
    p.add_argument("map")
    p.add_argument("config")
    p.add_argument("out")

    p = sub.add_parser("evaluate", help="score estimates against ground truth")
    p.add_argument("estimates")
    p.add_argument("ground_truth")
    p.add_argument("out_prefix")
    return parser


def _load_config(path, args) -> PipelineConfig:
    cfg = parse_config_file(path)
    return cfg if args.seed is None else replace(cfg, seed=args.seed)


def _refuse_unwritable(*paths: Path) -> None:
    """Raise the OSError that writing would raise for an output path that
    is a directory or whose parent directory is missing, before any work."""
    for path in paths:
        if path.is_dir() or not path.parent.is_dir():
            code = errno.EISDIR if path.is_dir() else errno.ENOENT
            raise OSError(code, os.strerror(code), str(path))


def cmd_synth(args) -> int:
    spec = parse_scene_spec_file(args.scene_spec, seed=args.seed)
    dataset = generate_scene(spec)
    formats.save_dataset(dataset, args.out_dir)
    logger.info(
        "wrote dataset with %d database images, %d queries to %s",
        len(dataset.db_records), len(dataset.queries), args.out_dir,
    )
    return EXIT_OK


def cmd_build_map(args) -> int:
    _refuse_unwritable(Path(args.out_map))
    cfg = _load_config(args.config, args)
    loaded = formats.load_dataset(args.dataset)
    dense_map, stats = build_map(loaded.db_records, cfg)
    formats.write_dense_map(args.out_map, dense_map)
    logger.info(
        "map build: %d -> %d valid pixels, %d fused, %d labeled, %d stable",
        stats.valid_pixels_before_filter, stats.valid_pixels_after_filter,
        stats.fused_points, stats.labeled_points, stats.stable_points,
    )
    logger.info("wrote %d map points to %s", stats.stable_points, args.out_map)
    return EXIT_OK


def cmd_localize(args) -> int:
    out, diag_path = Path(args.out), Path(str(args.out) + ".diagnostics.json")
    _refuse_unwritable(out, diag_path)
    cfg = _load_config(args.config, args)
    loaded = formats.load_dataset(args.dataset)
    dense_map = formats.read_dense_map(args.map)
    results = localize_all(loaded.queries, loaded.db_records, dense_map, cfg)
    diag = {
        r.query_id: {
            "condition": r.condition,
            "failure_reason": r.failure_reason,
            **r.diagnostics,
        }
        for r in results
    }
    diag_path.write_text(json.dumps(diag, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    try:
        formats.write_estimates(out, results)
    except OSError:
        diag_path.unlink()  # a failed localize leaves neither file
        raise
    ok = sum(1 for r in results if r.pose is not None)
    logger.info("localized %d / %d queries; estimates at %s", ok, len(results), args.out)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    _refuse_unwritable(*formats.report_paths(args.out_prefix))
    estimates, conditions = formats.read_estimates(args.estimates)
    gt_records = formats.read_cameras(args.ground_truth)
    ground_truth = {rec.image_id: rec.pose for rec in gt_records}
    unknown = set(estimates) - set(ground_truth)
    if unknown:
        raise DataFormatError(args.estimates, None,
                              f"estimates for unknown query ids: {sorted(unknown)}")
    missing = set(ground_truth) - set(estimates)
    if missing:
        raise DataFormatError(args.estimates, None,
                              f"no estimates for query ids: {sorted(missing)}")
    report = evaluate(
        estimates, ground_truth,
        buckets={"day": DAY_BUCKETS, "night": NIGHT_BUCKETS},
        conditions=conditions,
    )
    rendered = render_report(report)
    text_path, json_path = formats.write_report_files(args.out_prefix, report, rendered)
    logger.info("wrote %s and %s", text_path, json_path)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    handlers = {
        "synth": cmd_synth,
        "build-map": cmd_build_map,
        "localize": cmd_localize,
        "evaluate": cmd_evaluate,
    }
    try:
        return handlers[args.command](args)
    except OSError as exc:  # reading fails as DataFormatError, so this is a write
        logger.error("cannot write %s: %s", exc.filename, exc.strerror)
        return EXIT_DATA
    except ValueError as exc:
        logger.error("%s", exc)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
