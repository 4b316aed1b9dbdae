"""Pipeline configuration and its key-value file format.

The config file is plain ``key = value`` lines with ``#`` comments.  It
holds the settings a run varies: the depth filter tolerance, the fusion
voxel size and unstable classes, the retrieval top-k per condition, the
RANSAC inlier threshold and iteration caps, and the seed.  Constants no
run varies stay with the code that uses them: the visibility gate margins,
the depth filter's neighbor count and required confirmations, the RANSAC
confidence and both RANSAC stages' min-inliers bounds.  Unknown and
repeated keys are rejected so typos fail loudly, and every value is
range-checked as its line is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .formats import DataFormatError, key_value_lines
from .pnp import RansacConfig
from .retrieval import RetrievalConfig
from .semantic_map import (DEFAULT_UNSTABLE_CLASS_IDS, DEFAULT_VOXEL_SIZE, MAX_CLASS_ID,
                           DepthFilterConfig)

__all__ = ["PipelineConfig", "parse_config_file", "render_config"]

# Inliers a temporary per-retrieved-image pose needs; the final pose needs
# RansacConfig's own min_inliers.
_TEMP_MIN_INLIERS = 6


@dataclass(frozen=True)
class PipelineConfig:
    """Every setting a pipeline run varies, each defaulting to its owner's
    value: a stage type's field or a module constant.

    Building a config checks the settings no stage type owns and builds
    each stage type once, so every range check fails here rather than in
    build_map or on the first query.  Derive a changed config with
    dataclasses.replace.
    """

    seed: int = 0
    # depth filtering
    depth_filter_tau: float = DepthFilterConfig.tau
    # fusion
    fusion_voxel_size: float = DEFAULT_VOXEL_SIZE
    unstable_classes: frozenset = DEFAULT_UNSTABLE_CLASS_IDS
    # retrieval
    top_k_day: int = RetrievalConfig.top_k
    top_k_night: int = 30
    # RANSAC (final weighted stage)
    ransac_inlier_threshold_px: float = RansacConfig.inlier_threshold_px
    ransac_max_iterations: int = RansacConfig.max_iterations
    # RANSAC (temporary per-retrieved-image stage)
    temp_ransac_max_iterations: int = RansacConfig.max_iterations

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not 0 < self.fusion_voxel_size < math.inf:  # nan and inf fail
            raise ValueError("fusion voxel_size must be positive")
        if any(not (0 <= i <= MAX_CLASS_ID) for i in self.unstable_classes):
            raise ValueError(f"unstable class ids must lie in 0..{MAX_CLASS_ID}")
        self.depth_filter()
        self.final_ransac(0)
        self.temp_ransac(0)
        self.retrieval("day")
        self.retrieval("night")

    def retrieval(self, condition: str) -> RetrievalConfig:
        return RetrievalConfig(top_k=self.top_k_night if condition == "night" else self.top_k_day)

    def depth_filter(self) -> DepthFilterConfig:
        return DepthFilterConfig(tau=self.depth_filter_tau)

    def final_ransac(self, seed: int) -> RansacConfig:
        return RansacConfig(
            inlier_threshold_px=self.ransac_inlier_threshold_px,
            max_iterations=self.ransac_max_iterations,
            seed=seed,
        )

    def temp_ransac(self, seed: int) -> RansacConfig:
        return RansacConfig(
            inlier_threshold_px=self.ransac_inlier_threshold_px,
            max_iterations=self.temp_ransac_max_iterations,
            min_inliers=_TEMP_MIN_INLIERS,
            seed=seed,
        )


def _class_ids(value: str) -> frozenset:
    return frozenset(int(v) for v in value.split(",") if v.strip() != "")


# config key -> (PipelineConfig field, parser of the value text), in the
# order render_config writes them
_SCALAR_KEYS = {
    "seed": ("seed", int),
    "depth_filter.tau": ("depth_filter_tau", float),
    "fusion.voxel_size": ("fusion_voxel_size", float),
    "map.unstable_classes": ("unstable_classes", _class_ids),
    "retrieval.top_k_day": ("top_k_day", int),
    "retrieval.top_k_night": ("top_k_night", int),
    "ransac.inlier_threshold_px": ("ransac_inlier_threshold_px", float),
    "ransac.max_iterations": ("ransac_max_iterations", int),
    "ransac.temp_max_iterations": ("temp_ransac_max_iterations", int),
}


def parse_config_file(path) -> PipelineConfig:
    cfg = PipelineConfig()
    for lineno, key, value in key_value_lines(path):
        if key not in _SCALAR_KEYS:
            raise DataFormatError(path, None, f"unknown config key {key!r}", lineno)
        attr, cast = _SCALAR_KEYS[key]
        try:
            cfg = replace(cfg, **{attr: cast(value)})
        except ValueError as exc:
            raise DataFormatError(
                path, None, f"bad value for {key}: {value!r} ({exc})", lineno
            ) from None
    return cfg


def _render_value(cast, value) -> str:
    if cast is _class_ids:
        return ",".join(str(i) for i in sorted(value))
    return repr(cast(value))


def render_config(cfg: PipelineConfig) -> str:
    """Config file text reproducing the given configuration."""
    lines = ["# semloc pipeline configuration"] + [
        f"{key} = {_render_value(cast, getattr(cfg, attr))}"
        for key, (attr, cast) in _SCALAR_KEYS.items()
    ]
    return "\n".join(lines) + "\n"
