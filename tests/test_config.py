"""Configuration file parsing tests."""

import inspect
import re
from dataclasses import fields
from pathlib import Path

import pytest

from semloc import config, pnp, scoring, semantic_map
from semloc.config import PipelineConfig, parse_config_file, render_config
from semloc.formats import DataFormatError
from semloc.pnp import RansacConfig
from semloc.retrieval import RetrievalConfig
from semloc.semantic_map import DepthFilterConfig, build_dense_map, select_filter_neighbors


def _write(tmp_path, text):
    p = tmp_path / "config.txt"
    p.write_text(text)
    return p


class TestParseConfig:
    def test_defaults_without_keys(self, tmp_path):
        cfg = parse_config_file(_write(tmp_path, "# empty\n"))
        assert cfg.depth_filter_tau == 0.01
        assert cfg.top_k_day == 20
        assert cfg.top_k_night == 30
        assert cfg.ransac_inlier_threshold_px == 8.0
        assert cfg.ransac_max_iterations == 10000
        assert cfg.fusion_voxel_size == 0.05
        assert cfg.unstable_classes == frozenset({10, 11, 12, 13, 14, 15, 16, 17, 18})

    def test_overrides_and_comments(self, tmp_path):
        cfg = parse_config_file(_write(tmp_path, """
            # tuned for the toy scene
            depth_filter.tau = 0.02
            retrieval.top_k_day = 5   # small database
            map.unstable_classes = 10,13
        """))
        assert cfg.depth_filter_tau == 0.02
        assert cfg.top_k_day == 5
        assert cfg.unstable_classes == frozenset({10, 13})

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config_file(_write(tmp_path, "ransac.turbo = yes\n"))

    def test_bad_value_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="bad value"):
            parse_config_file(_write(tmp_path, "retrieval.top_k_day = twenty\n"))

    def test_bad_line_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="key = value"):
            parse_config_file(_write(tmp_path, "just words\n"))

    def test_render_parse_roundtrip(self, tmp_path):
        cfg = PipelineConfig(seed=9, depth_filter_tau=0.03, top_k_day=4)
        text = render_config(cfg)
        back = parse_config_file(_write(tmp_path, text))
        assert back == cfg

    def test_repeated_key_fails_at_its_second_line(self, tmp_path):
        p = _write(tmp_path, "seed = 1\nretrieval.top_k_day = 5\n\nseed = 2\n")
        with pytest.raises(DataFormatError, match=re.escape(f"{p}:4: repeated key 'seed'")):
            parse_config_file(p)


def test_every_scalar_field_has_exactly_one_key():
    from semloc.config import _SCALAR_KEYS

    keyed = sorted(attr for attr, _cast in _SCALAR_KEYS.values())
    scalar = sorted(f.name for f in fields(PipelineConfig))
    assert keyed == scalar


def test_stage_defaults_have_one_owner():
    # PipelineConfig's defaults are those of the stage types and functions
    # a direct library call uses; the temporary stage differs from the final
    # one only in its min-inliers constant and its own iteration cap
    cfg = PipelineConfig()
    assert cfg.depth_filter() == DepthFilterConfig()
    assert cfg.retrieval("day") == RetrievalConfig()
    for seed in (0, 7):
        assert cfg.final_ransac(seed) == RansacConfig(seed=seed)
        assert cfg.temp_ransac(seed) == RansacConfig(min_inliers=config._TEMP_MIN_INLIERS,
                                                     seed=seed)
    build = inspect.signature(build_dense_map).parameters
    assert list(build) == ["records", "filter_cfg", "voxel_size", "unstable"]
    assert build["filter_cfg"].default == cfg.depth_filter()
    assert build["voxel_size"].default == cfg.fusion_voxel_size
    assert build["unstable"].default == cfg.unstable_classes
    assert list(inspect.signature(select_filter_neighbors).parameters) == ["records"]


def test_constants_keep_the_values_of_the_removed_keys():
    # settings no run varied are constants where they are used, each with
    # the default its config key had
    assert (scoring._DISTANCE_MARGIN, scoring._ANGLE_MARGIN) == (1.2, 0.1)
    assert semantic_map.DEFAULT_FILTER_NEIGHBOR_COUNT == 4
    assert semantic_map._MIN_CONSISTENT_NEIGHBORS == 1
    assert pnp._CONFIDENCE == 0.999
    assert RansacConfig().min_inliers == 12
    assert config._TEMP_MIN_INLIERS == 6


def test_removed_settings_are_not_fields():
    assert len(fields(PipelineConfig)) == 9
    assert len(fields(RansacConfig)) == 4
    assert [f.name for f in fields(DepthFilterConfig)] == ["tau"]
    assert not hasattr(scoring, "VisibilityGateConfig")
    with pytest.raises(TypeError):
        RansacConfig(confidence=0.999)
    with pytest.raises(TypeError):
        DepthFilterConfig(min_consistent_neighbors=1)


def test_readme_defaults_are_rendered_lines():
    # the README's template quotes every rendered setting line, and nothing else
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    paragraph = readme.split("complete template with the defaults:", 1)[1].split("\n\n", 1)[0]
    quoted = re.findall(r"`([a-z_.]+ = [^`]+)`", paragraph)
    rendered = render_config(PipelineConfig()).splitlines()[1:]
    assert sorted(quoted) == sorted(rendered)


def test_errors_name_file_and_line(tmp_path):
    p = _write(tmp_path, "seed = 1\n\nmap.unstable_classes = 10,99\n")
    with pytest.raises(DataFormatError, match=re.escape(f"{p}:3: bad value for map.unstable_")):
        parse_config_file(p)


# Keys of settings no run varies: constants in the code, or the per-family
# match rules (every family is matched by mutual nearest neighbors).  A line
# that once held an out-of-range value, or a NaN that slipped past a range
# check, now fails as an unknown key at its line like any other.
REMOVED_KEY_LINES = [
    "ransac.min_pixel_span_px = 10.0",
    "refine.max_iterations = 100",
    "refine.relative_tolerance = 1e-10",
    "family.corner.ratio = 0.9",
    "family.blob.mutual_nn = false",
    "gate.distance_margin = 0.5",
    "gate.distance_margin = nan",
    "gate.angle_margin = -1",
    "depth_filter.min_consistent_neighbors = 1",
    "depth_filter.neighbor_count = 0",
    "ransac.confidence = 1.5",
    "ransac.min_inliers = 0",
    "ransac.temp_min_inliers = -5",
]


@pytest.mark.parametrize("line", REMOVED_KEY_LINES)
def test_removed_keys_are_unknown_at_their_line(tmp_path, line):
    p = _write(tmp_path, f"seed = 1\n{line}\n")
    key = line.split(" = ")[0]
    with pytest.raises(DataFormatError, match=re.escape(f"{p}:2: unknown config key {key!r}")):
        parse_config_file(p)


# One value outside the range its stage type accepts, per stage check.
OUT_OF_RANGE_LINES = [
    "ransac.inlier_threshold_px = 0",
    "ransac.temp_max_iterations = 0",
    "retrieval.top_k_day = 0",
    "depth_filter.tau = 0",
    "seed = -1",
    "fusion.voxel_size = 0",
]


@pytest.mark.parametrize("bad_line", OUT_OF_RANGE_LINES)
def test_out_of_range_value_fails_at_its_line(tmp_path, bad_line):
    p = _write(tmp_path, f"ransac.max_iterations = 500\n{bad_line}\nretrieval.top_k_night = 4\n")
    key = bad_line.split(" = ")[0]
    with pytest.raises(DataFormatError, match=re.escape(f"{p}:2: bad value for {key}")):
        parse_config_file(p)


def test_config_checked_when_built():
    with pytest.raises(ValueError, match="inlier threshold"):
        PipelineConfig(ransac_inlier_threshold_px=0.0)
    with pytest.raises(ValueError, match="top_k"):
        PipelineConfig(top_k_night=0)
    with pytest.raises(ValueError, match="unstable class ids"):
        PipelineConfig(unstable_classes=frozenset({99}))


def test_config_is_frozen():
    from dataclasses import FrozenInstanceError, replace

    cfg = PipelineConfig()
    with pytest.raises(FrozenInstanceError):
        cfg.seed = 3
    assert replace(cfg, seed=3).seed == 3
    with pytest.raises(ValueError, match="tau"):
        replace(cfg, depth_filter_tau=0.0)


def test_render_prints_numpy_scalars_as_numbers():
    import numpy as np

    text = render_config(PipelineConfig(seed=np.int64(4), fusion_voxel_size=np.float64(0.25)))
    assert "seed = 4\n" in text
    assert "fusion.voxel_size = 0.25\n" in text
