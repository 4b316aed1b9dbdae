"""Command-line interface tests: subcommands, exit codes, determinism."""

import json
import shutil

import numpy as np
import pytest

from semloc.cli import main
from semloc.config import PipelineConfig, render_config


SCENE_SPEC = """
preset = canyon
seed = 77
n_db = 8
n_queries = 3
image_width = 96
image_height = 72
anchors_per_plane = 16
length = 14.0
"""

CONFIG = render_config(PipelineConfig(
    seed=5, ransac_inlier_threshold_px=1.2, fusion_voxel_size=0.12,
    top_k_day=5, top_k_night=5, temp_ransac_max_iterations=300,
))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    (root / "scene.txt").write_text(SCENE_SPEC)
    (root / "config.txt").write_text(CONFIG)
    assert main(["synth", str(root / "scene.txt"), str(root / "data")]) == 0
    return root


class TestSynth:
    def test_dataset_is_loadable(self, workspace):
        from semloc.formats import load_dataset

        loaded = load_dataset(workspace / "data")
        assert len(loaded.db_records) == 8
        assert len(loaded.queries) == 3

    def test_regeneration_byte_identical(self, workspace, tmp_path):
        assert main(["synth", str(workspace / "scene.txt"), str(tmp_path / "data2")]) == 0
        base = workspace / "data"
        other = tmp_path / "data2"
        files = sorted(p.relative_to(base) for p in base.rglob("*") if p.is_file())
        assert files
        for rel in files:
            assert (base / rel).read_bytes() == (other / rel).read_bytes(), rel

    def test_unknown_spec_key_is_data_error(self, workspace, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("preset = canyon\nwarp_factor = 9\n")
        assert main(["synth", str(bad), str(tmp_path / "out")]) == 2


class TestBuildMap:
    def test_build_and_rerun_identical(self, workspace, tmp_path):
        m1 = tmp_path / "map1.bin"
        m2 = tmp_path / "map2.bin"
        args = ["build-map", str(workspace / "data"), str(workspace / "config.txt")]
        assert main(args + [str(m1)]) == 0
        assert main(args + [str(m2)]) == 0
        assert m1.read_bytes() == m2.read_bytes()
        from semloc.formats import read_dense_map

        dm = read_dense_map(m1)
        assert len(dm) > 0

    def test_missing_dataset_is_data_error(self, workspace, tmp_path):
        code = main(["build-map", str(tmp_path / "nowhere"), str(workspace / "config.txt"),
                     str(tmp_path / "m.bin")])
        assert code == 2


@pytest.fixture(scope="module")
def artifacts(workspace, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    map_path = out / "map.bin"
    est_path = out / "estimates.txt"
    assert main(["build-map", str(workspace / "data"), str(workspace / "config.txt"),
                 str(map_path)]) == 0
    assert main(["localize", str(workspace / "data"), str(map_path),
                 str(workspace / "config.txt"), str(est_path)]) == 0
    return out, map_path, est_path


class TestLocalizeAndEvaluate:
    def test_estimates_written_with_diagnostics(self, artifacts):
        out, _, est_path = artifacts
        text = est_path.read_text()
        assert text.count(" pose ") + text.count(" failed ") == 3
        diag = json.loads((est_path.parent / (est_path.name + ".diagnostics.json")).read_text())
        assert len(diag) == 3

    def test_localize_rerun_byte_identical(self, workspace, artifacts, tmp_path):
        out, map_path, est_path = artifacts
        est2 = tmp_path / "estimates2.txt"
        assert main(["localize", str(workspace / "data"), str(map_path),
                     str(workspace / "config.txt"), str(est2)]) == 0
        assert est_path.read_bytes() == est2.read_bytes()

    def test_threads_do_not_change_output(self, workspace, artifacts, tmp_path):
        out, map_path, est_path = artifacts
        est3 = tmp_path / "estimates3.txt"
        assert main(["--threads", "3", "localize", str(workspace / "data"), str(map_path),
                     str(workspace / "config.txt"), str(est3)]) == 0
        assert est_path.read_bytes() == est3.read_bytes()

    def test_bad_query_descriptor_fails_only_that_query(self, workspace, artifacts, tmp_path):
        from semloc.formats import read_global_descriptor, write_global_descriptor

        out, map_path, est_path = artifacts
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        gdesc = data / "queries" / "q001.gdesc.bin"
        write_global_descriptor(gdesc, np.zeros_like(read_global_descriptor(gdesc)))
        est = tmp_path / "estimates.txt"
        assert main(["localize", str(data), str(map_path), str(workspace / "config.txt"),
                     str(est)]) == 0
        before = est_path.read_text().splitlines()
        after = est.read_text().splitlines()
        assert after[2] == "q001 day failed bad_global_descriptor"
        assert after[:2] + after[3:] == before[:2] + before[3:]

    def test_evaluate_full_marks(self, workspace, artifacts, tmp_path):
        out, _, est_path = artifacts
        prefix = tmp_path / "report"
        assert main(["evaluate", str(est_path), str(workspace / "data" / "queries" / "cameras.txt"),
                     str(workspace / "config.txt"), str(prefix)]) == 0
        text = (tmp_path / "report.txt").read_text()
        assert "100.0 / 100.0 / 100.0" in text
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["groups"][0]["total"] == 3

    def test_evaluate_unknown_id_is_data_error(self, workspace, artifacts, tmp_path):
        out, _, est_path = artifacts
        bad = tmp_path / "bad_est.txt"
        bad.write_text(est_path.read_text().replace("q000", "q999"))
        code = main(["evaluate", str(bad), str(workspace / "data" / "queries" / "cameras.txt"),
                     str(workspace / "config.txt"), str(tmp_path / "r")])
        assert code == 2


class TestFlags:
    def test_seed_flag_overrides_scene_seed(self, workspace, tmp_path):
        assert main(["--seed", "12345", "synth", str(workspace / "scene.txt"),
                     str(tmp_path / "reseeded")]) == 0
        base = (workspace / "data" / "database" / "db000.gdesc.bin").read_bytes()
        other = (tmp_path / "reseeded" / "database" / "db000.gdesc.bin").read_bytes()
        assert base != other

    def test_verbose_flag_accepted(self, workspace, tmp_path):
        assert main(["--verbose", "synth", str(workspace / "scene.txt"),
                     str(tmp_path / "v")]) == 0


class TestUsageErrors:
    def test_no_command_is_usage_error(self):
        assert main([]) == 1

    def test_unknown_command_is_usage_error(self):
        assert main(["transmogrify"]) == 1

    def test_missing_argument_is_usage_error(self):
        assert main(["build-map", "only-one-arg"]) == 1
