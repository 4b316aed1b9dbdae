"""Command-line interface tests: subcommands, exit codes, determinism."""

import ast
import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from semloc import cli
from semloc.cli import _build_parser, main
from semloc.config import PipelineConfig, render_config
from test_config import OUT_OF_RANGE_LINES, REMOVED_KEY_LINES


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


def _assert_same_tree(base, other):
    files = sorted(p.relative_to(base) for p in base.rglob("*") if p.is_file())
    assert files
    assert files == sorted(p.relative_to(other) for p in other.rglob("*") if p.is_file())
    for rel in files:
        assert (base / rel).read_bytes() == (other / rel).read_bytes(), rel


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
        _assert_same_tree(workspace / "data", tmp_path / "data2")

    def test_unknown_spec_key_is_data_error(self, workspace, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("preset = canyon\nwarp_factor = 9\n")
        assert main(["synth", str(bad), str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("bad_line", ["night_fraction = nan", "image_width = 0"])
    def test_value_the_preset_refuses_names_the_file(self, tmp_path, caplog, bad_line):
        bad = tmp_path / "scene.txt"
        bad.write_text(SCENE_SPEC.replace("image_width = 96\n", "") + bad_line + "\n")
        assert main(["synth", str(bad), str(tmp_path / "out")]) == 2
        assert f"{bad}: preset 'canyon': " in caplog.text
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("length", ["inf", "-inf"])
    def test_infinite_length_is_data_error(self, tmp_path, caplog, length):
        bad = tmp_path / "scene.txt"
        bad.write_text(SCENE_SPEC.replace("length = 14.0\n", f"length = {length}\n"))
        assert main(["synth", str(bad), str(tmp_path / "out")]) == 2
        assert f"{bad}: preset 'canyon': length must be finite and positive" in caplog.text
        assert not (tmp_path / "out").exists()

    def test_huge_finite_length_is_data_error(self, tmp_path, caplog):
        bad = tmp_path / "scene.txt"
        bad.write_text(SCENE_SPEC.replace("length = 14.0\n", "length = 1e30\n"))
        assert main(["synth", str(bad), str(tmp_path / "out")]) == 2
        assert f"{bad}: preset 'canyon': length 1e+30 m needs more than" in caplog.text
        assert not (tmp_path / "out").exists()

    def test_huge_camera_count_is_data_error(self, tmp_path, caplog):
        bad = tmp_path / "scene.txt"
        bad.write_text(SCENE_SPEC.replace("n_db = 8\n", "n_db = 1000000000\n"))
        assert main(["synth", str(bad), str(tmp_path / "out")]) == 2
        assert f"{bad}: preset 'canyon': n_db 1000000000 is above the cap of" in caplog.text
        assert not (tmp_path / "out").exists()

    def test_spec_generation_refuses_names_the_file(self, tmp_path, caplog):
        # the canyon preset takes n_db = 1, but a scene needs two database
        # cameras
        bad = tmp_path / "scene.txt"
        bad.write_text(SCENE_SPEC.replace("n_db = 8\n", "n_db = 1\n"))
        assert main(["synth", str(bad), str(tmp_path / "out")]) == 2
        assert f"{bad}: preset 'canyon': need at least 2 database cameras" in caplog.text
        assert not (tmp_path / "out").exists()


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

    def test_voxel_too_fine_for_int64_keys_is_data_error(self, workspace, tmp_path):
        config = tmp_path / "fine.txt"
        config.write_text(CONFIG.replace("fusion.voxel_size = 0.12", "fusion.voxel_size = 1e-09"))
        assert config.read_text() != CONFIG
        code = main(["build-map", str(workspace / "data"), str(config), str(tmp_path / "m.bin")])
        assert code == 2
        assert not (tmp_path / "m.bin").exists()

    def test_corrupt_database_descriptor_is_data_error(self, workspace, tmp_path, caplog):
        from semloc.formats import read_global_descriptor, write_global_descriptor

        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        gdesc = data / "database" / "db003.gdesc.bin"
        values = read_global_descriptor(gdesc)
        values[0] = np.nan
        write_global_descriptor(gdesc, values)
        code = main(["build-map", str(data), str(workspace / "config.txt"),
                     str(tmp_path / "m.bin")])
        assert code == 2
        assert not (tmp_path / "m.bin").exists()
        assert f"{gdesc}: db003: descriptor contains non-finite values" in caplog.text

    @pytest.mark.parametrize("value", ["db003 db004", ""], ids=["two-ids", "empty"])
    def test_bad_manifest_db_line_is_data_error(self, workspace, tmp_path, caplog, value):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        manifest = data / "manifest.txt"
        lines = manifest.read_text().splitlines()
        lineno = lines.index("db = db003") + 1
        lines[lineno - 1] = f"db = {value}"
        manifest.write_text("\n".join(lines) + "\n")
        code = main(["build-map", str(data), str(workspace / "config.txt"),
                     str(tmp_path / "m.bin")])
        assert code == 2
        assert not (tmp_path / "m.bin").exists()
        assert f"{manifest}:{lineno}: db needs 'id'" in caplog.text

    # A line build-map must refuse at its own line: a value out of range, or a
    # value for a key the config no longer has (a per-family match rule, or a
    # setting that became a constant, whatever its value).
    BAD_LINES = [(line, "bad value") for line in OUT_OF_RANGE_LINES] + [
        (line, "unknown config key") for line in (
            "family.corner.ratio = 5", "gate.distance_margin = 0.5", "gate.angle_margin = -1",
            "ransac.confidence = 1.5", "ransac.min_inliers = 0", "ransac.temp_min_inliers = -5",
            "depth_filter.neighbor_count = 0")]

    @pytest.mark.parametrize("bad_line, message", BAD_LINES,
                             ids=[line for line, _ in BAD_LINES])
    def test_out_of_range_config_is_data_error(self, workspace, tmp_path, caplog, bad_line,
                                               message):
        # the bad line replaces the template's line for its key, which may
        # appear only once
        key = bad_line.split(" = ")[0]
        lines = [line for line in CONFIG.splitlines() if not line.startswith(f"{key} = ")]
        config = tmp_path / "config.txt"
        config.write_text("\n".join(lines + [bad_line]) + "\n")
        code = main(["build-map", str(workspace / "data"), str(config), str(tmp_path / "m.bin")])
        assert code == 2
        assert not (tmp_path / "m.bin").exists()
        assert f"{config}:{len(lines) + 1}: {message}" in caplog.text

    @pytest.mark.parametrize("where", ["depth-map", "config", "out-map"])
    def test_a_directory_in_place_of_a_file_is_data_error(self, workspace, tmp_path, caplog,
                                                          capsys, where):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        config = tmp_path / "config.txt"
        shutil.copy(workspace / "config.txt", config)
        out_map = tmp_path / "m.bin"
        victim = {"depth-map": data / "database" / "db000.depth.bin", "config": config,
                  "out-map": out_map}[where]
        victim.unlink(missing_ok=True)
        victim.mkdir()
        assert main(["build-map", str(data), str(config), str(out_map)]) == 2
        assert str(victim) in caplog.text
        assert "Traceback" not in caplog.text + capsys.readouterr().err

    @pytest.mark.parametrize("where", ["directory", "missing-dir"])
    def test_unwritable_output_is_refused_before_building(self, workspace, tmp_path, caplog,
                                                          monkeypatch, where):
        out_map = tmp_path / "m.bin" if where == "directory" else tmp_path / "nodir" / "m.bin"
        if where == "directory":
            out_map.mkdir()

        def build_map(*args, **kwargs):
            raise AssertionError("built the map before checking the output")

        monkeypatch.setattr(cli, "build_map", build_map)
        assert main(["build-map", str(workspace / "data"), str(workspace / "config.txt"),
                     str(out_map)]) == 2
        reason = "Is a directory" if where == "directory" else "No such file or directory"
        assert f"cannot write {out_map}: {reason}" in caplog.text


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

    @pytest.mark.parametrize("line", REMOVED_KEY_LINES)
    def test_removed_config_key_is_data_error(self, workspace, artifacts, tmp_path, caplog, line):
        _, map_path, _ = artifacts
        config = tmp_path / "config.txt"
        config.write_text(CONFIG + line + "\n")
        est = tmp_path / "estimates.txt"
        assert main(["localize", str(workspace / "data"), str(map_path), str(config),
                     str(est)]) == 2
        assert not est.exists()
        assert f"{config}:{CONFIG.count(chr(10)) + 1}: unknown config key" in caplog.text

    @pytest.mark.parametrize("where", ["diagnostics", "missing-dir"])
    def test_unwritable_output_is_refused_before_localizing(self, workspace, artifacts,
                                                            tmp_path, caplog, monkeypatch,
                                                            where):
        _, map_path, _ = artifacts
        est = tmp_path / "est.txt"
        if where == "diagnostics":
            victim = tmp_path / "est.txt.diagnostics.json"
            victim.mkdir()
        else:
            est = victim = tmp_path / "nodir" / "est.txt"

        def localize_all(*args, **kwargs):
            raise AssertionError("localized before checking the outputs")

        monkeypatch.setattr(cli, "localize_all", localize_all)
        assert main(["localize", str(workspace / "data"), str(map_path),
                     str(workspace / "config.txt"), str(est)]) == 2
        assert f"cannot write {victim}" in caplog.text
        assert not est.exists()

    def test_a_failed_estimates_write_leaves_no_diagnostics(self, workspace, artifacts,
                                                            tmp_path, monkeypatch):
        _, map_path, _ = artifacts
        est = tmp_path / "est.txt"

        def write_estimates(path, results):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(cli.formats, "write_estimates", write_estimates)
        assert main(["localize", str(workspace / "data"), str(map_path),
                     str(workspace / "config.txt"), str(est)]) == 2
        assert list(tmp_path.iterdir()) == []

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
                     str(prefix)]) == 0
        text = (tmp_path / "report.txt").read_text()
        assert "100.0 / 100.0 / 100.0" in text
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["groups"][0]["total"] == 3

    def test_evaluate_unknown_id_is_data_error(self, workspace, artifacts, tmp_path):
        out, _, est_path = artifacts
        bad = tmp_path / "bad_est.txt"
        bad.write_text(est_path.read_text().replace("q000", "q999"))
        code = main(["evaluate", str(bad), str(workspace / "data" / "queries" / "cameras.txt"),
                     str(tmp_path / "r")])
        assert code == 2

    def test_evaluate_missing_estimate_is_data_error(self, workspace, artifacts, tmp_path, caplog):
        # a query left out of the estimates is an error, not a failed day query
        out, _, est_path = artifacts
        short = tmp_path / "short_est.txt"
        short.write_text("".join(line for line in est_path.read_text().splitlines(True)
                                 if not line.startswith("q001 ")))
        code = main(["evaluate", str(short), str(workspace / "data" / "queries" / "cameras.txt"),
                     str(tmp_path / "r")])
        assert code == 2
        assert f"{short}: no estimates for query ids: ['q001']" in caplog.text
        assert list(tmp_path.glob("r*")) == []

    @pytest.mark.parametrize("where", ["json", "text", "missing-dir"])
    def test_unwritable_report_is_refused_before_reading(self, workspace, artifacts, tmp_path,
                                                         caplog, monkeypatch, where):
        _, _, est_path = artifacts
        prefix = tmp_path / "rep" if where != "missing-dir" else tmp_path / "nodir" / "rep"
        victim = {"json": tmp_path / "rep.json", "text": tmp_path / "rep.txt",
                  "missing-dir": tmp_path / "nodir" / "rep.txt"}[where]
        if where != "missing-dir":
            victim.mkdir()

        def read_estimates(path):
            raise AssertionError("read the estimates before checking the outputs")

        monkeypatch.setattr(cli.formats, "read_estimates", read_estimates)
        assert main(["evaluate", str(est_path), str(workspace / "data" / "queries" / "cameras.txt"),
                     str(prefix)]) == 2
        assert f"cannot write {victim}" in caplog.text
        assert [p.name for p in tmp_path.iterdir() if p.is_file()] == []

    def test_a_failed_json_write_leaves_no_text_report(self, workspace, artifacts, tmp_path,
                                                       monkeypatch):
        _, _, est_path = artifacts
        write_text = Path.write_text

        def failing_json(path, *args, **kwargs):
            if path.suffix == ".json":
                raise PermissionError(13, "Permission denied", str(path))
            return write_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", failing_json)
        assert main(["evaluate", str(est_path), str(workspace / "data" / "queries" / "cameras.txt"),
                     str(tmp_path / "rep")]) == 2
        assert list(tmp_path.iterdir()) == []


class TestFlags:
    def test_seed_flag_overrides_scene_seed(self, workspace, tmp_path):
        # the flag reaches the preset, so the query poses follow it as well
        scene = tmp_path / "scene.txt"
        scene.write_text(SCENE_SPEC.replace("seed = 77", "seed = 12345"))
        assert main(["synth", str(scene), str(tmp_path / "direct")]) == 0
        assert main(["--seed", "12345", "synth", str(workspace / "scene.txt"),
                     str(tmp_path / "reseeded")]) == 0
        _assert_same_tree(tmp_path / "direct", tmp_path / "reseeded")
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

    @pytest.mark.parametrize("argv", [
        ["--threads", "2", "synth", "scene.txt", "out"],
        ["--top-k-day", "3", "synth", "scene.txt", "out"],
        ["--top-k-night", "3", "synth", "scene.txt", "out"],
        ["evaluate", "estimates.txt", "cameras.txt", "config.txt", "report"],
    ])
    def test_removed_flags_and_arguments_are_usage_errors(self, argv):
        assert main(argv) == 1


def test_help_text_documents_exactly_the_parser_options():
    from semloc import cli

    parser = _build_parser()
    parsers = [parser] + list(next(a for a in parser._actions if a.choices).choices.values())
    options = {opt for p in parsers for a in p._actions for opt in a.option_strings}
    options -= {"-h", "--help"}
    assert parser.description == cli.__doc__
    assert set(re.findall(r"--[a-z][a-z-]*", cli.__doc__)) == options


def _documented_command_lines():
    """Every ``semloc ...`` line of README's CLI block and of the demos'
    docstrings, comments removed."""
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text()
    texts = [re.search(r"## CLI\n\n```bash\n(.*?)```", readme, re.S).group(1)]
    texts += [ast.get_docstring(ast.parse(p.read_text())) or ""
              for p in sorted((root / "demos").glob("*.py"))]
    lines = [line.split("#", 1)[0].strip() for text in texts for line in text.splitlines()]
    return [line for line in lines if line.startswith("semloc ")]


def test_documented_command_lines_parse():
    lines = _documented_command_lines()
    assert {line.split()[1] for line in lines} == {"synth", "build-map", "localize", "evaluate"}
    parser = _build_parser()
    for line in lines:
        try:
            parser.parse_args(line.split()[1:])
        except SystemExit:
            pytest.fail(f"documented command does not parse: {line}")
