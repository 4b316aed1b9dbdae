"""Every script under demos/ runs to completion with exit status 0, under
the warnings that tier-1's filterwarnings turns into errors, and uses only
semloc's public names; README's library tour runs and ends in a pose."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# pyproject.toml's filterwarnings does not reach a subprocess.
WARNINGS_AS_ERRORS = ["-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning",
                      "-W", "error::FutureWarning"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *WARNINGS_AS_ERRORS, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]


def _private_semloc_imports(source: str) -> list[str]:
    """Every name a script imports from semloc whose module path or name has
    a part that starts with an underscore."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "semloc":
            found += [f"{node.module}.{a.name}" for a in node.names
                      if any(part.startswith("_") for part in [*node.module.split("."), a.name])]
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "semloc"
                      and any(part.startswith("_") for part in a.name.split("."))]
    return found


def test_demos_import_only_public_names():
    assert _private_semloc_imports("from semloc.synthetic import _canyon_pose, generate_scene\n"
                                   "import semloc._x\nfrom semloc import _y\n") == [
        "semloc.synthetic._canyon_pose", "semloc._x", "semloc._y"]
    assert {demo.name: _private_semloc_imports(demo.read_text()) for demo in DEMOS} == {
        demo.name: [] for demo in DEMOS}


def test_readme_library_tour_ends_in_a_pose():
    # the tour's two code blocks, run in order in one namespace, as a reader
    # pastes them
    text = (ROOT / "README.md").read_text()
    tour = text.split("\n## Library tour\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", tour, flags=re.S)
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["solution"] is not None
