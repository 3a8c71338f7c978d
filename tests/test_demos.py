"""Every demo script runs to completion against the current API."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("0*.py"))


def test_demos_found():
    assert DEMOS, "no demos/0*.py found"


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(tmp_path, demo):
    # a copy in tmp_path writes its out/ there, not into the repository
    script = shutil.copy(demo, tmp_path)
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    # the warning rule pyproject.toml sets for the tests holds in each demo too
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", script],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
