"""Each demo runs to completion from a checkout, quietly on stderr."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_there_are_five_demos():
    assert [path.name for path in DEMOS] == [
        "build_a_bundle.py",
        "chart_the_region.py",
        "cohomology_tour.py",
        "natural_twists.py",
        "referee.py",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("HIRZEBRUCH_FORMAT", None)
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout
