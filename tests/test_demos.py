"""Smoke test: each demo script runs to completion and prints its headline."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, expected",
    [
        ("figure_eight_columns.py", "full verification: True"),
        ("fold_walkthrough.py", "converged = True"),
        ("projective_plane_torsion.py", "H_1 = Z/2"),
    ],
)
def test_demo_runs(script, expected):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert expected in result.stdout
