"""Smoke runs of the three suite drivers on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args, prefix, lines",
    [
        ("run_sphere_suite.py", ["--count", "2", "--size", "42"], "seed ", 2),
        ("run_disk_suite.py", ["--count", "3", "--size", "25"], "seed ", 3),
        ("run_cone_stress.py", ["--genus-min", "2", "--genus-max", "2"], "genus ", 1),
    ],
    ids=["sphere", "disk", "cone"],
)
def test_suite_driver_runs(script, args, prefix, lines):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line for line in proc.stdout.splitlines() if line.startswith(prefix)]
    assert len(rows) == lines, proc.stdout
    assert all("converged" in row for row in rows)
