"""Smoke runs of the three suite drivers on small inputs, and the
benchmark tracer's table of wrapped functions."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args, prefix, lines, columns",
    [
        ("run_sphere_suite.py", ["--count", "2", "--size", "42"], "seed ", 2, ()),
        ("run_disk_suite.py", ["--count", "3", "--size", "25"], "seed ", 3, ()),
        (  # the genus-2 cone's first full step is capped
            "run_cone_stress.py", ["--genus-min", "2", "--genus-max", "2"], "genus ", 1,
            ("capped=  1",),
        ),
    ],
    ids=["sphere", "disk", "cone"],
)
def test_suite_driver_runs(script, args, prefix, lines, columns):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line for line in proc.stdout.splitlines() if line.startswith(prefix)]
    assert len(rows) == lines, proc.stdout
    assert all("converged" in row for row in rows)
    assert all(c in row for row in rows for c in columns)


def test_benchmark_tracer_wraps_every_target_but_four():
    # The tracer reports a target it cannot find as absent instead of
    # failing, so a renamed kernel would read 0 in the benchmark's layer
    # metrics and skip its traced self-checks.
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [(importlib.import_module(m), attr) for m, attr, _ in tracer.TARGETS]
    before = [getattr(module, attr, None) for module, attr in targets]
    t = tracer.Tracer()
    try:
        t.install()
    finally:
        t.restore()
    assert t.absent == [
        "confmetric.metric.is_delaunay",
        "confmetric.cli.find_conformal_metric",
        "confmetric.cli.build_double_cover",
        "confmetric.cli.restrict_to_single_cover",
    ]
    assert all(getattr(m, attr, None) is fn for (m, attr), fn in zip(targets, before))
