"""Smoke runs of the suite drivers (the batteries on small inputs), the
benchmark tracer's table of wrapped functions, and the benchmark's output
checks."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from confmetric.cli import main
from confmetric.generate import generate
from confmetric.io import read_bundle, write_problem_files

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args, prefix, lines, columns",
    [
        ("run_sphere_suite.py", ["--count", "2", "--size", "42"], "seed ", 2, ()),
        ("run_disk_suite.py", ["--count", "3", "--size", "25"], "seed ", 3, ("direct=",)),
        (  # the genus-2 cone's first full step is capped; 6 steps evaluate 8 gradients
            "run_cone_stress.py", ["--genus-min", "2", "--genus-max", "2"], "genus ", 1,
            ("trials=   8", "capped=  1"),
        ),
        ("run_seed_sets.py", [], "set ", 3, ("steps=", "trials=", "capped=", "flips=", "direct=")),
    ],
    ids=["sphere", "disk", "cone", "seed-sets"],
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


def _perfbench(name):
    """The benchmark module ``perfbench/<name>.py``, imported by path."""
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # where a dataclass looks up its module
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_wraps_every_target_but_four():
    # The tracer reports a target it cannot find as absent instead of
    # failing, so a renamed kernel would read 0 in the benchmark's layer
    # metrics and skip its traced self-checks.
    tracer = _perfbench("tracer")
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


def test_benchmark_checks_pass_on_a_small_sphere_and_disk(tmp_path):
    # The benchmark builds metrics and reads bundles through the library
    # API; a change that breaks its checks would otherwise show only when
    # the benchmark runs.
    workloads = _perfbench("workloads")
    sphere, disk = str(tmp_path / "sphere.mesh"), str(tmp_path / "disk.mesh")
    write_problem_files(generate("sphere-random-angles", 0, 162), sphere)
    write_problem_files(generate("disk-random-boundary", 7, 289), disk)
    wl = workloads.WORKLOADS["sphere"]
    theta, result = workloads.solve_library(wl, sphere)
    assert workloads.check_library(wl, theta, result).newton_steps == result[3].newton_steps
    out = str(workloads.bundle_path(tmp_path, disk))
    assert main(["solve", disk, "--out", out]) == 0
    got = workloads.check_cli_instance(workloads.WORKLOADS["disk-cli"], disk, tmp_path)
    assert got.flips == read_bundle(out).flip_totals[1:]
