"""Inputs, solves and output checks of the benchmark workloads.

``sphere`` and ``cone`` solve through the library entry point
``confmetric.solver.find_conformal_metric``; ``disk-cli`` runs
``confmetric solve`` in a child process per input.  Every solve is
checked.

Instance sets are fixed: sphere instances 0-6 (642 vertices), disk
instances 0-1 (1089 vertices) and the single-cone sweep over genus 2-8.
The sphere set has an odd size, so its median instance is one solve and
not the mean of a short and a long one.

Solves of these families take either about 10 or about 27 Newton steps
depending on the instance, so sets drawn afresh per benchmark seed would
move the timings by the mix alone.  The benchmark seed instead relabels
the vertices, reorders the faces and rotates each face's vertex cycle of
every sphere and disk instance.  That changes every array the program
builds and the order in which it scans and flips edges, but not the
geometry.  The cone sweep has uniform lengths and so many co-circular
edges that its flips depend on the labels; it is the same for every seed.
"""

from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from confmetric import io, metric, solver
from confmetric.generate import generate

TWO_PI = 2.0 * math.pi
SPHERE_INSTANCES = range(7)
DISK_INSTANCES = range(2)
CONE_GENERA = range(2, 9)
# The acceptance battery's bound on restricted boundary angles.
BOUNDARY_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    runner: str  # "library" or "cli"
    setup_module: str  # what a user's fresh process imports before parsing
    tol: float
    max_steps: int


WORKLOADS = {
    "sphere": Workload("sphere", "library", "confmetric", 1e-10, 50),
    "cone": Workload("cone", "library", "confmetric", 1e-8, 200),
    "disk-cli": Workload("disk-cli", "cli", "confmetric.cli", 1e-10, 50),
}


@dataclass(frozen=True)
class Outcome:
    """What the traced and untraced runs must reproduce exactly."""

    newton_steps: int
    flips: tuple[int, int, int, int, int]  # single, paired, axis, tri_quad, quad_quad
    ls_trials: int
    final_residual: float
    digest: str  # of u (library) or of the whole result bundle (CLI)


# -- inputs -----------------------------------------------------------------------


def _relabel(inst, rng: np.random.Generator) -> None:
    n = inst.n_vertices
    perm = [int(p) for p in rng.permutation(n)]
    faces = [[perm[v] for v in f] for f in inst.faces]
    turns = rng.integers(0, 3, len(faces))
    inst.faces = [faces[i][t:] + faces[i][:t] for i, t in zip(rng.permutation(len(faces)), turns)]
    positions = [None] * n
    for v, p in enumerate(inst.positions):
        positions[perm[v]] = p
    inst.positions = positions
    inst.theta_targets = {perm[v]: t for v, t in inst.theta_targets.items()}
    inst.kappa_targets = {perm[v]: k for v, k in inst.kappa_targets.items()}


def make_inputs(wl: Workload, seed: int, folder: Path) -> list[str]:
    """Write the workload's problem files; returns the mesh paths."""
    folder.mkdir(parents=True, exist_ok=True)
    if wl.name == "cone":
        made = [(f"cone-g{g}", generate(f"single-cone-genus-{g}", 0, 0)) for g in CONE_GENERA]
    else:
        kind, size, ids = {
            "sphere": ("sphere-random-angles", 642, SPHERE_INSTANCES),
            "disk-cli": ("disk-random-boundary", 1089, DISK_INSTANCES),
        }[wl.name]
        made = []
        for k in ids:
            inst = generate(kind, k, size)
            _relabel(inst, np.random.default_rng([seed, k]))
            made.append((f"{wl.name}-{k}", inst))
    paths = []
    for stem, inst in made:
        path = str(folder / f"{stem}.mesh")
        io.write_problem_files(inst, path)
        paths.append(path)
    return paths


def read_problem(path: str) -> io.ProblemFile:
    prob = io.read_mesh_file(path)
    io.read_targets_file(io.sidecar_path(path), prob)
    return prob


# -- library workloads --------------------------------------------------------------


def solve_library(wl: Workload, path: str):
    """Problem file to converged metric, as a library user would do it."""
    prob = read_problem(path)
    mesh, lengths = io.problem_to_mesh(prob)
    theta = [prob.theta_targets.get(v, TWO_PI) for v in range(mesh.n_vertices)]
    cfg = solver.SolverConfig(eps_tol=wl.tol, max_newton_steps=wl.max_steps)
    return theta, solver.find_conformal_metric(mesh, lengths, theta, cfg)


def check_library(wl: Workload, theta, result) -> Outcome:
    """Raises AssertionError unless the solve converged and its scaled
    metric reproduces the targets within the workload's tolerance."""
    mesh, scaled, u, report = result
    if not report.converged:
        raise AssertionError(f"termination {report.termination}")
    sums = metric.vertex_angle_sums(mesh, scaled, [0.0] * mesh.n_vertices)
    residual = max(abs(t - s) for t, s in zip(theta, sums))
    if not residual <= wl.tol:
        raise AssertionError(f"recomputed residual {residual:.3e} exceeds {wl.tol:.0e}")
    fl = report.total_flips()
    return Outcome(
        newton_steps=report.newton_steps,
        flips=(fl.single, fl.paired, fl.axis, fl.tri_quad, fl.quad_quad),
        ls_trials=sum(rec.halvings + 1 for rec in report.steps[1:]),
        final_residual=report.final_residual,
        digest=hashlib.sha256(np.asarray(u, dtype=float).tobytes()).hexdigest(),
    )


# -- the CLI workload ----------------------------------------------------------------


@dataclass
class CliRun:
    wall_s: float
    exit_code: int
    peak_rss_mb: float


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_cli(root: Path, prefix: list[str], mesh: str, out_dir: Path, log: Path) -> CliRun:
    """One ``confmetric solve`` process on one input, timed from outside."""
    argv = [sys.executable, *prefix, "solve", mesh, "--out", str(bundle_path(out_dir, mesh))]
    with open(log, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(root), stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CliRun(t1 - t0, proc.returncode, usage.ru_maxrss / 1024.0)


def bundle_path(out_dir: Path, mesh: str) -> Path:
    return out_dir / (Path(mesh).stem + ".result")


def boundary_deviation(bundle: io.ResultBundle, kappa: dict[int, float]) -> float:
    """Largest |angle sum - (pi - kappa)| over the prescribed boundary vertices."""
    mesh, edge_of = bundle.rebuild_mesh()
    lengths = metric.PennerMetric([bundle.edge_lengths[e] for e in edge_of])
    first = 0  # a rebuilt face's id is its first halfedge
    for row, fv in enumerate(bundle.faces_v):
        if row in bundle.quad_diags:
            lengths.quad_diag[first] = bundle.quad_diags[row]
        first += len(fv)
    sums = metric.vertex_angle_sums(mesh, lengths, [0.0] * mesh.n_vertices)
    return max(abs(sums[v] - (math.pi - k)) for v, k in kappa.items())


def check_cli_instance(wl: Workload, mesh: str, out_dir: Path) -> Outcome:
    path = bundle_path(out_dir, mesh)
    bundle = io.read_bundle(str(path))
    if bundle.exit_code != 0 or bundle.termination != "converged":
        raise AssertionError(f"termination {bundle.termination} exit {bundle.exit_code}")
    if not bundle.final_residual <= wl.tol:
        raise AssertionError(f"residual {bundle.final_residual:.3e} exceeds {wl.tol:.0e}")
    if any(row.symmetry_ok != 1 for row in bundle.iterations):
        raise AssertionError("an iteration lost bitwise mirror symmetry")
    dev = boundary_deviation(bundle, read_problem(mesh).kappa_targets)
    if not dev <= BOUNDARY_TOL:
        raise AssertionError(f"boundary angle deviation {dev:.3e} exceeds {BOUNDARY_TOL:.0e}")
    return Outcome(
        newton_steps=len(bundle.iterations) - 1,
        flips=tuple(bundle.flip_totals[1:]),
        ls_trials=sum(row.halvings + 1 for row in bundle.iterations[1:]),
        final_residual=bundle.final_residual,
        digest=hashlib.sha256(path.read_bytes()).hexdigest(),
    )
