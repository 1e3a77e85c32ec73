#!/usr/bin/env python3
"""Seed-0 solve sets: counts per family and one digest of every solve.

Solves, through ``solve_problem``, the instance sets behind the seed-0
counts in README and ROADMAP: spheres 0-6 at 642 vertices, single cones
of genus 2-8 at tolerance 1e-8 with up to 200 Newton steps, and disks 0-1
at 1,089 vertices, restricted to the disk.  For each family it prints the
converged share, the Newton steps, the line-search trials that evaluated
a gradient, the capped trials, the flips, and the flips the solution
needed (``direct=``: those ``make_delaunay`` makes from the input
triangulation, a disk's double cover, straight to the returned u; not
hashed).  The last line is the sha1 of
every returned u, every returned length and every field of every trace
row, in that order per solve: two trees that print the same digest solve
these sets bit for bit.  Exits 3 unless every solve converges.

    PYTHONPATH=src python scripts/run_seed_sets.py
"""

import dataclasses
import hashlib
import sys

import numpy as np

from confmetric.cover import build_double_cover
from confmetric.generate import generate
from confmetric.io import problem_to_mesh
from confmetric.metric import make_delaunay
from confmetric.solver import SolverConfig, solve_problem

SETS = [
    ("sphere", [("sphere-random-angles", k, 642) for k in range(7)], SolverConfig()),
    ("cone", [(f"single-cone-genus-{g}", 0, 0) for g in range(2, 9)],
     SolverConfig(eps_tol=1e-8, max_newton_steps=200)),
    ("disk", [("disk-random-boundary", k, 1089) for k in range(2)], SolverConfig()),
]


def direct_flips(prob, u):
    """Flips from the input triangulation of ``prob`` straight to the u that
    ``solve_problem`` returned; a disk's restricted u is read through the
    mirror of its double cover."""
    mesh, metric = problem_to_mesh(prob)
    refl = None
    if mesh.boundary_faces:
        cover, metric, _ = build_double_cover(mesh, metric, [0.0] * mesh.n_vertices)
        mesh, refl = cover.mesh, cover.refl
        u = [u[min(v, w)] for v, w in enumerate(refl.vertex_refl)]
    return make_delaunay(mesh, metric, u, refl).total


def main():
    digest = hashlib.sha1()
    all_converged = True
    for family, instances, cfg in SETS:
        converged = steps = trials = capped = flips = direct = 0
        for kind, seed, size in instances:
            prob = generate(kind, seed, size)
            _, metric, u, report = solve_problem(prob, cfg)
            converged += report.converged
            steps += report.newton_steps
            trials += sum(rec.halvings + 1 for rec in report.steps[1:])
            capped += sum(rec.capped for rec in report.steps)
            flips += report.total_flips().total
            direct += direct_flips(prob, u)
            digest.update(np.asarray(u, dtype=float).tobytes())
            digest.update(np.asarray(metric.lengths, dtype=float).tobytes())
            for rec in report.steps:
                digest.update(repr(dataclasses.astuple(rec)).encode())
        all_converged &= converged == len(instances)
        print(
            f"set {family:<6s} {converged}/{len(instances)} converged  steps={steps:4d}  "
            f"trials={trials:4d}  capped={capped:3d}  flips={flips:5d}  direct={direct:5d}"
        )
    print(f"digest {digest.hexdigest()}")
    return 0 if all_converged else 3


if __name__ == "__main__":
    sys.exit(main())
