#!/usr/bin/env python3
"""Seed-0 solve sets: counts per family and one digest of every solve.

Solves, through ``solve_problem``, the instance sets behind the seed-0
counts in README and ROADMAP: spheres 0-6 at 642 vertices, single cones
of genus 2-8 at tolerance 1e-8 with up to 200 Newton steps, and disks 0-1
at 1,089 vertices, restricted to the disk.  For each family it prints the
converged share, the Newton steps, the line-search trials that evaluated
a gradient, the capped trials and the flips.  The last line is the sha1 of
every returned u, every returned length and every field of every trace
row, in that order per solve: two trees that print the same digest solve
these sets bit for bit.  Exits 3 unless every solve converges.

    PYTHONPATH=src python scripts/run_seed_sets.py
"""

import dataclasses
import hashlib
import sys

import numpy as np

from confmetric.generate import generate
from confmetric.solver import SolverConfig, solve_problem

SETS = [
    ("sphere", [("sphere-random-angles", k, 642) for k in range(7)], SolverConfig()),
    ("cone", [(f"single-cone-genus-{g}", 0, 0) for g in range(2, 9)],
     SolverConfig(eps_tol=1e-8, max_newton_steps=200)),
    ("disk", [("disk-random-boundary", k, 1089) for k in range(2)], SolverConfig()),
]


def main():
    digest = hashlib.sha1()
    all_converged = True
    for family, instances, cfg in SETS:
        converged = steps = trials = capped = flips = 0
        for kind, seed, size in instances:
            _, metric, u, report = solve_problem(generate(kind, seed, size), cfg)
            converged += report.converged
            steps += report.newton_steps
            trials += sum(rec.halvings + 1 for rec in report.steps[1:])
            capped += sum(rec.capped for rec in report.steps)
            flips += report.total_flips().total
            digest.update(np.asarray(u, dtype=float).tobytes())
            digest.update(np.asarray(metric.lengths, dtype=float).tobytes())
            for rec in report.steps:
                digest.update(repr(dataclasses.astuple(rec)).encode())
        all_converged &= converged == len(instances)
        print(
            f"set {family:<6s} {converged}/{len(instances)} converged  steps={steps:4d}  "
            f"trials={trials:4d}  capped={capped:3d}  flips={flips:5d}"
        )
    print(f"digest {digest.hexdigest()}")
    return 0 if all_converged else 3


if __name__ == "__main__":
    sys.exit(main())
