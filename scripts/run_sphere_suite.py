#!/usr/bin/env python3
"""Convergence battery on random closed-sphere instances.

Generates icosphere problems with random admissible angle targets and runs
the Newton pipeline on each, printing one line per instance and a suite
summary.  This is the protocol behind the headline convergence claim: the
interesting outputs are the step counts and the wall clock, not the final
metrics themselves.
"""

import argparse
import os
import statistics
import sys
import time

from confmetric.generate import generate
from confmetric.io import bundle_from_solution, write_bundle
from confmetric.solver import SolverConfig, solve_problem


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=50)
    ap.add_argument("--size", type=int, default=642, help="approximate vertex count")
    ap.add_argument("--tol", type=float, default=1e-10)
    ap.add_argument("--max-steps", type=int, default=50)
    ap.add_argument("--seed0", type=int, default=0, help="first seed of the range")
    ap.add_argument("--out", help="directory for result bundles (optional)")
    args = ap.parse_args()

    cfg = SolverConfig(eps_tol=args.tol, max_newton_steps=args.max_steps)
    if args.out:
        os.makedirs(args.out, exist_ok=True)

    converged = 0
    steps = []
    t0 = time.perf_counter()
    for seed in range(args.seed0, args.seed0 + args.count):
        prob = generate("sphere-random-angles", seed=seed, size=args.size)
        t1 = time.perf_counter()
        mesh, scaled, u, report = solve_problem(prob, cfg)
        dt = time.perf_counter() - t1
        steps.append(report.newton_steps)
        if report.converged:
            converged += 1
        print(
            f"seed {seed:4d}  V={mesh.n_vertices:5d}  {report.termination:<18s} "
            f"steps={report.newton_steps:3d}  residual={report.final_residual:.3e}  "
            f"flips={report.total_flips().total:6d}  {dt:6.2f}s"
        )
        if args.out:
            bundle = bundle_from_solution(mesh, scaled, u, report, 0 if report.converged else 3)
            write_bundle(bundle, os.path.join(args.out, f"sphere-s{seed}.result"))
    total = time.perf_counter() - t0
    print(
        f"\n{converged}/{args.count} converged to {args.tol:g}; "
        f"steps median {statistics.median(steps):.0f} max {max(steps)}; "
        f"total {total:.1f}s"
    )
    return 0 if converged == args.count else 3


if __name__ == "__main__":
    sys.exit(main())
