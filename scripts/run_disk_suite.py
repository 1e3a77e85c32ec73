#!/usr/bin/env python3
"""Boundary battery on random disk instances.

Each disk gets random boundary curvature targets, is doubled across its
boundary, solved symmetrically, and restricted back.  The script verifies
the restricted boundary angles against pi - kappa, tracks the bitwise
mirror-symmetry flag of every iteration, and reports how the flip count
moves with the prescribed curvature range (rank correlation over the
suite), for the flips made and for the flips the solution needed (those
from the input cover straight to the returned u).
"""

import argparse
import math
import sys
import time

import scipy.stats
from run_seed_sets import direct_flips

from confmetric.generate import generate
from confmetric.metric import vertex_angle_sums
from confmetric.solver import SolverConfig, solve_problem


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=50)
    ap.add_argument("--size", type=int, default=1089, help="approximate vertex count")
    ap.add_argument("--tol", type=float, default=1e-10)
    ap.add_argument("--max-steps", type=int, default=50)
    ap.add_argument("--seed0", type=int, default=0)
    args = ap.parse_args()

    cfg = SolverConfig(eps_tol=args.tol, max_newton_steps=args.max_steps)
    converged = 0
    flips = []
    direct = []
    ranges = []
    worst_dev = 0.0
    symmetry_held = True
    t0 = time.perf_counter()
    for seed in range(args.seed0, args.seed0 + args.count):
        prob = generate("disk-random-boundary", seed=seed, size=args.size)
        rmesh, rmetric, u, report = solve_problem(prob, cfg)
        sums = vertex_angle_sums(rmesh, rmetric, [0.0] * rmesh.n_vertices)
        dev = max(abs(sums[v] - (math.pi - k)) for v, k in prob.kappa_targets.items())
        worst_dev = max(worst_dev, dev)
        sym = all(rec.symmetry_ok for rec in report.steps)
        symmetry_held = symmetry_held and sym
        if report.converged:
            converged += 1
        ks = list(prob.kappa_targets.values())
        flips.append(report.total_flips().total)
        direct.append(direct_flips(prob, u))
        ranges.append(max(ks) - min(ks))
        print(
            f"seed {seed:4d}  V={prob.n_vertices:5d}  {report.termination:<18s} "
            f"steps={report.newton_steps:3d}  flips={flips[-1]:6d}  direct={direct[-1]:6d}  "
            f"kappa-range={ranges[-1]:5.2f}  boundary-dev={dev:.2e}  sym={'ok' if sym else 'BROKEN'}"
        )
    total = time.perf_counter() - t0
    rho = scipy.stats.spearmanr(flips, ranges).statistic
    rho_direct = scipy.stats.spearmanr(direct, ranges).statistic
    print(
        f"\n{converged}/{args.count} converged; worst boundary deviation {worst_dev:.2e}; "
        f"flips vs curvature-range spearman {rho:.3f} over {sum(flips) / args.count:.0f} "
        f"flips made, {rho_direct:.3f} over {sum(direct) / args.count:.0f} needed per disk; "
        f"symmetry {'held everywhere' if symmetry_held else 'BROKEN'}; total {total:.1f}s"
    )
    return 0 if converged == args.count and symmetry_held else 3


if __name__ == "__main__":
    sys.exit(main())
