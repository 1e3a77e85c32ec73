#!/usr/bin/env python3
"""Single-cone stress sweep over genus.

A genus-g surface built from glued tori gets all its curvature pushed into
one cone of angle 2*pi*(2g - 1).  Higher genus concentrates more curvature
at one vertex, so the conformal factors span a wider range and double
precision eventually gives out.  The sweep reports, per genus, how hard the
solve was (steps, flips, gradient evaluations in line searches and capped
trials) and how wide u had to stretch; failures are reported, not raised.
"""

import argparse
import sys
import time

from confmetric.generate import generate
from confmetric.solver import SolverConfig, solve_problem


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--genus-min", type=int, default=2)
    ap.add_argument("--genus-max", type=int, default=6)
    ap.add_argument("--tol", type=float, default=1e-8)
    ap.add_argument("--max-steps", type=int, default=200)
    args = ap.parse_args()

    cfg = SolverConfig(eps_tol=args.tol, max_newton_steps=args.max_steps)
    worst_rc = 0
    for g in range(args.genus_min, args.genus_max + 1):
        prob = generate(f"single-cone-genus-{g}", seed=0, size=0)
        cone = max(prob.theta_targets.values())
        t0 = time.perf_counter()
        try:
            mesh, _, _, report = solve_problem(prob, cfg)
        except Exception as exc:  # report every failure and go on to the next genus
            print(f"genus {g:2d}  cone={cone:7.3f}  FAILED: {type(exc).__name__}: {exc}")
            worst_rc = 4
            continue
        dt = time.perf_counter() - t0
        status = report.termination
        if report.steps[-1].failure:  # why the last line search failed
            status += f" ({report.steps[-1].failure})"
        if not report.converged:
            worst_rc = max(worst_rc, 3)
        print(
            f"genus {g:2d}  V={mesh.n_vertices:3d}  cone={cone:7.3f}  {status:<18s} "
            f"steps={report.newton_steps:4d}  residual={report.final_residual:.3e}  "
            f"u in [{report.u_min:8.3f}, {report.u_max:7.3f}]  "
            f"flips={report.total_flips().total:5d}  "
            f"trials={sum(rec.halvings + 1 for rec in report.steps[1:]):4d}  "
            f"capped={sum(rec.capped for rec in report.steps):3d}  {dt:5.2f}s"
        )
    return worst_rc


if __name__ == "__main__":
    sys.exit(main())
