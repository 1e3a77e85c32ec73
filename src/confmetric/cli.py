"""Command line front end: solve, delaunay, generate, report.

Exit codes: 0 success/converged, 2 parse or validation failure or a file
that cannot be read or written, 3 non-convergence within budgets,
4 internal invariant breach (a flip loop that does not terminate within
its fixed budget, symmetry corruption, degenerate geometry, or any other
unexpected failure of one input).
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys

# One BLAS thread unless the user says otherwise: set before numpy loads.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from .generate import generate
from .halfedge import MeshError
from .io import (
    ParseError,
    ProblemFile,
    bundle_from_solution,
    bundle_to_csv,
    problem_to_mesh,
    read_bundle,
    read_mesh_file,
    read_targets_file,
    sidecar_path,
    write_bundle,
    write_problem_files,
)
from .metric import make_delaunay
from .solver import SolverConfig, solve_problem

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_INVARIANT = 4

_OPT_NAMES = {
    "tol": ("eps_tol", float),
    "max_steps": ("max_newton_steps", int),
}


def _build_config(options: dict, args) -> SolverConfig:
    """Solver settings from ``opt`` lines; a command line flag of the same
    name wins.  Every value must be finite and nonnegative, ``tol``
    positive, and ``max_steps`` integral."""
    for name in options:
        if name not in _OPT_NAMES:
            raise ParseError(f"unknown solver option {name!r}")
    cfg = SolverConfig()
    for name, (field, cast) in _OPT_NAMES.items():
        flag = getattr(args, name, None)
        value = flag if flag is not None else options.get(name)
        if value is None:
            continue
        positive = name == "tol"
        if not (
            math.isfinite(value)
            and cast(value) == value
            and (value > 0 if positive else value >= 0)
        ):
            kind = "an integer" if cast is int else "a finite number"
            low = "> 0" if positive else ">= 0"
            raise ParseError(f"solver option {name} must be {kind} {low}, got {value!r}")
        setattr(cfg, field, cast(value))
    return cfg


def _result_path(mesh_path: str, out: str | None, many: bool) -> str:
    if out and not many:
        return out
    name = sidecar_path(mesh_path, ".result")
    if out:  # a directory when there are several inputs
        os.makedirs(out, exist_ok=True)
        return os.path.join(out, os.path.basename(name))
    return name


def _load_problem(mesh_path: str, targets_path: str | None, need_targets: bool) -> ProblemFile:
    prob = read_mesh_file(mesh_path)
    tpath = targets_path or sidecar_path(mesh_path)
    if os.path.exists(tpath):
        read_targets_file(tpath, prob)
    elif need_targets:
        raise ParseError(f"no targets file at {tpath}")
    return prob


def _solve_one(mesh_path: str, args, many: bool) -> int:
    try:
        prob = _load_problem(mesh_path, args.targets, True)
        cfg = _build_config(prob.options, args)
        mesh, scaled, u, report = solve_problem(prob, cfg, args.keep_double_cover)
        code = EXIT_OK if report.converged else EXIT_NO_CONVERGENCE
        bundle = bundle_from_solution(mesh, scaled, u, report, code)
        out_path = _result_path(mesh_path, args.out, many)
        write_bundle(bundle, out_path)
    except (ParseError, OSError) as exc:
        print(f"{mesh_path}: error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except Exception as exc:  # one failed input must not stop the others
        print(f"{mesh_path}: invariant breach: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    print(
        f"{mesh_path}: {report.termination} steps={report.newton_steps} "
        f"residual={report.final_residual:.3e} flips={bundle.flip_totals[0]} -> {out_path}"
    )
    return code


def cmd_solve(args) -> int:
    many = len(args.inputs) > 1
    if args.targets and many:
        print("error: --targets only applies to a single input", file=sys.stderr)
        return EXIT_PARSE
    return max(_solve_one(p, args, many) for p in args.inputs)


def cmd_delaunay(args) -> int:
    try:
        mesh, metric = problem_to_mesh(_load_problem(args.input, None, False))
    except (ParseError, OSError) as exc:
        print(f"{args.input}: error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    u = [0.0] * mesh.n_vertices
    try:
        log = make_delaunay(mesh, metric, u)
    except Exception as exc:
        print(f"{args.input}: invariant breach: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    bundle = bundle_from_solution(mesh, metric, u, None, EXIT_OK, flips=log)
    out_path = _result_path(args.input, args.out, False)
    write_bundle(bundle, out_path)
    print(f"{args.input}: {log.total} flips -> {out_path}")
    return EXIT_OK


def cmd_generate(args) -> int:
    try:
        inst = generate(args.kind, args.seed, args.size)
    except MeshError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    mesh_path = args.out or f"{args.kind}-s{args.seed}.mesh"
    targets_path = write_problem_files(inst, mesh_path)
    print(f"{mesh_path} + {targets_path}")
    return EXIT_OK


def cmd_report(args) -> int:
    csv = bundle_to_csv(read_bundle(args.result))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv)
        print(args.out)
    else:
        sys.stdout.write(csv)
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="confmetric",
        description="Discrete conformal metrics with prescribed angle sums.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="run the Newton pipeline on problem files")
    sp.add_argument("inputs", nargs="+", help="mesh files (targets in <stem>.targets)")
    sp.add_argument("--targets", help="explicit targets file (single input only)")
    sp.add_argument("--out", help="result path (single input) or directory (several inputs)")
    sp.add_argument("--tol", type=float, help="convergence tolerance on max angle error")
    sp.add_argument("--max-steps", type=int, help="Newton step budget")
    sp.add_argument("--keep-double-cover", action="store_true", help="emit the symmetric cover instead of restricting")
    sp.set_defaults(func=cmd_solve)

    dp = sub.add_parser("delaunay", help="retriangulate to intrinsic Delaunay at u = 0")
    dp.add_argument("input")
    dp.add_argument("--out")
    dp.set_defaults(func=cmd_delaunay)

    gp = sub.add_parser("generate", help="write a random problem instance")
    gp.add_argument("kind", help="sphere-random-angles | disk-random-boundary | single-cone-genus-<g>")
    gp.add_argument("--seed", type=int, default=0)
    gp.add_argument("--size", type=int, help="approximate vertex count")
    gp.add_argument("--out", help="mesh file path (targets go to <stem>.targets)")
    gp.set_defaults(func=cmd_generate)

    rp = sub.add_parser("report", help="dump per-iteration CSV from a result bundle")
    rp.add_argument("result")
    rp.add_argument("--out", help="CSV path (default stdout)")
    rp.set_defaults(func=cmd_report)
    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def run() -> int:
    """The console entry point: ``main``, with the objects the imports
    made frozen, so that no garbage collection walks them again."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
