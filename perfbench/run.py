#!/usr/bin/env python3
"""Benchmark of the confmetric solver: time to a converged metric.

    python3 perfbench/run.py --workload sphere --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the solver is imported from
``src/``.  Workloads are ``sphere``, ``cone`` and ``disk-cli`` (see
``perfbench/README.md``), or ``all``, which runs each in its own process
and prints one combined result.

Each run writes the workload's problem files from ``--seed``, times a
fresh process importing confmetric and parsing them (``setup_s``), then
solves the whole instance set again and again, one instance after the
other, for about ``--seconds`` seconds, checking every output.  With
``--trace 0`` the last line of output is a JSON object with the end-to-end
metrics.  With ``--trace 1`` the rounds alternate between plain and
traced solves: the traced ones wrap each layer's public functions
(``perfbench/tracer.py``), must reproduce the plain ones exactly, and give
the per-layer metrics of the last line.  Times are reported at the speed
of a reference kernel timed around each solve (``reference.py``), and
the process pins itself and its children to one CPU.  Results, the run
environment and the spans of the first traced round go to
``perfbench/out/<workload>/``.

Exit code 0 when every check passed, 1 when one failed, 2 when the
checkout holds no confmetric sources.
"""

import os

# The solver is single-threaded Python around small sparse solves; pin
# BLAS so a machine's core count does not change what is measured.
BLAS_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PINS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from reference import at_reference_speed, reference_seconds  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("sphere", "cone", "disk-cli")
SETUP_REPEATS = 5  # after one unmeasured probe that warms the file cache

END_TO_END = {
    "wall_s": "s",
    "solve_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "gradient.calls": "count",
    "gradient.busy_s": "s",
    "hessian.calls": "count",
    "hessian.busy_s": "s",
    "linsolve.calls": "count",
    "linsolve.busy_s": "s",
    "make_delaunay.calls": "count",
    "make_delaunay.busy_s": "s",
    "scan.calls": "count",
    "scan.busy_s": "s",
    "is_delaunay.calls": "count",
    "is_delaunay.busy_s": "s",
    "flip_edge.busy_s": "s",
    "flips.single": "count",
    "flips.paired": "count",
    "flips.axis": "count",
    "flips.tri_quad": "count",
    "flips.quad_quad": "count",
    "make_delaunay.flip_yield": "ratio",
    "symmetric_flip.calls": "count",
    "symmetric_flip.busy_s": "s",
    "solver.newton_steps": "count",
    "solver.ls_trials": "count",
    "solver.ls_accept_ratio": "ratio",
    "solver.self_s": "s",
    "solver.wall_s": "s",
    "cover.build_s": "s",
    "cover.restrict_s": "s",
    "io.parse_s": "s",
    "io.write_s": "s",
    "io.bytes_written": "B",
    "cli.self_s": "s",
    "trace_overhead_s": "s",
}


@dataclass
class Round:
    """One pass over every instance of the workload."""

    wall_s: float
    instance_s: list
    outcomes: list  # an Outcome per instance, None where it failed
    errors: list
    ref_s: list = field(default_factory=list)  # reference kernel around each instance
    peak_rss_mb: float = 0.0
    bytes_written: int = 0
    spans: list = None
    absent: list = field(default_factory=list)


def repeat(seconds: float, step) -> list:
    """Call ``step`` until the next call would end after ``seconds``; at least once."""
    done = []
    begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        done.append(step())
        took = time.perf_counter() - t0
        if time.perf_counter() - begin + took > seconds:
            return done


def speed_adjusted(rounds: list) -> list:
    """Each instance's median time over the rounds, every sample rescaled
    to reference speed (``reference.py``)."""
    return [
        statistics.median(at_reference_speed(t, ref) for t, ref in samples)
        for samples in zip(*(zip(r.instance_s, r.ref_s) for r in rounds))
    ]


def library_round(wl, meshes, tracer=None) -> Round:
    from workloads import check_library, solve_library

    times, outcomes, errors = [], [], []
    refs = [reference_seconds()]
    for i, path in enumerate(meshes):
        if tracer is not None:
            tracer.instance = i
        t0 = time.perf_counter()
        try:
            theta, result = solve_library(wl, path)
        except Exception as exc:  # a solve that raises counts as failed
            times.append(time.perf_counter() - t0)
            outcomes.append(None)
            errors.append(f"{Path(path).name}: {type(exc).__name__}: {exc}")
            refs.append(reference_seconds())
            continue
        times.append(time.perf_counter() - t0)
        refs.append(reference_seconds())
        try:
            outcomes.append(check_library(wl, theta, result))
        except AssertionError as exc:
            outcomes.append(None)
            errors.append(f"{Path(path).name}: {exc}")
    ref_s = [(a + b) / 2 for a, b in zip(refs, refs[1:])]
    return Round(sum(times), times, outcomes, errors, ref_s)


def traced_library_round(wl, meshes) -> Round:
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        rnd = library_round(wl, meshes, tracer)
    finally:
        tracer.restore()
    rnd.spans = tracer.spans
    rnd.absent = tracer.absent
    return rnd


def cli_round(wl, meshes, work: Path, traced: bool) -> Round:
    """One ``confmetric solve`` process per input, each timed between two
    reference-kernel samples.  A process per input keeps every solve
    within a few seconds of its samples; a single process over all four
    disks ran for 15 s, too long for two samples to track the machine."""
    from tracer import read_spans
    from workloads import check_cli_instance, run_cli

    out_dir = work / ("bundles-traced" if traced else "bundles")
    out_dir.mkdir(parents=True, exist_ok=True)
    for old in out_dir.iterdir():
        old.unlink()
    log, absent_path = work / "cli-stderr.txt", work / "cli-absent.txt"
    times, refs, rss, outcomes, errors, spans = [], [], [], [], [], []
    for i, mesh in enumerate(meshes):
        spans_path = work / f"cli-spans-{i}.csv"
        prefix = [str(HERE / "traced_cli.py"), str(spans_path), str(absent_path), "--"] if traced \
            else ["-m", "confmetric.cli"]
        ref_before = reference_seconds()
        run = run_cli(ROOT, prefix, mesh, out_dir, log)
        refs.append((ref_before + reference_seconds()) / 2)
        times.append(run.wall_s)
        rss.append(run.peak_rss_mb)
        try:
            if run.exit_code != 0:
                raise AssertionError(f"confmetric solve exited {run.exit_code}: {log.read_text()}")
            outcomes.append(check_cli_instance(wl, mesh, out_dir))
        except Exception as exc:  # a missing or unreadable bundle counts as failed
            outcomes.append(None)
            errors.append(f"{Path(mesh).name}: {type(exc).__name__}: {exc}")
        if traced:
            base = len(spans)
            spans += [(name, t0, t1, parent + base if parent >= 0 else -1, i)
                      for name, t0, t1, parent, _ in read_spans(spans_path)]
    written = sum(p.stat().st_size for p in out_dir.iterdir())
    rnd = Round(sum(times), times, outcomes, errors, refs, max(rss), written)
    if traced:
        rnd.spans = spans
        rnd.absent = absent_path.read_text().split()
    return rnd


def layer_metrics(rnd: Round, plain: Round) -> tuple[dict, list]:
    """Per-layer metrics of a traced round, and the internal checks it failed.

    Times are at reference speed, each span scaled by the kernel samples
    around its instance; ``plain`` is the untraced round before it."""
    from tracer import SOLVER_SPANS, absent_layers, summarize

    s = summarize(rnd.spans, {i: at_reference_speed(1.0, ref) for i, ref in enumerate(rnd.ref_s)})
    calls, busy, own = s["calls"], s["busy"], s["self"]
    ok = [o for o in rnd.outcomes if o is not None]
    flips = [sum(o.flips[k] for o in ok) for k in range(5)]
    steps = sum(o.newton_steps for o in ok)
    m = {}
    for span in ("gradient", "hessian", "linsolve", "make_delaunay", "scan", "is_delaunay", "symmetric_flip"):
        m[f"{span}.calls"] = calls.get(span, 0)
        m[f"{span}.busy_s"] = busy.get(span, 0.0)
    m["flip_edge.busy_s"] = busy.get("flip_edge", 0.0)
    for k, kind in enumerate(("single", "paired", "axis", "tri_quad", "quad_quad")):
        m[f"flips.{kind}"] = flips[k]
    m["make_delaunay.flip_yield"] = sum(flips) / calls["is_delaunay"] if calls.get("is_delaunay") else 0.0
    m["solver.newton_steps"] = steps
    m["solver.ls_trials"] = s["ls_trials"]
    m["solver.ls_accept_ratio"] = steps / s["ls_trials"] if s["ls_trials"] else 0.0
    m["solver.self_s"] = sum(own.get(name, 0.0) for name in SOLVER_SPANS)
    m["solver.wall_s"] = busy.get("solver.find_conformal_metric", 0.0)
    m["cover.build_s"] = busy.get("cover.build", 0.0)
    m["cover.restrict_s"] = busy.get("cover.restrict", 0.0)
    m["io.parse_s"] = busy.get("io.parse", 0.0)
    m["io.write_s"] = busy.get("io.write", 0.0)
    m["io.bytes_written"] = rnd.bytes_written
    m["cli.self_s"] = own.get("cli.solve_one", 0.0)
    m["trace_overhead_s"] = sum(speed_adjusted([rnd])) - sum(speed_adjusted([plain]))

    # Counts the wrappers see must match what the solves report.
    absent = set(absent_layers(rnd.absent))
    failed = []
    checks = [
        ({"linsolve"}, "linsolve calls", m["linsolve.calls"], steps),
        ({"hessian"}, "hessian calls", m["hessian.calls"], steps),
        ({"gradient", "solver.line_search"}, "line-search gradients", s["ls_trials"],
         sum(o.ls_trials for o in ok)),
        ({"flip_edge"}, "flip_edge calls", calls.get("flip_edge", 0), flips[0]),
        ({"symmetric_flip"}, "symmetric_flip calls", m["symmetric_flip.calls"], sum(flips[1:])),
    ]
    for needs, what, got, want in checks:
        if not needs & absent and got != want:
            failed.append(f"{what}: {got} traced, {want} reported by the solves")
    parts = ("gradient", "hessian", "linsolve", "make_delaunay", "solver.find_conformal_metric")
    if not absent.intersection(parts):
        covered = m["solver.self_s"] + sum(m[f"{p}.busy_s"] for p in parts[:4])
        if abs(covered - m["solver.wall_s"]) > 1e-6 * max(1.0, m["solver.wall_s"]):
            failed.append(f"layers cover {covered:.6f} s of {m['solver.wall_s']:.6f} s solver wall")
    return m, failed


def measure_setup(wl, meshes) -> tuple[float, float]:
    """Median seconds of fresh setup processes: at reference speed, and raw."""
    from workloads import child_env

    argv = [sys.executable, str(HERE / "setup_probe.py"), wl.setup_module, *meshes]
    samples = []
    for _ in range(SETUP_REPEATS + 1):
        ref_before = reference_seconds()
        t0 = time.perf_counter()
        subprocess.run(argv, env=child_env(ROOT), check=True, stdout=subprocess.DEVNULL)
        took = time.perf_counter() - t0
        samples.append((took, (ref_before + reference_seconds()) / 2))
    del samples[0]
    return (
        statistics.median(at_reference_speed(t, ref) for t, ref in samples),
        statistics.median(t for t, _ in samples),
    )


def environment(seed: int) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "confmetric").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "blas_threads": BLAS_PINS,
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    from workloads import WORKLOADS, make_inputs, solve_library

    wl = WORKLOADS[name]
    work = OUT / name
    work.mkdir(parents=True, exist_ok=True)
    meshes = make_inputs(wl, seed, work / "inputs")
    setup_s, raw_setup_s = measure_setup(wl, meshes)

    if wl.runner == "library":
        solve_library(wl, meshes[0])  # unmeasured: first calls into numpy and scipy
        plain = lambda: library_round(wl, meshes)  # noqa: E731
        traced = lambda: traced_library_round(wl, meshes)  # noqa: E731
    else:
        plain = lambda: cli_round(wl, meshes, work, False)  # noqa: E731
        traced = lambda: cli_round(wl, meshes, work, True)  # noqa: E731

    errors = []
    if not trace:
        rounds = repeat(seconds, plain)
        checked = rounds
        peak = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if wl.runner == "library"
            else statistics.median(r.peak_rss_mb for r in rounds)
        )
        per_instance = speed_adjusted(rounds)
        values = {
            "wall_s": sum(per_instance),
            "solve_s_p50": statistics.median(per_instance),
            "setup_s": setup_s,
            "peak_rss_mb": peak,
        }
        units = END_TO_END
    else:
        from tracer import absent_layers, write_spans

        first_spans = []

        def pair():
            p = plain()
            t = traced()
            m, failed = layer_metrics(t, p)
            if not first_spans:
                first_spans.extend(t.spans)
            t.spans = None  # a cone round holds about 300k spans
            return p, t, m, failed

        pairs = repeat(seconds, pair)
        write_spans(first_spans, work / "spans.csv")
        rounds, checked = [], []
        for p, t, _, failed in pairs:
            rounds += [p, t]
            checked.append(p)
            errors += failed
            if t.outcomes != p.outcomes:
                errors.append("the traced solves differ from the plain ones")
        # One round's metrics, so that its layer times add up: the traced
        # round with the median solver time.
        per_pair = sorted((m for _, _, m, _ in pairs), key=lambda m: m["solver.wall_s"])
        values = {k: per_pair[(len(per_pair) - 1) // 2][k] for k in PER_LAYER}
        units = PER_LAYER
        absent = absent_layers(pairs[0][1].absent)
        if absent:
            print(f"absent layers (reported as 0): {', '.join(absent)}")

    for rnd in rounds:
        errors += rnd.errors
    for k, rnd in enumerate(checked[1:], 1):
        if rnd.outcomes != checked[0].outcomes:
            errors.append(f"round {k} solved differently from round 0")
    attempted = sum(len(r.outcomes) for r in rounds)
    failed = sum(o is None for r in rounds for o in r.outcomes)
    env = environment(seed)

    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    solved = [
        dict(input=Path(mesh).name, newton_steps=o.newton_steps, flips=o.flips,
             ls_trials=o.ls_trials, final_residual=o.final_residual)
        for mesh, o in zip(meshes, checked[0].outcomes) if o is not None
    ]
    record = dict(result, workload=name, seconds=seconds, trace=int(trace), rounds=len(rounds),
                  raw_setup_s=raw_setup_s, round_wall_s=[r.wall_s for r in rounds],
                  samples=[dict(instance_s=r.instance_s, ref_s=r.ref_s) for r in rounds],
                  failed_frac=failed / attempted, errors=errors, env=env, instances=solved)
    (work / f"result-trace{int(trace)}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {name}: {len(meshes)} instances, {len(rounds)} rounds, seed {seed}, "
          f"trace {int(trace)}")
    for k in units:
        print(f"  {k:26s} {values[k]:.6g} {units[k]}")
    if not trace:
        print(f"  (raw seconds: round wall median {statistics.median(r.wall_s for r in rounds):.6g}, "
              f"setup median {raw_setup_s:.6g})")
    print(f"  {'failed_frac':26s} {failed / attempted:.6g} ({failed} of {attempted})")
    for err in errors:
        print(f"  check failed: {err}")
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0 if not errors else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        code = max(code, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 1
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return code


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "confmetric" / "__init__.py").is_file():
        print(f"error: no confmetric sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One CPU for this process and every child: the reference kernel only
    # tracks the speed of the CPU it runs on, and the two CPUs of the
    # machine this benchmark was defined on slow down independently.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
