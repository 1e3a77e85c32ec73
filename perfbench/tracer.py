"""Spans around the public functions of each confmetric layer.

The traced run records one span per call of the wrapped functions: name,
start, end, the span that was open when it started, and the instance id.
Spans stay in memory and are written out when the run ends.

Wrappers are installed in the namespace the caller looks the name up in.
The solver imports ``gradient`` with ``from .metric import gradient``, so
wrapping ``confmetric.metric.gradient`` alone would miss every solver
call; the table below therefore wraps ``confmetric.solver.gradient``.
A name that a later change deletes is reported as an absent target
instead of failing the run.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

# (module, attribute, span name).  Several attributes may share a span
# name; the span name is the layer the benchmark reports.
TARGETS = (
    ("confmetric.solver", "find_conformal_metric", "solver.find_conformal_metric"),
    ("confmetric.solver", "line_search", "solver.line_search"),
    ("confmetric.solver", "scale_conformally", "solver.scale_conformally"),
    ("confmetric.solver", "newton_direction", "linsolve"),
    ("confmetric.solver", "gradient", "gradient"),
    ("confmetric.solver", "hessian", "hessian"),
    ("confmetric.solver", "make_delaunay", "make_delaunay"),
    ("confmetric.metric", "_scan_violations_vectorized", "scan"),
    ("confmetric.metric", "is_delaunay", "is_delaunay"),
    ("confmetric.metric", "flip_edge", "flip_edge"),
    ("confmetric.metric", "apply_symmetric_flip", "symmetric_flip"),
    ("confmetric.io", "read_mesh_file", "io.parse"),
    ("confmetric.io", "read_targets_file", "io.parse"),
    ("confmetric.io", "problem_to_mesh", "io.parse"),
    ("confmetric.cli", "_solve_one", "cli.solve_one"),
    ("confmetric.cli", "find_conformal_metric", "solver.find_conformal_metric"),
    ("confmetric.cli", "build_double_cover", "cover.build"),
    ("confmetric.cli", "restrict_to_single_cover", "cover.restrict"),
    ("confmetric.cli", "read_mesh_file", "io.parse"),
    ("confmetric.cli", "read_targets_file", "io.parse"),
    ("confmetric.cli", "problem_to_mesh", "io.parse"),
    ("confmetric.cli", "bundle_from_solution", "io.write"),
    ("confmetric.cli", "write_bundle", "io.write"),
)

# Spans whose self time is the Newton loop's own work.
SOLVER_SPANS = ("solver.find_conformal_metric", "solver.line_search", "solver.scale_conformally")

SPAN_HEADER = "name,start,end,parent,instance"


class Tracer:
    """Installs wrappers, collects spans, and restores the originals.

    The caller sets ``instance`` before each instance it solves.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.instance = -1
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.instance)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn))

    def restore(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)


def absent_layers(absent_targets: list[str]) -> list[str]:
    """Span names none of whose targets could be wrapped."""
    missing = set(absent_targets)
    by_name: dict[str, list[str]] = defaultdict(list)
    for module_name, attr, name in TARGETS:
        by_name[name].append(f"{module_name}.{attr}")
    return sorted(name for name, targets in by_name.items() if missing.issuperset(targets))


def summarize(spans, scale: dict[int, float]) -> dict:
    """Calls and busy seconds per span name, plus self times.

    Each duration is multiplied by ``scale`` of its instance id.  A span's
    self time is its duration minus the durations of its direct children;
    no wrapped function calls another of the same name, so busy seconds
    per name never count an interval twice.
    """
    calls: Counter = Counter()
    busy: dict[str, float] = defaultdict(float)
    took = [(t1 - t0) * scale.get(inst, 1.0) for _, t0, t1, _, inst in spans]
    children = [0.0] * len(spans)
    for (name, _, _, parent, _), d in zip(spans, took):
        calls[name] += 1
        busy[name] += d
        if parent >= 0:
            children[parent] += d
    self_time: dict[str, float] = defaultdict(float)
    ls_trials = 0
    for i, (name, _, _, parent, _) in enumerate(spans):
        self_time[name] += took[i] - children[i]
        if name == "gradient" and parent >= 0 and spans[parent][0] == "solver.line_search":
            ls_trials += 1
    return {
        "calls": dict(calls),
        "busy": dict(busy),
        "self": dict(self_time),
        "ls_trials": ls_trials,
    }


def write_spans(spans, path) -> None:
    with open(path, "w") as fh:
        fh.write(SPAN_HEADER + "\n")
        for name, t0, t1, parent, inst in spans:
            fh.write(f"{name},{t0!r},{t1!r},{parent},{inst}\n")


def read_spans(path) -> list[tuple[str, float, float, int, int]]:
    out = []
    with open(path) as fh:
        if fh.readline().strip() != SPAN_HEADER:
            raise ValueError(f"{path}: not a span file")
        for line in fh:
            name, t0, t1, parent, inst = line.rstrip("\n").split(",")
            out.append((name, float(t0), float(t1), int(parent), int(inst)))
    return out
