"""A fixed computation whose time tracks how fast the machine runs now.

On the 2-core machine this benchmark was defined on, the same code runs
up to three times slower for seconds to minutes at a time, and process
CPU time slows with it, so it is not waiting for the scheduler.  Medians
within a 30 s run cannot remove a slow minute.  The benchmark therefore
times this kernel right before and after each solve and reports every
time at reference speed: the measured seconds times ``REF_NOMINAL_S``
over the kernel's seconds around that solve.  Over five seeds of the
sphere workload this cut the spread of ``wall_s`` (quartile distance
over median) from 0.18 to 0.05.

The kernel does what the solver's hot loops do, with the benchmark's own
code: walk the faces of a triangle mesh held in plain lists, compute
corner angles with the law of cosines and accumulate them per vertex,
then one small numpy pass.  It shares no code with confmetric, so a
change to the solver cannot change its time.
"""

from __future__ import annotations

import math
import time

import numpy as np

_RNG = np.random.default_rng(20210409)
_N_VERTICES = 642
_FACES = [tuple(int(v) for v in _RNG.integers(0, _N_VERTICES, 3)) for _ in range(1280)]
_SIDES = [tuple(float(x) for x in _RNG.uniform(1.0, 1.5, 3)) for _ in range(1280)]
_ARRAY = _RNG.uniform(1.0, 2.0, 20000)
# The kernel's time on that machine in its fast periods (the tenth
# percentile of 216 samples); a run at that speed reports raw seconds.
REF_NOMINAL_S = 0.0125


def _kernel() -> float:
    theta = [0.0] * _N_VERTICES
    for (i, j, k), (a, b, c) in zip(_FACES, _SIDES):
        theta[i] += math.acos((b * b + c * c - a * a) / (2.0 * b * c))
        theta[j] += math.acos((c * c + a * a - b * b) / (2.0 * c * a))
        theta[k] += math.acos((a * a + b * b - c * c) / (2.0 * a * b))
    return sum(theta) + float(np.arccos(1.0 / _ARRAY).sum())


def reference_seconds(repeats: int = 16) -> float:
    """Seconds for ``repeats`` passes of the kernel, about 20 ms."""
    t0 = time.perf_counter()
    for _ in range(repeats):
        _kernel()
    return time.perf_counter() - t0


def at_reference_speed(seconds: float, ref_seconds: float) -> float:
    """``seconds`` measured while the kernel took ``ref_seconds``, rescaled
    to a machine on which it takes ``REF_NOMINAL_S``."""
    return seconds * REF_NOMINAL_S / ref_seconds
