"""The exit-code contract as a property of small problems run through ``cli.main``.

Positive targets that satisfy Gauss-Bonnet have a solution on a closed
surface (Gu, Luo, Sun & Wu; Springborn), and a disk is solved on its
closed double cover.  So such a problem should converge with default
options, and convergence needs no reference solution.  With any accepted
option value a solve must still end in exit 0, 2 or 3: exit 4 means a
broken invariant, which no option value may reach.
"""

import contextlib
import io
import math
import os
import tempfile
import warnings

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import helpers
from confmetric.cli import main
from confmetric.io import ProblemFile, write_problem_files

# The smallest target a case may have; on a disk a boundary vertex's cover
# target 2 (pi - kappa) counts.
MIN_TARGET = 1e-6

# The smallest target of the cases that must converge, over ten times above
# where a direction starts to miss its 1e-10 residual gate by rounding
# alone: the regular tetrahedron with angle sums in the ratio
# 1 : 1 : 0.25 : 1e-4 (smallest 5.6e-4) ends in linear_solve_breakdown with
# residual 2.6e-14 against a gate of 1.7e-14.
CONVERGES_FROM = 1e-2


def _fan(k):
    """k triangles around a hub, vertex k, inside the unit circle."""
    rim = [(math.cos(2 * math.pi * i / k), math.sin(2 * math.pi * i / k), 0.0) for i in range(k)]
    return [[i, (i + 1) % k, k] for i in range(k)], rim + [(0.0, 0.0, 0.0)], range(k)


# Faces, vertex positions and boundary vertices of the embedded inputs.
_EMBEDDED = [
    ([[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]],
     [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)], ()),
    ([[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 1], [5, 2, 1], [5, 3, 2], [5, 4, 3], [5, 1, 4]],
     [(0, 0, 1), (1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0), (0, 0, -1)], ()),
    ([[0, 1, 2], [0, 2, 3]], [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)], range(4)),
    _fan(3),
    _fan(5),
]


@st.composite
def embedded(draw):
    """A tetrahedron, an octahedron, a square or a fan, with its vertices
    moved by up to 0.3 in each coordinate; the lengths are the distances."""
    faces, xyz, boundary = draw(st.sampled_from(_EMBEDDED))
    shift = draw(st.lists(st.floats(-0.3, 0.3), min_size=3 * len(xyz), max_size=3 * len(xyz)))
    positions = np.asarray(xyz, dtype=float) + np.reshape(shift, (-1, 3))
    return ProblemFile(faces, positions.tolist()), set(boundary)


@st.composite
def shuffled(draw):
    """``helpers.shuffled_closed_mesh``, an icosahedron with random lengths
    and flips, when a mesh file can state it: one edge per vertex pair, and
    the triangle inequality on every face."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    flips = draw(st.integers(0, 3))
    mesh, metric = helpers.shuffled_closed_mesh(rng, flips=flips, low=0.8, high=1.25)
    lengths = {}
    for e in mesh.edges():
        a, b = helpers.edge_endpoints(mesh, e)
        lengths[min(a, b), max(a, b)] = metric.lengths[e]
    assume(len(lengths) == len(mesh.edges()) and all(a != b for a, b in lengths))
    faces = [[mesh.to[h] for h in mesh.face_halfedges(f)] for f in mesh.faces()]
    for f in faces:
        x, y, z = sorted(lengths[min(a, b), max(a, b)] for a, b in zip(f, f[1:] + f[:1]))
        assume(x + y > z)
    return ProblemFile(faces, edge_lengths=lengths), set()


@st.composite
def problems(draw, floor=MIN_TARGET):
    """A problem whose targets are positive shares of the angle total that
    Gauss-Bonnet fixes, each at least ``floor``: angle sums on a closed
    mesh; on a disk curvatures (flat minus the angle sum: 2 pi inside, pi
    on the boundary), or angle sums that leave one vertex out at its flat
    value."""
    prob, boundary = draw(embedded() | shuffled())
    n = prob.n_vertices
    on_boundary = np.array([v in boundary for v in range(n)], dtype=bool)
    flat = np.where(on_boundary, math.pi, 2 * math.pi)
    total = flat.sum() - 2 * math.pi * (1 if boundary else 2)
    weights = np.array(draw(st.lists(st.floats(floor, 1.0), min_size=n, max_size=n)))
    omit = draw(st.sampled_from([None, *range(n)])) if boundary else None
    if omit is not None:
        weights[omit] = 0.0
        total -= flat[omit]
    share = total * weights / weights.sum()
    if omit is not None:
        share[omit] = flat[omit]
    assert np.all(np.where(on_boundary, 2.0, 1.0) * share >= floor)
    if boundary and omit is None:
        prob.kappa_targets = dict(enumerate((flat - share).tolist()))
    else:
        prob.theta_targets = {v: s for v, s in enumerate(share.tolist()) if v != omit}
    return prob


def _solve(prob):
    """Exit code, stdout, stderr and the mesh path of ``confmetric solve``
    on ``prob``, run in a fresh directory."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.mesh")
        write_problem_files(prob, path)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["solve", path])
    return code, out.getvalue(), err.getvalue(), path


@settings(max_examples=60, deadline=None)
@given(problems(CONVERGES_FROM))
def test_feasible_problems_converge_with_default_options(prob):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err, path = _solve(prob)
    assert (code, err) == (0, ""), out
    assert out.startswith(f"{path}: converged ")


_OPTIONS = {
    "tol": st.floats(0.0, exclude_min=True, allow_infinity=False),
    "max_steps": st.integers(0, 200),
}


@settings(max_examples=60, deadline=None)
@given(problems(), st.fixed_dictionaries({}, optional=_OPTIONS))
def test_every_accepted_option_ends_in_a_documented_exit_code(prob, options):
    prob.options = options
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err, path = _solve(prob)
    assert code in (0, 2, 3)
    assert not caught
    for line in err.splitlines():
        assert line.startswith(f"{path}: error: "), line
