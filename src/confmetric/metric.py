"""Penner edge lengths and everything computed from them.

Lengths are stored per halfedge (equal on the two halfedges of an edge,
bitwise) and need not satisfy triangle inequalities: they are coordinates
for a decorated hyperbolic structure, and all operations on them (conformal
scaling, the Delaunay predicate, Ptolemy flips) are rational or
trigonometric expressions that remain meaningful for any positive values.

A conformal factor ``u`` per vertex scales lengths as
``l'_ij = l_ij * exp((u_i + u_j)/2)``.  Angles, the Delaunay predicate and
the Newton derivatives all use scaled lengths; flips always update the
*original* lengths so that scaling and flipping commute.

Transient quad faces (created by symmetric flips) are measured through
their stored diagonal: the quad splits into two virtual triangles along
the diagonal, which scales like an ordinary edge between its endpoints.

Angle sums and the cotangent Hessian come from one numpy corner-table
kernel.  It reads the triangles straight off the halfedge arrays (a face
is a halfedge with ``he_face[h] == h`` that is neither parked, in a quad
nor an outer loop), expands every stored quad into its two virtual
triangles, and yields per-triangle corner vertices with the scaled side
opposite each corner.  Corner quantities come from needle-safe Heron terms
(Kahan's ordering): angles from the half-angle tangent, summed per vertex
with one ``bincount``, and cotangents as (b^2 + c^2 - a^2) / 4A for the
Hessian's triplets.  The law-of-cosines ``arccos`` loses about
``1e-16 / angle`` per corner, which on needles near 1e-7 rad left the
single-cone solves short of their tolerance.  A side longer than the other
two gives a flat triangle (angles pi, 0, 0).  The kernel raises
:class:`MetricError` rather than let a zero or non-finite length turn into
NaN.

``make_delaunay`` flips until every interior edge satisfies the Delaunay
condition.  Its full scan reads the same corner table, quads included:
each side's term (b^2 + c^2 - a^2) / bc lands on its halfedge, and an
edge's Delaunay value is the sum over its two halfedges.  The flip loop
re-tests one edge at a time with the scalar ``is_delaunay``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .halfedge import CombinatorialMesh, FlipFrame, apply_flip, plan_flip
from .symmetry import FlipType, ReflectionMap, apply_symmetric_flip, classify_flip

if TYPE_CHECKING:  # pragma: no cover
    import scipy.sparse


class MetricError(Exception):
    """Raised when lengths cannot support the requested computation."""


class FlipBudgetError(Exception):
    """Raised when make_delaunay exceeds its flip budget."""


@dataclass
class PennerMetric:
    """Per-halfedge lengths plus stored diagonals of transient quad faces.

    ``quad_diag`` is keyed by quad face id.  The stored diagonal connects
    the heads of the second and fourth halfedges of the face cycle; both
    diagonals of an axis quad have the same length, so the choice only
    fixes which virtual triangulation measures the quad.
    """

    lengths: list[float]
    quad_diag: dict[int, float] = field(default_factory=dict)

    def copy(self) -> "PennerMetric":
        return PennerMetric(list(self.lengths), dict(self.quad_diag))

    @classmethod
    def from_edge_lengths(
        cls, mesh: CombinatorialMesh, edge_lengths: dict[int, float]
    ) -> "PennerMetric":
        """Expand a per-edge map (keyed by edge id) to per-halfedge storage."""
        lengths = [0.0] * mesh.n_halfedges()
        for e, val in edge_lengths.items():
            if not val > 0:
                raise MetricError(f"edge {e} has nonpositive length {val}")
            lengths[e] = val
            lengths[mesh.opp[e]] = val
        for e in mesh.edges():
            if lengths[e] == 0.0:
                raise MetricError(f"edge {e} missing from the length map")
        return cls(lengths)

    @classmethod
    def uniform(cls, mesh: CombinatorialMesh, value: float = 1.0) -> "PennerMetric":
        return cls([value] * mesh.n_halfedges())


def scaled_length(
    mesh: CombinatorialMesh,
    metric: PennerMetric,
    u: "list[float] | np.ndarray",
    h: int,
) -> float:
    """Length of the edge of ``h`` under the conformal factor ``u``."""
    i = mesh.to[mesh.opp[h]]
    j = mesh.to[h]
    return metric.lengths[h] * math.exp(0.5 * (u[i] + u[j]))


def _scaled_diag(
    mesh: CombinatorialMesh,
    metric: PennerMetric,
    u: "list[float] | np.ndarray",
    f: int,
) -> float:
    hs = mesh.face_halfedges(f)
    a = mesh.to[hs[1]]
    b = mesh.to[hs[3]]
    return metric.quad_diag[f] * math.exp(0.5 * (u[a] + u[b]))


def _array(xs: list, dtype: type = np.intp) -> np.ndarray:
    """Copy a mesh or metric list into a numpy array (``fromiter`` copies
    a list of Python scalars fastest)."""
    return np.fromiter(xs, dtype, len(xs))


def _scale(lengths: np.ndarray, u: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized ``scaled_length``: ``lengths * exp((u[a] + u[b]) / 2)``."""
    return lengths * np.exp(0.5 * (u[a] + u[b]))


def corner_angle(l_opp: float, l_a: float, l_b: float) -> float:
    """Angle between sides ``l_a`` and ``l_b`` opposite ``l_opp``.

    The cosine is clamped to [-1, 1]: lengths violating the triangle
    inequality yield a flat angle of 0 or pi instead of a domain error.
    """
    c = (l_a * l_a + l_b * l_b - l_opp * l_opp) / (2.0 * l_a * l_b)
    if c > 1.0:
        c = 1.0
    elif c < -1.0:
        c = -1.0
    return math.acos(c)


# -- corner table -------------------------------------------------------------


def _corner_table(
    mesh: CombinatorialMesh,
    metric: PennerMetric,
    u: "list[float] | np.ndarray",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Corner vertices ``V``, scaled opposite sides ``S`` and the halfedges
    ``H`` of those sides, all (T, 3).

    Row t is one triangle, or one virtual triangle of a quad, with its
    corners in face order; ``S[t, k]`` is the scaled side opposite corner
    ``V[t, k]`` and ``H[t, k]`` its halfedge, or -1 for a quad's stored
    diagonal.  Raises MetricError on a zero or non-finite side.
    """
    nxt = _array(mesh.next_he)
    n = len(nxt)
    to = _array(mesh.to)
    tail = to[_array(mesh.opp)]
    lengths = _array(metric.lengths, float)
    uu = np.asarray(u, dtype=float)

    q0 = _array(list(metric.quad_diag))
    is_face = _array(mesh.he_face) == np.arange(n)
    if any(mesh.parked):
        is_face &= ~_array(mesh.parked, bool)
    if any(mesh.in_quad):
        is_face &= ~_array(mesh.in_quad, bool)
    is_face[list(mesh.boundary_faces)] = False
    is_face[q0] = False
    h0 = np.flatnonzero(is_face)
    h1 = nxt[h0]
    h2 = nxt[h1]
    if np.any(nxt[h2] != h0):
        raise MetricError("a face is neither a triangle nor a quad with a stored diagonal")
    # Corner k sits at the head of side k, between sides k and k+1.
    cyc = np.stack((h0, h1, h2), axis=1)

    if len(q0):
        q1 = nxt[q0]
        q2 = nxt[q1]
        q3 = nxt[q2]
        # Each stored diagonal becomes two virtual halfedges past the real
        # ones: head(q1) -> head(q3) closes (q0, q1), the reverse (q2, q3).
        d1 = n + np.arange(len(q0))
        d2 = d1 + len(q0)
        cyc = np.concatenate((cyc, np.stack((q0, q1, d1), 1), np.stack((q2, q3, d2), 1)))
        d = _array(list(metric.quad_diag.values()), float)
        lengths = np.concatenate((lengths, d, d))
        to, tail = np.concatenate((to, to[q3], to[q1])), np.concatenate((tail, to[q1], to[q3]))

    sides = _scale(lengths[cyc], uu, to[cyc], tail[cyc])
    if not np.all((sides > 0.0) & (sides < math.inf)):
        raise MetricError("zero or non-finite scaled length")
    H = np.where(cyc < n, cyc, -1)
    return to[cyc], sides[:, [2, 0, 1]], H[:, [2, 0, 1]]


def _heron_terms(S: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Needle-safe Heron terms of every triangle from its (T, 3) sides.

    Returns the sides rescaled per triangle by a power of two, which is
    exact and keeps every product below in range; the perimeter ``p``
    (T, 1); and ``q = p - 2 S`` (T, 3), formed as ``min + (max - side)`` so
    that it never cancels (Kahan's ordering), clamped at 0 where a side
    exceeds the other two.  ``p * q0 * q1 * q2`` is 16 times the squared
    area.
    """
    S = np.ldexp(S, -np.frexp(S.max(axis=1, keepdims=True))[1])
    b = S[:, [1, 2, 0]]
    c = S[:, [2, 0, 1]]
    q = np.maximum(np.minimum(b, c) + (np.maximum(b, c) - S), 0.0)
    return S, S.sum(axis=1, keepdims=True), q


def vertex_angle_sums(
    mesh: CombinatorialMesh,
    metric: PennerMetric,
    u: "list[float] | np.ndarray",
) -> np.ndarray:
    """Total scaled angle around each vertex; quads count via their
    virtual triangulation along the stored diagonal."""
    V, S, _ = _corner_table(mesh, metric, u)
    _, p, q = _heron_terms(S)
    # tan(angle / 2) = sqrt(q_next * q_prev / (p * q_own)), accurate for
    # needles where arccos of the law-of-cosines cosine is not.  A side
    # longer than the other two gives angles pi, 0, 0.
    angles = 2.0 * np.arctan2(np.sqrt(q[:, [1, 2, 0]] * q[:, [2, 0, 1]]), np.sqrt(p * q))
    return np.bincount(V.ravel(), weights=angles.ravel(), minlength=mesh.n_vertices)


# -- Delaunay predicate -------------------------------------------------------


def _side_term(
    mesh: CombinatorialMesh,
    metric: PennerMetric,
    u: "list[float] | np.ndarray",
    h: int,
) -> float:
    """One side's contribution to the Delaunay value of its edge.

    For a triangle side this equals twice the cosine of the opposite
    corner; for a quad side the opposite corner lives in the virtual
    triangle cut off by the stored diagonal.
    """
    c = scaled_length(mesh, metric, u, h)
    if not mesh.in_quad[h]:
        nh = mesh.next_he[h]
        a = scaled_length(mesh, metric, u, nh)
        b = scaled_length(mesh, metric, u, mesh.next_he[nh])
    else:
        f = mesh.he_face[h]
        hs = mesh.face_halfedges(f)
        a = scaled_length(mesh, metric, u, hs[hs.index(h) ^ 1])
        b = _scaled_diag(mesh, metric, u, f)
    ab = a * b
    if not 0.0 < ab < math.inf:
        raise MetricError(f"scaled lengths beside halfedge {h} left the float range")
    return (a * a + b * b - c * c) / ab


def delaunay_value(
    mesh: CombinatorialMesh,
    metric: PennerMetric,
    u: "list[float] | np.ndarray",
    e: int,
) -> float:
    """Sum of the two side terms of edge ``e``; nonnegative means Delaunay."""
    return _side_term(mesh, metric, u, e) + _side_term(mesh, metric, u, mesh.opp[e])


def is_delaunay(
    mesh: CombinatorialMesh,
    metric: PennerMetric,
    u: "list[float] | np.ndarray",
    e: int,
    refl: ReflectionMap | None = None,
    eps_flip: float = 1e-12,
) -> bool:
    """Delaunay test with a guard band: values down to ``-eps_flip`` pass.

    With a reflection map, configurations whose symmetry forces the
    condition short-circuit to true without evaluating lengths.
    """
    if refl is not None:
        kind, _ = classify_flip(mesh, refl, e)
        if kind is FlipType.ALWAYS_DELAUNAY:
            return True
    return delaunay_value(mesh, metric, u, e) >= -eps_flip


# -- flips --------------------------------------------------------------------


def flip_edge(
    mesh: CombinatorialMesh, metric: PennerMetric, h: int
) -> tuple[FlipFrame, float]:
    """Plain (asymmetric) flip with the Ptolemy length update."""
    sl = metric.lengths
    fr = plan_flip(mesh, h)
    lnew = (sl[fr.h1] * sl[fr.h4] + sl[fr.h2] * sl[fr.h5]) / sl[fr.h0]
    apply_flip(mesh, fr)
    sl[fr.h0] = lnew
    sl[fr.h3] = lnew
    return fr, lnew


@dataclass
class FlipLog:
    """Counts of flips performed by one make_delaunay call, by surgery type.

    ``single`` counts plain flips on meshes without a reflection map;
    symmetric surgeries count once each regardless of how many elementary
    flips they bundle.
    """

    total: int = 0
    single: int = 0
    paired: int = 0
    axis: int = 0
    tri_quad: int = 0
    quad_quad: int = 0

    def add(self, kind: FlipType | None) -> None:
        self.total += 1
        if kind is None:
            self.single += 1
        elif kind is FlipType.PAIRED:
            self.paired += 1
        elif kind is FlipType.AXIS:
            self.axis += 1
        elif kind is FlipType.TRI_QUAD:
            self.tri_quad += 1
        elif kind is FlipType.QUAD_QUAD:
            self.quad_quad += 1

    def merge(self, other: "FlipLog") -> None:
        self.total += other.total
        self.single += other.single
        self.paired += other.paired
        self.axis += other.axis
        self.tri_quad += other.tri_quad
        self.quad_quad += other.quad_quad


def _scan_violations_vectorized(
    mesh: CombinatorialMesh,
    metric: PennerMetric,
    u: "list[float] | np.ndarray",
    refl: ReflectionMap | None,
    eps_flip: float,
) -> list[int]:
    """Canonical ids of the edges whose Delaunay value is below ``-eps_flip``.

    Every side of the corner table stores its term (b^2 + c^2 - a^2) / bc
    at its halfedge.  Halfedges of outer loops and parked halfedges keep
    NaN, so boundary edges never compare as violations.  With a reflection
    map, edges that ``classify_flip`` calls ALWAYS_DELAUNAY are masked out.
    Raises MetricError where a product bc is zero or not finite.
    """
    _, S, H = _corner_table(mesh, metric, u)
    b = S[:, [1, 2, 0]]
    c = S[:, [2, 0, 1]]
    bc = b * c
    if not np.all(((bc > 0.0) & (bc < math.inf)) | (H < 0)):
        raise MetricError("scaled lengths beside a side left the float range")
    n = mesh.n_halfedges()
    # Entries at stored diagonals (H = -1) land in the spare last slot.
    term = np.full(n + 1, np.nan)
    term[H] = (b * b + c * c - S * S) / bc

    idx = np.arange(n)
    opp = _array(mesh.opp)
    bad = (idx < opp) & (term[:n] + term[opp] < -eps_flip)

    if refl is not None:
        he_face = _array(mesh.he_face)
        r = np.asarray(refl.r)
        # Parked halfedges have he_face -1 and belong to no face.
        fixed = (r == idx) & (he_face >= 0)
        face_is_axis = np.zeros(n, dtype=bool)
        face_is_axis[he_face[fixed]] = True
        axis_h = face_is_axis[he_face]
        skip = (he_face == he_face[opp]) | (axis_h & axis_h[opp] & (r != idx))
        bad &= ~skip
    return np.flatnonzero(bad).tolist()


def make_delaunay(
    mesh: CombinatorialMesh,
    metric: PennerMetric,
    u: "list[float] | np.ndarray",
    refl: ReflectionMap | None = None,
    eps_flip: float = 1e-12,
    flip_budget_factor: float = 100.0,
) -> FlipLog:
    """Flip edges until the scaled metric is Delaunay; returns flip counts.

    Works in place.  With ``refl`` every flip is a symmetric surgery and
    the reflection structure is maintained; without it flips are plain
    triangle-triangle flips.  A full scan seeds a stack; after each flip
    the edges of the rebuilt faces are re-examined, and the scan repeats
    until clean.  Raises :class:`FlipBudgetError` after
    ``flip_budget_factor * n_edges`` flips.
    """
    log = FlipLog()
    budget = flip_budget_factor * mesh.n_edges()
    while True:
        violations = _scan_violations_vectorized(mesh, metric, u, refl, eps_flip)
        if not violations:
            return log
        stack = sorted(violations, reverse=True)
        while stack:
            h = stack.pop()
            if mesh.parked[h] or mesh.is_boundary_edge(h):
                continue
            if is_delaunay(mesh, metric, u, h, refl, eps_flip):
                continue
            if log.total >= budget:
                raise FlipBudgetError(
                    f"exceeded {budget:.0f} flips without reaching Delaunay"
                )
            if refl is None:
                fr, _ = flip_edge(mesh, metric, h)
                log.add(None)
                for x in (fr.h1, fr.h2, fr.h4, fr.h5):
                    stack.append(mesh.edge_of(x))
            else:
                rec = apply_symmetric_flip(mesh, metric, refl, h)
                log.add(rec.kind)
                for f in rec.faces:
                    for x in mesh.face_halfedges(f):
                        stack.append(mesh.edge_of(x))


# -- Newton derivatives -------------------------------------------------------


def gradient(
    mesh: CombinatorialMesh,
    metric: PennerMetric,
    u: "list[float] | np.ndarray",
    theta_hat: "list[float] | np.ndarray",
) -> np.ndarray:
    """Residual target minus current angle sums (the Newton right-hand side)."""
    return np.asarray(theta_hat, dtype=float) - vertex_angle_sums(mesh, metric, u)


def hessian(
    mesh: CombinatorialMesh,
    metric: PennerMetric,
    u: "list[float] | np.ndarray",
) -> "scipy.sparse.csr_matrix":
    """Positive semidefinite cotangent matrix of the scaled metric.

    Row i holds the negated derivatives of the angle sum at vertex i with
    respect to u: off-diagonal entries are -(cot a + cot b)/2 over the
    corners opposite the edge ij, diagonals make rows sum to zero.  Quads
    are assembled through their virtual triangles, consistent with how
    ``vertex_angle_sums`` measures them.
    """
    import scipy.sparse

    V, S, _ = _corner_table(mesh, metric, u)
    S, p, q = _heron_terms(S)
    area4 = np.sqrt(p[:, 0] * q[:, 0] * q[:, 1] * q[:, 2])
    if not np.all(area4 > 0.0):
        raise MetricError("degenerate triangle while assembling the Hessian")
    # Each corner adds half its cotangent (b^2 + c^2 - a^2) / 4A to the edge
    # it faces, from va to vb: -w off the diagonal at (va, vb) and (vb, va),
    # +w on the diagonal at va and vb.
    b = S[:, [1, 2, 0]]
    c = S[:, [2, 0, 1]]
    w = (0.5 * (b * b + c * c - S * S) / area4[:, None]).ravel()
    va = V[:, [1, 2, 0]].ravel()
    vb = V[:, [2, 0, 1]].ravel()
    rows = np.concatenate((va, vb, va, vb))
    cols = np.concatenate((vb, va, va, vb))
    vals = np.concatenate((-w, -w, w, w))
    n = mesh.n_vertices
    return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))
