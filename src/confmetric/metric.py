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
their stored diagonal, the length of their parked pair: the quad splits
into two virtual triangles along the diagonal, which scales like an
ordinary edge between its endpoints.

Angle sums and the cotangent Hessian come from one numpy corner table.
``read_triangles`` copies the lists into a u-free ``TriangleRead``: the
triangles straight off the halfedge arrays (a face is a halfedge with
``he_face[h] == h``, which a parked halfedge never has, that is neither a
stored quad nor an outer loop), every stored quad as its two virtual
triangles, whose diagonal sides are its parked pair, corner vertices and
the side opposite each corner; and each halfedge's length and head, a
parked pair's heads being its diagonal's ends, so that one ``_scale``
scales every length.  The solver reuses one read until it flips; other
calls read afresh.  Corner quantities come from needle-safe Heron
terms (Kahan's ordering): angles from the half-angle tangent, summed per
vertex with one ``bincount``, and cotangents as the law-of-cosines
numerator b^2 + c^2 - a^2, formed once by ``_law_of_cosines``, over 4A.
The law-of-cosines ``arccos`` loses about ``1e-16 / angle`` per corner,
which on needles near 1e-7 rad left the single-cone solves short of their
tolerance.  A side longer than the other two gives a flat triangle (angles
pi, 0, 0).  The kernel raises :class:`MetricError` rather than let a zero
or non-finite length turn into NaN.

``make_delaunay`` flips until every interior edge satisfies the Delaunay
condition, in one pass.  One full scan reads the same corner table, quads
included: each side's term, the same numerator over bc, lands on its
halfedge, and an edge's Delaunay value is the sum over its two halfedges.
The edges it flags seed one work list.  ``holds`` from ``scalar_metric``,
the one scalar scaled length and side term (``term``) bound to the mesh
and metric lists once per call, alone decides which popped edges are
skipped: parked and boundary edges, edges whose value clears the tie band,
and edges that the mirror symmetry forces to be Delaunay.  ``value`` reads
the edge's frame once and scales its triangles' lengths inline (a call per
length costs the flip loop a fifth more time).  Each plain flip calls the
``flip_edge`` imported from ``halfedge`` through this module's global, so a
wrapper on ``metric.flip_edge`` sees every ``FlipLog.single``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from .halfedge import CombinatorialMesh, PennerMetric, _array, flip_edge
from .symmetry import FlipType, ReflectionMap, apply_symmetric_flip, classify_flip


class MetricError(Exception):
    """Raised when lengths cannot support the requested computation."""


class FlipBudgetError(Exception):
    """Raised when make_delaunay exceeds its flip budget, or when its scan
    refuses a capped call; carries the ``flips`` it made."""

    def __init__(self, message: str, flips: "FlipLog"):
        super().__init__(message)
        self.flips = flips


# The fixed numerics of every retriangulation, each read at call time: flips
# per edge before FlipBudgetError (flips reach Delaunay from any start, so a
# spent budget is a flip loop that did not terminate: Bobenko & Springborn
# 2007), and before it in a capped call, which may stop short of Delaunay (a
# line-search trial from its entry state); and the Delaunay tie band.
_FLIP_BUDGET_FACTOR = 100.0
_TRIAL_FLIP_CAP = 0.25
_EPS_FLIP = 1e-12
# A capped call is refused before any flip when its scan finds more than
# max(_DEEP_SHARE * E, _DEEP_FLOOR) unforced edges below -_DEEP: far outside
# the tie band, so none lies there at a Delaunay start.
_DEEP, _DEEP_SHARE, _DEEP_FLOOR = 0.5, 0.1, 2


def _scale(lengths: np.ndarray, u: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized ``ScalarMetric.length``: ``lengths * exp((u[a] + u[b]) / 2)``."""
    return lengths * np.exp(0.5 * (u[a] + u[b]))


# -- corner table -------------------------------------------------------------


class TriangleRead(NamedTuple):
    """The u-free half of the corner table: the mesh and metric lists read
    into numpy, valid until the next flip.  Row t is a triangle or a
    virtual triangle of a quad, with corners ``V`` in face order; column k
    holds the side opposite ``V[t, k]``: its length ``L``, head ``A``, tail
    ``B`` and halfedge ``H`` (-1 at a stored diagonal).  ``lengths`` and
    ``heads`` are per halfedge; a parked pair's heads are its diagonal's ends."""

    V: np.ndarray
    L: np.ndarray
    A: np.ndarray
    B: np.ndarray
    H: np.ndarray
    opp: np.ndarray
    lengths: np.ndarray
    heads: np.ndarray


def read_triangles(mesh: CombinatorialMesh, metric: PennerMetric) -> TriangleRead:
    """Copy the mesh and metric lists into a :class:`TriangleRead`."""
    nxt = _array(mesh.next_he)
    n = len(nxt)
    to = _array(mesh.to)
    opp = _array(mesh.opp)
    lengths = _array(metric.lengths, float)

    q0 = _array(list(mesh.quad_pairs))
    is_face = _array(mesh.he_face) == np.arange(n)
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
        # The parked pair (p, q) is the stored diagonal: p runs head(q1) ->
        # head(q3) and closes (q0, q1), q the reverse and closes (q2, q3).
        p, q = np.array(list(mesh.quad_pairs.values())).T
        cyc = np.concatenate((cyc, np.stack((q0, q1, p), 1), np.stack((q2, q3, q), 1)))
        to[p], to[q] = to[q3], to[q1]

    side = cyc[:, [2, 0, 1]]  # from corner k + 1 to corner k + 2
    V = to[cyc]
    L = lengths[side]
    side[len(h0) :, 0] = -1  # a stored diagonal has no Delaunay term
    return TriangleRead(V, L, V[:, [2, 0, 1]], V[:, [1, 2, 0]], side, opp, lengths, to)


def _corner_table(
    mesh: CombinatorialMesh,
    metric: PennerMetric,
    u: "list[float] | np.ndarray",
    read: TriangleRead | None = None,
) -> tuple[TriangleRead, np.ndarray]:
    """``read`` (read afresh when None) and its sides scaled at u, each row
    divided by the power of two of its largest side: exact, and it keeps
    products of two sides in range.  Raises MetricError on a zero or
    non-finite side."""
    r = read if read is not None else read_triangles(mesh, metric)
    sides = _scale(r.L, np.asarray(u, dtype=float), r.A, r.B)
    if not np.all((sides > 0.0) & (sides < math.inf)):
        raise MetricError("zero or non-finite scaled length")
    return r, np.ldexp(sides, -np.frexp(sides.max(axis=1, keepdims=True))[1])


def _beside(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sides ``b`` and ``c`` beside each corner of the (T, 3) sides ``S``."""
    return S[:, [1, 2, 0]], S[:, [2, 0, 1]]


def _law_of_cosines(S: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``b^2 + c^2 - a^2`` with ``a = S`` and ``b, c = _beside(S)``: 2bc cos,
    or 4A cot, of each corner."""
    return b * b + c * c - S * S


def _heron_terms(S: np.ndarray, b: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Needle-safe Heron terms of every triangle from its (T, 3) sides ``S``
    and ``b, c = _beside(S)``.

    Returns the perimeter ``p`` (T, 1) and ``q = p - 2 S`` (T, 3), formed
    as ``min + (max - side)`` so that it never cancels (Kahan's ordering),
    clamped at 0 where a side exceeds the other two.  ``p * q0 * q1 * q2``
    is 16 times the squared area.
    """
    q = np.maximum(np.minimum(b, c) + (np.maximum(b, c) - S), 0.0)
    return S.sum(axis=1, keepdims=True), q


def vertex_angle_sums(
    mesh: CombinatorialMesh,
    metric: PennerMetric,
    u: "list[float] | np.ndarray",
    read: TriangleRead | None = None,
) -> np.ndarray:
    """Total scaled angle around each vertex; quads count via their
    virtual triangulation along the stored diagonal.  ``read`` must be a
    read of the current lists; None reads them afresh."""
    r, S = _corner_table(mesh, metric, u, read)
    p, q = _heron_terms(S, *_beside(S))
    # tan(angle / 2) = sqrt(q_next * q_prev / (p * q_own)), accurate for
    # needles where arccos of the law-of-cosines cosine is not.  A side
    # longer than the other two gives angles pi, 0, 0.
    angles = 2.0 * np.arctan2(np.sqrt(q[:, [1, 2, 0]] * q[:, [2, 0, 1]]), np.sqrt(p * q))
    return np.bincount(r.V.ravel(), weights=angles.ravel(), minlength=mesh.n_vertices)


# -- scalar lengths and the Delaunay predicate -------------------------------


class ScalarMetric(NamedTuple):
    """Scalar queries at one ``u``; see :func:`scalar_metric`."""

    length: Callable[[int], float]
    diag: Callable[[int], float]
    value: Callable[[int], float]
    holds: Callable[[int], bool]


def scalar_metric(
    mesh: CombinatorialMesh,
    metric: PennerMetric,
    u: "list[float] | np.ndarray",
    refl: ReflectionMap | None = None,
) -> ScalarMetric:
    """Bind the mesh and metric lists once for scalar queries at ``u``.

    ``length(h)`` scales the edge of ``h`` and ``diag(f)`` the stored
    diagonal of quad ``f``, its parked pair's length.  ``value(e)`` sums
    the two side terms (a^2 + b^2 - c^2) / ab of edge ``e`` (for a quad
    side, in the virtual triangle cut off by the stored diagonal), each
    formed by ``term``.  Where ab would be near the subnormal range or a
    side reaches 2^510, ``term`` first rescales a, b and c as the corner
    table does, and raises MetricError if ab is then zero or infinite.
    ``holds(e)`` is true for a parked or boundary edge, else when
    ``value(e) >= -_EPS_FLIP``, else when ``refl`` forces the condition
    (``classify_flip`` is asked only then).  Flips mutate the bound lists
    in place, so one binding serves every flip at the same ``u``.
    """
    nxt, opp, to = mesh.next_he, mesh.opp, mesh.to
    he_face, face_halfedges = mesh.he_face, mesh.face_halfedges
    boundary_faces = mesh.boundary_faces
    L, quad_pairs = metric.lengths, mesh.quad_pairs
    uu = np.asarray(u, dtype=float).tolist()
    exp, frexp, ldexp, inf = math.exp, math.frexp, math.ldexp, math.inf
    big = 2.0**510  # sides below it have finite squares and sums of squares
    tie = -_EPS_FLIP

    def scaled(l: float, a: int, b: int) -> float:
        return l * exp(0.5 * (uu[a] + uu[b]))

    def length(h: int) -> float:
        return scaled(L[h], to[opp[h]], to[h])

    def diag(f: int) -> float:
        q1 = nxt[f]
        return scaled(L[quad_pairs[f][0]], to[q1], to[nxt[nxt[q1]]])

    def term(a: float, b: float, c: float, h: int) -> float:
        # Halfedge h's side term; dividing by a power of two is exact.
        ab = a * b
        if not (1e-270 < ab and a < big and b < big and c < big):
            e = -frexp(max(a, b, c))[1]
            a, b, c = ldexp(a, e), ldexp(b, e), ldexp(c, e)
            ab = a * b
            if not 0.0 < ab < inf:
                raise MetricError(f"scaled lengths beside halfedge {h} left the float range")
        return (a * a + b * b - c * c) / ab

    def quad_side(h: int) -> float:
        f = he_face[h]
        hs = face_halfedges(f)
        return term(length(hs[hs.index(h) ^ 1]), diag(f), length(h), h)

    def value(e: int) -> float:
        # One read of the frame: the triangles i -> j -> k and j -> i -> m,
        # with e running from i to j.  A quad side takes quad_side.  Inline
        # scaling: a ``scaled`` call per length costs a fifth more time.
        o = opp[e]
        ui, uj = uu[to[o]], uu[to[e]]
        sij = exp(0.5 * (ui + uj))  # IEEE + commutes: the factor of both c
        if he_face[e] in quad_pairs:
            t = quad_side(e)
        else:
            h1 = nxt[e]
            uk = uu[to[h1]]
            a = L[h1] * exp(0.5 * (uj + uk))
            t = term(a, L[nxt[h1]] * exp(0.5 * (uk + ui)), L[e] * sij, e)
        if he_face[o] in quad_pairs:
            return t + quad_side(o)
        h4 = nxt[o]
        um = uu[to[h4]]
        a = L[h4] * exp(0.5 * (ui + um))
        return t + term(a, L[nxt[h4]] * exp(0.5 * (um + uj)), L[o] * sij, o)

    def holds(e: int) -> bool:
        fa = he_face[e]
        if fa < 0 or fa in boundary_faces or he_face[opp[e]] in boundary_faces:
            return True
        if value(e) >= tie:
            return True
        return refl is not None and classify_flip(mesh, refl, e)[0] is FlipType.ALWAYS_DELAUNAY

    return ScalarMetric(length, diag, value, holds)


# -- flips --------------------------------------------------------------------


@dataclass
class FlipLog:
    """Counts of flips performed by one make_delaunay call, by surgery type.

    ``single`` counts plain flips on meshes without a reflection map;
    symmetric surgeries count once each regardless of how many elementary
    flips they bundle.
    """

    single: int = 0
    paired: int = 0
    axis: int = 0
    tri_quad: int = 0
    quad_quad: int = 0

    @property
    def total(self) -> int:
        return self.single + self.paired + self.axis + self.tri_quad + self.quad_quad

    def add(self, kind: FlipType) -> None:
        setattr(self, kind.value, getattr(self, kind.value) + 1)  # the value names its field

    def merge(self, other: "FlipLog") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


def _scan_violations_vectorized(
    mesh: CombinatorialMesh,
    metric: PennerMetric,
    u: "list[float] | np.ndarray",
    eps_flip: float,
    read: TriangleRead | None = None,
    deep: float = math.inf,
) -> tuple[list[int], list[int]]:
    """Canonical ids, ascending, of the edges whose Delaunay value is below
    ``-eps_flip``, and of those among them below ``-deep`` (none by default).

    Every side of the corner table stores its term (b^2 + c^2 - a^2) / bc
    at its halfedge.  Halfedges of outer loops and parked halfedges keep
    NaN, so boundary edges never compare as violations.  The scan measures
    only: edges that the mirror symmetry forces to be Delaunay are flagged
    like any other and left to ``holds``.  Raises MetricError where a
    product bc of rescaled sides is zero.
    """
    r, S = _corner_table(mesh, metric, u, read)
    b, c = _beside(S)
    num = _law_of_cosines(S, b, c)
    bc = b * c
    if not np.all((bc > 0.0) | (r.H < 0)):
        raise MetricError("scaled lengths beside a side left the float range")
    opp = r.opp
    n = len(opp)
    # Entries at stored diagonals (H = -1) land in the spare last slot.
    term = np.full(n + 1, np.nan)
    term[r.H] = num / bc
    value = term[:n] + term[opp]
    bad = np.flatnonzero((np.arange(n) < opp) & (value < -eps_flip))
    return bad.tolist(), bad[value[bad] < -deep].tolist()


def make_delaunay(
    mesh: CombinatorialMesh,
    metric: PennerMetric,
    u: "list[float] | np.ndarray",
    refl: ReflectionMap | None = None,
    capped: bool = False,
    read: TriangleRead | None = None,
) -> FlipLog:
    """Flip edges until the scaled metric is Delaunay; returns flip counts.

    Works in place.  With ``refl`` every flip is a symmetric surgery and
    the reflection structure is maintained; without it flips are plain
    triangle-triangle flips.  One full scan seeds a stack, and every edge
    popped from it that does not hold is flipped; a plain flip pushes its
    four outer edges, a surgery the edges of the faces it rebuilds.  The
    call returns when the stack is empty.  Raises :class:`FlipBudgetError`
    after ``_FLIP_BUDGET_FACTOR`` flips per edge, ``_TRIAL_FLIP_CAP`` if
    ``capped``, counted at entry, with the flips made; they are not undone,
    or with none when the scan refuses a capped call (see ``_DEEP``; forced
    edges do not count).  The scan uses ``read`` as ``vertex_angle_sums`` does.
    """
    log = FlipLog()
    budget = (_TRIAL_FLIP_CAP if capped else _FLIP_BUDGET_FACTOR) * mesh.n_edges()
    opp = mesh.opp
    holds = scalar_metric(mesh, metric, u, refl).holds
    tau = _DEEP if capped else math.inf
    flagged, deep = _scan_violations_vectorized(mesh, metric, u, _EPS_FLIP, read, tau)
    limit = max(_DEEP_SHARE * mesh.n_edges(), _DEEP_FLOOR)
    if len(deep) > limit and refl is not None:
        deep = [e for e in deep if classify_flip(mesh, refl, e)[0] is not FlipType.ALWAYS_DELAUNAY]
    if len(deep) > limit:
        raise FlipBudgetError(f"{len(deep)} edges below -{tau} before any flip", log)
    stack = flagged[::-1]
    while stack:
        h = stack.pop()
        if holds(h):
            continue
        if log.total >= budget:
            raise FlipBudgetError(f"exceeded {budget:.0f} flips without reaching Delaunay", log)
        if refl is None:
            _, h1, h2, _, h4, h5 = flip_edge(mesh, metric, h)[0]
            log.single += 1
            stack += (min(h1, opp[h1]), min(h2, opp[h2]), min(h4, opp[h4]), min(h5, opp[h5]))
        else:
            rec = apply_symmetric_flip(mesh, metric, refl, h)
            log.add(rec.kind)
            for f in rec.faces:
                for x in mesh.face_halfedges(f):
                    stack.append(mesh.edge_of(x))
    return log


# -- Newton derivatives -------------------------------------------------------


def gradient(
    mesh: CombinatorialMesh,
    metric: PennerMetric,
    u: "list[float] | np.ndarray",
    theta_hat: "list[float] | np.ndarray",
    read: TriangleRead | None = None,
) -> np.ndarray:
    """Residual target minus current angle sums (the Newton right-hand side)."""
    return np.asarray(theta_hat, dtype=float) - vertex_angle_sums(mesh, metric, u, read)


def hessian(
    mesh: CombinatorialMesh,
    metric: PennerMetric,
    u: "list[float] | np.ndarray",
    read: TriangleRead | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cotangent corner terms ``(a, b, w)`` of the scaled metric, one per corner.

    ``a`` and ``b`` are the ends of the side opposite the corner and ``w``
    half its cotangent (Bobenko & Springborn, DCG 2007), so that the
    positive semidefinite matrix H = sum w (e_a - e_b)(e_a - e_b)^T holds
    the negated derivatives of the angle sums with respect to u: -(cot a +
    cot b)/2 off the diagonal at edge ij, rows summing to zero.  Quads
    enter through their virtual triangles, consistent with how
    ``vertex_angle_sums`` measures them, from ``read`` as it does.
    """
    r, S = _corner_table(mesh, metric, u, read)
    b, c = _beside(S)
    p, q = _heron_terms(S, b, c)
    area4 = np.sqrt(p[:, 0] * q[:, 0] * q[:, 1] * q[:, 2])
    if not np.all(area4 > 0.0):
        raise MetricError("degenerate triangle while assembling the Hessian")
    # Half the cotangent: (b^2 + c^2 - a^2) / 4A / 2.
    w = 0.5 * _law_of_cosines(S, b, c) / area4[:, None]
    return r.A.ravel(), r.B.ravel(), w.ravel()
