"""Halfedge mesh kernel.

A triangulation (more generally a polygonal complex, since quads appear
transiently during symmetric flips) is stored as two permutations of the
halfedge index set plus a head-vertex table:

* ``next_he[h]`` walks one step counterclockwise around the face of ``h``;
  faces are the orbits of ``next_he``.
* ``opp[h]`` is the orientation-reversing involution pairing the two
  halfedges of an edge; edges are the orbits of ``opp``.
* ``to[h]`` is the vertex ``h`` points at.  Vertex orbits are generated by
  the circulator ``h -> opp[prev(h)]`` (all halfedges pointing at a common
  head), but vertex *identity* lives in ``to``: labels are dense integers
  fixed at construction and updated in place by surgeries.  An orbit-min
  vertex id would drift when flips move corner halfedges between vertices,
  invalidating any per-vertex array held by a caller mid-run.

Faces and edges do use canonical min-index ids: ``he_face[h]`` is the
smallest halfedge in the ``next_he`` orbit, ``edge_of(h)`` is
``min(h, opp[h])``.  Face-keyed state is rekeyed locally by the code that
mutates faces.

Meshes with boundary get an explicit closure: for every boundary edge a
halfedge is materialized in the outer region and the outer loops are stored
as ordinary ``next_he`` orbits whose ids sit in ``boundary_faces``.  This
keeps both permutations total, at the cost of one membership test wherever
real triangles are enumerated.

Every vertex has one umbrella: the halfedges into it form a single orbit
of ``h -> opp[next[h]]``, a fan closed through the outer loops.  The
builders reject a vertex where two surface pieces touch, and
:func:`validate` reports one; this is what lets one array map close every
boundary loop, since a boundary vertex then has one outer halfedge in and
one out.

The builders number halfedges by a fixed rule, which result bundles rely
on to come back byte-identical.  The halfedges of the input rows come
first, in row order: side ``i`` of row ``f`` (from ``faces[f][i]`` to
``faces[f][i+1]``) is halfedge ``sum(len(faces[:f])) + i``, so a face's id
is its row's first halfedge.  The outer halfedges follow, one per edge id
used once, in the order in which those ids are first used; that is the
order of their interior partners, not of the ids' values.  The parked
pairs of recorded quads come last.  The numbering never reads an id's
value: ids only tell which halfedges share an edge.

Halfedges may also be *parked*: detached from the active complex while a
symmetric flip has temporarily merged two triangles into a quad.  A parked
halfedge has ``he_face[h] == -1``; its ``next_he``/``opp`` form a private
2-cycle and its ``to`` is -1.  Parked halfedges are invisible to iteration
and validation but keep their index so the inverse surgery can reinstall
them; meanwhile their two length slots hold the quad's stored diagonal.

The plain flip, :func:`flip_edge`, runs :func:`plan_flip`,
``FlipFrame.ptolemy`` and :func:`apply_flip`; the flip loop and the paired
and forward axis flips all flip through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, NamedTuple

import numpy as np


class MeshError(Exception):
    """Raised when input connectivity is not an oriented manifold complex.

    ``text`` holds a ``{}`` field for each of ``vertices``; the message
    names them by their 0-based ids, and :meth:`one_based` by file index.
    """

    def __init__(self, text: str, *vertices: int):
        super().__init__(text.format(*vertices) if vertices else text)
        self.text, self.vertices = text, vertices

    def one_based(self) -> str:
        return self.text.format(*(v + 1 for v in self.vertices)) if self.vertices else self.text


class FlipError(Exception):
    """Raised when an edge flip is combinatorially impossible."""


def _array(xs: list, dtype: type = np.intp) -> np.ndarray:
    """Copy a mesh or metric list into a numpy array (``fromiter`` copies
    a list of Python scalars fastest)."""
    return np.fromiter(xs, dtype, len(xs))


def orbit_min(perm: np.ndarray) -> np.ndarray:
    """The smallest element of each index's orbit under the permutation ``perm``.

    Pointer doubling: after round k, ``m[h]`` is the minimum of the 2**k
    elements from ``h`` on.  A round that changes nothing has reached every
    orbit's minimum, since then ``m`` is constant along each orbit's
    stride-2**k chain, whose windows cover the orbit.
    """
    m = np.arange(len(perm))
    p = np.asarray(perm)
    while True:
        step = np.minimum(m, m[p])
        if np.array_equal(step, m):
            return m
        m, p = step, p[p]


@dataclass
class CombinatorialMesh:
    """Connectivity of an oriented surface mesh, boundary closed by marked faces.

    ``he_face[h]`` is the face id of ``h``, or -1 for a parked halfedge;
    surgeries refresh it for the faces they rebuild.  ``quad_pairs`` maps
    each transient quad face id to the parked halfedge pair that the
    inverse surgery will reinstall; its keys are the quad faces.
    """

    next_he: list[int]
    opp: list[int]
    to: list[int]
    n_vertices: int
    boundary_faces: set[int] = field(default_factory=set)
    he_face: list[int] = field(default_factory=list)
    quad_pairs: dict[int, tuple[int, int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.he_face:
            self.he_face = orbit_min(_array(self.next_he)).tolist()

    # -- element ids ------------------------------------------------------

    def n_halfedges(self) -> int:
        return len(self.next_he)

    def tail_of(self, h: int) -> int:
        return self.to[self.opp[h]]

    def edge_of(self, h: int) -> int:
        return min(h, self.opp[h])

    # -- iteration --------------------------------------------------------

    def face_halfedges(self, f: int) -> list[int]:
        orbit = [f]
        h = self.next_he[f]
        while h != f:
            orbit.append(h)
            h = self.next_he[h]
        return orbit

    def faces(self) -> list[int]:
        """Active face ids (min halfedge per orbit), outer loops excluded."""
        return [
            f for f, fid in enumerate(self.he_face) if f == fid and f not in self.boundary_faces
        ]

    def edges(self) -> list[int]:
        return [
            h
            for h in range(len(self.opp))
            if self.he_face[h] >= 0 and h < self.opp[h]
        ]

    def boundary_vertices(self) -> set[int]:
        """Heads of the outer-loop halfedges."""
        return {self.to[h] for f in self.boundary_faces for h in self.face_halfedges(f)}

    # -- counts -----------------------------------------------------------

    def n_edges(self) -> int:
        """O(1) edge count: halfedge pairs less one parked pair per quad."""
        return len(self.opp) // 2 - len(self.quad_pairs)

    # -- surgery helper ---------------------------------------------------

    def rebuild_face(self, cycle: list[int]) -> int:
        """Wire ``cycle`` into a face orbit and refresh its caches.

        ``to`` entries must already be correct; callers read all heads they
        need before any rewiring.  Returns the face id, its smallest
        halfedge (``apply_flip`` repeats this rule inline).
        """
        k = len(cycle)
        fid = min(cycle)
        for i, h in enumerate(cycle):
            self.next_he[h] = cycle[(i + 1) % k]
            self.he_face[h] = fid
        return fid


@dataclass
class PennerMetric:
    """Per-halfedge lengths.  A transient quad's parked pair holds its
    stored diagonal, which connects the heads of the second and fourth
    halfedges of the face cycle; both diagonals of an axis quad have the
    same length, so the choice only fixes which virtual triangulation
    measures the quad.
    """

    lengths: list[float]


def _rows(rows) -> tuple[np.ndarray, np.ndarray]:
    """Each row's length, and all rows concatenated, as int arrays."""
    if isinstance(rows, np.ndarray):
        return np.full(len(rows), rows.shape[1]), rows.ravel()
    k = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    flat = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=int(k.sum()))
    return k, flat


def _face_error(tail: np.ndarray, k: np.ndarray, i: int, what: str) -> MeshError:
    """MeshError ``face [a, b, c] <what>`` for row ``i`` of the rows laid end to end."""
    start = int(k[:i].sum())
    row = tail[start : start + k[i]].tolist()
    return MeshError("face [" + ", ".join(["{}"] * len(row)) + "] " + what, *row)


def _check_rows(tail: np.ndarray, k: np.ndarray, k_edges: np.ndarray) -> None:
    """MeshError at the first row with fewer than 3 vertices, or with an
    edge id count other than its vertex count."""
    bad = np.flatnonzero((k < 3) | (k_edges != k))
    if bad.size:
        i = bad[0]
        if k[i] < 3:
            raise _face_error(tail, k, i, "has fewer than 3 vertices")
        raise _face_error(tail, k, i, f"has {k_edges[i]} edge ids for {k[i]} sides")


def _close_boundary_loops(
    next_he: np.ndarray, opp: np.ndarray, tail: np.ndarray, gaps: np.ndarray
) -> None:
    """Wire the appended outer halfedges into loops.

    ``gaps`` lists the interior halfedges whose edge id is used once; their
    outer partners are ``opp[gaps]``.  The outer partner of gap a -> b is
    followed by the outer partner of the one gap into a.  Raises
    :class:`MeshError` at a vertex that two gaps enter, which has more
    than one umbrella.
    """
    heads = tail[next_he[gaps]]
    low = int(tail.min())
    into = np.full(int(tail.max()) - low + 1, -1)
    into[heads - low] = gaps
    twice = into[heads - low] != gaps
    if twice.any():
        raise MeshError("vertex {} has more than one umbrella", heads[twice].min())
    next_he[opp[gaps]] = opp[into[tail[gaps] - low]]


def build_from_face_lists(faces: list[list[int]]) -> CombinatorialMesh:
    """Construct a mesh from per-face vertex loops (counterclockwise).

    Each unordered vertex pair is one edge, and the pair itself is its
    edge id; halfedges are numbered as by :func:`build_from_face_edge_lists`.
    Raises :class:`MeshError` on a face that repeats a vertex, and on
    non-manifold or unorientable input.
    """
    k, tail = _rows(faces)
    low, top = int(tail.min()), int(tail.max())
    span = top - low + 1
    # A face repeats a vertex when two of its (row, vertex) keys agree.
    keys = np.sort(np.repeat(np.arange(len(faces)), k) * span + (tail - low))
    repeats = keys[1:][keys[1:] == keys[:-1]]
    if repeats.size:
        raise _face_error(tail, k, repeats[0] // span, "repeats a vertex")
    _check_rows(tail, k, k)
    to = tail[_successor(k)]
    pair = (np.minimum(tail, to) - low) * span + (np.maximum(tail, to) - low)
    return _build(k, tail, pair, top + 1)[0]


def build_from_face_edge_lists(
    faces: list[list[int]],
    face_edges: list[list[int]],
    n_vertices: int | None = None,
    quad_rows: Iterable[int] = (),
) -> tuple[CombinatorialMesh, list[int]]:
    """Construct a mesh from vertex loops plus parallel edge-id loops.

    ``face_edges[f][i]`` names the edge from ``faces[f][i]`` to
    ``faces[f][i+1]``; either may also be an (F, k) int array.  Pairing by
    edge id instead of by vertex pair makes the format safe for meshes with
    parallel edges or repeated vertices in a face, which vertex pairs
    cannot express.  Each edge id may appear at
    most twice, in opposite directions; ids appearing once lie on the
    boundary.  Returns the mesh and the edge id of every halfedge
    (boundary halfedges inherit their partner's id).  Each row named in
    ``quad_rows`` becomes a recorded quad whose parked pair takes a fresh
    id past every id used, in ``quad_rows`` order.

    Halfedges are numbered by the module's rule: the rows' sides in row
    order, so a face's id is its row's first halfedge; then the outer
    halfedges in the order in which their edge ids are first used,
    whatever the ids' values; then the parked pairs in ``quad_rows`` order.
    """
    if len(faces) != len(face_edges):
        raise MeshError("faces and face_edges differ in length")
    k, tail = _rows(faces)
    k_edges, he_eid = _rows(face_edges)
    _check_rows(tail, k, k_edges)
    if n_vertices is None:
        n_vertices = 1 + int(tail.max())
    return _build(k, tail, he_eid, n_vertices, quad_rows)


def _successor(k: np.ndarray) -> np.ndarray:
    """The next halfedge in its row, for rows of lengths ``k`` laid end to end."""
    ends = np.cumsum(k)
    nxt = np.arange(1, int(ends[-1]) + 1)
    nxt[ends - 1] = ends - k
    return nxt


def _build(
    k: np.ndarray,
    tail: np.ndarray,
    he_eid: np.ndarray,
    n_vertices: int,
    quad_rows: Iterable[int] = (),
) -> tuple[CombinatorialMesh, list[int]]:
    """The mesh of checked rows: pair the halfedges by edge id, close the
    boundary, park one pair per quad row, and validate.  An edge used
    wrongly is named by its vertex pair."""
    n = len(tail)
    nxt = _successor(k)
    to = tail[nxt]
    # A stable sort lists the uses of each edge id in halfedge order.
    order = np.argsort(he_eid, kind="stable")
    ids = he_eid[order]
    start = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
    uses = np.diff(np.r_[start, n])
    ha = order[start]
    hb = order[np.minimum(start + 1, n - 1)]
    flipped = (uses == 2) & ((tail[ha] != to[hb]) | (to[ha] != tail[hb]))
    bad = np.flatnonzero((uses > 2) | flipped)
    if bad.size:
        i = bad[np.argmin(ha[bad])]  # the first edge id used
        a, b = ha[i], hb[i]
        if uses[i] > 2:
            raise MeshError(f"edge ({{}}-{{}}) used {uses[i]} times", tail[a], to[a])
        raise MeshError(
            "edge used with inconsistent orientation ({}->{} vs {}->{})",
            tail[a], to[a], tail[b], to[b],
        )

    paired = uses == 2
    gaps = np.sort(ha[uses == 1])  # first-use order of the boundary ids
    n_active = n + len(gaps)
    outer = np.arange(n, n_active)
    opp = np.empty(n_active, dtype=np.int64)
    opp[ha[paired]] = hb[paired]
    opp[hb[paired]] = ha[paired]
    opp[gaps] = outer
    opp[outer] = gaps
    next_he = np.concatenate([nxt, np.full(len(gaps), -1)])
    _close_boundary_loops(next_he, opp, tail, gaps)
    he_face = orbit_min(next_he)

    first = np.cumsum(k) - k
    quads = first[np.fromiter(quad_rows, dtype=np.int64)]
    parked = np.arange(n_active, n_active + 2 * len(quads)).reshape(-1, 2)
    swap = parked[:, ::-1].ravel()
    arrays = (
        np.concatenate([next_he, swap]),
        np.concatenate([opp, swap]),
        np.concatenate([to, tail[gaps], np.full(swap.size, -1)]),
        np.concatenate([he_face, np.full(swap.size, -1)]),
    )
    mesh = CombinatorialMesh(
        *(a.tolist() for a in arrays[:3]),
        n_vertices=n_vertices,
        boundary_faces=set(he_face[n:].tolist()),
        he_face=arrays[3].tolist(),
        quad_pairs={f: (a, b) for f, (a, b) in zip(quads.tolist(), parked.tolist())},
    )
    errors = _diagnose(mesh, *arrays)
    if errors:
        vertices = chain.from_iterable(e.vertices for e in errors)
        raise MeshError("; ".join(e.text for e in errors), *vertices)
    fresh = he_eid.max() + 1 + np.arange(len(quads))
    return mesh, np.concatenate([he_eid, he_eid[gaps], np.repeat(fresh, 2)]).tolist()


def validate(mesh: CombinatorialMesh) -> list[str]:
    """Structural diagnostics; empty list means the complex is consistent.

    Each check is one mask over the active halfedges (or the faces, or the
    quad records), and reports its failures in ascending order.
    """
    lists = (mesh.next_he, mesh.opp, mesh.to, mesh.he_face)
    return [str(e) for e in _diagnose(mesh, *map(_array, lists))]


def _diagnose(
    mesh: CombinatorialMesh, nxt: np.ndarray, opp: np.ndarray, to: np.ndarray, he_face: np.ndarray
) -> list[MeshError]:
    """:func:`validate`'s failures as errors, from the mesh's lists as arrays."""
    n = len(nxt)
    parked = he_face < 0
    act = np.flatnonzero(~parked)

    o = opp[act]
    lost = parked[o]
    errs = [f"opp[{h}]={x} is parked" for h, x in zip(act[lost], o[lost])]
    errs += [f"opp not involutive at {h}" for h in act[~lost & (opp[o] != act)]]
    errs += [f"opp has fixed point at {h}" for h in act[o == act]]
    head = to[act]
    wild = (head < 0) | (head >= mesh.n_vertices)
    errs += [f"to[{h}]={v} out of range" for h, v in zip(act[wild], head[wild])]

    # next_he restricted to active halfedges must be a permutation.
    nx = nxt[act]
    lost = parked[nx]
    errs += [f"next_he[{h}]={x} is parked" for h, x in zip(act[lost], nx[lost])]
    hit = np.bincount(nx[~lost], minlength=n)[act]
    odd = hit != 1
    errs += [f"next_he not a bijection at {h} (hit {c})" for h, c in zip(act[odd], hit[odd])]
    if errs:
        return list(map(MeshError, errs))

    fid = orbit_min(np.where(parked, np.arange(n), nxt))[act]
    faces = act[fid == act]
    deg = np.bincount(fid, minlength=n)[faces]
    quad = np.isin(faces, list(mesh.quad_pairs))
    wrong = ~np.isin(faces, list(mesh.boundary_faces)) & (deg != np.where(quad, 4, 3))
    errs += [
        f"{'quad' if q else 'triangle'} face {f} has degree {d}"
        for f, q, d in zip(faces[wrong], quad[wrong], deg[wrong])
    ]
    off = he_face[act] != fid
    errs += [
        f"he_face[{h}]={he_face[h]} but orbit min is {f}" for h, f in zip(act[off], fid[off])
    ]
    # Head/tail chaining: the head of h is the tail of next(h).
    errs += [f"vertex chaining broken at halfedge {h}" for h in act[head != to[opp[nx]]]]

    if mesh.quad_pairs:
        q = np.fromiter(mesh.quad_pairs, dtype=np.int64)
        pairs = np.array(list(mesh.quad_pairs.values()), dtype=np.int64)
        dead = (he_face[q] != q) | np.isin(q, list(mesh.boundary_faces))
        errs += [f"quad record {f} names no live face" for f in q[dead]]
        live = ~parked[pairs]
        errs += [
            f"recorded parked halfedge {p} of quad {f} is active"
            for f, p in zip(np.repeat(q, 2)[live.ravel()], pairs[live])
        ]
    if errs:
        return list(map(MeshError, errs))

    # One umbrella per vertex: the halfedges into a vertex form one orbit
    # of h -> opp[next[h]], its fan, closed through the outer loops.
    fan = orbit_min(opp[nxt])[act]
    fans = np.bincount(to[act[fan == act]], minlength=mesh.n_vertices)
    pinched = np.flatnonzero(fans > 1)
    text = "vertex {{}} has more than one umbrella ({} fans)"
    return [MeshError(text.format(fans[v]), v) for v in pinched]


# -- elementary (asymmetric) edge flip ------------------------------------


class FlipFrame(NamedTuple):
    """The six halfedges around a flippable interior edge.

    ``h0 = i->j`` is the flipped halfedge, ``h3 = opp[h0] = j->i``;
    ``h1 = j->k``, ``h2 = k->i`` close the face of ``h0``;
    ``h4 = i->m``, ``h5 = m->j`` close the face of ``h3``.  After the flip
    ``h0`` runs ``m->k`` and ``h3`` runs ``k->m``.
    """

    h0: int
    h1: int
    h2: int
    h3: int
    h4: int
    h5: int

    def ptolemy(self, lengths: list[float]) -> float:
        """Ptolemy length of the flipped edge, (l1 l4 + l2 l5) / l0, from
        per-halfedge ``lengths``."""
        L = lengths
        return (L[self.h1] * L[self.h4] + L[self.h2] * L[self.h5]) / L[self.h0]


def plan_flip(mesh: CombinatorialMesh, h: int) -> FlipFrame:
    """Resolve the surgery frame for flipping the edge of ``h``.

    Requires both incident faces to be triangles (no quads, no outer loops).
    Self-adjacent edges (both halfedges in one triangle) are not flippable.
    """
    nxt, he_face = mesh.next_he, mesh.he_face
    h0 = h
    h3 = mesh.opp[h0]
    f0, f3 = he_face[h0], he_face[h3]
    if f0 in mesh.boundary_faces or f3 in mesh.boundary_faces:
        raise FlipError(f"edge of halfedge {h} is on the boundary")
    if f0 in mesh.quad_pairs or f3 in mesh.quad_pairs:
        raise FlipError(f"edge of halfedge {h} borders a quad face")
    if f0 == f3:
        raise FlipError(f"edge of halfedge {h} is self-adjacent (both sides one face)")
    h1 = nxt[h0]
    h2 = nxt[h1]
    h4 = nxt[h3]
    h5 = nxt[h4]
    if nxt[h2] != h0 or nxt[h5] != h3:
        raise FlipError(f"faces at halfedge {h} are not triangles")
    return FlipFrame(h0, h1, h2, h3, h4, h5)


def apply_flip(mesh: CombinatorialMesh, fr: FlipFrame) -> None:
    """Rewire the two triangles of ``fr`` to the opposite diagonal.

    ``(h0,h1,h2),(h3,h4,h5)`` become ``(h0,h2,h4),(h1,h3,h5)`` with
    ``to[h0] = k`` and ``to[h3] = m`` read before mutation.  The flip loop
    runs this per flip, so both ``rebuild_face`` calls are written out.
    """
    h0, h1, h2, h3, h4, h5 = fr
    to, nxt, he_face = mesh.to, mesh.next_he, mesh.he_face
    to[h0] = to[h1]
    to[h3] = to[h4]
    nxt[h0], nxt[h2], nxt[h4] = h2, h4, h0
    nxt[h1], nxt[h3], nxt[h5] = h3, h5, h1
    he_face[h0] = he_face[h2] = he_face[h4] = min(h0, h2, h4)
    he_face[h1] = he_face[h3] = he_face[h5] = min(h1, h3, h5)


def flip_edge(mesh: CombinatorialMesh, metric: PennerMetric, h: int) -> tuple[FlipFrame, float]:
    """Plain flip of the edge of ``h``; returns its frame and Ptolemy length."""
    L = metric.lengths
    fr = plan_flip(mesh, h)
    lnew = fr.ptolemy(L)
    apply_flip(mesh, fr)
    L[fr.h0] = L[fr.h3] = lnew
    return fr, lnew
