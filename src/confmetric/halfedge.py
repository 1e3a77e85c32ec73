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

Halfedges may also be *parked*: detached from the active complex while a
symmetric flip has temporarily merged two triangles into a quad.  A parked
halfedge has ``he_face[h] == -1``; its ``next_he``/``opp`` form a private
2-cycle and its ``to`` is -1.  Parked halfedges are invisible to iteration
and validation but keep their index so the inverse surgery can reinstall
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple


class MeshError(Exception):
    """Raised when input connectivity is not an oriented manifold complex."""


class FlipError(Exception):
    """Raised when an edge flip is combinatorially impossible."""


def build_orbits(perm: list[int], skip: list[bool] | None = None) -> list[list[int]]:
    """Decompose a permutation into orbits, each listed from its minimum element.

    ``skip[i]`` excludes index ``i`` (used to hide parked halfedges).
    """
    n = len(perm)
    seen = [False] * n
    orbits: list[list[int]] = []
    for start in range(n):
        if seen[start] or (skip is not None and skip[start]):
            continue
        orbit = []
        h = start
        while not seen[h]:
            seen[h] = True
            orbit.append(h)
            h = perm[h]
        orbits.append(orbit)
    return orbits


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
            self.he_face = [-1] * len(self.next_he)
            for orbit in build_orbits(self.next_he):
                fid = orbit[0]
                for h in orbit:
                    self.he_face[h] = fid

    # -- element ids ------------------------------------------------------

    def n_halfedges(self) -> int:
        return len(self.next_he)

    def tail_of(self, h: int) -> int:
        return self.to[self.opp[h]]

    def edge_of(self, h: int) -> int:
        return min(h, self.opp[h])

    def prev(self, h: int) -> int:
        """Inverse of ``next_he`` by orbit walk (faces have small degree)."""
        p = h
        while self.next_he[p] != h:
            p = self.next_he[p]
        return p

    # -- iteration --------------------------------------------------------

    def face_halfedges(self, f: int) -> list[int]:
        orbit = [f]
        h = self.next_he[f]
        while h != f:
            orbit.append(h)
            h = self.next_he[h]
        return orbit

    def degree(self, f: int) -> int:
        return len(self.face_halfedges(f))

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

    def edge_endpoints(self, e: int) -> tuple[int, int]:
        return self.to[self.opp[e]], self.to[e]

    def is_boundary_halfedge(self, h: int) -> bool:
        return self.he_face[h] in self.boundary_faces

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


def _close_boundary_loops(
    next_he: list[int],
    opp: list[int],
    boundary_of: dict[int, int],
    n_interior: int,
) -> None:
    """Wire the appended boundary halfedges into outer loops.

    For each interior halfedge ha = a->b with a gap, circulate the outgoing
    halfedges of b until the next gap hc; the boundary partner of hc is then
    followed by the boundary partner of ha.
    """
    for ha, hb in boundary_of.items():
        it = next_he[ha]
        guard = 0
        while it not in boundary_of:
            it = next_he[opp[it]]
            guard += 1
            if guard > n_interior:
                raise MeshError("boundary walk failed to close; bad connectivity")
        next_he[boundary_of[it]] = hb
    if any(x == -1 for x in next_he):
        raise MeshError("boundary loops did not close")


def build_from_face_lists(faces: list[list[int]]) -> CombinatorialMesh:
    """Construct a mesh from per-face vertex loops (counterclockwise).

    Each unordered vertex pair is one edge, numbered in order of first use,
    and :func:`build_from_face_edge_lists` pairs the halfedges and closes
    the boundary (pairs used once) with outer loops.  Raises
    :class:`MeshError` on a face that repeats a vertex, and on non-manifold
    or unorientable input.
    """
    eid: dict[tuple[int, int], int] = {}
    face_edges = []
    for f in faces:
        if len(set(f)) != len(f):
            raise MeshError(f"face {f} repeats a vertex")
        k = len(f)
        pairs = ((f[i], f[(i + 1) % k]) for i in range(k))
        keys = [(a, b) if a < b else (b, a) for a, b in pairs]
        face_edges.append([eid.setdefault(key, len(eid)) for key in keys])
    return build_from_face_edge_lists(faces, face_edges)[0]


def build_from_face_edge_lists(
    faces: list[list[int]],
    face_edges: list[list[int]],
    n_vertices: int | None = None,
    quad_rows: Iterable[int] = (),
) -> tuple[CombinatorialMesh, list[int]]:
    """Construct a mesh from vertex loops plus parallel edge-id loops.

    ``face_edges[f][i]`` names the edge from ``faces[f][i]`` to
    ``faces[f][i+1]``.  Pairing by edge id instead of by vertex pair makes
    the format safe for meshes with parallel edges or repeated vertices in
    a face, which vertex pairs cannot express.  Each edge id may appear at
    most twice, in opposite directions; ids appearing once lie on the
    boundary.  Returns the mesh and the edge id of every halfedge
    (boundary halfedges inherit their partner's id).  Each row named in
    ``quad_rows`` becomes a recorded quad; its parked pair, appended last,
    takes the row's first edge id.
    """
    if n_vertices is None:
        n_vertices = 1 + max(max(f) for f in faces)
    if len(faces) != len(face_edges):
        raise MeshError("faces and face_edges differ in length")

    n_interior = sum(len(f) for f in faces)
    next_he: list[int] = [-1] * n_interior
    to: list[int] = [-1] * n_interior
    tail: list[int] = [-1] * n_interior
    he_eid: list[int] = [-1] * n_interior
    uses: dict[int, list[int]] = {}

    h = 0
    first: list[int] = []  # each row's first halfedge, its face id
    for f, fe in zip(faces, face_edges):
        first.append(h)
        k = len(f)
        if k < 3:
            raise MeshError(f"face {f} has fewer than 3 vertices")
        if len(fe) != k:
            raise MeshError(f"face {f} has {len(fe)} edge ids for {k} sides")
        base = h
        for i in range(k):
            tail[h] = f[i]
            to[h] = f[(i + 1) % k]
            he_eid[h] = fe[i]
            next_he[h] = base + (i + 1) % k
            uses.setdefault(fe[i], []).append(h)
            h += 1

    opp: list[int] = [-1] * n_interior
    boundary_of: dict[int, int] = {}
    for eid, hs in uses.items():
        if len(hs) > 2:
            raise MeshError(
                f"edge id {eid} ({tail[hs[0]]}-{to[hs[0]]}) used {len(hs)} times"
            )
        if len(hs) == 2:
            ha, hb = hs
            if (tail[ha], to[ha]) != (to[hb], tail[hb]):
                raise MeshError(
                    f"edge id {eid} used with inconsistent orientation "
                    f"({tail[ha]}->{to[ha]} vs {tail[hb]}->{to[hb]})"
                )
            opp[ha] = hb
            opp[hb] = ha
        else:
            ha = hs[0]
            hb = len(next_he)
            next_he.append(-1)
            to.append(tail[ha])
            he_eid.append(eid)
            opp[ha] = hb
            opp.append(ha)
            boundary_of[ha] = hb

    _close_boundary_loops(next_he, opp, boundary_of, n_interior)
    n_active = len(next_he)
    quad_pairs = {}
    for row in quad_rows:
        a, b = len(next_he), len(next_he) + 1
        next_he += [b, a]
        opp += [b, a]
        to += [-1, -1]
        he_eid += [face_edges[row][0]] * 2
        quad_pairs[first[row]] = (a, b)
    mesh = CombinatorialMesh(next_he=next_he, opp=opp, to=to, n_vertices=n_vertices)
    mesh.he_face[n_active:] = [-1] * (len(next_he) - n_active)
    mesh.boundary_faces = set(mesh.he_face[n_interior:n_active])
    mesh.quad_pairs = quad_pairs
    errors = validate(mesh)
    if errors:
        raise MeshError("; ".join(errors))
    return mesh, he_eid


def validate(mesh: CombinatorialMesh) -> list[str]:
    """Structural diagnostics; empty list means the complex is consistent."""
    errs: list[str] = []
    n = len(mesh.next_he)
    parked = [f < 0 for f in mesh.he_face]
    active = [h for h in range(n) if not parked[h]]

    for h in active:
        o = mesh.opp[h]
        if parked[o]:
            errs.append(f"opp[{h}]={o} is parked")
        elif mesh.opp[o] != h:
            errs.append(f"opp not involutive at {h}")
        if mesh.opp[h] == h:
            errs.append(f"opp has fixed point at {h}")
        if not (0 <= mesh.to[h] < mesh.n_vertices):
            errs.append(f"to[{h}]={mesh.to[h]} out of range")

    # next_he restricted to active halfedges must be a permutation.
    hit = [0] * n
    for h in active:
        nx = mesh.next_he[h]
        if parked[nx]:
            errs.append(f"next_he[{h}]={nx} is parked")
        else:
            hit[nx] += 1
    for h in active:
        if hit[h] != 1:
            errs.append(f"next_he not a bijection at {h} (hit {hit[h]})")
    if errs:
        return errs

    for orbit in build_orbits(mesh.next_he, parked):
        fid = min(orbit)
        if orbit[0] != fid:
            errs.append(f"orbit listing of face {fid} does not start at min")
        deg = len(orbit)
        if fid not in mesh.boundary_faces:
            kind, want = ("quad", 4) if fid in mesh.quad_pairs else ("triangle", 3)
            if deg != want:
                errs.append(f"{kind} face {fid} has degree {deg}")
        for h in orbit:
            if mesh.he_face[h] != fid:
                errs.append(f"he_face[{h}]={mesh.he_face[h]} but orbit min is {fid}")
        # Head/tail chaining: the head of h is the tail of next(h).
        for i, h in enumerate(orbit):
            nx = orbit[(i + 1) % deg]
            if mesh.to[h] != mesh.to[mesh.opp[nx]]:
                errs.append(f"vertex chaining broken at halfedge {h}")

    for fid, pair in mesh.quad_pairs.items():
        if mesh.he_face[fid] != fid or fid in mesh.boundary_faces:
            errs.append(f"quad record {fid} names no live face")
        for p in pair:
            if not parked[p]:
                errs.append(f"recorded parked halfedge {p} of quad {fid} is active")

    # Every active vertex label is reachable; labels are consistent per orbit
    # by the chaining check above, so just count coverage.
    seen_v = set(mesh.to[h] for h in active)
    if len(seen_v) > mesh.n_vertices:
        errs.append("more vertex labels in use than n_vertices")
    return errs


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
