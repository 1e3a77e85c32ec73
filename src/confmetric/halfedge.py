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

Faces and edges do use canonical min-index ids: ``face_of(h)`` is the
smallest halfedge in the ``next_he`` orbit, ``edge_of(h)`` is
``min(h, opp[h])``.  Face-keyed state is rekeyed locally by the code that
mutates faces.

Meshes with boundary get an explicit closure: for every boundary edge a
halfedge is materialized in the outer region and the outer loops are stored
as ordinary ``next_he`` orbits whose ids sit in ``boundary_faces``.  This
keeps both permutations total, at the cost of one membership test wherever
real triangles are enumerated.

Halfedges may also be *parked*: detached from the active complex (their
``next_he``/``opp`` form a private 2-cycle, ``to`` is -1) while a symmetric
flip has temporarily merged two triangles into a quad.  Parked halfedges are
invisible to iteration and validation but keep their index so the inverse
surgery can reinstall them.
"""

from __future__ import annotations

from dataclasses import dataclass, field


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

    ``he_face[h]`` caches ``face_of(h)``; surgeries refresh it for the faces
    they rebuild.  ``in_quad[h]`` marks halfedges of transient quad faces.
    ``quad_pairs`` maps a quad face id to the parked halfedge pair that the
    inverse surgery will reinstall.
    """

    next_he: list[int]
    opp: list[int]
    to: list[int]
    n_vertices: int
    boundary_faces: set[int] = field(default_factory=set)
    parked: list[bool] = field(default_factory=list)
    he_face: list[int] = field(default_factory=list)
    in_quad: list[bool] = field(default_factory=list)
    quad_pairs: dict[int, tuple[int, int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = len(self.next_he)
        if not self.parked:
            self.parked = [False] * n
        if not self.in_quad:
            self.in_quad = [False] * n
        if not self.he_face:
            self.he_face = [-1] * n
            for orbit in build_orbits(self.next_he, self.parked):
                fid = orbit[0]
                for h in orbit:
                    self.he_face[h] = fid

    # -- element ids ------------------------------------------------------

    def n_halfedges(self) -> int:
        return len(self.next_he)

    def vertex_of(self, h: int) -> int:
        return self.to[h]

    def tail_of(self, h: int) -> int:
        return self.to[self.opp[h]]

    def edge_of(self, h: int) -> int:
        return min(h, self.opp[h])

    def face_of(self, h: int) -> int:
        return self.he_face[h]

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

    def faces(self, include_boundary: bool = False) -> list[int]:
        """Active face ids (min halfedge per orbit), outer loops optional."""
        out = []
        for orbit in build_orbits(self.next_he, self.parked):
            fid = orbit[0]
            if fid in self.boundary_faces and not include_boundary:
                continue
            out.append(fid)
        return out

    def edges(self) -> list[int]:
        return [
            h
            for h in range(len(self.opp))
            if not self.parked[h] and h < self.opp[h]
        ]

    def edge_endpoints(self, e: int) -> tuple[int, int]:
        return self.to[self.opp[e]], self.to[e]

    def is_boundary_halfedge(self, h: int) -> bool:
        return self.he_face[h] in self.boundary_faces

    def is_boundary_edge(self, e: int) -> bool:
        return self.is_boundary_halfedge(e) or self.is_boundary_halfedge(self.opp[e])

    # -- counts -----------------------------------------------------------

    def n_edges(self) -> int:
        return len(self.edges())

    def n_faces(self) -> int:
        return len(self.faces())

    def euler_characteristic(self) -> int:
        # Outer loops are not faces of the surface; each contributes a
        # boundary component, not a 2-cell.
        return self.n_vertices - self.n_edges() + self.n_faces()

    def copy(self) -> "CombinatorialMesh":
        return CombinatorialMesh(
            next_he=list(self.next_he),
            opp=list(self.opp),
            to=list(self.to),
            n_vertices=self.n_vertices,
            boundary_faces=set(self.boundary_faces),
            parked=list(self.parked),
            he_face=list(self.he_face),
            in_quad=list(self.in_quad),
            quad_pairs=dict(self.quad_pairs),
        )

    # -- surgery helper ---------------------------------------------------

    def rebuild_face(self, cycle: list[int], quad: bool = False) -> int:
        """Wire ``cycle`` into a face orbit and refresh its caches.

        ``to`` entries must already be correct; callers read all heads they
        need before any rewiring.  Returns the face id.
        """
        k = len(cycle)
        fid = min(cycle)
        for i, h in enumerate(cycle):
            self.next_he[h] = cycle[(i + 1) % k]
            self.he_face[h] = fid
            self.in_quad[h] = quad
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


def build_from_face_lists(
    faces: list[list[int]], n_vertices: int | None = None
) -> CombinatorialMesh:
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
    return build_from_face_edge_lists(faces, face_edges, n_vertices)[0]


def build_from_face_edge_lists(
    faces: list[list[int]],
    face_edges: list[list[int]],
    n_vertices: int | None = None,
) -> tuple[CombinatorialMesh, list[int]]:
    """Construct a mesh from vertex loops plus parallel edge-id loops.

    ``face_edges[f][i]`` names the edge from ``faces[f][i]`` to
    ``faces[f][i+1]``.  Pairing by edge id instead of by vertex pair makes
    the format safe for meshes with parallel edges or repeated vertices in
    a face, which vertex pairs cannot express.  Each edge id may appear at
    most twice, in opposite directions; ids appearing once lie on the
    boundary.  Returns the mesh and the edge id of every halfedge
    (boundary halfedges inherit their partner's id).
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
    for f, fe in zip(faces, face_edges):
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
    mesh = CombinatorialMesh(next_he=next_he, opp=opp, to=to, n_vertices=n_vertices)
    for orbit in build_orbits(mesh.next_he):
        if any(hh >= n_interior for hh in orbit):
            mesh.boundary_faces.add(min(orbit))
    errors = validate(mesh)
    if errors:
        raise MeshError("; ".join(errors))
    return mesh, he_eid


def validate(mesh: CombinatorialMesh) -> list[str]:
    """Structural diagnostics; empty list means the complex is consistent."""
    errs: list[str] = []
    n = len(mesh.next_he)
    active = [h for h in range(n) if not mesh.parked[h]]

    for h in active:
        o = mesh.opp[h]
        if mesh.parked[o]:
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
        if mesh.parked[nx]:
            errs.append(f"next_he[{h}]={nx} is parked")
        else:
            hit[nx] += 1
    for h in active:
        if hit[h] != 1:
            errs.append(f"next_he not a bijection at {h} (hit {hit[h]})")
    if errs:
        return errs

    for orbit in build_orbits(mesh.next_he, mesh.parked):
        fid = min(orbit)
        if orbit[0] != fid:
            errs.append(f"orbit listing of face {fid} does not start at min")
        deg = len(orbit)
        is_bnd = fid in mesh.boundary_faces
        is_quad = any(mesh.in_quad[h] for h in orbit)
        if is_quad and not all(mesh.in_quad[h] for h in orbit):
            errs.append(f"face {fid} mixes quad and non-quad halfedges")
        if not is_bnd:
            if is_quad and deg != 4:
                errs.append(f"quad face {fid} has degree {deg}")
            if not is_quad and deg != 3:
                errs.append(f"triangle face {fid} has degree {deg}")
        if is_quad and fid not in mesh.quad_pairs:
            errs.append(f"quad face {fid} missing parked-pair record")
        for h in orbit:
            if mesh.he_face[h] != fid:
                errs.append(f"he_face[{h}]={mesh.he_face[h]} but orbit min is {fid}")
        # Head/tail chaining: the head of h is the tail of next(h).
        for i, h in enumerate(orbit):
            nx = orbit[(i + 1) % deg]
            if mesh.to[h] != mesh.to[mesh.opp[nx]]:
                errs.append(f"vertex chaining broken at halfedge {h}")

    for fid, (p1, p2) in mesh.quad_pairs.items():
        for p in (p1, p2):
            if not mesh.parked[p]:
                errs.append(f"recorded parked halfedge {p} of quad {fid} is active")

    # Every active vertex label is reachable; labels are consistent per orbit
    # by the chaining check above, so just count coverage.
    seen_v = set(mesh.to[h] for h in active)
    if len(seen_v) > mesh.n_vertices:
        errs.append("more vertex labels in use than n_vertices")
    return errs


# -- elementary (asymmetric) edge flip ------------------------------------


@dataclass(frozen=True)
class FlipFrame:
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


def plan_flip(mesh: CombinatorialMesh, h: int) -> FlipFrame:
    """Resolve the surgery frame for flipping the edge of ``h``.

    Requires both incident faces to be triangles (no quads, no outer loops).
    Self-adjacent edges (both halfedges in one triangle) are not flippable.
    """
    h0 = h
    h3 = mesh.opp[h0]
    f0, f3 = mesh.he_face[h0], mesh.he_face[h3]
    if f0 in mesh.boundary_faces or f3 in mesh.boundary_faces:
        raise FlipError(f"edge of halfedge {h} is on the boundary")
    if mesh.in_quad[h0] or mesh.in_quad[h3]:
        raise FlipError(f"edge of halfedge {h} borders a quad face")
    if f0 == f3:
        raise FlipError(f"edge of halfedge {h} is self-adjacent (both sides one face)")
    h1 = mesh.next_he[h0]
    h2 = mesh.next_he[h1]
    h4 = mesh.next_he[h3]
    h5 = mesh.next_he[h4]
    if mesh.next_he[h2] != h0 or mesh.next_he[h5] != h3:
        raise FlipError(f"faces at halfedge {h} are not triangles")
    return FlipFrame(h0, h1, h2, h3, h4, h5)


def apply_flip(mesh: CombinatorialMesh, fr: FlipFrame) -> None:
    """Rewire the two triangles of ``fr`` to the opposite diagonal.

    ``(h0,h1,h2),(h3,h4,h5)`` become ``(h0,h2,h4),(h1,h3,h5)`` with
    ``to[h0] = k`` and ``to[h3] = m`` read before mutation.
    """
    k = mesh.to[fr.h1]
    m = mesh.to[fr.h4]
    mesh.to[fr.h0] = k
    mesh.to[fr.h3] = m
    mesh.rebuild_face([fr.h0, fr.h2, fr.h4])
    mesh.rebuild_face([fr.h1, fr.h3, fr.h5])


def asymmetric_flip(mesh: CombinatorialMesh, h: int) -> FlipFrame:
    """Plan and apply a plain triangle-triangle flip; returns the frame used."""
    fr = plan_flip(mesh, h)
    apply_flip(mesh, fr)
    return fr
