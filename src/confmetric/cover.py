"""Doubling a bounded mesh across its boundary, and undoing it.

A mesh with boundary is turned into a closed symmetric mesh by gluing a
mirror image along the boundary.  Interior halfedges are duplicated (copy 2
reverses orientation, so its face walk is the reversed source walk);
boundary edges become axis-parallel edges joining the two sheets; boundary
vertices become axis vertices shared by both sheets.  The reflection simply
exchanges the two slots of every halfedge pair, and mirrored edges reuse
the same length values, so the initial state is exactly symmetric.

Target angle sums transfer directly: an interior vertex keeps its target
on both of its copies, while a boundary vertex gets twice its target,
since its two half-disks merge into one disk.

``restrict_to_single_cover`` maps a solved symmetric metric back to a
bounded mesh: copy-1 faces are kept whole, and every axis face is cut along
the symmetry axis through the midpoints of its crossing edges.  It cuts the
scaled lengths the solver returns (the scaled metric of a Delaunay state
satisfies the triangle inequality), so the output needs no conformal
factor of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .halfedge import (
    CombinatorialMesh,
    MeshError,
    build_from_face_edge_lists,
    validate,
)
from .metric import MetricError, PennerMetric
from .symmetry import ReflectionMap, SymmetryError, validate_symmetry


@dataclass
class DoubleCover:
    """A closed symmetric mesh built from a bounded one.

    Vertices 0..n_source_vertices-1 keep their source ids; mirrored
    interior vertices follow.
    """

    mesh: CombinatorialMesh
    refl: ReflectionMap
    n_source_vertices: int


def build_double_cover(
    mesh: CombinatorialMesh,
    metric: PennerMetric,
    theta: "list[float]",
) -> tuple[DoubleCover, PennerMetric, list[float]]:
    """Glue a mirror copy of ``mesh`` along its boundary.

    ``theta[v]`` is the target angle sum at vertex ``v`` of ``mesh``
    (``pi - kappa`` at a boundary vertex).  Returns the cover, its
    (mirrored) metric, and its per-vertex target angle sums.
    """
    if not mesh.boundary_faces:
        raise MeshError("input mesh has no boundary; nothing to double")

    src = [h for h in range(mesh.n_halfedges()) if not mesh.is_boundary_halfedge(h)]
    pos = {h: i for i, h in enumerate(src)}
    n_int = len(src)

    boundary_v = mesh.boundary_vertices()
    v0 = mesh.n_vertices
    interior_vs = [v for v in range(v0) if v not in boundary_v]
    n_cover_v = v0 + len(interior_vs)
    vrefl = list(range(n_cover_v))
    for rank, v in enumerate(interior_vs):
        vrefl[v] = v0 + rank
        vrefl[v0 + rank] = v

    next_he = [-1] * (2 * n_int)
    opp = [-1] * (2 * n_int)
    to = [-1] * (2 * n_int)
    lengths = [0.0] * (2 * n_int)
    for i, h in enumerate(src):
        j = i + n_int
        next_he[i] = pos[mesh.next_he[h]]
        next_he[j] = pos[mesh.prev(h)] + n_int
        o = mesh.opp[h]
        if mesh.is_boundary_halfedge(o):
            opp[i] = j
            opp[j] = i
        else:
            opp[i] = pos[o]
            opp[j] = pos[o] + n_int
        to[i] = mesh.to[h]
        to[j] = vrefl[mesh.to[o]]
        lengths[i] = metric.lengths[h]
        lengths[j] = metric.lengths[h]

    cover_mesh = CombinatorialMesh(
        next_he=next_he, opp=opp, to=to, n_vertices=n_cover_v
    )
    r = [i + n_int for i in range(n_int)] + list(range(n_int))
    he_label = [1] * n_int + [2] * n_int
    refl = ReflectionMap(r=r, he_label=he_label, vertex_refl=vrefl)

    errs = validate(cover_mesh)
    if errs:
        raise MeshError("double cover invalid: " + "; ".join(errs))
    errs = validate_symmetry(cover_mesh, refl)
    if errs:
        raise SymmetryError("double cover asymmetric: " + "; ".join(errs))

    theta_hat = [0.0] * n_cover_v
    for v in range(v0):
        theta_hat[v] = theta_hat[vrefl[v]] = 2.0 * theta[v] if v in boundary_v else theta[v]

    cover = DoubleCover(mesh=cover_mesh, refl=refl, n_source_vertices=v0)
    return cover, PennerMetric(lengths), theta_hat


def restrict_to_single_cover(
    cover: DoubleCover,
    scaled: PennerMetric,
    u: "list[float]",
) -> tuple[CombinatorialMesh, PennerMetric, list[float]]:
    """Cut a solved symmetric metric along its axis and keep one sheet.

    ``scaled`` is the scaled metric the solver returns for the cover.  Every
    crossing edge gets a midpoint vertex.  An axis face keeps the part on
    sheet 1 of its sheet-1 leg a -> b: the polygon ``[m_in] a b [m_out]``
    between the midpoints of the crossing sides before and after the leg,
    split along a -> m_out into two triangles.  An axis triangle is read
    as an axis quad whose crossing side at one end of the leg is missing:
    it has length 0 and its midpoint is the apex on the axis, so only one
    triangle remains.  The returned mesh carries scaled lengths and a
    conformal factor list holding the solved ``u`` at kept source vertices
    and NaN at the new midpoints.
    """
    mesh, refl = cover.mesh, cover.refl
    v0 = cover.n_source_vertices
    L = scaled.lengths

    crossing = sorted(e for e in mesh.edges() if refl.r[e] == e)
    midpoint = {e: v0 + rank for rank, e in enumerate(crossing)}

    faces_v: list[list[int]] = []
    faces_e: list[list[int]] = []
    edge_len: list[float] = []
    eid_of_cover_edge: dict[int, int] = {}

    def fresh(length: float) -> int:
        edge_len.append(length)
        return len(edge_len) - 1

    def edge_id(h: int) -> int:
        # A crossing edge keeps only its sheet-1 half.
        e = mesh.edge_of(h)
        eid = eid_of_cover_edge.get(e)
        if eid is None:
            eid = eid_of_cover_edge[e] = fresh(0.5 * L[h] if e in midpoint else L[h])
        return eid

    for f in mesh.faces():
        hs = mesh.face_halfedges(f)
        labs = [refl.he_label[x] for x in hs]
        if 0 not in labs:
            if labs[0] == 1:
                faces_v.append([mesh.tail_of(x) for x in hs])
                faces_e.append([edge_id(x) for x in hs])
            continue
        g = next(x for x in hs if refl.he_label[x] == 1)
        pg, ng = mesh.prev(g), mesh.next_he[g]
        a, b = mesh.tail_of(g), mesh.to[g]
        m_in = midpoint.get(mesh.edge_of(pg), a)
        m_out = midpoint.get(mesh.edge_of(ng), b)
        b1 = L[pg] if m_in != a else 0.0
        b2 = L[ng] if m_out != b else 0.0
        arg = L[g] * L[g] - 0.25 * (b1 - b2) * (b1 - b2)
        if not arg > 0.0:
            raise MetricError(f"axis face {f} has no real height")
        height = math.sqrt(arg)
        cut = fresh(height)  # m_out -> m_in, along the axis
        # The split a -> m_out is the cut when m_in is the apex a, and the
        # leg itself when m_out is the apex b.
        if m_in == a:
            diag = cut
        elif m_out == b:
            diag = edge_id(g)
        else:
            diag = fresh(math.sqrt(0.25 * b1 * b1 + height * height))
        if m_in != a:
            faces_v.append([m_in, a, m_out])
            faces_e.append([edge_id(pg), diag, cut])
        if m_out != b:
            faces_v.append([a, b, m_out])
            faces_e.append([edge_id(g), edge_id(ng), diag])

    n_out_v = v0 + len(crossing)
    out_mesh, he_eid = build_from_face_edge_lists(faces_v, faces_e, n_out_v)
    out_lengths = [edge_len[eid] for eid in he_eid]
    u_out = [float(u[v]) for v in range(v0)] + [math.nan] * len(crossing)
    return out_mesh, PennerMetric(out_lengths), u_out
