"""Doubling a bounded mesh across its boundary, and undoing it.

A mesh with boundary is turned into a closed symmetric mesh by gluing a
mirror image along the boundary.  Interior halfedges are duplicated (copy 2
reverses orientation, so its face walk is the reversed source walk);
boundary edges become axis-parallel edges joining the two sheets; boundary
vertices become axis vertices shared by both sheets.  The reflection simply
exchanges the two slots of every halfedge pair, and mirrored edges reuse
the same length values, so the initial state is exactly symmetric.

Target angles transfer as curvatures: an interior vertex with target
curvature k keeps theta_hat = 2*pi - k on both of its copies, while a
boundary vertex with target geodesic curvature k gets the doubled budget
theta_hat = 2*pi - 2*k, since its two half-disks merge into one disk.

``restrict_to_single_cover`` maps a converged symmetric metric back to a
bounded mesh: copy-1 faces are kept whole, and every axis face is cut along
the symmetry axis through the midpoints of its crossing edges.  The cut
produces concrete Euclidean lengths (the scaled metric of a Delaunay state
satisfies the triangle inequality), so the output carries scaled lengths
and needs no conformal factor of its own.
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
from .metric import MetricError, PennerMetric, scalar_metric
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
    kappa: "list[float]",
) -> tuple[DoubleCover, PennerMetric, list[float]]:
    """Glue a mirror copy of ``mesh`` along its boundary.

    ``kappa[v]`` is the target cone curvature at an interior vertex ``v``
    and the target geodesic curvature at a boundary vertex.  Returns the
    cover, its (mirrored) metric, and per-vertex target angles.
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
        if v in boundary_v:
            theta_hat[v] = 2.0 * math.pi - 2.0 * kappa[v]
        else:
            theta_hat[v] = 2.0 * math.pi - kappa[v]
            theta_hat[vrefl[v]] = theta_hat[v]

    cover = DoubleCover(mesh=cover_mesh, refl=refl, n_source_vertices=v0)
    return cover, PennerMetric(lengths), theta_hat


def restrict_to_single_cover(
    cover: DoubleCover,
    metric: PennerMetric,
    u: "list[float]",
) -> tuple[CombinatorialMesh, PennerMetric, list[float]]:
    """Cut a symmetric scaled metric along its axis and keep one sheet.

    Every crossing edge gets a midpoint vertex; axis triangles keep the
    half on sheet 1 (apex, sheet-1 vertex, midpoint), axis quads keep the
    half-quad between their two midpoints, split into two triangles.  The
    returned mesh carries *scaled* lengths and a conformal factor list
    holding the solved values at kept source vertices and NaN at the new
    midpoints.
    """
    mesh, refl = cover.mesh, cover.refl
    v0 = cover.n_source_vertices

    lp = scalar_metric(mesh, metric, u).length
    crossing = sorted(e for e in mesh.edges() if refl.r[e] == e)
    midpoint: dict[int, int] = {}
    half_len: dict[int, float] = {}
    for rank, e in enumerate(crossing):
        midpoint[e] = v0 + rank
        half_len[e] = 0.5 * lp(e)

    faces_v: list[list[int]] = []
    faces_e: list[list[int]] = []
    edge_len: dict[int, float] = {}
    eid_of_cover_edge: dict[int, int] = {}
    next_eid = 0

    def fresh(length: float) -> int:
        nonlocal next_eid
        eid = next_eid
        next_eid += 1
        edge_len[eid] = length
        return eid

    def edge_id(h: int) -> int:
        # A crossing edge keeps only its sheet-1 half.
        e = mesh.edge_of(h)
        eid = eid_of_cover_edge.get(e)
        if eid is None:
            eid = fresh(half_len[e] if e in half_len else lp(h))
            eid_of_cover_edge[e] = eid
        return eid

    for f in mesh.faces():
        hs = mesh.face_halfedges(f)
        labs = [refl.he_label[x] for x in hs]
        if 0 not in labs:
            if labs[0] == 2:
                continue
            faces_v.append([mesh.tail_of(x) for x in hs])
            faces_e.append([edge_id(x) for x in hs])
            continue
        if len(hs) == 3:
            c = next(x for x in hs if refl.r[x] == x)
            g = next(x for x in hs if refl.he_label[x] == 1)
            s = lp(g)
            b = lp(c)
            arg = s * s - 0.25 * b * b
            if not arg > 0.0:
                raise MetricError(f"axis triangle {f} has no real height")
            cut = fresh(math.sqrt(arg))
            m = midpoint[mesh.edge_of(c)]
            if mesh.next_he[g] == c:
                # g runs apex -> sheet-1 vertex, then the crossing side.
                faces_v.append([mesh.tail_of(g), mesh.to[g], m])
                faces_e.append([edge_id(g), edge_id(c), cut])
            else:
                faces_v.append([m, mesh.tail_of(g), mesh.to[g]])
                faces_e.append([edge_id(c), edge_id(g), cut])
        else:
            g = next(x for x in hs if refl.he_label[x] == 1)
            pg = mesh.prev(g)
            ng = mesh.next_he[g]
            a = mesh.tail_of(g)
            b = mesh.to[g]
            m_in = midpoint[mesh.edge_of(pg)]
            m_out = midpoint[mesh.edge_of(ng)]
            b1 = lp(pg)
            b2 = lp(ng)
            s = lp(g)
            arg = s * s - 0.25 * (b1 - b2) * (b1 - b2)
            if not arg > 0.0:
                raise MetricError(f"axis quad {f} has no real height")
            height = math.sqrt(arg)
            cut = fresh(height)
            diag = fresh(math.sqrt(0.25 * b1 * b1 + height * height))
            faces_v.append([m_in, a, m_out])
            faces_e.append([edge_id(pg), diag, cut])
            faces_v.append([a, b, m_out])
            faces_e.append([edge_id(g), edge_id(ng), diag])

    n_out_v = v0 + len(crossing)
    out_mesh, he_eid = build_from_face_edge_lists(faces_v, faces_e, n_out_v)
    out_lengths = [0.0] * out_mesh.n_halfedges()
    for h in range(out_mesh.n_halfedges()):
        out_lengths[h] = edge_len[he_eid[h]]
    u_out = [float(u[v]) for v in range(v0)] + [math.nan] * len(crossing)
    return out_mesh, PennerMetric(out_lengths), u_out
