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

import numpy as np

from .halfedge import (
    CombinatorialMesh,
    MeshError,
    build_from_face_edge_lists,
    first_use_ids,
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

    nxt = np.asarray(mesh.next_he)
    opp = np.asarray(mesh.opp)
    head = np.asarray(mesh.to)
    outer = np.isin(np.asarray(mesh.he_face), list(mesh.boundary_faces))
    src = np.flatnonzero(~outer)
    n_int = len(src)
    pos = np.full(len(nxt), -1)
    pos[src] = np.arange(n_int)
    prev = np.empty_like(nxt)
    prev[nxt] = np.arange(len(nxt))

    v0 = mesh.n_vertices
    on_boundary = np.zeros(v0, dtype=bool)
    on_boundary[head[outer]] = True
    interior_vs = np.flatnonzero(~on_boundary)
    n_cover_v = v0 + len(interior_vs)
    vrefl = np.arange(n_cover_v)
    vrefl[interior_vs] = np.arange(v0, n_cover_v)
    vrefl[v0:] = interior_vs

    # Copy 1 is slots 0..n_int-1, copy 2 the same halfedges reversed;
    # ``mirror`` is the copy-2 slot of each copy-1 halfedge.
    o = opp[src]
    axis = outer[o]
    mirror = np.arange(n_int) + n_int
    next_he = np.concatenate([pos[nxt[src]], pos[prev[src]] + n_int])
    opp_c = np.concatenate(
        [np.where(axis, mirror, pos[o]), np.where(axis, mirror - n_int, pos[o] + n_int)]
    )
    to = np.concatenate([head[src], vrefl[head[o]]])
    lengths = np.asarray(metric.lengths)[src]

    cover_mesh = CombinatorialMesh(
        next_he=next_he.tolist(), opp=opp_c.tolist(), to=to.tolist(), n_vertices=n_cover_v
    )
    r = np.concatenate([mirror, mirror - n_int]).tolist()
    he_label = [1] * n_int + [2] * n_int
    refl = ReflectionMap(r=r, he_label=he_label, vertex_refl=vrefl.tolist())

    errs = validate(cover_mesh)
    if errs:
        raise MeshError("double cover invalid: " + "; ".join(errs))
    errs = validate_symmetry(cover_mesh, refl)
    if errs:
        raise SymmetryError("double cover asymmetric: " + "; ".join(errs))

    th = np.asarray(theta, dtype=float)
    th = np.where(on_boundary, 2.0 * th, th)
    theta_hat = np.concatenate([th, th[interior_vs]]).tolist()

    cover = DoubleCover(mesh=cover_mesh, refl=refl, n_source_vertices=v0)
    return cover, PennerMetric(np.concatenate([lengths, lengths]).tolist()), theta_hat


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
    n = mesh.n_halfedges()
    nxt = np.asarray(mesh.next_he)
    opp = np.asarray(mesh.opp)
    he_face = np.asarray(mesh.he_face)
    label = np.asarray(refl.he_label)
    h = np.arange(n)

    is_crossing = (he_face >= 0) & (h < opp) & (np.asarray(refl.r) == h)
    crossing = np.flatnonzero(is_crossing)
    midpoint = dict(zip(crossing.tolist(), range(v0, v0 + len(crossing))))

    faces = np.flatnonzero(he_face == h)
    has_axis = np.zeros(n, dtype=bool)
    has_axis[he_face[(he_face >= 0) & (label == 0)]] = True
    axis_faces = faces[has_axis[faces]]
    # Copy faces are triangles: surgeries make quads only of axis faces.
    copy1 = faces[~has_axis[faces] & (label[faces] == 1)]
    sides = np.stack([copy1, nxt[copy1], nxt[nxt[copy1]]], axis=1)

    # Rows and the output edges they refer to.  A reference is a cover
    # halfedge, or -1 for a fresh edge; the copy rows refer to their sides.
    ref_face = np.repeat(copy1, 3).tolist()
    ref_h = sides.ravel().tolist()
    fresh_len: list[float] = []
    row_face, row_rank = copy1.tolist(), [0] * len(copy1)
    faces_v = np.asarray(mesh.to)[opp[sides]]
    faces_e = np.arange(sides.size).reshape(-1, 3)
    axis_v: list[list[int]] = []
    axis_e: list[list[int]] = []

    def ref(f: int, x: int) -> int:
        ref_face.append(f)
        ref_h.append(x)
        return len(ref_h) - 1

    def fresh(f: int, length: float) -> int:
        fresh_len.append(length)
        return ref(f, -1)

    def row(f: int, rank: int, verts: list[int], refs: list[int]) -> None:
        row_face.append(f)
        row_rank.append(rank)
        axis_v.append(verts)
        axis_e.append(refs)

    for f in axis_faces.tolist():
        hs = mesh.face_halfedges(f)
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
        cut = fresh(f, height)  # m_out -> m_in, along the axis
        # The split a -> m_out is the cut when m_in is the apex a, and the
        # leg itself when m_out is the apex b.
        if m_in == a:
            diag = cut
        elif m_out == b:
            diag = ref(f, g)
        else:
            diag = fresh(f, math.sqrt(0.25 * b1 * b1 + height * height))
        if m_in != a:
            row(f, 0, [m_in, a, m_out], [ref(f, pg), diag, cut])
        if m_out != b:
            row(f, 1, [a, b, m_out], [ref(f, g), ref(f, ng), diag])

    # Output edge ids follow first reference, in the order of a face by
    # face walk: ascending face id, and within a face the order of the
    # references above (an axis face makes its cut and split before its
    # rows).  A cover edge takes the length of its first referring
    # halfedge, halved for a crossing edge.
    src_h = np.array(ref_h)
    new = src_h < 0
    key = np.where(new, n + np.cumsum(new) - 1, np.minimum(src_h, opp[src_h]))
    ref_len = np.empty(len(src_h))
    old_len = np.asarray(L)[src_h[~new]]
    ref_len[~new] = np.where(is_crossing[key[~new]], 0.5 * old_len, old_len)
    ref_len[new] = fresh_len
    walk = np.lexsort((np.arange(len(key)), ref_face))
    eid = np.empty_like(key)
    eid[walk], lead = first_use_ids(key[walk])
    edge_len = ref_len[walk[lead]]

    rows = np.lexsort((row_rank, row_face))
    faces_v = np.concatenate([faces_v, np.array(axis_v, dtype=np.int64).reshape(-1, 3)])
    faces_e = np.concatenate([faces_e, np.array(axis_e, dtype=np.int64).reshape(-1, 3)])
    n_out_v = v0 + len(crossing)
    out_mesh, he_eid = build_from_face_edge_lists(faces_v[rows], eid[faces_e[rows]], n_out_v)
    u_out = [float(u[v]) for v in range(v0)] + [math.nan] * len(crossing)
    return out_mesh, PennerMetric(edge_len[he_eid].tolist()), u_out
