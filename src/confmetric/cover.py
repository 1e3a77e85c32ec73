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
factor of its own.  Both directions are array passes over all halfedges
and faces at once; the restriction labels each output edge by its cover
edge id, which the mesh builder only compares.
"""

from __future__ import annotations

import numpy as np

from .halfedge import CombinatorialMesh, MeshError, _array, build_from_face_edge_lists, validate
from .metric import MetricError, PennerMetric
from .symmetry import ReflectionMap, SymmetryError, validate_symmetry


def build_double_cover(
    mesh: CombinatorialMesh,
    metric: PennerMetric,
    theta: "list[float]",
) -> tuple[CombinatorialMesh, ReflectionMap, PennerMetric, list[float]]:
    """Glue a mirror copy of ``mesh`` along its boundary.

    ``theta[v]`` is the target angle sum at vertex ``v`` of ``mesh``
    (``pi - kappa`` at a boundary vertex).  Returns the closed cover, its
    reflection, (mirrored) metric and target angle sums.  Source vertices
    keep their ids and the mirrored interior vertices follow, so the source
    vertices are the v with ``vertex_refl[v] >= v``, one per mirror orbit.
    """
    if not mesh.boundary_faces:
        raise MeshError("input mesh has no boundary; nothing to double")

    nxt, opp, head = _array(mesh.next_he), _array(mesh.opp), _array(mesh.to)
    outer = np.isin(_array(mesh.he_face), list(mesh.boundary_faces))
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
    lengths = _array(metric.lengths, float)[src]

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

    th = _array(theta, float)
    th = np.where(on_boundary, 2.0 * th, th)
    theta_hat = np.concatenate([th, th[interior_vs]]).tolist()

    return cover_mesh, refl, PennerMetric(np.concatenate([lengths, lengths]).tolist()), theta_hat


def restrict_to_single_cover(
    mesh: CombinatorialMesh,
    refl: ReflectionMap,
    scaled: PennerMetric,
    u: "np.ndarray | list[float]",
) -> tuple[CombinatorialMesh, PennerMetric, np.ndarray]:
    """Cut a solved symmetric metric along its axis and keep one sheet.

    ``scaled`` is the scaled metric the solver returns for the cover.  Every
    crossing edge gets a midpoint vertex.  An axis face keeps the part on
    sheet 1 of its sheet-1 leg a -> b: the polygon ``[m_in] a b [m_out]``
    between the midpoints of the crossing sides before and after the leg,
    split along a -> m_out into two triangles.  An axis triangle is read
    as an axis quad whose crossing side at one end of the leg is missing:
    it has length 0 and its midpoint is the apex on the axis, so only one
    triangle remains.  The returned mesh carries scaled lengths, and its u
    is a float array: the solved u at the source vertices (numbered as
    ``build_double_cover`` numbers them), NaN at the midpoints after them.
    """
    v0 = int(np.count_nonzero(_array(refl.vertex_refl) >= np.arange(mesh.n_vertices)))
    L = _array(scaled.lengths, float)
    n = mesh.n_halfedges()
    nxt, opp, to = _array(mesh.next_he), _array(mesh.opp), _array(mesh.to)
    he_face, label = _array(mesh.he_face), _array(refl.he_label)
    h = np.arange(n)
    edge = np.minimum(h, opp)
    prev = np.empty_like(nxt)
    prev[nxt] = h

    is_crossing = (he_face >= 0) & (h < opp) & (_array(refl.r) == h)
    crossing = np.flatnonzero(is_crossing)
    midpoint = np.full(n, -1)
    midpoint[crossing] = np.arange(v0, v0 + len(crossing))

    has_axis = np.zeros(n, dtype=bool)
    has_axis[he_face[(he_face >= 0) & (label == 0)]] = True
    faces = np.flatnonzero(he_face == h)
    # Copy faces are triangles: surgeries make quads only of axis faces.
    copy1 = faces[~has_axis[faces] & (label[faces] == 1)]
    sides = np.stack([copy1, nxt[copy1], nxt[nxt[copy1]]], axis=1)

    # The sheet-1 leg g = a -> b of every axis face, and the sides before
    # and after it; a side that is no crossing edge ends at the apex.
    g = np.flatnonzero((he_face >= 0) & has_axis[he_face] & (label == 1))
    f = he_face[g]
    pg, ng = prev[g], nxt[g]
    a, b = to[opp[g]], to[g]
    c_in, c_out = is_crossing[edge[pg]], is_crossing[edge[ng]]
    m_in = np.where(c_in, midpoint[edge[pg]], a)
    m_out = np.where(c_out, midpoint[edge[ng]], b)
    b1 = np.where(c_in, L[pg], 0.0)
    b2 = np.where(c_out, L[ng], 0.0)
    arg = L[g] * L[g] - 0.25 * (b1 - b2) * (b1 - b2)
    flat = ~(arg > 0.0)
    if flat.any():
        raise MetricError(f"axis face {f[flat].min()} has no real height")
    height = np.sqrt(arg)
    # Output edges are keyed by cover edge id and take its length, halved
    # for a crossing edge (both halfedges of an edge carry bitwise the same
    # scaled length); the fresh cut m_out -> m_in along the axis and the
    # fresh split a -> m_out take ids past n.  The split is the cut when
    # m_in is the apex a, and the leg itself when m_out is the apex b.
    cut = n + np.arange(len(g))
    split = np.where(c_in, np.where(c_out, cut + len(g), edge[g]), cut)
    edge_len = np.concatenate(
        [np.where(is_crossing, 0.5 * L, L), height, np.sqrt(0.25 * b1 * b1 + height * height)]
    )

    row_v = np.concatenate(
        [to[opp[sides]], np.stack([m_in, a, m_out], 1)[c_in], np.stack([a, b, m_out], 1)[c_out]]
    )
    row_e = np.concatenate(
        [edge[sides], np.stack([edge[pg], split, cut], 1)[c_in],
         np.stack([edge[g], edge[ng], split], 1)[c_out]]
    )
    rank = np.repeat([0, 0, 1], [len(copy1), c_in.sum(), c_out.sum()])
    rows = np.lexsort((rank, np.concatenate([copy1, f[c_in], f[c_out]])))
    out_mesh, he_eid = build_from_face_edge_lists(row_v[rows], row_e[rows], v0 + len(crossing))
    u_out = np.concatenate([np.asarray(u, dtype=float)[:v0], np.full(len(crossing), np.nan)])
    return out_mesh, PennerMetric(edge_len[he_eid].tolist()), u_out
