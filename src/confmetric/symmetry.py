"""Reflection structure on a doubled surface and symmetry-preserving flips.

A double cover carries an orientation-reversing involution R exchanging its
two sheets.  We store R as three arrays:

* ``r[h]``: the halfedge image.  R reverses direction, so the head of
  ``r[h]`` is the mirror of the *tail* of ``h``, and R anti-commutes with
  the face walk: ``r(next(h)) = prev(r(h))``.
* ``he_label[h]``: 1 or 2 for the sheet a halfedge belongs to, 0 for
  halfedges fixed by R (``r[h] == h``).
* ``vertex_refl[v]``: the vertex involution; fixed vertices lie on the
  symmetry axis.

Edges fall into three classes.  A *copy* edge has ``r[h]`` on a different
edge (its mirror edge).  An *axis-parallel* edge has ``r[h] == opp[h]``:
the edge is fixed as a set but its halfedges swap, and it joins the two
sheets along the axis.  A *crossing* edge has ``r[h] == h``; both of its
halfedges are fixed and it runs from one sheet to the other through the
axis.  Faces are *copy* faces (all sides one label) or *axis* faces (fixed
by R; they contain fixed halfedges).  Axis triangles have one crossing side
and two legs exchanged by R; axis quads alternate leg, crossing, leg,
crossing and carry a parked halfedge pair, whose lengths are the stored
diagonal, so the inverse surgery can split them back into two triangles.

Flipping one edge of a symmetric pair breaks the symmetry, so flips come in
grouped surgeries that restore it:

* ``PAIRED``: flip a copy edge and its mirror edge together.
* ``AXIS`` forward: flip an axis-parallel edge; the two copy triangles
  become two axis triangles sharing a new crossing edge.  Reverse: flip
  that crossing edge back.
* Leg pair, forward: flip the two mirrored legs of an axis face.  The
  face and the two copy triangles on its legs become two axis faces around
  a new crossing edge, and the legs are parked.  An axis triangle is read
  as the quad whose middle crossing side is empty and whose stored
  diagonal is its leg, so one surgery serves both degrees: a triangle
  yields a triangle and a quad (``TRI_QUAD``), a quad yields two quads
  (``QUAD_QUAD``).  Reverse: flip a crossing edge that borders a quad,
  releasing a parked pair; the counted kind follows the degree of the
  other face.  A quad record lists first the parked halfedge that returns
  opposite the crossing halfedge of the other face.
* ``ALWAYS_DELAUNAY``: configurations whose symmetry forces the Delaunay
  condition (self-adjacent faces, or copy edges between two axis faces);
  these are never flipped.

A paired flip is the plain flip (``halfedge.flip_edge``) of each mirror
edge, an axis flip forward that of its edge.  The mirror frame has the
same four sides, its two Ptolemy products in the other order, and IEEE
``*`` and ``+`` commute, so the two values are bitwise equal.  The other
surgeries evaluate each relation once and write it to every mirrored slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .halfedge import CombinatorialMesh, FlipError, FlipFrame, PennerMetric, _array
from .halfedge import apply_flip, flip_edge


class SymmetryError(Exception):
    """Raised when a mesh/reflection pair is not a valid symmetric state."""


class FlipType(Enum):
    PAIRED = "paired"
    AXIS = "axis"
    TRI_QUAD = "tri_quad"
    QUAD_QUAD = "quad_quad"
    ALWAYS_DELAUNAY = "always_delaunay"


@dataclass
class ReflectionMap:
    """The reflection involution of a doubled mesh.

    Arrays are indexed by halfedge (``r``, ``he_label``) and by vertex
    (``vertex_refl``).  Surgeries update entries in place.
    """

    r: list[int]
    he_label: list[int]
    vertex_refl: list[int]


@dataclass(frozen=True)
class FlipRecord:
    """What a symmetric flip did: its type and the faces it rebuilt.

    ``faces`` lists the face ids created by the surgery so a Delaunay scan
    can re-examine the edges around the modified region.  ``edge`` is the
    canonical id of the edge the surgery produced (the new crossing edge
    for a forward flip, one of the restored edges for a reverse), so the
    opposite surgery applied to ``edge`` undoes this one.
    """

    kind: FlipType
    faces: tuple[int, ...]
    edge: int


def face_label(mesh: CombinatorialMesh, refl: ReflectionMap, f: int) -> int:
    """0 for an axis face, otherwise the sheet label shared by all sides."""
    labels = {refl.he_label[h] for h in mesh.face_halfedges(f)}
    if 0 in labels:
        return 0
    if len(labels) != 1:
        raise SymmetryError(f"face {f} mixes sheet labels {sorted(labels)}")
    return labels.pop()


def classify_flip(
    mesh: CombinatorialMesh, refl: ReflectionMap, h: int
) -> tuple[FlipType, bool]:
    """Decide which symmetric surgery flips the edge of ``h``.

    Returns ``(kind, forward)``.  Crossing edges always flip in reverse
    (they were created by a forward surgery); copy and axis-parallel edges
    flip forward.  Configurations that must not be flipped classify as
    ``ALWAYS_DELAUNAY``.
    """
    o = mesh.opp[h]
    rh = refl.r[h]
    fa, fb = mesh.he_face[h], mesh.he_face[o]

    if rh == h:
        # Crossing edge: both incident faces are fixed by R.
        qa, qb = fa in mesh.quad_pairs, fb in mesh.quad_pairs
        if fa == fb:
            # A quad can meet its own mirror image along both crossing
            # sides; the stored-diagonal relation then forces Delaunay.
            if qa:
                return FlipType.ALWAYS_DELAUNAY, True
            raise SymmetryError(f"crossing edge {h} self-adjacent on a triangle")
        if qa and qb:
            return FlipType.QUAD_QUAD, False
        if qa or qb:
            return FlipType.TRI_QUAD, False
        return FlipType.AXIS, False

    if rh == o:
        # Axis-parallel edge: faces are either the two mirrored copies of
        # one triangle, or a single self-adjacent axis face.
        if fa == fb:
            return FlipType.ALWAYS_DELAUNAY, True
        la, lb = face_label(mesh, refl, fa), face_label(mesh, refl, fb)
        if {la, lb} == {1, 2}:
            if fa in mesh.quad_pairs or fb in mesh.quad_pairs:
                raise SymmetryError(f"axis-parallel edge {h} borders a quad copy face")
            return FlipType.AXIS, True
        raise SymmetryError(
            f"axis-parallel edge {h} has face labels ({la},{lb}); expected (1,2)"
        )

    # Copy edge.
    if fa == fb:
        return FlipType.ALWAYS_DELAUNAY, True
    la, lb = face_label(mesh, refl, fa), face_label(mesh, refl, fb)
    if la == 0 and lb == 0:
        return FlipType.ALWAYS_DELAUNAY, True
    if la == 0 or lb == 0:
        if (fa if la == 0 else fb) in mesh.quad_pairs:
            return FlipType.QUAD_QUAD, True
        return FlipType.TRI_QUAD, True
    lab = refl.he_label[h]
    if la == lb == lab and refl.he_label[o] == lab:
        return FlipType.PAIRED, True
    raise SymmetryError(
        f"copy edge {h} (label {lab}) has inconsistent face labels ({la},{lb})"
    )


# -- shared writes ----------------------------------------------------------


def _park(mesh: CombinatorialMesh, a: int, b: int) -> None:
    # Detach the pair into a private 2-cycle; r and its mutual pairing are
    # kept so the inverse surgery reinstalls a mirror pair.  he_face -1
    # marks the pair parked, and to -1 poisons any read of its heads.
    for h in (a, b):
        mesh.to[h] = -1
        mesh.he_face[h] = -1
    mesh.next_he[a] = b
    mesh.next_he[b] = a
    mesh.opp[a] = b
    mesh.opp[b] = a


def _crossing(L: list[float], refl: ReflectionMap, a: int, b: int, length: float) -> None:
    # The halfedges a, b of a new crossing edge are each fixed by R.
    for h in (a, b):
        L[h] = length
        refl.r[h] = h
        refl.he_label[h] = 0


def _mirror(
    L: list[float], refl: ReflectionMap, a: int, b: int, length: float, la: int, lb: int
) -> None:
    # Restore a and b as each other's mirror, in sheets la and lb.
    L[a] = L[b] = length
    refl.r[a] = b
    refl.r[b] = a
    refl.he_label[a] = la
    refl.he_label[b] = lb


# -- the surgeries ------------------------------------------------------------


def _flip_paired(
    mesh: CombinatorialMesh, metric: PennerMetric, refl: ReflectionMap, h: int
) -> FlipRecord:
    # Flip h, then its mirror in the other sheet.  The mirror is planned after
    # the first flip: a FlipError there means the state had already broken
    # mirror symmetry, an invariant breach with or without the first flip.
    fr1, _ = flip_edge(mesh, metric, h)
    fr2, _ = flip_edge(mesh, metric, refl.r[h])
    # The new diagonals mirror each other crosswise: the image of the
    # halfedge in slot h0 now sits in slot opp(r_old(h0)).
    h0, h3, s1, s2 = fr1.h0, fr1.h3, fr2.h0, fr2.h3
    refl.r[h0] = s2
    refl.r[s2] = h0
    refl.r[h3] = s1
    refl.r[s1] = h3
    he_face = mesh.he_face
    faces = (he_face[h0], he_face[fr1.h1], he_face[s1], he_face[fr2.h1])
    return FlipRecord(FlipType.PAIRED, faces, min(h0, h3))


def _flip_axis_forward(
    mesh: CombinatorialMesh, metric: PennerMetric, refl: ReflectionMap, h: int
) -> FlipRecord:
    fr, lnew = flip_edge(mesh, metric, h)
    # The new edge crosses the axis between a vertex and its mirror; the
    # legs (h1,h5) and (h2,h4) were mirror pairs already and stay so.
    _crossing(metric.lengths, refl, fr.h0, fr.h3, lnew)
    faces = (mesh.he_face[fr.h0], mesh.he_face[fr.h3])
    return FlipRecord(FlipType.AXIS, faces, min(fr.h0, fr.h3))


def _flip_axis_reverse(
    mesh: CombinatorialMesh, metric: PennerMetric, refl: ReflectionMap, h: int
) -> FlipRecord:
    L = metric.lengths
    nxt = mesh.next_he
    h0 = min(h, mesh.opp[h])
    h3 = mesh.opp[h0]
    h2, h5 = nxt[h0], nxt[h3]
    h4, h1 = nxt[h2], nxt[h5]
    # Undo the forward flip: the faces (h0, h2, h4) and (h3, h5, h1) become
    # (h0, h1, h2) and (h3, h4, h5), which is what ``apply_flip`` writes for
    # this relabelled frame; its Ptolemy product is the current frame's.
    fr = FlipFrame(h0, h5, h1, h3, h2, h4)
    lnew = fr.ptolemy(L)
    apply_flip(mesh, fr)
    # The restored edge is axis-parallel between two axis vertices; each
    # new face lies in the sheet of the legs it inherited.
    _mirror(L, refl, h0, h3, lnew, refl.he_label[h1], refl.he_label[h4])
    return FlipRecord(FlipType.AXIS, (mesh.he_face[h0], mesh.he_face[h3]), min(h0, h3))


def _flip_legs_forward(
    mesh: CombinatorialMesh, metric: PennerMetric, refl: ReflectionMap, h: int
) -> FlipRecord:
    L = metric.lengths
    nxt = mesh.next_he
    h0 = mesh.opp[h] if face_label(mesh, refl, mesh.he_face[h]) == 0 else h
    # h0 lies in copy face (h0, h1, h2); across it, the axis face walks
    # leg p, [middle crossing], mirror leg q, crossing c.  A triangle is the
    # quad with an empty middle side, so of its two legs p must be the one
    # followed by its mirror.
    fq = mesh.he_face[mesh.opp[h0]]
    quad = fq in mesh.quad_pairs
    if not quad and nxt[mesh.opp[h0]] != refl.r[mesh.opp[h0]]:
        h0 = refl.r[h0]
    h3 = refl.r[h0]
    p, q = mesh.opp[h0], mesh.opp[h3]
    mid = [nxt[p]] if quad else []
    c = nxt[q]
    h1 = nxt[h0]
    h2 = nxt[h1]
    h4 = nxt[h3]
    h5 = nxt[h4]

    # The diagonals x, y of the two new faces, then the new crossing edge:
    # the lengths the same flips give on the virtual triangulation, where
    # the stored diagonal d0 of a triangle is its leg and x its side h2.
    d = L[h0]
    m1 = L[h1]
    m2 = L[h2]
    if quad:
        d0 = L[mesh.quad_pairs[fq][0]]
        x = (L[mid[0]] * m1 + d0 * m2) / d
    else:
        d0, x = d, m2
    y = (L[c] * m2 + d0 * m1) / d
    lnew = (m1 * m2 + x * y) / d0

    # A record lists first the parked halfedge that returns opposite the
    # other face's crossing halfedge: p returns opposite h0, q opposite h3.
    # A quad passes its record on to fb and takes the new pair for fa.
    pair_b = mesh.quad_pairs.pop(fq) if quad else (p, q)
    k = mesh.to[h1]
    m = mesh.to[h4]
    _park(mesh, p, q)
    mesh.opp[h0] = h3
    mesh.opp[h3] = h0
    mesh.to[h0] = k
    mesh.to[h3] = m
    fa = mesh.rebuild_face([h0, h2, *mid, h4])
    fb = mesh.rebuild_face([h1, h3, h5, c])
    if quad:
        mesh.quad_pairs[fa] = (q, p)
        L[p] = L[q] = x
    mesh.quad_pairs[fb] = pair_b
    L[pair_b[0]] = L[pair_b[1]] = y
    _crossing(L, refl, h0, h3, lnew)
    kind = FlipType.QUAD_QUAD if quad else FlipType.TRI_QUAD
    return FlipRecord(kind, (fa, fb), min(h0, h3))


def _flip_legs_reverse(
    mesh: CombinatorialMesh, metric: PennerMetric, refl: ReflectionMap, h: int
) -> FlipRecord:
    L = metric.lengths
    nxt = mesh.next_he
    # The crossing edge h0 | h3 separates faces (h0, h2, [mid], h4) and
    # (h3, h5, c, h1); the face of h3 is a quad, the face of h0 may be a
    # triangle (a quad with an empty middle side).
    h0 = min(h, mesh.opp[h])
    if mesh.he_face[mesh.opp[h0]] not in mesh.quad_pairs:
        h0 = mesh.opp[h0]
    h3 = mesh.opp[h0]
    fa, fb = mesh.he_face[h0], mesh.he_face[h3]
    quad = fa in mesh.quad_pairs
    h2 = nxt[h0]
    pre4 = nxt[h2] if quad else h2  # the side before h4
    mid = [pre4] if quad else []
    h4 = nxt[pre4]
    h5 = nxt[h3]
    c = nxt[h5]
    h1 = nxt[c]
    # The released pair (p, q) returns opposite (h0, h3), by the record
    # order of _flip_legs_forward; a quad at h0 passes fb's record on.
    kept = mesh.quad_pairs.pop(fb)
    db = L[kept[0]]
    if quad:
        q, p = mesh.quad_pairs.pop(fa)
        da = L[p]
    else:
        p, q = kept
        da = L[h2]

    w = L[h0]
    m1 = L[h1]
    m2 = L[h2]
    d0 = (da * db + m2 * m1) / w
    lnew = (d0 * m2 + m1 * L[pre4]) / da if quad else d0

    mesh.opp[h0] = p
    mesh.opp[p] = h0
    mesh.opp[h3] = q
    mesh.opp[q] = h3
    mesh.to[h0] = mesh.to[c]
    mesh.to[h3] = mesh.to[pre4]
    mesh.to[p] = mesh.to[h2]
    mesh.to[q] = mesh.to[h5]
    f1 = mesh.rebuild_face([h0, h1, h2])
    f2 = mesh.rebuild_face([h3, h4, h5])
    fm = mesh.rebuild_face([c, p, *mid, q])
    if quad:
        mesh.quad_pairs[fm] = kept
        L[kept[0]] = L[kept[1]] = d0
    # The restored copy edges are mirror images, and so are p and q.
    lab1 = refl.he_label[h1]
    lab5 = refl.he_label[h5]
    _mirror(L, refl, h0, h3, lnew, lab1, lab5)
    _mirror(L, refl, p, q, lnew, lab1, lab5)
    kind = FlipType.QUAD_QUAD if quad else FlipType.TRI_QUAD
    return FlipRecord(kind, (f1, f2, fm), min(h0, p))


_SURGERIES = {
    (FlipType.PAIRED, True): _flip_paired,
    (FlipType.AXIS, True): _flip_axis_forward,
    (FlipType.AXIS, False): _flip_axis_reverse,
    (FlipType.TRI_QUAD, True): _flip_legs_forward,
    (FlipType.TRI_QUAD, False): _flip_legs_reverse,
    (FlipType.QUAD_QUAD, True): _flip_legs_forward,
    (FlipType.QUAD_QUAD, False): _flip_legs_reverse,
}


def apply_symmetric_flip(
    mesh: CombinatorialMesh,
    metric: PennerMetric,
    refl: ReflectionMap,
    h: int,
) -> FlipRecord:
    """Flip the edge of ``h`` with the surgery its classification demands.

    Mutates mesh, metric, and reflection in place and returns a record of
    what happened.  Raises :class:`FlipError` for always-Delaunay edges and
    :class:`SymmetryError` for invalid symmetric states.
    """
    kind, forward = classify_flip(mesh, refl, h)
    if kind is FlipType.ALWAYS_DELAUNAY:
        raise FlipError(f"edge of halfedge {h} is always Delaunay; flip undefined")
    return _SURGERIES[kind, forward](mesh, metric, refl, h)


def validate_symmetry(
    mesh: CombinatorialMesh,
    refl: ReflectionMap,
    metric: PennerMetric | None = None,
) -> list[str]:
    """Full-scan diagnostics of a symmetric state; empty list means valid.

    Checks the involution properties of ``r`` and ``vertex_refl``, their
    compatibility with the mesh permutations, the label discipline, that
    no copy face mixes labels, parked-pair bookkeeping, and (when a metric
    is given) that every length, parked pairs' included, is positive and
    bitwise equal across ``opp`` and ``r``.  Faces are grouped by
    ``he_face``, which :func:`~confmetric.halfedge.validate` checks.

    The shape of an axis face needs no check of its own.  Once ``validate``
    passes and r reverses every face walk, r maps the face of an r-fixed
    halfedge x onto itself, reflecting its cycle: r(next^k x) = next^-k x.
    A side next^k x is fixed exactly when 2k is a multiple of the face's
    degree, so a triangle has one fixed side and a quad two opposite ones.
    """
    n = mesh.n_halfedges()
    nv = mesh.n_vertices
    if len(refl.r) != n or len(refl.he_label) != n:
        return [f"reflection arrays sized for {len(refl.r)} of {n} halfedges"]
    if len(refl.vertex_refl) != nv:
        return [f"vertex_refl has {len(refl.vertex_refl)} entries for {nv} vertices"]

    v = np.arange(nv)
    vr = _array(refl.vertex_refl)
    wild = (vr < 0) | (vr >= nv)
    errs = [f"vertex_refl[{x}]={w} out of range" for x, w in zip(v[wild], vr[wild])]
    tame = v[~wild]
    errs += [f"vertex_refl not involutive at {x}" for x in tame[vr[vr[tame]] != tame]]
    if errs:
        return errs

    h = np.arange(n)
    nxt, opp, to = _array(mesh.next_he), _array(mesh.opp), _array(mesh.to)
    he_face, r, lab = _array(mesh.he_face), _array(refl.r), _array(refl.he_label)
    parked = he_face < 0
    # Each halfedge fails at most one of the checks up to its label's.
    wild = (r < 0) | (r >= n)
    errs += [f"r[{x}]={y} out of range" for x, y in zip(h[wild], r[wild])]
    rh = np.where(wild, h, r)
    bad = ~wild & (r[rh] != h)
    errs += [f"r not involutive at {x}" for x in h[bad]]
    ok = ~wild & ~bad
    bad = ok & (parked != parked[rh])
    errs += [f"r pairs parked halfedge {x} with active {y}" for x, y in zip(h[bad], r[bad])]
    ok &= ~bad
    errs += [f"parked halfedge {x} is r-fixed" for x in h[ok & parked & (r == h)]]
    live = ok & ~parked
    bad = live & (lab != 0) & (lab != 1) & (lab != 2)
    errs += [f"he_label[{x}]={y} invalid" for x, y in zip(h[bad], lab[bad])]
    ok = live & ~bad
    bad = ok & ((lab == 0) != (r == h))
    errs += [
        f"he_label[{x}]={y} inconsistent with r[{x}]={z}"
        for x, y, z in zip(h[bad], lab[bad], r[bad])
    ]
    bad = ok & ~bad & (lab != 0) & (lab[rh] != 3 - lab)
    errs += [
        f"mirror of {x} has label {y}, not {3 - z}"
        for x, y, z in zip(h[bad], lab[rh][bad], lab[bad])
    ]
    prev = np.empty_like(nxt)
    prev[nxt] = h
    x, rx = h[live], rh[live]
    errs += [f"r does not commute with opp at {y}" for y in x[r[opp[x]] != opp[rx]]]
    errs += [f"r does not reverse the face walk at {y}" for y in x[r[nxt[x]] != prev[rx]]]
    errs += [
        f"head of r[{y}] is not the mirrored tail of {y}" for y in x[to[rx] != vr[to[opp[x]]]]
    ]
    if errs:
        return errs

    act = np.flatnonzero(~parked & ~np.isin(he_face, list(mesh.boundary_faces)))
    fid = he_face[act]
    faces = act[fid == act]
    on_axis = np.zeros(n, dtype=bool)
    on_axis[fid[lab[act] == 0]] = True
    mixed = np.zeros(n, dtype=bool)
    mixed[fid[lab[act] != lab[fid]]] = True
    # A face with no label-0 side that mixes labels has both 1 and 2.
    errs += [f"copy face {f} mixes labels [1, 2]" for f in faces[~on_axis[faces] & mixed[faces]]]

    recorded: set[int] = set()
    for f, (p1, p2) in mesh.quad_pairs.items():
        if refl.r[p1] != p2:
            errs.append(f"parked pair of quad {f} is not a mirror pair")
        recorded.update((p1, p2))
    if recorded != set(np.flatnonzero(parked).tolist()):
        errs.append("parked halfedges and quad_pairs records disagree")

    if metric is not None:
        # Every halfedge, a parked pair's stored diagonal included.
        L = _array(metric.lengths, float)
        errs += [f"halfedge lengths of edge {e} differ" for e in np.minimum(h, opp)[L != L[opp]]]
        errs += [f"mirror edges at {x} have different lengths" for x in h[L != L[r]]]
        errs += [f"nonpositive length at halfedge {x}" for x in h[~(L > 0)]]

    return errs
