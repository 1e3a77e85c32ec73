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
crossing and carry a stored diagonal length plus a parked halfedge pair so
the inverse surgery can split them back into two triangles.

Flipping one edge of a symmetric pair breaks the symmetry, so flips come in
grouped surgeries that restore it:

* ``PAIRED``: flip a copy edge and its mirror edge together.
* ``AXIS`` forward: flip an axis-parallel edge; the two copy triangles
  become two axis triangles sharing a new crossing edge.  Reverse: flip
  that crossing edge back.
* ``TRI_QUAD`` forward: flip the leg pair of an axis triangle (one copy
  edge and its mirror share the axis triangle), merging triangle and legs
  into an axis quad; two halfedges are parked.  Reverse: flip the crossing
  edge between an axis triangle and an axis quad, splitting the quad.
* ``QUAD_QUAD`` forward: flip the leg pair of an axis quad, rebuilding two
  axis quads around a new crossing edge.  Reverse: flip a crossing edge
  between two axis quads, merging them and releasing a triangle pair.
* ``ALWAYS_DELAUNAY``: configurations whose symmetry forces the Delaunay
  condition (self-adjacent faces, or copy edges between two axis faces);
  these are never flipped.

All length updates are Ptolemy relations evaluated once and written to
every mirrored slot, so exact symmetry of the metric is preserved bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from .halfedge import CombinatorialMesh, FlipError, FlipFrame, apply_flip, plan_flip

if TYPE_CHECKING:  # pragma: no cover
    from .metric import PennerMetric


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

    def copy(self) -> "ReflectionMap":
        return ReflectionMap(list(self.r), list(self.he_label), list(self.vertex_refl))


@dataclass(frozen=True)
class FlipRecord:
    """What a symmetric flip did: its type, direction, and the faces it rebuilt.

    ``faces`` lists the face ids created by the surgery so a Delaunay scan
    can re-examine the edges around the modified region.  ``new_length``
    is the original-scale length written to the new edge slots.  ``edge``
    is the canonical id of the edge the surgery produced (the new crossing
    edge for a forward flip, one of the restored edges for a reverse), so
    the opposite surgery applied to ``edge`` undoes this one.
    """

    kind: FlipType
    forward: bool
    faces: tuple[int, ...]
    new_length: float
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


# -- parking ----------------------------------------------------------------


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


# -- the six surgeries --------------------------------------------------------


def _flip_paired(
    mesh: CombinatorialMesh, metric: "PennerMetric", refl: ReflectionMap, h: int
) -> FlipRecord:
    L = metric.lengths
    fr1 = plan_flip(mesh, h)
    s1 = refl.r[fr1.h0]
    s2 = mesh.opp[s1]
    fr2 = plan_flip(mesh, s1)
    # The two frames touch disjoint faces (one sheet each), so both plans
    # stay valid while the flips are applied in sequence.
    lnew = fr1.ptolemy(L)
    apply_flip(mesh, fr1)
    apply_flip(mesh, fr2)
    for x in (fr1.h0, fr1.h3, s1, s2):
        L[x] = lnew
    # The new diagonals mirror each other crosswise: the image of the
    # halfedge in slot h0 now sits in slot opp(r_old(h0)).
    h0, h3 = fr1.h0, fr1.h3
    refl.r[h0] = s2
    refl.r[s2] = h0
    refl.r[h3] = s1
    refl.r[s1] = h3
    faces = (
        mesh.he_face[fr1.h0],
        mesh.he_face[fr1.h1],
        mesh.he_face[fr2.h0],
        mesh.he_face[fr2.h1],
    )
    return FlipRecord(FlipType.PAIRED, True, faces, lnew, min(h0, h3))


def _flip_axis_forward(
    mesh: CombinatorialMesh, metric: "PennerMetric", refl: ReflectionMap, h: int
) -> FlipRecord:
    L = metric.lengths
    fr = plan_flip(mesh, h)
    lnew = fr.ptolemy(L)
    apply_flip(mesh, fr)
    L[fr.h0] = lnew
    L[fr.h3] = lnew
    # The new edge crosses the axis between a vertex and its mirror; the
    # legs (h1,h5) and (h2,h4) were mirror pairs already and stay so.
    refl.r[fr.h0] = fr.h0
    refl.r[fr.h3] = fr.h3
    refl.he_label[fr.h0] = 0
    refl.he_label[fr.h3] = 0
    faces = (mesh.he_face[fr.h0], mesh.he_face[fr.h3])
    return FlipRecord(FlipType.AXIS, True, faces, lnew, min(fr.h0, fr.h3))


def _flip_axis_reverse(
    mesh: CombinatorialMesh, metric: "PennerMetric", refl: ReflectionMap, h: int
) -> FlipRecord:
    L = metric.lengths
    h0 = min(h, mesh.opp[h])
    h2 = mesh.next_he[h0]
    h4 = mesh.next_he[h2]
    h3 = mesh.opp[h0]
    h5 = mesh.next_he[h3]
    h1 = mesh.next_he[h5]
    # The frame of h0 in the current faces, (h0, h2, h4) and (h3, h5, h1).
    lnew = FlipFrame(h0, h2, h4, h3, h5, h1).ptolemy(L)
    to_h5 = mesh.to[h5]
    to_h2 = mesh.to[h2]
    mesh.to[h0] = to_h5
    mesh.to[h3] = to_h2
    f1 = mesh.rebuild_face([h0, h1, h2])
    f2 = mesh.rebuild_face([h3, h4, h5])
    L[h0] = lnew
    L[h3] = lnew
    # The restored edge is axis-parallel between two axis vertices; each
    # new face lies in the sheet of the legs it inherited.
    refl.r[h0] = h3
    refl.r[h3] = h0
    refl.he_label[h0] = refl.he_label[h1]
    refl.he_label[h3] = refl.he_label[h4]
    return FlipRecord(FlipType.AXIS, False, (f1, f2), lnew, min(h0, h3))


def _flip_tri_quad_forward(
    mesh: CombinatorialMesh, metric: "PennerMetric", refl: ReflectionMap, h: int
) -> FlipRecord:
    L = metric.lengths
    h0 = h
    if face_label(mesh, refl, mesh.he_face[h0]) == 0:
        h0 = mesh.opp[h0]
    # Normalize chirality: walk the axis triangle so the flipped leg is
    # followed by its mirror leg; otherwise operate on the mirror edge.
    if mesh.next_he[mesh.opp[h0]] != refl.r[mesh.opp[h0]]:
        h0 = refl.r[h0]
    h7 = mesh.opp[h0]
    h8 = mesh.next_he[h7]
    h6 = mesh.next_he[h8]
    h3 = refl.r[h0]
    h1 = mesh.next_he[h0]
    h2 = mesh.next_he[h1]
    h4 = mesh.next_he[h3]
    h5 = mesh.next_he[h4]

    d = L[h0]
    s1 = L[h1]
    s2 = L[h2]
    b = L[h6]
    diag = (s1 * d + s2 * b) / d
    lnew = (diag * s2 + s2 * s1) / d

    k = mesh.to[h1]
    m = mesh.to[h4]
    _park(mesh, h7, h8)
    mesh.opp[h0] = h3
    mesh.opp[h3] = h0
    mesh.to[h0] = k
    mesh.to[h3] = m
    ft = mesh.rebuild_face([h0, h2, h4])
    fq = mesh.rebuild_face([h1, h3, h5, h6])
    mesh.quad_pairs[fq] = (h7, h8)
    metric.quad_diag[fq] = diag
    L[h0] = lnew
    L[h3] = lnew
    refl.r[h0] = h0
    refl.r[h3] = h3
    refl.he_label[h0] = 0
    refl.he_label[h3] = 0
    return FlipRecord(FlipType.TRI_QUAD, True, (ft, fq), lnew, min(h0, h3))


def _flip_tri_quad_reverse(
    mesh: CombinatorialMesh, metric: "PennerMetric", refl: ReflectionMap, h: int
) -> FlipRecord:
    L = metric.lengths
    h0 = mesh.opp[h] if mesh.he_face[h] in mesh.quad_pairs else h
    h2 = mesh.next_he[h0]
    h4 = mesh.next_he[h2]
    h3 = mesh.opp[h0]
    h5 = mesh.next_he[h3]
    h6 = mesh.next_he[h5]
    h1 = mesh.next_he[h6]
    fq = mesh.he_face[h3]
    h7, h8 = mesh.quad_pairs.pop(fq)
    diag = metric.quad_diag.pop(fq)

    w = L[h0]
    leg = L[h2]
    a = L[h1]
    lnew = (a * leg + diag * leg) / w

    to_h6 = mesh.to[h6]
    to_h2 = mesh.to[h2]
    to_h5 = mesh.to[h5]
    mesh.opp[h0] = h7
    mesh.opp[h7] = h0
    mesh.opp[h3] = h8
    mesh.opp[h8] = h3
    mesh.to[h0] = to_h6
    mesh.to[h3] = to_h2
    mesh.to[h7] = to_h2
    mesh.to[h8] = to_h5
    f1 = mesh.rebuild_face([h0, h1, h2])
    f2 = mesh.rebuild_face([h3, h4, h5])
    ft = mesh.rebuild_face([h6, h7, h8])
    for x in (h0, h7, h3, h8):
        L[x] = lnew
    # The two restored copy edges are mirror images; the released pair
    # (h7,h8) becomes the legs of the reinstated axis triangle.
    lab1 = refl.he_label[h1]
    lab5 = refl.he_label[h5]
    refl.r[h0] = h3
    refl.r[h3] = h0
    refl.r[h7] = h8
    refl.r[h8] = h7
    refl.he_label[h0] = lab1
    refl.he_label[h7] = lab1
    refl.he_label[h3] = lab5
    refl.he_label[h8] = lab5
    return FlipRecord(FlipType.TRI_QUAD, False, (f1, f2, ft), lnew, min(h0, h7))


def _flip_quad_quad_forward(
    mesh: CombinatorialMesh, metric: "PennerMetric", refl: ReflectionMap, h: int
) -> FlipRecord:
    L = metric.lengths
    h0 = mesh.opp[h] if mesh.he_face[h] in mesh.quad_pairs else h
    h9 = mesh.opp[h0]
    h7 = mesh.next_he[h9]
    h8 = mesh.next_he[h7]
    h6 = mesh.next_he[h8]
    h3 = refl.r[h0]
    h1 = mesh.next_he[h0]
    h2 = mesh.next_he[h1]
    h4 = mesh.next_he[h3]
    h5 = mesh.next_he[h4]
    fq = mesh.he_face[h9]
    p1, p2 = mesh.quad_pairs.pop(fq)
    d0 = metric.quad_diag.pop(fq)

    d = L[h0]
    m1 = L[h1]
    m2 = L[h2]
    w2 = L[h7]
    w1 = L[h6]
    # Diagonals of the two new quads, then the new crossing edge; these are
    # the lengths the same flips would produce on the virtual triangulation.
    x = (w2 * m1 + d0 * m2) / d
    y = (w1 * m2 + d0 * m1) / d
    lnew = (m1 * m2 + x * y) / d0

    k = mesh.to[h1]
    m = mesh.to[h4]
    _park(mesh, h8, h9)
    mesh.opp[h0] = h3
    mesh.opp[h3] = h0
    mesh.to[h0] = k
    mesh.to[h3] = m
    fa = mesh.rebuild_face([h0, h2, h7, h4])
    fb = mesh.rebuild_face([h1, h3, h5, h6])
    mesh.quad_pairs[fa] = (h8, h9)
    mesh.quad_pairs[fb] = (p1, p2)
    metric.quad_diag[fa] = x
    metric.quad_diag[fb] = y
    L[h0] = lnew
    L[h3] = lnew
    refl.r[h0] = h0
    refl.r[h3] = h3
    refl.he_label[h0] = 0
    refl.he_label[h3] = 0
    return FlipRecord(FlipType.QUAD_QUAD, True, (fa, fb), lnew, min(h0, h3))


def _flip_quad_quad_reverse(
    mesh: CombinatorialMesh, metric: "PennerMetric", refl: ReflectionMap, h: int
) -> FlipRecord:
    L = metric.lengths
    h0 = min(h, mesh.opp[h])
    h2 = mesh.next_he[h0]
    h7 = mesh.next_he[h2]
    h4 = mesh.next_he[h7]
    h3 = mesh.opp[h0]
    h5 = mesh.next_he[h3]
    h6 = mesh.next_he[h5]
    h1 = mesh.next_he[h6]
    fa = mesh.he_face[h0]
    fb = mesh.he_face[h3]
    h8, h9 = mesh.quad_pairs.pop(fa)
    pb = mesh.quad_pairs.pop(fb)
    da = metric.quad_diag.pop(fa)
    db = metric.quad_diag.pop(fb)

    w = L[h0]
    m1 = L[h1]
    m2 = L[h2]
    w2 = L[h7]
    d0 = (da * db + m2 * m1) / w
    lnew = (d0 * m2 + m1 * w2) / da

    to_h6 = mesh.to[h6]
    to_h7 = mesh.to[h7]
    to_h2 = mesh.to[h2]
    to_h5 = mesh.to[h5]
    mesh.opp[h0] = h9
    mesh.opp[h9] = h0
    mesh.opp[h3] = h8
    mesh.opp[h8] = h3
    mesh.to[h0] = to_h6
    mesh.to[h3] = to_h7
    mesh.to[h9] = to_h2
    mesh.to[h8] = to_h5
    f1 = mesh.rebuild_face([h0, h1, h2])
    f2 = mesh.rebuild_face([h3, h4, h5])
    fm = mesh.rebuild_face([h6, h9, h7, h8])
    mesh.quad_pairs[fm] = pb
    metric.quad_diag[fm] = d0
    for x in (h0, h9, h3, h8):
        L[x] = lnew
    lab2 = refl.he_label[h2]
    lab5 = refl.he_label[h5]
    refl.r[h0] = h3
    refl.r[h3] = h0
    refl.r[h9] = h8
    refl.r[h8] = h9
    refl.he_label[h0] = lab2
    refl.he_label[h9] = lab2
    refl.he_label[h3] = lab5
    refl.he_label[h8] = lab5
    return FlipRecord(FlipType.QUAD_QUAD, False, (f1, f2, fm), lnew, min(h0, h9))


def apply_symmetric_flip(
    mesh: CombinatorialMesh,
    metric: "PennerMetric",
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
    if kind is FlipType.PAIRED:
        return _flip_paired(mesh, metric, refl, h)
    if kind is FlipType.AXIS:
        if forward:
            return _flip_axis_forward(mesh, metric, refl, h)
        return _flip_axis_reverse(mesh, metric, refl, h)
    if kind is FlipType.TRI_QUAD:
        if forward:
            return _flip_tri_quad_forward(mesh, metric, refl, h)
        return _flip_tri_quad_reverse(mesh, metric, refl, h)
    if forward:
        return _flip_quad_quad_forward(mesh, metric, refl, h)
    return _flip_quad_quad_reverse(mesh, metric, refl, h)


def validate_symmetry(
    mesh: CombinatorialMesh,
    refl: ReflectionMap,
    metric: "PennerMetric | None" = None,
) -> list[str]:
    """Full-scan diagnostics of a symmetric state; empty list means valid.

    Checks the involution properties of ``r`` and ``vertex_refl``, their
    compatibility with the mesh permutations, the label discipline, the
    shape of axis faces, parked-pair bookkeeping, and (when a metric is
    given) bitwise equality of mirrored lengths.
    """
    errs: list[str] = []
    n = mesh.n_halfedges()
    parked = [f < 0 for f in mesh.he_face]
    if len(refl.r) != n or len(refl.he_label) != n:
        return [f"reflection arrays sized for {len(refl.r)} of {n} halfedges"]
    if len(refl.vertex_refl) != mesh.n_vertices:
        return [
            f"vertex_refl has {len(refl.vertex_refl)} entries "
            f"for {mesh.n_vertices} vertices"
        ]

    for v in range(mesh.n_vertices):
        w = refl.vertex_refl[v]
        if not 0 <= w < mesh.n_vertices:
            errs.append(f"vertex_refl[{v}]={w} out of range")
        elif refl.vertex_refl[w] != v:
            errs.append(f"vertex_refl not involutive at {v}")
    if errs:
        return errs

    for h in range(n):
        rh = refl.r[h]
        if not 0 <= rh < n:
            errs.append(f"r[{h}]={rh} out of range")
            continue
        if refl.r[rh] != h:
            errs.append(f"r not involutive at {h}")
            continue
        if parked[h] != parked[rh]:
            errs.append(f"r pairs parked halfedge {h} with active {rh}")
            continue
        if parked[h]:
            if rh == h:
                errs.append(f"parked halfedge {h} is r-fixed")
            continue
        lab = refl.he_label[h]
        if lab not in (0, 1, 2):
            errs.append(f"he_label[{h}]={lab} invalid")
        elif (lab == 0) != (rh == h):
            errs.append(f"he_label[{h}]={lab} inconsistent with r[{h}]={rh}")
        elif lab != 0 and refl.he_label[rh] != 3 - lab:
            errs.append(f"mirror of {h} has label {refl.he_label[rh]}, not {3 - lab}")
        if refl.r[mesh.opp[h]] != mesh.opp[rh]:
            errs.append(f"r does not commute with opp at {h}")
        if refl.r[mesh.next_he[h]] != mesh.prev(rh):
            errs.append(f"r does not reverse the face walk at {h}")
        if mesh.to[rh] != refl.vertex_refl[mesh.tail_of(h)]:
            errs.append(f"head of r[{h}] is not the mirrored tail of {h}")
    if errs:
        return errs

    for f in mesh.faces():
        hs = mesh.face_halfedges(f)
        labs = [refl.he_label[x] for x in hs]
        if 0 in labs:
            if {refl.r[x] for x in hs} != set(hs):
                errs.append(f"axis face {f} is not mapped to itself by r")
                continue
            fixed_pos = [i for i, x in enumerate(hs) if refl.r[x] == x]
            if len(hs) == 3 and len(fixed_pos) != 1:
                errs.append(f"axis triangle {f} has {len(fixed_pos)} fixed sides")
            if len(hs) == 4:
                if len(fixed_pos) != 2 or (fixed_pos[1] - fixed_pos[0]) != 2:
                    errs.append(f"axis quad {f} lacks opposite fixed sides")
        else:
            if len(set(labs)) != 1:
                errs.append(f"copy face {f} mixes labels {sorted(set(labs))}")

    parked_set = {h for h in range(n) if parked[h]}
    recorded: set[int] = set()
    for f, (p1, p2) in mesh.quad_pairs.items():
        if refl.r[p1] != p2:
            errs.append(f"parked pair of quad {f} is not a mirror pair")
        recorded.update((p1, p2))
    if recorded != parked_set:
        errs.append("parked halfedges and quad_pairs records disagree")

    if metric is not None:
        L = metric.lengths
        for h in range(n):
            if parked[h]:
                continue
            if L[h] != L[mesh.opp[h]]:
                errs.append(f"halfedge lengths of edge {mesh.edge_of(h)} differ")
            if L[h] != L[refl.r[h]]:
                errs.append(f"mirror edges at {h} have different lengths")
            if not L[h] > 0:
                errs.append(f"nonpositive length at halfedge {h}")
        if set(metric.quad_diag) != set(mesh.quad_pairs):
            errs.append("quad_diag keys disagree with the quad_pairs records")
        for f, dv in metric.quad_diag.items():
            if not dv > 0:
                errs.append(f"nonpositive stored diagonal for quad {f}")

    return errs
