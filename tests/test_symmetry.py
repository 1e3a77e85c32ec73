"""Reflection bookkeeping and the symmetric surgery zoo."""

import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confmetric.halfedge import FlipError, plan_flip, validate
from confmetric.symmetry import (
    FlipType,
    SymmetryError,
    apply_symmetric_flip,
    classify_flip,
    face_label,
    validate_symmetry,
)

import helpers


def fresh():
    mesh, refl, cmetric, _ = helpers.hexagon_cover()
    return mesh, refl, cmetric


def test_initial_cover_is_valid_symmetric_state():
    mesh, refl, cmetric = fresh()
    assert validate(mesh) == []
    assert validate_symmetry(mesh, refl, cmetric) == []
    assert (mesh.n_vertices, mesh.n_edges(), helpers.n_faces(mesh)) == (8, 18, 12)


def test_reflection_identities():
    mesh, refl, _ = fresh()
    hs = [h for h in range(mesh.n_halfedges()) if mesh.he_face[h] >= 0]
    assert all(refl.r[refl.r[h]] == h for h in hs)
    assert all(refl.vertex_refl[refl.vertex_refl[v]] == v
               for v in range(mesh.n_vertices))
    # The reflection is an automorphism of the edge structure but reverses
    # orientation, so it swaps next and prev.
    assert all(refl.r[mesh.opp[h]] == mesh.opp[refl.r[h]] for h in hs)
    assert all(refl.r[mesh.next_he[h]] == helpers.prev(mesh, refl.r[h]) for h in hs)


def test_initial_classification_inventory():
    mesh, refl, _ = fresh()
    axis = paired = 0
    for e in mesh.edges():
        kind, fwd = classify_flip(mesh, refl, e)
        assert fwd is True
        if kind is FlipType.AXIS:
            assert refl.r[e] == mesh.opp[e]
            axis += 1
        else:
            assert kind is FlipType.PAIRED
            paired += 1
    # 6 glued boundary edges, 6 spokes in each sheet.
    assert axis == 6 and paired == 12


def test_face_labels_are_sheet_pure():
    mesh, refl, _ = fresh()
    labels = sorted(face_label(mesh, refl, f) for f in mesh.faces())
    assert labels == [1] * 6 + [2] * 6


def symmetric_states():
    """Fresh hexagon covers: the uniform lengths, then random mirror-symmetric
    lengths of seeds 0 to 3, whose Ptolemy products differ."""
    yield fresh()
    for seed in range(4):
        mesh, refl, cmetric = fresh()
        rng = np.random.default_rng(seed)
        cmetric.lengths = helpers.random_symmetric_lengths(mesh, refl, rng)
        yield mesh, refl, cmetric


def test_paired_flip_acts_on_both_sheets():
    for mesh, refl, cmetric in symmetric_states():
        e = helpers.find_flip_of_kind(mesh, refl, FlipType.PAIRED, True)
        n_edges = mesh.n_edges()
        ptolemy = plan_flip(mesh, e).ptolemy(cmetric.lengths)
        rec = apply_symmetric_flip(mesh, cmetric, refl, e)
        assert rec.kind is FlipType.PAIRED
        assert validate(mesh) == []
        assert validate_symmetry(mesh, refl, cmetric) == []
        assert mesh.n_edges() == n_edges
        # The new edge and its mirror, each flipped on its own, carry the
        # first frame's Ptolemy length bitwise on all four halfedges.
        h, s = rec.edge, refl.r[rec.edge]
        four = (h, mesh.opp[h], s, mesh.opp[s])
        assert [cmetric.lengths[x] for x in four] == [ptolemy] * 4


def test_axis_forward_builds_crossing_edge():
    for mesh, refl, cmetric in symmetric_states():
        e = helpers.find_flip_of_kind(mesh, refl, FlipType.AXIS, True)
        ptolemy = plan_flip(mesh, e).ptolemy(cmetric.lengths)
        rec = apply_symmetric_flip(mesh, cmetric, refl, e)
        assert rec.kind is FlipType.AXIS
        assert validate(mesh) == []
        assert validate_symmetry(mesh, refl, cmetric) == []
        # Two mirror-twin triangles become two self-mirrored (label 0) ones
        # joined along a crossing edge fixed pointwise by the reflection.
        labels = sorted(face_label(mesh, refl, f) for f in mesh.faces())
        assert labels.count(0) == 2
        assert refl.r[rec.edge] == rec.edge
        assert refl.he_label[rec.edge] == 0
        assert len(mesh.quad_pairs) == 0
        assert mesh.n_edges() == 18
        pair = (rec.edge, mesh.opp[rec.edge])
        assert [cmetric.lengths[x] for x in pair] == [ptolemy] * 2


def test_surgery_chain_reaches_every_quad_kind():
    mesh, refl, cmetric, _ = helpers.hexagon_cover()
    recs = helpers.drive_to_quads(mesh, refl, cmetric)  # forward flips, by classify_flip
    assert [r.kind for r in recs] == [
        FlipType.AXIS, FlipType.TRI_QUAD, FlipType.QUAD_QUAD
    ]
    assert validate(mesh) == []
    assert validate_symmetry(mesh, refl, cmetric) == []
    assert len(mesh.quad_pairs) == 2
    degs = sorted(helpers.degree(mesh, f) for f in mesh.faces())
    assert degs.count(4) == 2


def test_validators_catch_quad_bookkeeping_faults():
    # Each case corrupts one quad record of a valid surgery state; the
    # structural or the symmetry validator must report it.
    def delete_record(mesh, refl, cmetric, quad, tri):
        del mesh.quad_pairs[quad]

    def move_record_onto_triangle(mesh, refl, cmetric, quad, tri):
        mesh.quad_pairs[tri] = mesh.quad_pairs.pop(quad)

    def split_diag(mesh, refl, cmetric, quad, tri):
        cmetric.lengths[mesh.quad_pairs[quad][0]] *= 2

    def point_record_at_live_pair(mesh, refl, cmetric, quad, tri):
        h = next(h for h in mesh.edges() if refl.r[h] not in (h, mesh.opp[h]))
        mesh.quad_pairs[quad] = (h, refl.r[h])

    for fault in (delete_record, move_record_onto_triangle, split_diag,
                  point_record_at_live_pair):
        mesh, refl, cmetric, _ = helpers.hexagon_cover()
        helpers.drive_to_quads(mesh, refl, cmetric)
        quad = min(mesh.quad_pairs)
        tri = next(f for f in mesh.faces() if f not in mesh.quad_pairs)
        fault(mesh, refl, cmetric, quad, tri)
        errs = validate(mesh) + validate_symmetry(mesh, refl, cmetric)
        assert errs, fault.__name__


# Each message validate_symmetry can report, as a pattern, with a mutation
# of the quad state of drive_to_quads that makes it report that message.
# A mutation edits the state's lists in place through the namespace that
# test_validate_symmetry_reports_each_fault builds; a field in braces in
# a pattern is filled in from that namespace.
MUTANTS = {}


def mutant(pattern):
    def register(fn):
        MUTANTS[pattern] = fn
        return fn

    return register


@mutant(r"reflection arrays sized for \d+ of \d+ halfedges")
def short_r(s):
    s.r.pop()


@mutant(r"vertex_refl has \d+ entries for \d+ vertices")
def long_vertex_refl(s):
    s.vr.append(0)


@mutant(r"vertex_refl\[\d+\]=\d+ out of range")
def wild_vertex_refl(s):
    s.vr[0] = len(s.vr)


@mutant(r"vertex_refl not involutive at \d+")
def hub_fixed(s):
    s.vr[s.hub] = s.hub


@mutant(r"r\[\d+\]=\d+ out of range")
def wild_r(s):
    s.r[s.a] = len(s.r)


@mutant(r"r not involutive at \d+")
def a_fixed(s):
    s.r[s.a] = s.a


@mutant(r"r pairs parked halfedge \d+ with active \d+")
def parked_with_live(s):
    p, q = s.parked
    s.r[p], s.r[s.a], s.r[q], s.r[s.ra] = s.a, p, s.ra, q


@mutant(r"parked halfedge \d+ is r-fixed")
def parked_fixed(s):
    p, q = s.parked
    s.r[p], s.r[q] = p, q


@mutant(r"he_label\[\d+\]=5 invalid")
def label_5(s):
    s.lab[s.a] = 5


@mutant(r"he_label\[\d+\]=1 inconsistent with r\[\d+\]=\d+")
def fixed_labelled_1(s):
    s.lab[s.fixed] = 1


@mutant(r"mirror of \d+ has label 1, not 2")
def mirror_labelled_1(s):
    s.lab[s.ra] = 1


@mutant(r"r does not commute with opp at \d+")
def mirrors_swapped(s):
    s.r[s.a], s.r[s.rb], s.r[s.b], s.r[s.ra] = s.rb, s.a, s.ra, s.b


@mutant(r"r does not reverse the face walk at \d+")
def edge_mirrors_swapped(s):
    mirrors_swapped(s)
    oa, ob, ora, orb = (s.opp[x] for x in (s.a, s.b, s.ra, s.rb))
    s.r[oa], s.r[orb], s.r[ob], s.r[ora] = orb, oa, ora, ob


@mutant(r"head of r\[\d+\] is not the mirrored tail of \d+")
def hub_and_mirror_fixed(s):
    w = s.vr[s.hub]
    s.vr[s.hub], s.vr[w] = s.hub, w


@mutant(r"copy face \d+ mixes labels \[1, 2\]")
def mirror_labels_swapped(s):
    s.lab[s.a], s.lab[s.ra] = 2, 1


@mutant(r"parked pair of quad \d+ is not a mirror pair")
def parked_pairs_crossed(s):
    (f, (p1, p2)), (g, (p3, p4)) = s.pairs.items()
    s.pairs[f], s.pairs[g] = (p1, p4), (p3, p2)


@mutant("parked halfedges and quad_pairs records disagree")
def record_lost(s):
    del s.pairs[s.quad]


@mutant(r"halfedge lengths of edge \d+ differ")
def halfedge_stretched(s):
    s.L[s.a] *= 2


@mutant(r"mirror edges at \d+ have different lengths")
def edge_stretched(s):
    for x in (s.a, s.opp[s.a]):
        s.L[x] *= 2


@mutant(r"nonpositive length at halfedge \d+")
def orbit_negated(s):
    for x in {s.a, s.opp[s.a], s.ra, s.opp[s.ra]}:
        s.L[x] = -s.L[x]


@mutant("nonpositive length at halfedge {parked[0]}")
def diag_zero(s):
    for x in s.parked:
        s.L[x] = 0.0


@pytest.mark.parametrize(
    "pattern, mutate", [pytest.param(p, f, id=f.__name__) for p, f in MUTANTS.items()]
)
def test_validate_symmetry_reports_each_fault(pattern, mutate):
    # ``a`` and ``b`` are sheet-1 halfedges of two edges that lie between
    # copy faces (faces with no r-fixed side) and whose mirrors are other
    # edges (r[a] is not opp[a]); ``fixed`` is r-fixed, ``hub`` a vertex
    # off the axis and ``parked`` the parked pair of ``quad``.
    mesh, refl, cmetric, _ = helpers.hexagon_cover()
    helpers.drive_to_quads(mesh, refl, cmetric)
    assert validate(mesh) == [] and validate_symmetry(mesh, refl, cmetric) == []
    live = [h for h in range(mesh.n_halfedges()) if mesh.he_face[h] >= 0]

    def copy_face(h):
        return 0 not in [refl.he_label[x] for x in mesh.face_halfedges(mesh.he_face[h])]

    sheet = [
        h for h in live
        if refl.he_label[h] == 1 and refl.r[h] != mesh.opp[h]
        and copy_face(h) and copy_face(mesh.opp[h])
    ]
    a = sheet[0]
    b = next(h for h in sheet if h not in (a, mesh.opp[a]))
    quad = min(mesh.quad_pairs)
    s = SimpleNamespace(
        r=refl.r, lab=refl.he_label, vr=refl.vertex_refl, opp=mesh.opp,
        pairs=mesh.quad_pairs, L=cmetric.lengths,
        a=a, b=b, ra=refl.r[a], rb=refl.r[b], quad=quad, parked=mesh.quad_pairs[quad],
        fixed=next(h for h in live if refl.r[h] == h),
        hub=next(v for v, w in enumerate(refl.vertex_refl) if v != w),
    )
    mutate(s)
    errs = validate_symmetry(mesh, refl, cmetric)
    assert any(re.fullmatch(pattern.format_map(vars(s)), e) for e in errs), errs


def _structure(mesh, refl, cmetric):
    live = [f >= 0 for f in mesh.he_face]
    pick = lambda xs: tuple(x for x, keep in zip(xs, live) if keep)
    return (
        pick(mesh.to), pick(mesh.next_he), pick(mesh.opp),
        pick(refl.r), pick(refl.he_label), tuple(refl.vertex_refl),
        dict(mesh.quad_pairs), tuple(cmetric.lengths),
    )


@pytest.mark.parametrize("depth", [2, 3])
def test_forward_then_reverse_is_slot_exact(depth):
    # AXIS fwd (depth>=1), TRI_QUAD fwd, then optionally QUAD_QUAD fwd;
    # unwinding only the innermost record must restore the state exactly,
    # slot for slot, because the reverse surgeries divide back out the very
    # products the forward ones formed.
    mesh, refl, cmetric, _ = helpers.hexagon_cover()
    recs = helpers.drive_to_quads(mesh, refl, cmetric)[:depth]
    if depth < 3:
        # rebuild a fresh chain of the wanted depth
        mesh, refl, cmetric, _ = helpers.hexagon_cover()
        recs = []
        for want in (FlipType.AXIS, FlipType.TRI_QUAD, FlipType.QUAD_QUAD)[:depth]:
            e = helpers.find_flip_of_kind(mesh, refl, want, True)
            recs.append(apply_symmetric_flip(mesh, cmetric, refl, e))
    before = _structure(mesh, refl, cmetric)
    rec = recs[-1]
    kind, fwd = classify_flip(mesh, refl, rec.edge)
    assert kind is rec.kind and not fwd
    apply_symmetric_flip(mesh, cmetric, refl, rec.edge)
    again = apply_symmetric_flip(
        mesh, cmetric, refl,
        helpers.find_flip_of_kind(mesh, refl, rec.kind, True),
    )
    assert _structure(mesh, refl, cmetric) == before
    assert again.edge == rec.edge


def test_full_unwind_restores_length_multiset():
    # On the hexagon cover's lengths (1 and one stretched edge), and on
    # random symmetric ones, where no two sides of a surgery's frame are
    # equal by accident.
    for seed in (None, 0, 1, 2):
        mesh, refl, cmetric, _ = helpers.hexagon_cover()
        if seed is not None:
            rng = np.random.default_rng(seed)
            cmetric.lengths = helpers.random_symmetric_lengths(mesh, refl, rng)
        snap = helpers.active_lengths(mesh, cmetric)
        recs = helpers.drive_to_quads(mesh, refl, cmetric)
        for rec in reversed(recs):
            kind, fwd = classify_flip(mesh, refl, rec.edge)
            assert kind is rec.kind and not fwd
            apply_symmetric_flip(mesh, cmetric, refl, rec.edge)
            assert validate_symmetry(mesh, refl, cmetric) == []
        back = helpers.active_lengths(mesh, cmetric)
        assert len(back) == len(snap)
        assert max(abs(a - b) for a, b in zip(snap, back)) <= 1e-14, seed


def test_always_delaunay_edges_refuse_to_flip():
    mesh, refl, cmetric, _ = helpers.hexagon_cover()
    helpers.drive_to_quads(mesh, refl, cmetric)
    e = helpers.find_flip_of_kind(mesh, refl, FlipType.ALWAYS_DELAUNAY, True)
    assert e is not None
    with pytest.raises(FlipError):
        apply_symmetric_flip(mesh, cmetric, refl, e)


def test_mixed_sheet_face_label_raises():
    mesh, refl, _ = fresh()
    f = next(f for f in mesh.faces() if face_label(mesh, refl, f) == 1)
    h = mesh.face_halfedges(f)[0]
    refl.he_label[h] = 2
    with pytest.raises(SymmetryError):
        face_label(mesh, refl, f)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 12))
def test_random_symmetric_flip_walks_stay_valid(seed, n_flips):
    rng = np.random.default_rng(seed)
    mesh, refl, cmetric, _ = helpers.hexagon_cover(
        long_edges=((0, 1), (2, 3)), length=1.7
    )
    L = helpers.random_symmetric_lengths(mesh, refl, rng, low=0.9, high=1.2)
    for h, val in enumerate(L):
        if val:
            cmetric.lengths[h] = val
    assert validate_symmetry(mesh, refl, cmetric) == []
    for _ in range(n_flips):
        cand = []
        for e in mesh.edges():
            kind, _fwd = classify_flip(mesh, refl, e)
            if kind is not FlipType.ALWAYS_DELAUNAY:
                cand.append(e)
        e = cand[int(rng.integers(len(cand)))]
        apply_symmetric_flip(mesh, cmetric, refl, e)
        assert validate(mesh) == []
        assert validate_symmetry(mesh, refl, cmetric) == []
        # classification stays total
        for x in mesh.edges():
            classify_flip(mesh, refl, x)


def test_seeded_walks_meet_every_surgery_and_stay_valid():
    # Three stretched boundary edges give walks that reach every surgery
    # kind in both directions: the leg-pair surgeries on triangles and
    # quads included.
    seen = set()
    for seed in range(10):
        rng = np.random.default_rng(seed)
        mesh, refl, cmetric, _ = helpers.hexagon_cover(
            long_edges=((0, 1), (2, 3), (4, 5)), length=1.7
        )
        L = helpers.random_symmetric_lengths(mesh, refl, rng)
        for h, val in enumerate(L):
            if val:
                cmetric.lengths[h] = val
        for _ in range(30):
            moves = [(e, classify_flip(mesh, refl, e)) for e in mesh.edges()]
            moves = [m for m in moves if m[1][0] is not FlipType.ALWAYS_DELAUNAY]
            e, (kind, forward) = moves[int(rng.integers(len(moves)))]
            rec = apply_symmetric_flip(mesh, cmetric, refl, e)
            assert rec.kind is kind
            assert validate(mesh) == []
            assert validate_symmetry(mesh, refl, cmetric) == []
            seen.add((kind, forward))
    assert seen == {
        (FlipType.PAIRED, True),
        (FlipType.AXIS, True), (FlipType.AXIS, False),
        (FlipType.TRI_QUAD, True), (FlipType.TRI_QUAD, False),
        (FlipType.QUAD_QUAD, True), (FlipType.QUAD_QUAD, False),
    }
