"""Reflection bookkeeping and the symmetric surgery zoo."""

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
    cover, cmetric, _ = helpers.hexagon_cover()
    return cover.mesh, cover.refl, cmetric


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


def test_paired_flip_acts_on_both_sheets():
    mesh, refl, cmetric = fresh()
    e = helpers.find_flip_of_kind(mesh, refl, FlipType.PAIRED, True)
    n_edges = mesh.n_edges()
    ptolemy = plan_flip(mesh, e).ptolemy(cmetric.lengths)
    rec = apply_symmetric_flip(mesh, cmetric, refl, e)
    assert rec.kind is FlipType.PAIRED
    assert validate(mesh) == []
    assert validate_symmetry(mesh, refl, cmetric) == []
    assert mesh.n_edges() == n_edges
    # The new edge and its mirror carry the same length bitwise.
    assert cmetric.lengths[rec.edge] == cmetric.lengths[refl.r[rec.edge]]
    assert cmetric.lengths[rec.edge] == ptolemy


def test_axis_forward_builds_crossing_edge():
    mesh, refl, cmetric = fresh()
    e = helpers.find_flip_of_kind(mesh, refl, FlipType.AXIS, True)
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


def test_surgery_chain_reaches_every_quad_kind():
    cover, cmetric, _ = helpers.hexagon_cover()
    mesh, refl = cover.mesh, cover.refl
    recs = helpers.drive_to_quads(cover, cmetric)  # forward flips, by classify_flip
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

    def delete_diag(mesh, refl, cmetric, quad, tri):
        del cmetric.quad_diag[quad]

    def point_record_at_live_pair(mesh, refl, cmetric, quad, tri):
        h = next(h for h in mesh.edges() if refl.r[h] not in (h, mesh.opp[h]))
        mesh.quad_pairs[quad] = (h, refl.r[h])

    for fault in (delete_record, move_record_onto_triangle, delete_diag,
                  point_record_at_live_pair):
        cover, cmetric, _ = helpers.hexagon_cover()
        mesh, refl = cover.mesh, cover.refl
        helpers.drive_to_quads(cover, cmetric)
        quad = min(mesh.quad_pairs)
        tri = next(f for f in mesh.faces() if f not in mesh.quad_pairs)
        fault(mesh, refl, cmetric, quad, tri)
        errs = validate(mesh) + validate_symmetry(mesh, refl, cmetric)
        assert errs, fault.__name__


def _structure(mesh, refl, cmetric):
    live = [f >= 0 for f in mesh.he_face]
    pick = lambda xs: tuple(x for x, keep in zip(xs, live) if keep)
    return (
        pick(mesh.to), pick(mesh.next_he), pick(mesh.opp),
        pick(refl.r), pick(refl.he_label), tuple(refl.vertex_refl),
        dict(mesh.quad_pairs), pick(cmetric.lengths),
        dict(cmetric.quad_diag),
    )


@pytest.mark.parametrize("depth", [2, 3])
def test_forward_then_reverse_is_slot_exact(depth):
    # AXIS fwd (depth>=1), TRI_QUAD fwd, then optionally QUAD_QUAD fwd;
    # unwinding only the innermost record must restore the state exactly,
    # slot for slot, because the reverse surgeries divide back out the very
    # products the forward ones formed.
    cover, cmetric, _ = helpers.hexagon_cover()
    mesh, refl = cover.mesh, cover.refl
    recs = helpers.drive_to_quads(cover, cmetric)[:depth]
    if depth < 3:
        # rebuild a fresh chain of the wanted depth
        cover, cmetric, _ = helpers.hexagon_cover()
        mesh, refl = cover.mesh, cover.refl
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
    cover, cmetric, _ = helpers.hexagon_cover()
    mesh, refl = cover.mesh, cover.refl
    snap = helpers.active_lengths(mesh, cmetric)
    recs = helpers.drive_to_quads(cover, cmetric)
    for rec in reversed(recs):
        kind, fwd = classify_flip(mesh, refl, rec.edge)
        assert kind is rec.kind and not fwd
        apply_symmetric_flip(mesh, cmetric, refl, rec.edge)
        assert validate_symmetry(mesh, refl, cmetric) == []
    back = helpers.active_lengths(mesh, cmetric)
    assert len(back) == len(snap)
    assert max(abs(a - b) for a, b in zip(snap, back)) <= 1e-14


def test_always_delaunay_edges_refuse_to_flip():
    cover, cmetric, _ = helpers.hexagon_cover()
    mesh, refl = cover.mesh, cover.refl
    helpers.drive_to_quads(cover, cmetric)
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
    cover, cmetric, _ = helpers.hexagon_cover(
        long_edges=((0, 1), (2, 3)), length=1.7
    )
    mesh, refl = cover.mesh, cover.refl
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
        cover, cmetric, _ = helpers.hexagon_cover(
            long_edges=((0, 1), (2, 3), (4, 5)), length=1.7
        )
        mesh, refl = cover.mesh, cover.refl
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
