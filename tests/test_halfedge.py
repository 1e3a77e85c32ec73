"""Connectivity kernel: builders, validation, plain flips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confmetric.halfedge import (
    FlipError,
    MeshError,
    apply_flip,
    build_from_face_edge_lists,
    build_from_face_lists,
    plan_flip,
    validate,
)
from confmetric.metric import PennerMetric, flip_edge

import helpers


def test_tetrahedron_validates():
    mesh = helpers.tetra()
    assert validate(mesh) == []
    assert mesh.n_halfedges() == 12
    assert helpers.n_faces(mesh) == 4
    assert helpers.euler_characteristic(mesh) == 2


def test_opposite_fixed_point_is_reported():
    mesh = helpers.tetra()
    mesh.opp[3] = 3
    diags = validate(mesh)
    assert any("opp" in d and "3" in d for d in diags)


def test_single_triangle_has_boundary_loop():
    mesh = build_from_face_lists([[0, 1, 2]])
    assert validate(mesh) == []
    assert helpers.n_faces(mesh) == 1
    assert len(mesh.boundary_faces) == 1
    bf = next(iter(mesh.boundary_faces))
    assert mesh.degree(bf) == 3
    assert mesh.n_edges() == 3


def test_two_triangles_share_an_edge():
    mesh = build_from_face_lists([[0, 1, 2], [0, 2, 3]])
    assert validate(mesh) == []
    assert helpers.n_faces(mesh) == 2
    assert mesh.n_edges() == 5
    assert len(mesh.boundary_faces) == 1
    assert mesh.degree(next(iter(mesh.boundary_faces))) == 4


def test_two_triangle_sphere():
    mesh = build_from_face_lists([[0, 1, 2], [2, 1, 0]])
    assert validate(mesh) == []
    assert not mesh.boundary_faces
    assert helpers.euler_characteristic(mesh) == 2
    assert mesh.n_edges() == 3


def _cover_with_quads():
    cover, cmetric, _ = helpers.hexagon_cover()
    helpers.drive_to_quads(cover, cmetric)
    assert cover.mesh.quad_pairs
    return cover.mesh


@pytest.mark.parametrize(
    "make",
    [helpers.octa, lambda: helpers.fan_disk(6), lambda: helpers.hexagon_cover()[0].mesh,
     _cover_with_quads],
    ids=["closed", "bounded", "cover", "cover-with-quads"],
)
def test_edge_count_matches_the_edge_list(make):
    mesh = make()
    assert mesh.n_edges() == len(mesh.edges())


def test_double_cover_of_triangle_counts():
    # Same surface as the two-face sphere: 6 halfedges, 3 edges, 2 faces.
    mesh = build_from_face_lists([[0, 1, 2], [2, 1, 0]])
    assert mesh.n_halfedges() == 6
    assert (mesh.n_vertices, mesh.n_edges(), helpers.n_faces(mesh)) == (3, 3, 2)


@pytest.mark.parametrize(
    "faces, match",
    [
        ([[0, 1, 1]], "repeats a vertex"),
        ([[0, 1]], "fewer than 3 vertices"),
        ([[0, 1, 2], [0, 1, 3]], "inconsistent orientation"),
        ([[0, 1, 2], [0, 1, 2]], "inconsistent orientation"),
        ([[0, 1, 2], [0, 1, 3], [1, 0, 4]], "used 3 times"),
    ],
    ids=[
        "repeated_vertex",
        "two_vertex_face",
        "inconsistent_orientation",
        "duplicate_face",
        "nonmanifold_edge",
    ],
)
def test_face_list_builder_rejects(faces, match):
    with pytest.raises(MeshError, match=match):
        build_from_face_lists(faces)


def test_flip_square_diagonal():
    mesh = build_from_face_lists([[0, 1, 2], [0, 2, 3]])
    diag = next(e for e in mesh.edges() if set(mesh.edge_endpoints(e)) == {0, 2})
    apply_flip(mesh, plan_flip(mesh, diag))
    assert validate(mesh) == []
    pairs = {frozenset(mesh.edge_endpoints(e)) for e in mesh.edges()}
    assert frozenset({1, 3}) in pairs and frozenset({0, 2}) not in pairs


def test_tetra_flip_creates_double_edge_but_validates():
    mesh = helpers.tetra()
    e = next(iter(mesh.edges()))
    apply_flip(mesh, plan_flip(mesh, e))
    assert validate(mesh) == []
    # The flip replaces {a,b} with the second copy of the opposite pair.
    other = [frozenset(mesh.edge_endpoints(x)) for x in mesh.edges()]
    assert len(other) == 6 and len(set(other)) == 5


def test_flip_twice_restores_connectivity():
    mesh = helpers.tetra()
    before = sorted(frozenset(mesh.edge_endpoints(e)) for e in mesh.edges())
    e = next(iter(mesh.edges()))
    rec = plan_flip(mesh, e)
    apply_flip(mesh, rec)
    apply_flip(mesh, plan_flip(mesh, rec.h0))
    after = sorted(frozenset(mesh.edge_endpoints(e)) for e in mesh.edges())
    assert validate(mesh) == []
    assert before == after


def test_boundary_edge_not_flippable():
    mesh = build_from_face_lists([[0, 1, 2]])
    for e in mesh.edges():
        with pytest.raises(FlipError):
            plan_flip(mesh, e)


def test_flip_to_self_loop_and_self_adjacency():
    # Flipping an edge of the two-face sphere yields a loop edge at the
    # third vertex.  The loop edge keeps two distinct faces and stays
    # flippable; the other two edges become self-adjacent (both sides in
    # one face) and must be refused.
    mesh = build_from_face_lists([[0, 1, 2], [2, 1, 0]])
    e = next(x for x in mesh.edges() if set(mesh.edge_endpoints(x)) == {0, 1})
    apply_flip(mesh, plan_flip(mesh, e))
    assert validate(mesh) == []
    loops = [x for x in mesh.edges() if len(set(mesh.edge_endpoints(x))) == 1]
    assert len(loops) == 1
    plan_flip(mesh, loops[0])
    for x in mesh.edges():
        if x == loops[0]:
            continue
        with pytest.raises(FlipError):
            plan_flip(mesh, x)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_euler_characteristic_invariant_under_flips(seed):
    import numpy as np

    rng = np.random.default_rng(seed)
    mesh, metric = helpers.shuffled_closed_mesh(rng, level=0, flips=15)
    assert validate(mesh) == []
    assert helpers.euler_characteristic(mesh) == 2
    assert mesh.n_edges() == 30 and helpers.n_faces(mesh) == 20


def test_face_edge_round_trip():
    mesh = helpers.octa()
    eid = {e: i for i, e in enumerate(sorted(mesh.edges()))}
    faces_v, faces_e = [], []
    for f in sorted(mesh.faces()):
        hs = mesh.face_halfedges(f)
        faces_v.append([mesh.tail_of(h) for h in hs])
        faces_e.append([eid[mesh.edge_of(h)] for h in hs])
    rebuilt, he_eid = build_from_face_edge_lists(faces_v, faces_e)
    assert validate(rebuilt) == []
    assert rebuilt.n_vertices == 6
    assert rebuilt.n_edges() == 12
    want = {(frozenset(mesh.edge_endpoints(e)), i) for e, i in eid.items()}
    got = {
        (frozenset(rebuilt.edge_endpoints(e)), he_eid[e]) for e in rebuilt.edges()
    }
    assert want == got


def test_face_edge_builder_supports_multi_edges():
    # Two vertices joined by three edges bounding two bigon-free faces:
    # the double-edge tetra state, rebuilt from explicit edge ids.
    mesh = helpers.tetra()
    metric = PennerMetric.uniform(mesh)
    flip_edge(mesh, metric, next(iter(mesh.edges())))
    eid = {e: i for i, e in enumerate(sorted(mesh.edges()))}
    faces_v = []
    faces_e = []
    for f in sorted(mesh.faces()):
        hs = mesh.face_halfedges(f)
        faces_v.append([mesh.tail_of(h) for h in hs])
        faces_e.append([eid[mesh.edge_of(h)] for h in hs])
    rebuilt, he_eid = build_from_face_edge_lists(faces_v, faces_e)
    assert validate(rebuilt) == []
    assert rebuilt.n_edges() == mesh.n_edges()
