"""Connectivity kernel: builders, validation, plain flips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import confmetric.cover as cover_mod
from confmetric.cli import main
from confmetric.generate import generate
from confmetric.halfedge import (
    FlipError,
    MeshError,
    apply_flip,
    build_from_face_edge_lists,
    build_from_face_lists,
    plan_flip,
    validate,
)
from confmetric.io import read_bundle, write_problem_files
from confmetric.metric import flip_edge
from confmetric.solver import solve_problem

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
    assert helpers.degree(mesh, bf) == 3
    assert mesh.n_edges() == 3


def test_two_triangles_share_an_edge():
    mesh = build_from_face_lists([[0, 1, 2], [0, 2, 3]])
    assert validate(mesh) == []
    assert helpers.n_faces(mesh) == 2
    assert mesh.n_edges() == 5
    assert len(mesh.boundary_faces) == 1
    assert helpers.degree(mesh, next(iter(mesh.boundary_faces))) == 4


def test_two_triangle_sphere():
    mesh = build_from_face_lists([[0, 1, 2], [2, 1, 0]])
    assert validate(mesh) == []
    assert not mesh.boundary_faces
    assert helpers.euler_characteristic(mesh) == 2
    assert mesh.n_edges() == 3


def _cover_with_quads():
    mesh, refl, cmetric, _ = helpers.hexagon_cover()
    helpers.drive_to_quads(mesh, refl, cmetric)
    assert mesh.quad_pairs
    return mesh


@pytest.mark.parametrize(
    "make",
    [helpers.octa, lambda: helpers.fan_disk(6), lambda: helpers.hexagon_cover()[0],
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


@pytest.mark.parametrize(
    "faces, face_edges, message",
    [
        ([[0, 1, 2], [0, 1, 3], [1, 0, 4]], [[7, 1, 2], [7, 3, 4], [7, 5, 6]],
         "edge (0-1) used 3 times"),
        ([[0, 1, 2], [0, 1, 3]], [[7, 1, 2], [7, 3, 4]],
         "edge used with inconsistent orientation (0->1 vs 0->1)"),
    ],
)
def test_face_edge_builder_names_a_misused_edge_by_its_vertex_pair(faces, face_edges, message):
    # Edge ids are internal labels (a bundle's are 1-based, these 0-based),
    # so the message names the vertices and no id.
    with pytest.raises(MeshError) as err:
        build_from_face_edge_lists(faces, face_edges)
    assert str(err.value) == message


TWO_TETRAHEDRA = [[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2],
                  [0, 5, 4], [0, 4, 6], [4, 5, 6], [0, 6, 5]]


@pytest.mark.parametrize(
    "faces",
    [
        [[0, 1, 2], [0, 3, 4]],
        TWO_TETRAHEDRA,
        TWO_TETRAHEDRA[:4] + [[0, 4, 5]],
    ],
    ids=["bowtie", "two_tetrahedra", "tetrahedron_and_triangle"],
)
def test_builders_reject_a_vertex_with_more_than_one_umbrella(faces):
    # Two open fans (two boundary gaps enter vertex 0), two closed ones,
    # and one of each: the builder or validate names the vertex.
    with pytest.raises(MeshError, match="vertex 0 has more than one umbrella"):
        build_from_face_lists(faces)
    pairs = [sorted((f[i], f[(i + 1) % 3])) for f in faces for i in range(3)]
    ids = [10 * a + b for a, b in pairs]
    face_edges = [ids[i:i + 3] for i in range(0, len(ids), 3)]
    with pytest.raises(MeshError, match="vertex 0 has more than one umbrella"):
        build_from_face_edge_lists(faces, face_edges)


def test_annulus_closes_both_boundary_loops_as_the_reference():
    faces = helpers.annulus(0, rings=2, around=5).faces
    mesh = build_from_face_lists(faces)
    assert len(mesh.boundary_faces) == 2
    _assert_same_mesh(mesh, helpers.reference_build_from_face_lists(faces))


def test_flip_square_diagonal():
    mesh = build_from_face_lists([[0, 1, 2], [0, 2, 3]])
    diag = next(e for e in mesh.edges() if set(helpers.edge_endpoints(mesh, e)) == {0, 2})
    apply_flip(mesh, plan_flip(mesh, diag))
    assert validate(mesh) == []
    pairs = {frozenset(helpers.edge_endpoints(mesh, e)) for e in mesh.edges()}
    assert frozenset({1, 3}) in pairs and frozenset({0, 2}) not in pairs


def test_tetra_flip_creates_double_edge_but_validates():
    mesh = helpers.tetra()
    e = next(iter(mesh.edges()))
    apply_flip(mesh, plan_flip(mesh, e))
    assert validate(mesh) == []
    # The flip replaces {a,b} with the second copy of the opposite pair.
    other = [frozenset(helpers.edge_endpoints(mesh, x)) for x in mesh.edges()]
    assert len(other) == 6 and len(set(other)) == 5


def test_flip_twice_restores_connectivity():
    mesh = helpers.tetra()
    before = sorted(frozenset(helpers.edge_endpoints(mesh, e)) for e in mesh.edges())
    e = next(iter(mesh.edges()))
    rec = plan_flip(mesh, e)
    apply_flip(mesh, rec)
    apply_flip(mesh, plan_flip(mesh, rec.h0))
    after = sorted(frozenset(helpers.edge_endpoints(mesh, e)) for e in mesh.edges())
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
    e = next(x for x in mesh.edges() if set(helpers.edge_endpoints(mesh, x)) == {0, 1})
    apply_flip(mesh, plan_flip(mesh, e))
    assert validate(mesh) == []
    loops = [x for x in mesh.edges() if len(set(helpers.edge_endpoints(mesh, x))) == 1]
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
    want = {(frozenset(helpers.edge_endpoints(mesh, e)), i) for e, i in eid.items()}
    got = {
        (frozenset(helpers.edge_endpoints(rebuilt, e)), he_eid[e]) for e in rebuilt.edges()
    }
    assert want == got


def test_face_edge_builder_supports_multi_edges():
    # Two vertices joined by three edges bounding two bigon-free faces:
    # the double-edge tetra state, rebuilt from explicit edge ids.
    mesh = helpers.tetra()
    metric = helpers.uniform_metric(mesh)
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


# -- the numpy builder and validate against the scalar reference ---------------

MESH_FIELDS = ("next_he", "opp", "to", "he_face", "boundary_faces", "quad_pairs", "n_vertices")


def _assert_same_mesh(got, want):
    for name in MESH_FIELDS:
        assert getattr(got, name) == getattr(want, name), name


def _relabelled_faces(kind, size, seed):
    """A generated instance's faces with the vertices relabelled, the rows
    shuffled and each row's cycle rotated."""
    faces = generate(kind, 0, size).faces
    rng = np.random.default_rng(seed)
    perm = rng.permutation(1 + max(max(f) for f in faces)).tolist()
    faces = [[perm[v] for v in f] for f in faces]
    turns = rng.integers(0, 3, len(faces)).tolist()
    return [faces[i][t:] + faces[i][:t] for i, t in zip(rng.permutation(len(faces)), turns)]


def _small_disk():
    # Disk 0 of size 60: its solved cover keeps a quad.
    return generate("disk-random-boundary", 0, 60)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize(
    "kind, size", [("sphere-random-angles", 162), ("disk-random-boundary", 120)]
)
def test_builders_number_as_the_reference_on_relabelled_meshes(kind, size, seed):
    faces = _relabelled_faces(kind, size, seed)
    mesh = build_from_face_lists(faces)
    _assert_same_mesh(mesh, helpers.reference_build_from_face_lists(faces))
    # The same rows with edge ids in a random order, so the ids' first uses
    # do not ascend: outer halfedges follow first use, not id value.
    rng = np.random.default_rng(seed)
    ids = rng.permutation(len(mesh.opp)).tolist()
    face_edges = [
        [ids[mesh.edge_of(h)] for h in mesh.face_halfedges(f)] for f in sorted(mesh.faces())
    ]
    got = build_from_face_edge_lists(faces, face_edges)
    want = helpers.reference_build_from_face_edge_lists(faces, face_edges)
    _assert_same_mesh(got[0], want[0])
    assert got[1] == want[1]


def test_restricted_disk_builds_as_the_reference(tmp_path, monkeypatch):
    calls = []

    def recorded(faces, face_edges, n_vertices=None, quad_rows=()):
        got = build_from_face_edge_lists(faces, face_edges, n_vertices, quad_rows)
        calls.append((faces, face_edges, n_vertices, got))
        return got

    monkeypatch.setattr(cover_mod, "build_from_face_edge_lists", recorded)
    rmesh, _, _, _ = solve_problem(_small_disk())
    [(faces, face_edges, n_vertices, (mesh, he_eid))] = calls
    assert mesh is rmesh
    want = helpers.reference_build_from_face_edge_lists(
        np.asarray(faces).tolist(), np.asarray(face_edges).tolist(), n_vertices
    )
    _assert_same_mesh(mesh, want[0])
    assert he_eid == want[1]


def test_kept_cover_bundle_with_a_quad_rebuilds_as_the_reference(tmp_path):
    path, out = str(tmp_path / "disk.mesh"), str(tmp_path / "cover.result")
    write_problem_files(_small_disk(), path)
    assert main(["solve", path, "--keep-double-cover", "--out", out]) == 0
    bundle = read_bundle(out)
    assert bundle.quad_diags
    got = bundle.rebuild_mesh()
    want = helpers.reference_build_from_face_edge_lists(
        bundle.faces_v, bundle.faces_e, len(bundle.u), quad_rows=bundle.quad_diags
    )
    _assert_same_mesh(got[0], want[0])
    assert got[1] == want[1]


def _cover_with_quad():
    mesh, _, _, _ = solve_problem(_small_disk(), keep_double_cover=True)
    assert mesh.quad_pairs
    return mesh


def _two_faces(mesh):
    return sorted(f for f in mesh.faces() if f not in mesh.quad_pairs)[:2]


def _opp_fixed_point(mesh):
    mesh.opp[3] = 3


def _next_not_a_bijection(mesh):
    mesh.next_he[0] = mesh.next_he[1]


def _chaining_broken(mesh):
    f = _two_faces(mesh)[0]
    mesh.to[f] = (mesh.to[f] + 1) % mesh.n_vertices


def _wrong_degree(mesh):
    # Exchanging the successors of two faces' first halfedges merges the
    # triangles into one hexagon.
    a, b = _two_faces(mesh)
    nxt = mesh.next_he
    nxt[a], nxt[b] = nxt[b], nxt[a]


def _wrong_he_face(mesh):
    a, b = _two_faces(mesh)
    mesh.he_face[mesh.next_he[a]] = b


def _quad_record_on_a_triangle(mesh):
    quad = min(mesh.quad_pairs)
    mesh.quad_pairs[_two_faces(mesh)[0]] = mesh.quad_pairs.pop(quad)


def _pinched(mesh):
    # Relabel a vertex w with the label of a vertex v that shares no edge
    # with it: v then has the umbrellas of both.
    v = mesh.to[_two_faces(mesh)[0]]
    heads = [x for x in mesh.to if x >= 0]
    near = {v} | {mesh.to[h] for h in range(len(mesh.to)) if mesh.tail_of(h) == v}
    w = next(x for x in heads if x not in near)
    mesh.to = [v if x == w else x for x in mesh.to]


def _quad_record_of_live_halfedges(mesh):
    f = _two_faces(mesh)[0]
    mesh.quad_pairs[min(mesh.quad_pairs)] = (f, mesh.opp[f])


MESHES = {
    "closed": helpers.octa, "bounded": lambda: helpers.fan_disk(6), "cover": _cover_with_quad,
}


@pytest.mark.parametrize(
    "make, mutate",
    [(make, mutate) for make in MESHES
     for mutate in (None, _opp_fixed_point, _next_not_a_bijection, _chaining_broken,
                    _wrong_degree, _wrong_he_face, _pinched)]
    + [("cover", _quad_record_on_a_triangle), ("cover", _quad_record_of_live_halfedges)],
)
def test_validate_reports_what_the_reference_reports(make, mutate):
    mesh = MESHES[make]()
    if mutate is not None:
        mutate(mesh)
    got, want = validate(mesh), helpers.reference_validate(mesh)
    assert (got == []) == (mutate is None)
    assert sorted(got) == sorted(want)
