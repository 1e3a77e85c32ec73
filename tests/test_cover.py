"""Doubling a bounded mesh, target angles, and the axis restriction."""

import math

import numpy as np
import pytest

import confmetric.solver as solver_mod
from confmetric.cli import main
from confmetric.cover import build_double_cover, restrict_to_single_cover
from confmetric.generate import generate, grid_disk
from confmetric.halfedge import MeshError, PennerMetric, build_from_face_lists, validate
from confmetric.io import ParseError, ProblemFile, bundle_from_solution, gauss_bonnet_deviation
from confmetric.io import read_bundle, write_bundle
from confmetric.metric import MetricError, make_delaunay, scalar_metric, vertex_angle_sums
from confmetric.solver import solve_problem
from confmetric.symmetry import apply_symmetric_flip, validate_symmetry

import helpers


def test_cover_of_single_triangle():
    disk = build_from_face_lists([[0, 1, 2]])
    metric = helpers.uniform_metric(disk)
    cover, cmetric, theta_hat = build_double_cover(disk, metric, [math.pi - 2 * math.pi / 3] * 3)
    m = cover.mesh
    assert validate(m) == []
    assert (m.n_vertices, m.n_edges(), helpers.n_faces(m)) == (3, 3, 2)
    assert helpers.euler_characteristic(m) == 2
    # every edge lies on the axis
    assert all(cover.refl.r[e] == m.opp[e] for e in m.edges())
    assert theta_hat == pytest.approx([2 * math.pi / 3] * 3)
    assert abs(gauss_bonnet_deviation(m, theta_hat)) < 1e-12


def test_cover_of_square_fan():
    disk = helpers.fan_disk(4)
    metric = helpers.uniform_metric(disk)
    cover, _, _ = build_double_cover(disk, metric, [math.pi / 2] * 4 + [2 * math.pi])
    m = cover.mesh
    assert validate(m) == []
    # V = 2*5-4, E = 2*8-4, F = 2*4
    assert (m.n_vertices, m.n_edges(), helpers.n_faces(m)) == (6, 12, 8)
    assert helpers.euler_characteristic(m) == 2
    assert validate_symmetry(m, cover.refl) == []


@pytest.mark.parametrize("k", [3, 5, 8])
def test_cover_count_formula(k):
    disk = helpers.fan_disk(k)
    metric = helpers.uniform_metric(disk)
    v0, e0, f0 = disk.n_vertices, disk.n_edges(), helpers.n_faces(disk)
    cover, _, _ = build_double_cover(disk, metric, [math.pi - 2 * math.pi / k] * k + [2 * math.pi])
    m = cover.mesh
    assert m.n_vertices == 2 * v0 - k
    assert m.n_edges() == 2 * e0 - k
    assert helpers.n_faces(m) == 2 * f0


def test_targets_interior_and_boundary():
    disk = helpers.fan_disk(6)
    metric = helpers.uniform_metric(disk)
    ki = 0.3
    kb = (4 * math.pi - 2 * ki) / 12
    cover, _, th = build_double_cover(disk, metric, [math.pi - kb] * 6 + [2 * math.pi - ki])
    # boundary vertices get twice their angle sum pi - kb, so lose twice
    # their curvature, interior ones keep theirs, and the mirrored interior
    # copy repeats its source
    for v in range(6):
        assert th[v] == pytest.approx(2 * math.pi - 2 * kb, rel=1e-15)
    assert th[6] == pytest.approx(2 * math.pi - ki, rel=1e-15)
    assert th[7] == th[6]
    assert abs(gauss_bonnet_deviation(cover.mesh, th)) < 1e-12


def test_unbalanced_targets_rejected():
    # The hexagon fan disk of helpers.fan_disk(6), as a problem file.
    faces = [[i, (i + 1) % 6, 6] for i in range(6)]
    sides = {tuple(sorted(p)) for f in faces for p in zip(f, f[1:] + f[:1])}
    kappa = [math.pi / 3] * 6 + [0.0]
    kappa[2] += 0.4
    prob = ProblemFile(
        faces,
        edge_lengths={p: 1.0 for p in sides},
        kappa_targets=dict(enumerate(kappa)),
    )
    with pytest.raises(ParseError):
        solve_problem(prob)


def test_an_omitted_boundary_vertex_is_flat_in_either_target_form():
    # A 25-vertex disk whose boundary vertex b passes its curvature on to
    # another, c.  Stated as angle sums without b, b must default to its
    # flat angle sum pi, as it does when left out of the curvatures.
    kprob = generate("disk-random-boundary", 0, 25)
    kappa = kprob.kappa_targets
    flat = [2 * math.pi] * kprob.n_vertices
    for v in kappa:  # the generator states every boundary vertex
        flat[v] = math.pi
    b, c = sorted(kappa)[:2]
    kappa[c] += kappa.pop(b)
    assert -math.pi < kappa[c] < math.pi
    theta = {v: f - kappa.get(v, 0.0) for v, f in enumerate(flat) if v != b}
    tprob = ProblemFile(kprob.faces, positions=kprob.positions, theta_targets=theta)
    *_, ku, kreport = solve_problem(kprob)
    *_, tu, treport = solve_problem(tprob)
    assert kreport.termination == treport.termination == "converged"
    assert np.array_equal(ku, tu, equal_nan=True)


def test_closed_input_rejected():
    mesh = helpers.tetra()
    with pytest.raises(MeshError):
        build_double_cover(mesh, helpers.uniform_metric(mesh), [2 * math.pi] * 4)


def test_flat_grid_cover_needs_no_flips():
    faces, pos = grid_disk(4)
    disk = build_from_face_lists(faces)
    metric = helpers.uniform_metric(disk)
    for e in disk.edges():
        a, b = helpers.edge_endpoints(disk, e)
        metric.lengths[e] = metric.lengths[disk.opp[e]] = math.dist(pos[a], pos[b])
    boundary = {
        disk.to[h] for h in range(disk.n_halfedges()) if helpers.is_boundary_halfedge(disk, h)
    }
    turn = 2 * math.pi / len(boundary)
    theta = [math.pi - turn if v in boundary else 2 * math.pi for v in range(16)]
    cover, cmetric, _ = build_double_cover(disk, metric, theta)
    log = make_delaunay(cover.mesh, cmetric, [0.0] * cover.mesh.n_vertices, refl=cover.refl)
    assert log.total == 0


def test_symmetric_make_delaunay_repairs_and_validates():
    cover, cmetric, _ = helpers.hexagon_cover(long_edges=((0, 1), (3, 4)))
    mesh, refl = cover.mesh, cover.refl
    u = [0.0] * mesh.n_vertices
    log = make_delaunay(mesh, cmetric, u, refl=refl)
    assert log.total >= 2
    assert validate(mesh) == []
    assert validate_symmetry(mesh, refl, cmetric) == []
    holds = scalar_metric(mesh, cmetric, u, refl).holds
    for e in mesh.edges():
        assert holds(e)


def test_quad_measures_agree_across_both_diagonals():
    # axis quads are isosceles trapezoids, hence inscribable: rotating the
    # face cycle while replacing the stored diagonal (the parked pair's
    # length) with its Ptolemy partner d2 = (l0*l2 + l1*l3)/d must not move
    # any angle sum
    cover, cmetric, _ = helpers.hexagon_cover()
    mesh = cover.mesh
    helpers.drive_to_quads(cover, cmetric)
    u = [0.0] * mesh.n_vertices
    before = vertex_angle_sums(mesh, cmetric, u)
    for f in list(mesh.quad_pairs):
        hs = mesh.face_halfedges(f)
        l0, l1, l2, l3 = (cmetric.lengths[h] for h in hs)
        p, q = mesh.quad_pairs[f]
        d = cmetric.lengths[p]
        mesh.rebuild_face(hs[1:] + hs[:1])
        cmetric.lengths[p] = cmetric.lengths[q] = (l0 * l2 + l1 * l3) / d
    assert validate(mesh) == []
    after = vertex_angle_sums(mesh, cmetric, u)
    assert before == pytest.approx(after, abs=1e-10)


def test_restriction_of_fresh_cover_is_the_source_disk():
    cover, cmetric, _ = helpers.hexagon_cover(long_edges=())
    u = [0.0] * cover.mesh.n_vertices
    mesh, metric, u_out = restrict_to_single_cover(cover, cmetric, u)
    assert validate(mesh) == []
    assert (mesh.n_vertices, mesh.n_edges(), helpers.n_faces(mesh)) == (7, 12, 6)
    disk = helpers.fan_disk(6)
    want = sorted(frozenset(helpers.edge_endpoints(disk, e)) for e in disk.edges())
    got = sorted(frozenset(helpers.edge_endpoints(mesh, e)) for e in mesh.edges())
    assert want == got
    assert helpers.active_lengths(mesh, metric) == [1.0] * 24
    assert u_out == [0.0] * 7


def _flipped_hexagon_cover():
    """The hexagon cover after the axis flip of its stretched edge 0-1:
    two axis triangles around a new crossing edge, whose id is returned."""
    cover, cmetric, _ = helpers.hexagon_cover()
    mesh, refl = cover.mesh, cover.refl
    e = next(
        x for x in mesh.edges()
        if refl.r[x] == mesh.opp[x]
        and set(helpers.edge_endpoints(mesh, x)) == {0, 1}
    )
    return cover, cmetric, apply_symmetric_flip(mesh, cmetric, refl, e).edge


def test_restriction_cuts_axis_triangles_at_right_angles():
    cover, cmetric, crossing = _flipped_hexagon_cover()
    mesh = cover.mesh
    b = cmetric.lengths[crossing]
    res_mesh, res_metric, res_u = restrict_to_single_cover(
        cover, cmetric, [0.0] * mesh.n_vertices
    )
    assert validate(res_mesh) == []
    assert res_mesh.n_vertices == 8  # one midpoint added
    m = 7  # midpoints are appended after the source vertices
    assert math.isnan(res_u[m])
    incident = sorted(
        res_metric.lengths[x]
        for x in res_mesh.edges()
        if m in helpers.edge_endpoints(res_mesh, x)
    )
    alt = math.sqrt(1.0 - 0.25 * b * b)
    assert incident == pytest.approx([0.5 * b, alt, alt], rel=1e-14)
    sums = vertex_angle_sums(res_mesh, res_metric, [0.0] * 8)
    assert sums[m] == pytest.approx(math.pi, abs=1e-14)


@pytest.mark.parametrize("seed", [4, 5, 9])  # 2, 1 and 3 axis quads at the end
def test_restriction_cuts_axis_quads_of_a_solved_disk(seed):
    prob = generate("disk-random-boundary", seed, 100)
    cmesh, cscaled, _, _ = solve_problem(prob, keep_double_cover=True)
    assert cmesh.quad_pairs
    mesh, metric, _, _ = solve_problem(prob)
    v0 = prob.n_vertices
    sums = vertex_angle_sums(mesh, metric, [0.0] * mesh.n_vertices)
    for m in range(v0, mesh.n_vertices):
        assert sums[m] == pytest.approx(math.pi, abs=1e-14)
    for v, k in prob.kappa_targets.items():
        assert sums[v] == pytest.approx(math.pi - k, abs=1e-9)
    # an edge between two source vertices is a whole cover edge, cut from
    # the lengths the cover solve returns
    cover_lengths = {}
    for e in cmesh.edges():
        ends = frozenset(helpers.edge_endpoints(cmesh, e))
        cover_lengths.setdefault(ends, set()).add(cscaled.lengths[e])
    whole = [e for e in mesh.edges() if max(helpers.edge_endpoints(mesh, e)) < v0]
    assert whole
    for e in whole:
        assert metric.lengths[e] in cover_lengths[frozenset(helpers.edge_endpoints(mesh, e))]


def _solved_cover(prob, monkeypatch):
    """The cover, scaled metric and u that ``solve_problem`` restricts for
    ``prob``."""
    calls = []

    def recorded(*args):
        calls.append(args)
        return restrict_to_single_cover(*args)

    monkeypatch.setattr(solver_mod, "restrict_to_single_cover", recorded)
    solve_problem(prob)
    [args] = calls
    return args


@pytest.mark.parametrize(
    "seed, size", [(None, None), (4, 100), (5, 100), (9, 100), (0, 1089)],
    ids=["hexagon", "disk4", "disk5", "disk9", "disk0-1089"],
)
def test_restriction_matches_the_reference(seed, size, monkeypatch):
    if seed is None:
        cover, scaled, _ = _flipped_hexagon_cover()
        u = [0.125 * v for v in range(cover.mesh.n_vertices)]
    else:
        prob = generate("disk-random-boundary", seed, size)
        cover, scaled, u = _solved_cover(prob, monkeypatch)
    got = restrict_to_single_cover(cover, scaled, u)
    want = helpers.reference_restrict_to_single_cover(cover, scaled, u)
    for name in ("next_he", "opp", "to", "he_face", "boundary_faces", "n_vertices"):
        assert getattr(got[0], name) == getattr(want[0], name), name
    assert np.array(got[1].lengths).tobytes() == np.array(want[1].lengths).tobytes()
    assert np.array(got[2]).tobytes() == np.array(want[2]).tobytes()
    assert np.isnan(got[2][cover.n_source_vertices:]).all()


def test_axis_face_without_a_real_height_is_named():
    # A crossing side longer than twice the leg leaves the leg no height
    # above the axis.
    cover, cmetric, crossing = _flipped_hexagon_cover()
    mesh, refl = cover.mesh, cover.refl
    f = min(mesh.he_face[crossing], mesh.he_face[mesh.opp[crossing]])
    leg = next(h for h in mesh.face_halfedges(f) if refl.he_label[h] == 1)
    stretched = 2.0 * cmetric.lengths[leg] * 1.01
    cmetric.lengths[crossing] = cmetric.lengths[mesh.opp[crossing]] = stretched
    u = [0.0] * mesh.n_vertices
    for restrict in (restrict_to_single_cover, helpers.reference_restrict_to_single_cover):
        with pytest.raises(MetricError, match=f"^axis face {f} has no real height$"):
            restrict(cover, cmetric, u)


# Annulus seed 2 converges in 5 steps with 8 tri-quad surgeries, and its
# cover ends with 2 axis quads: quads on a surface that is not a disk.


def test_annulus_kept_cover_bundle_rebuilds_with_its_diagonals(tmp_path):
    mesh, scaled, u, report = solve_problem(helpers.annulus(2), keep_double_cover=True)
    assert len(mesh.quad_pairs) == 2
    path = str(tmp_path / "annulus.result")
    write_bundle(bundle_from_solution(mesh, scaled, u, report, 0), path)
    bundle = read_bundle(path)
    assert len(bundle.quad_diags) == 2
    rebuilt, he_eid = bundle.rebuild_mesh()
    lengths = bundle.edge_lengths + list(bundle.quad_diags.values())
    zero = [0.0] * mesh.n_vertices
    got = vertex_angle_sums(rebuilt, PennerMetric([lengths[e] for e in he_eid]), zero)
    assert np.max(np.abs(got - vertex_angle_sums(mesh, scaled, zero))) <= 1e-12


def test_a_bundle_with_an_el_line_no_fe_row_uses_is_rejected(tmp_path, capsys):
    # An extra el line would give the first parked pair its length instead
    # of the quad's qd diagonal; an fe id past ne would name no length.
    mesh, scaled, u, report = solve_problem(helpers.annulus(2), keep_double_cover=True)
    path = str(tmp_path / "annulus.result")
    write_bundle(bundle_from_solution(mesh, scaled, u, report, 0), path)
    lines = open(path).read().splitlines(keepends=True)
    ne = next(i for i, x in enumerate(lines) if x.startswith("ne "))
    n = int(lines[ne].split()[1])
    fe = next(i for i, x in enumerate(lines) if x.startswith("fe "))
    last_el = lines[ne + n] + "el 1.0 0x1p+0\n"
    past_ne = " ".join(["fe", str(n + 1), *lines[fe].split()[2:]]) + "\n"
    edits = {  # a closed cover uses each edge id twice
        f"edge id {n + 1} is in no fe row (ne {n + 1})": {ne: f"ne {n + 1}\n", ne + n: last_el},
        f"edge id {n + 1} is outside 1..ne (ne {n})": {fe: past_ne},
    }
    for message, edit in edits.items():
        bad = str(tmp_path / "bad.result")
        open(bad, "w").write("".join(edit.get(i, x) for i, x in enumerate(lines)))
        with pytest.raises(ParseError) as exc:
            read_bundle(bad)
        assert str(exc.value) == f"{bad}: {message}"
        capsys.readouterr()
        assert main(["report", bad]) == 2
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"


def test_annulus_cover_ends_symmetric_with_its_quads(monkeypatch):
    cover, scaled, _ = _solved_cover(helpers.annulus(2), monkeypatch)
    assert cover.mesh.quad_pairs
    assert validate_symmetry(cover.mesh, cover.refl, scaled) == []


def test_annulus_restricted_boundary_angles_are_pi_minus_kappa():
    prob = helpers.annulus(2)
    mesh, metric, _, report = solve_problem(prob)
    assert report.converged
    sums = vertex_angle_sums(mesh, metric, [0.0] * mesh.n_vertices)
    for v, k in prob.kappa_targets.items():
        assert sums[v] == pytest.approx(math.pi - k, abs=1e-9)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_holed_torus_cover_stays_symmetric_and_closes_the_boundary(seed, monkeypatch):
    # A torus less one cell has chi = -1 and one boundary loop, so its
    # double cover is a closed surface of genus 2.  Each seed converges in
    # 4 or 5 steps with no flip.
    prob = helpers.holed_torus(seed)
    cover, scaled, _ = _solved_cover(prob, monkeypatch)
    assert helpers.euler_characteristic(cover.mesh) == -2
    assert validate_symmetry(cover.mesh, cover.refl, scaled) == []
    mesh, metric, _, report = solve_problem(prob)
    assert report.converged and all(rec.symmetry_ok for rec in report.steps)
    sums = helpers.mp_angle_sums(mesh, metric.lengths)
    for v, k in prob.kappa_targets.items():
        assert abs(sums[v] - (math.pi - k)) <= 1e-9, (v, sums[v], k)
