"""Scaled lengths, angles, the Delaunay predicate, Ptolemy flips."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import confmetric.metric as metric_mod
from confmetric.halfedge import build_from_face_lists
from confmetric.metric import (
    FlipBudgetError,
    MetricError,
    _scan_violations_vectorized,
    flip_edge,
    gradient,
    hessian,
    make_delaunay,
    scalar_metric,
    vertex_angle_sums,
)

import helpers


def square_with_diagonal(diag=math.sqrt(2.0)):
    mesh = build_from_face_lists([[0, 1, 2], [0, 2, 3]])
    metric = helpers.uniform_metric(mesh)
    helpers.set_length(mesh, metric, 0, 2, diag)
    e = next(x for x in mesh.edges() if set(helpers.edge_endpoints(mesh, x)) == {0, 2})
    return mesh, metric, e


# -- conformal scaling ---------------------------------------------------


def test_scaled_length_identity_at_zero():
    mesh = build_from_face_lists([[0, 1, 2]])
    metric = helpers.uniform_metric(mesh, 1.7)
    for h in range(mesh.n_halfedges()):
        if not helpers.is_boundary_halfedge(mesh, h):
            assert scalar_metric(mesh, metric, [0.0, 0.0, 0.0]).length(h) == 1.7


def test_scaled_length_uses_average_of_endpoint_factors():
    mesh = build_from_face_lists([[0, 1, 2]])
    metric = helpers.uniform_metric(mesh, 2.0)
    h = next(
        x for x in range(mesh.n_halfedges())
        if not helpers.is_boundary_halfedge(mesh, x)
        and {mesh.tail_of(x), mesh.to[x]} == {0, 1}
    )
    assert scalar_metric(mesh, metric, [math.log(4.0), 0.0, 0.0]).length(h) == pytest.approx(
        4.0, rel=1e-15
    )
    # opposite shifts cancel
    assert scalar_metric(mesh, metric, [0.2, -0.2, 0.0]).length(h) == pytest.approx(
        2.0, rel=1e-15
    )


# -- corner angles --------------------------------------------------------


def test_corner_angle_basics():
    assert helpers.corner_angle(1.0, 1.0, 1.0) == pytest.approx(math.pi / 3, rel=1e-15)
    assert helpers.corner_angle(5.0, 3.0, 4.0) == pytest.approx(math.pi / 2, rel=1e-15)
    assert helpers.corner_angle(3.0, 4.0, 5.0) == pytest.approx(math.asin(3.0 / 5.0))


def test_corner_angle_clamps_instead_of_raising():
    assert helpers.corner_angle(2.5, 1.0, 1.0) == math.pi
    assert helpers.corner_angle(0.0, 1.0, 1.0) == 0.0


def test_vertex_angle_sums_on_platonic_meshes():
    tetra = helpers.tetra()
    sums = vertex_angle_sums(tetra, helpers.uniform_metric(tetra), [0.0] * 4)
    assert sums == pytest.approx([math.pi] * 4, rel=1e-14)
    octa = helpers.octa()
    sums = vertex_angle_sums(octa, helpers.uniform_metric(octa), [0.0] * 6)
    assert sums == pytest.approx([4 * math.pi / 3] * 6, rel=1e-14)


def reference_angle_sums(mesh, metric, u):
    """Per-face loop over corner_angle, the kernel's independent reference."""
    theta = [0.0] * mesh.n_vertices
    length = scalar_metric(mesh, metric, u).length
    for f in mesh.faces():
        hs = mesh.face_halfedges(f)
        ls = [length(h) for h in hs]
        vs = [mesh.to[h] for h in hs]
        if len(hs) == 3:
            a, b, c = ls
            theta[vs[0]] += helpers.corner_angle(c, a, b)
            theta[vs[1]] += helpers.corner_angle(a, b, c)
            theta[vs[2]] += helpers.corner_angle(b, c, a)
        else:
            l0, l1, l2, l3 = ls
            v0, v1, v2, v3 = vs
            d = metric.lengths[mesh.quad_pairs[f][0]] * math.exp(0.5 * (u[v1] + u[v3]))
            theta[v3] += helpers.corner_angle(l1, l0, d)
            theta[v0] += helpers.corner_angle(d, l0, l1)
            theta[v1] += helpers.corner_angle(l0, l1, d)
            theta[v1] += helpers.corner_angle(l3, l2, d)
            theta[v2] += helpers.corner_angle(d, l2, l3)
            theta[v3] += helpers.corner_angle(l2, l3, d)
    return theta


def test_angle_sums_match_per_face_reference():
    rng = np.random.default_rng(12)
    mesh, metric = helpers.shuffled_closed_mesh(rng, level=1, flips=20)
    u = rng.normal(0.0, 0.3, mesh.n_vertices)
    want = reference_angle_sums(mesh, metric, u)
    assert vertex_angle_sums(mesh, metric, u) == pytest.approx(want, rel=1e-14, abs=1e-14)
    cover, cmetric, _ = helpers.hexagon_cover()
    helpers.drive_to_quads(cover, cmetric)
    u = rng.normal(0.0, 0.3, cover.mesh.n_vertices)
    want = reference_angle_sums(cover.mesh, cmetric, u)
    assert vertex_angle_sums(cover.mesh, cmetric, u) == pytest.approx(want, rel=1e-14, abs=1e-14)


def test_needle_angles_keep_relative_accuracy():
    # arccos of the law-of-cosines cosine gets the 1e-7 rad apex of this
    # isosceles needle wrong by about 4e-4 of its size
    mesh = build_from_face_lists([[0, 1, 2]])
    metric = helpers.uniform_metric(mesh)
    helpers.set_length(mesh, metric, 1, 2, 1e-7)
    apex = 2.0 * math.asin(0.5e-7)
    sums = vertex_angle_sums(mesh, metric, [0.0] * 3)
    assert sums[0] == pytest.approx(apex, rel=1e-14)
    assert sums[1] == pytest.approx(0.5 * (math.pi - apex), rel=1e-15)


def test_angle_sums_invariant_under_constant_shift():
    octa = helpers.octa()
    metric = helpers.uniform_metric(octa)
    rng = np.random.default_rng(7)
    u = rng.normal(0.0, 0.2, 6)
    a = vertex_angle_sums(octa, metric, u)
    b = vertex_angle_sums(octa, metric, u + 3.1)
    assert a == pytest.approx(b, abs=1e-12)


# -- Delaunay predicate ---------------------------------------------------


def test_delaunay_value_unit_square_diagonals():
    mesh, metric, e = square_with_diagonal(1.0)
    u = [0.0] * 4
    assert scalar_metric(mesh, metric, u).value(e) == pytest.approx(2.0, abs=1e-15)
    mesh, metric, e = square_with_diagonal(math.sqrt(2.0))
    sm = scalar_metric(mesh, metric, u)
    assert sm.value(e) == pytest.approx(0.0, abs=1e-15)
    assert sm.holds(e)
    mesh, metric, e = square_with_diagonal(1.9)
    sm = scalar_metric(mesh, metric, u)
    assert sm.value(e) == pytest.approx(-3.22, abs=1e-14)
    assert not sm.holds(e)


def test_delaunay_guard_band(monkeypatch):
    mesh, metric, e = square_with_diagonal(math.sqrt(2.0))
    u = [0.0] * 4
    val = scalar_metric(mesh, metric, u).value(e)
    monkeypatch.setattr(metric_mod, "_EPS_FLIP", abs(val) + 1e-15)
    assert scalar_metric(mesh, metric, u).holds(e)


def test_delaunay_value_raises_on_underflowed_length():
    # exp(-750) underflows to 0, so every edge at vertex 0 scales to 0
    mesh, metric, e = square_with_diagonal(math.sqrt(2.0))
    u = [-1500.0, 0.0, 0.0, 0.0]
    with pytest.raises(MetricError):
        scalar_metric(mesh, metric, u).value(e)


# -- Ptolemy flips ---------------------------------------------------------


def flipped_length(mesh, metric, h):
    """Length flip_edge gives the edge of ``h``, leaving the inputs unflipped."""
    return flip_edge(helpers.copy_mesh(mesh), helpers.copy_metric(metric), h)[1]


def test_ptolemy_length_of_square_diagonal():
    mesh, metric, e = square_with_diagonal(math.sqrt(2.0))
    assert flipped_length(mesh, metric, e) == pytest.approx(
        math.sqrt(2.0), rel=1e-15
    )


def test_ptolemy_length_hand_value():
    # sides 1, 1.2 around one face and 1.3, 1.1 around the other, old
    # diagonal 2: new = (1*1.3 + 1.2*1.1) / 2 = 1.31
    mesh = build_from_face_lists([[0, 1, 2], [0, 2, 3]])
    metric = helpers.uniform_metric(mesh)
    helpers.set_length(mesh, metric, 0, 1, 1.0)
    helpers.set_length(mesh, metric, 1, 2, 1.2)
    helpers.set_length(mesh, metric, 2, 3, 1.3)
    helpers.set_length(mesh, metric, 3, 0, 1.1)
    helpers.set_length(mesh, metric, 0, 2, 2.0)
    e = next(x for x in mesh.edges() if set(helpers.edge_endpoints(mesh, x)) == {0, 2})
    assert flipped_length(mesh, metric, e) == pytest.approx(1.31, rel=1e-15)
    assert flipped_length(mesh, metric, mesh.opp[e]) == pytest.approx(
        1.31, rel=1e-15
    )
    _, lnew = flip_edge(mesh, metric, e)
    assert lnew == pytest.approx(1.31, rel=1e-15)


def test_ptolemy_length_on_tetra():
    mesh = helpers.tetra()
    metric = helpers.uniform_metric(mesh)
    e = next(iter(mesh.edges()))
    helpers.set_length(mesh, metric, *helpers.edge_endpoints(mesh, e), 1.9)
    assert flipped_length(mesh, metric, e) == pytest.approx(2.0 / 1.9, rel=1e-15)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.3, 3.0), min_size=6, max_size=6), st.integers(0, 5))
def test_flip_then_flip_back_restores_length(lens, which):
    mesh = helpers.tetra()
    eids = sorted(mesh.edges())
    metric = helpers.uniform_metric(mesh)
    for e, v in zip(eids, lens):
        metric.lengths[e] = metric.lengths[mesh.opp[e]] = v
    e = eids[which]
    before = metric.lengths[e]
    pairs = sorted(frozenset(helpers.edge_endpoints(mesh, x)) for x in mesh.edges())
    fr, _ = flip_edge(mesh, metric, e)
    flip_edge(mesh, metric, fr.h0)
    assert metric.lengths[fr.h0] == pytest.approx(before, rel=1e-12)
    assert sorted(frozenset(helpers.edge_endpoints(mesh, x)) for x in mesh.edges()) == pairs


# -- make_delaunay ---------------------------------------------------------


def test_make_delaunay_noop_when_already_delaunay():
    mesh = helpers.octa()
    metric = helpers.uniform_metric(mesh)
    log = make_delaunay(mesh, metric, [0.0] * 6)
    assert log.total == 0


def test_make_delaunay_flips_the_stretched_edge():
    mesh = helpers.octa()
    metric = helpers.uniform_metric(mesh)
    helpers.set_length(mesh, metric, 0, 1, 1.9)
    faces_before = helpers.n_faces(mesh)
    log = make_delaunay(mesh, metric, [0.0] * 6)
    assert log.total >= 1
    assert helpers.n_faces(mesh) == faces_before
    u = [0.0] * 6
    holds = scalar_metric(mesh, metric, u).holds
    for e in mesh.edges():
        assert holds(e)
    # flips preserve the per-face flat structure, so the total angle stays
    # the number of triangles times pi
    assert math.fsum(vertex_angle_sums(mesh, metric, u)) == pytest.approx(
        8 * math.pi, rel=1e-14
    )


def test_make_delaunay_commutes_with_constant_shift():
    rng = np.random.default_rng(3)
    mesh_a, metric_a = helpers.shuffled_closed_mesh(rng, flips=10)
    mesh_b, metric_b = helpers.copy_mesh(mesh_a), helpers.copy_metric(metric_a)
    u = rng.normal(0.0, 0.5, mesh_a.n_vertices)
    log_a = make_delaunay(mesh_a, metric_a, u)
    log_b = make_delaunay(mesh_b, metric_b, u + 2.0)
    assert log_a.total == log_b.total
    la = helpers.active_lengths(mesh_a, metric_a)
    lb = helpers.active_lengths(mesh_b, metric_b)
    assert la == pytest.approx(lb, rel=1e-12)


def test_make_delaunay_restores_triangle_inequalities():
    rng = np.random.default_rng(11)
    mesh, metric = helpers.shuffled_closed_mesh(rng, flips=20, low=0.4, high=2.5)
    u = rng.normal(0.0, 0.6, mesh.n_vertices)
    make_delaunay(mesh, metric, u)
    length = scalar_metric(mesh, metric, u).length
    for f in mesh.faces():
        sides = [length(h) for h in mesh.face_halfedges(f)]
        per = sum(sides)
        for s in sides:
            assert per - 2 * s >= -1e-12 * per


def test_make_delaunay_path_independence():
    # evolving the factor gradually must land on the same metric as one
    # jump: intermediate Delaunay states are way stations, not choices
    rng = np.random.default_rng(5)
    mesh_a, metric_a = helpers.shuffled_closed_mesh(rng, level=1, flips=0)
    mesh_b, metric_b = helpers.copy_mesh(mesh_a), helpers.copy_metric(metric_a)
    u = rng.normal(0.0, 0.45, mesh_a.n_vertices)
    make_delaunay(mesh_a, metric_a, u)
    for t in np.linspace(0.0, 1.0, 50):
        make_delaunay(mesh_b, metric_b, t * u)
    la = helpers.active_lengths(mesh_a, metric_a)
    lb = helpers.active_lengths(mesh_b, metric_b)
    assert len(la) == len(lb)
    assert la == pytest.approx(lb, rel=1e-9)


@pytest.mark.parametrize("eps", [1e-12, 0.0, 0.5, -4.0])
def test_scan_flags_exactly_the_scalar_violations(eps):
    # The scan reads the corner table; the scalar predicate walks each
    # edge's faces.  They must agree on every interior edge, forced ones
    # included, on quads and on shuffled triangles, and at a negative band
    # that flags most edges.  The scalar value itself must be bitwise the
    # sum of two side terms formed from scaled lengths, quad sides included.
    rng = np.random.default_rng(17)
    cover, cmetric, _ = helpers.hexagon_cover()
    helpers.drive_to_quads(cover, cmetric)
    assert cover.mesh.quad_pairs
    mesh, metric = helpers.shuffled_closed_mesh(rng, level=1, flips=30)
    for m, met, quads in [(cover.mesh, cmetric, True), (mesh, metric, False)]:
        candidates = [e for e in m.edges() if not helpers.is_boundary_edge(m, e)]
        for _ in range(4):
            u = rng.normal(0.0, 0.3, m.n_vertices)
            value = scalar_metric(m, met, u).value
            want = [e for e in candidates if value(e) < -eps]
            assert [value(e).hex() for e in candidates] == [
                helpers.reference_delaunay_value(m, met, u, e).hex() for e in candidates
            ]
            assert _scan_violations_vectorized(m, met, u, eps) == (want, [])
            deep = [e for e in want if value(e) < -0.5]
            assert _scan_violations_vectorized(m, met, u, eps, deep=0.5) == (want, deep)
            if eps < 0:
                assert len(want) > len(candidates) / 2
                if quads:
                    assert any({m.he_face[e], m.he_face[m.opp[e]]} & m.quad_pairs.keys() for e in want)


@pytest.mark.parametrize("u0", [600.0, -600.0])
def test_side_terms_are_exact_where_a_side_product_leaves_the_float_range(u0):
    # Sides near 1e260 are finite, but the product of two is not; near
    # 1e-260 it underflows to 0.  A power-of-two rescale is exact, so the
    # uniform octahedron gives exactly its u = 0 values: 1 per side, 2 per
    # edge, which the scan flags below a threshold just above 2 and not at 2.
    # On shuffled lengths, and on a cover with quads, where a quad side's
    # term takes the rescale too, the values are bitwise the reference's.
    mesh = helpers.octa()
    metric = helpers.uniform_metric(mesh)
    edges = mesh.edges()
    for u in ([0.0] * 6, [u0] * 6):
        value = scalar_metric(mesh, metric, u).value
        reference = [helpers.reference_delaunay_value(mesh, metric, u, e) for e in edges]
        assert [value(e) for e in edges] == reference == [2.0] * len(edges)
        assert _scan_violations_vectorized(mesh, metric, u, -2.0)[0] == []
        assert _scan_violations_vectorized(mesh, metric, u, -math.nextafter(2.0, 3.0))[0] == edges
    rng = np.random.default_rng(5)
    cover, cmetric, _ = helpers.hexagon_cover()
    helpers.drive_to_quads(cover, cmetric)
    for mesh, metric in [helpers.shuffled_closed_mesh(rng, level=1, flips=30),
                         (cover.mesh, cmetric)]:
        u = u0 + rng.normal(0.0, 0.3, mesh.n_vertices)
        value = scalar_metric(mesh, metric, u).value
        edges = [e for e in mesh.edges() if not helpers.is_boundary_edge(mesh, e)]
        assert [value(e).hex() for e in edges] == [
            helpers.reference_delaunay_value(mesh, metric, u, e).hex() for e in edges
        ]


def test_make_delaunay_ends_when_every_flagged_edge_rechecks_as_delaunay(monkeypatch):
    # The scan's numpy exp and the re-check's libm exp can differ in the
    # last bit, so the scan may flag an edge that the re-check passes.  Here
    # the scan always flags one extra edge; ``holds`` skips it, and the one
    # pass flips exactly what it flips without the extra edge.
    mesh = helpers.octa()
    metric = helpers.uniform_metric(mesh)
    helpers.set_length(mesh, metric, 0, 1, 1.9)
    want_metric = helpers.copy_metric(metric)
    want = make_delaunay(helpers.copy_mesh(mesh), want_metric, [0.0] * 6)
    real = metric_mod._scan_violations_vectorized
    extra = mesh.edges()[0]
    scans = 0

    def scan_with_a_tie(*args, **kwargs):
        nonlocal scans
        scans += 1
        flagged, deep = real(*args, **kwargs)
        return sorted({*flagged, extra}), deep

    monkeypatch.setattr(metric_mod, "_scan_violations_vectorized", scan_with_a_tie)
    log = make_delaunay(mesh, metric, [0.0] * 6)
    assert scans == 1
    assert want.total >= 1
    assert log == want
    assert metric.lengths == want_metric.lengths


def test_make_delaunay_scans_once_per_call(monkeypatch):
    # One scan seeds the work list and the pass ends when the list is
    # empty; the flips re-examine every edge they change, so no rescan is
    # needed to confirm the result.
    real = metric_mod._scan_violations_vectorized
    scans = 0

    def counted(*args, **kwargs):
        nonlocal scans
        scans += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(metric_mod, "_scan_violations_vectorized", counted)
    octa = helpers.octa()
    metric = helpers.uniform_metric(octa)
    helpers.set_length(octa, metric, 0, 1, 1.9)
    cover, cmetric, _ = helpers.hexagon_cover()
    helpers.drive_to_quads(cover, cmetric)
    for mesh, met, refl in [(octa, metric, None), (cover.mesh, cmetric, cover.refl)]:
        u = [0.0] * mesh.n_vertices
        scans = 0
        assert make_delaunay(mesh, met, u, refl).total >= 1
        assert scans == 1
        holds = scalar_metric(mesh, met, u, refl).holds
        assert all(holds(e) for e in mesh.edges())


def test_make_delaunay_calls_flip_edge_once_per_plain_flip(monkeypatch):
    # A traced run counts plain flips by wrapping this module's flip_edge,
    # so the flip loop calls it through the module global, once for every
    # flip that FlipLog.single counts.  helpers.delaunay_after_every_
    # retriangulation holds every audited solve to the same count.
    real = metric_mod.flip_edge
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(metric_mod, "flip_edge", counted)
    octa = helpers.octa()
    log = make_delaunay(octa, helpers.uniform_metric(octa), [0.0, -2.0, 0.0, -2.0, 0.0, 0.0])
    assert log.single == calls == 4


def test_make_delaunay_flip_budget(monkeypatch):
    mesh = helpers.octa()
    metric = helpers.uniform_metric(mesh)
    helpers.set_length(mesh, metric, 0, 1, 1.9)
    monkeypatch.setattr(metric_mod, "_FLIP_BUDGET_FACTOR", 0.0)
    with pytest.raises(FlipBudgetError):
        make_delaunay(mesh, metric, [0.0] * 6)


# -- Newton pieces ----------------------------------------------------------


def test_gradient_is_target_minus_current():
    mesh = helpers.tetra()
    metric = helpers.uniform_metric(mesh)
    g = gradient(mesh, metric, [0.0] * 4, [math.pi] * 4)
    assert np.allclose(g, 0.0, atol=1e-14)
    theta_hat = [math.pi + 0.25, math.pi - 0.25, math.pi, math.pi]
    g = gradient(mesh, metric, [0.0] * 4, theta_hat)
    assert g == pytest.approx([0.25, -0.25, 0.0, 0.0], abs=1e-14)


def test_gradient_sums_to_zero_for_admissible_targets():
    rng = np.random.default_rng(2)
    mesh, metric = helpers.shuffled_closed_mesh(rng, level=1, flips=0)
    u = rng.normal(0.0, 0.3, mesh.n_vertices)
    make_delaunay(mesh, metric, u)
    theta_hat = np.full(mesh.n_vertices, math.pi * helpers.n_faces(mesh) / mesh.n_vertices)
    g = gradient(mesh, metric, u, theta_hat)
    assert abs(float(np.sum(g))) <= 1e-10


def test_hessian_entries_on_unit_tetra():
    mesh = helpers.tetra()
    terms = hessian(mesh, helpers.uniform_metric(mesh), [0.0] * 4)
    H = helpers.hessian_matrix(terms, 4).toarray()
    s3 = math.sqrt(3.0)
    for i in range(4):
        for j in range(4):
            want = s3 if i == j else -1.0 / s3
            assert H[i, j] == pytest.approx(want, rel=1e-14)


def test_hessian_entries_on_unit_octahedron():
    mesh = helpers.octa()
    terms = hessian(mesh, helpers.uniform_metric(mesh), [0.0] * 6)
    H = helpers.hessian_matrix(terms, 6).toarray()
    s3 = math.sqrt(3.0)
    antipode = {0: 5, 5: 0, 1: 3, 3: 1, 2: 4, 4: 2}
    for i in range(6):
        assert H[i, i] == pytest.approx(4.0 / s3, rel=1e-14)
        for j in range(6):
            if j == i:
                continue
            want = 0.0 if antipode[i] == j else -1.0 / s3
            assert H[i, j] == pytest.approx(want, abs=1e-14)


def test_hessian_rows_sum_to_zero_and_psd():
    rng = np.random.default_rng(21)
    mesh, metric = helpers.shuffled_closed_mesh(rng, flips=10)
    u = rng.normal(0.0, 0.3, mesh.n_vertices)
    make_delaunay(mesh, metric, u)
    H = helpers.hessian_matrix(hessian(mesh, metric, u), mesh.n_vertices).toarray()
    assert np.max(np.abs(H.sum(axis=1))) <= 1e-12
    assert np.max(np.abs(H - H.T)) <= 1e-13
    evals = np.linalg.eigvalsh(H)
    assert evals.min() >= -1e-10


def assert_hessian_matches_finite_differences(mesh, metric, u):
    H = helpers.hessian_matrix(hessian(mesh, metric, u), mesh.n_vertices).toarray()
    theta_hat = np.zeros(mesh.n_vertices)
    step = 1e-6
    n = mesh.n_vertices
    fd = np.zeros((n, n))
    for j in range(n):
        up = np.array(u, dtype=float)
        dn = np.array(u, dtype=float)
        up[j] += step
        dn[j] -= step
        gp = gradient(mesh, metric, up, theta_hat)
        gn = gradient(mesh, metric, dn, theta_hat)
        fd[:, j] = (gp - gn) / (2 * step)
    # residual = target - angles, whose Jacobian is +H
    mask = np.abs(H) > 1e-8
    assert np.max(np.abs((fd[mask] - H[mask]) / H[mask])) <= 1e-5


def test_hessian_matches_finite_differences():
    rng = np.random.default_rng(4)
    mesh, metric = helpers.shuffled_closed_mesh(rng, flips=6)
    u = rng.normal(0.0, 0.05, mesh.n_vertices)
    make_delaunay(mesh, metric, u)
    assert_hessian_matches_finite_differences(mesh, metric, u)


def test_hessian_matches_finite_differences_on_quads():
    # The quads' virtual triangles go through the same kernel as triangles.
    # The surgery chain leaves flat (clamped) corners, which have no
    # derivative, so the quad state gets fresh near-equilateral lengths.
    cover, cmetric, _ = helpers.hexagon_cover()
    helpers.drive_to_quads(cover, cmetric)
    assert len(cover.mesh.quad_pairs) == 2
    rng = np.random.default_rng(8)
    cmetric.lengths = helpers.random_symmetric_lengths(cover.mesh, cover.refl, rng, 0.9, 1.1)
    for p, q in cover.mesh.quad_pairs.values():
        cmetric.lengths[p] = cmetric.lengths[q] = float(rng.uniform(0.9, 1.1))
    u = rng.normal(0.0, 0.05, cover.mesh.n_vertices)
    assert_hessian_matches_finite_differences(cover.mesh, cmetric, u)


@pytest.mark.parametrize("u0", [-1500.0, math.nan])
def test_kernel_raises_instead_of_nan_on_zero_or_nan_side(u0):
    mesh = helpers.octa()
    metric = helpers.uniform_metric(mesh)
    u = [u0, 0.0, 0.0, 0.0, 0.0, 0.0]
    with pytest.raises(MetricError):
        vertex_angle_sums(mesh, metric, u)
    with pytest.raises(MetricError):
        hessian(mesh, metric, u)


def test_hessian_of_quad_state_degenerate_raises():
    mesh = build_from_face_lists([[0, 1, 2], [0, 2, 3]])
    metric = helpers.uniform_metric(mesh)
    helpers.set_length(mesh, metric, 0, 2, 2.0)  # flat triangles
    with pytest.raises(MetricError):
        hessian(mesh, metric, [0.0] * 4)


def test_quad_faces_measured_via_virtual_triangles():
    cover, cmetric, _ = helpers.hexagon_cover()
    mesh = cover.mesh
    helpers.drive_to_quads(cover, cmetric)
    u = [0.0] * mesh.n_vertices
    sums = vertex_angle_sums(mesh, cmetric, u)
    n_tri = sum(1 for f in mesh.faces() if helpers.degree(mesh, f) == 3)
    n_quad = sum(1 for f in mesh.faces() if helpers.degree(mesh, f) == 4)
    assert n_quad == 2
    assert math.fsum(sums) == pytest.approx(
        math.pi * n_tri + 2 * math.pi * n_quad, rel=1e-13
    )
