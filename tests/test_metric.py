"""Scaled lengths, angles, the Delaunay predicate, Ptolemy flips."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confmetric.halfedge import build_from_face_lists
from confmetric.metric import (
    FlipBudgetError,
    MetricError,
    PennerMetric,
    _scan_violations_vectorized,
    corner_angle,
    delaunay_value,
    flip_edge,
    gradient,
    hessian,
    is_delaunay,
    make_delaunay,
    scaled_length,
    vertex_angle_sums,
)
from confmetric.symmetry import FlipType, classify_flip

import helpers


def square_with_diagonal(diag=math.sqrt(2.0)):
    mesh = build_from_face_lists([[0, 1, 2], [0, 2, 3]])
    metric = PennerMetric.uniform(mesh)
    helpers.set_length(mesh, metric, 0, 2, diag)
    e = next(x for x in mesh.edges() if set(mesh.edge_endpoints(x)) == {0, 2})
    return mesh, metric, e


# -- conformal scaling ---------------------------------------------------


def test_scaled_length_identity_at_zero():
    mesh = build_from_face_lists([[0, 1, 2]])
    metric = PennerMetric.uniform(mesh, 1.7)
    for h in range(mesh.n_halfedges()):
        if not mesh.is_boundary_halfedge(h):
            assert scaled_length(mesh, metric, [0.0, 0.0, 0.0], h) == 1.7


def test_scaled_length_uses_average_of_endpoint_factors():
    mesh = build_from_face_lists([[0, 1, 2]])
    metric = PennerMetric.uniform(mesh, 2.0)
    h = next(
        x for x in range(mesh.n_halfedges())
        if not mesh.is_boundary_halfedge(x)
        and {mesh.tail_of(x), mesh.to[x]} == {0, 1}
    )
    assert scaled_length(mesh, metric, [math.log(4.0), 0.0, 0.0], h) == pytest.approx(
        4.0, rel=1e-15
    )
    # opposite shifts cancel
    assert scaled_length(mesh, metric, [0.2, -0.2, 0.0], h) == pytest.approx(
        2.0, rel=1e-15
    )


# -- corner angles --------------------------------------------------------


def test_corner_angle_basics():
    assert corner_angle(1.0, 1.0, 1.0) == pytest.approx(math.pi / 3, rel=1e-15)
    assert corner_angle(5.0, 3.0, 4.0) == pytest.approx(math.pi / 2, rel=1e-15)
    assert corner_angle(3.0, 4.0, 5.0) == pytest.approx(math.asin(3.0 / 5.0))


def test_corner_angle_clamps_instead_of_raising():
    assert corner_angle(2.5, 1.0, 1.0) == math.pi
    assert corner_angle(0.0, 1.0, 1.0) == 0.0


def test_vertex_angle_sums_on_platonic_meshes():
    tetra = helpers.tetra()
    sums = vertex_angle_sums(tetra, PennerMetric.uniform(tetra), [0.0] * 4)
    assert sums == pytest.approx([math.pi] * 4, rel=1e-14)
    octa = helpers.octa()
    sums = vertex_angle_sums(octa, PennerMetric.uniform(octa), [0.0] * 6)
    assert sums == pytest.approx([4 * math.pi / 3] * 6, rel=1e-14)


def reference_angle_sums(mesh, metric, u):
    """Per-face loop over corner_angle, the kernel's independent reference."""
    theta = [0.0] * mesh.n_vertices
    for f in mesh.faces():
        hs = mesh.face_halfedges(f)
        ls = [scaled_length(mesh, metric, u, h) for h in hs]
        vs = [mesh.to[h] for h in hs]
        if len(hs) == 3:
            a, b, c = ls
            theta[vs[0]] += corner_angle(c, a, b)
            theta[vs[1]] += corner_angle(a, b, c)
            theta[vs[2]] += corner_angle(b, c, a)
        else:
            l0, l1, l2, l3 = ls
            v0, v1, v2, v3 = vs
            d = metric.quad_diag[f] * math.exp(0.5 * (u[v1] + u[v3]))
            theta[v3] += corner_angle(l1, l0, d)
            theta[v0] += corner_angle(d, l0, l1)
            theta[v1] += corner_angle(l0, l1, d)
            theta[v1] += corner_angle(l3, l2, d)
            theta[v2] += corner_angle(d, l2, l3)
            theta[v3] += corner_angle(l2, l3, d)
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
    metric = PennerMetric.uniform(mesh)
    helpers.set_length(mesh, metric, 1, 2, 1e-7)
    apex = 2.0 * math.asin(0.5e-7)
    sums = vertex_angle_sums(mesh, metric, [0.0] * 3)
    assert sums[0] == pytest.approx(apex, rel=1e-14)
    assert sums[1] == pytest.approx(0.5 * (math.pi - apex), rel=1e-15)


def test_angle_sums_invariant_under_constant_shift():
    octa = helpers.octa()
    metric = PennerMetric.uniform(octa)
    rng = np.random.default_rng(7)
    u = rng.normal(0.0, 0.2, 6)
    a = vertex_angle_sums(octa, metric, u)
    b = vertex_angle_sums(octa, metric, u + 3.1)
    assert a == pytest.approx(b, abs=1e-12)


# -- Delaunay predicate ---------------------------------------------------


def test_delaunay_value_unit_square_diagonals():
    mesh, metric, e = square_with_diagonal(1.0)
    u = [0.0] * 4
    assert delaunay_value(mesh, metric, u, e) == pytest.approx(2.0, abs=1e-15)
    mesh, metric, e = square_with_diagonal(math.sqrt(2.0))
    assert delaunay_value(mesh, metric, u, e) == pytest.approx(0.0, abs=1e-15)
    assert is_delaunay(mesh, metric, u, e)
    mesh, metric, e = square_with_diagonal(1.9)
    assert delaunay_value(mesh, metric, u, e) == pytest.approx(-3.22, abs=1e-14)
    assert not is_delaunay(mesh, metric, u, e)


def test_delaunay_guard_band():
    mesh, metric, e = square_with_diagonal(math.sqrt(2.0))
    u = [0.0] * 4
    val = delaunay_value(mesh, metric, u, e)
    assert is_delaunay(mesh, metric, u, e, eps_flip=abs(val) + 1e-15)


def test_delaunay_value_raises_on_underflowed_length():
    # exp(-750) underflows to 0, so every edge at vertex 0 scales to 0
    mesh, metric, e = square_with_diagonal(math.sqrt(2.0))
    u = [-1500.0, 0.0, 0.0, 0.0]
    with pytest.raises(MetricError):
        delaunay_value(mesh, metric, u, e)


# -- Ptolemy flips ---------------------------------------------------------


def flipped_length(mesh, metric, h):
    """Length flip_edge gives the edge of ``h``, leaving the inputs unflipped."""
    return flip_edge(mesh.copy(), metric.copy(), h)[1]


def test_ptolemy_length_of_square_diagonal():
    mesh, metric, e = square_with_diagonal(math.sqrt(2.0))
    assert flipped_length(mesh, metric, e) == pytest.approx(
        math.sqrt(2.0), rel=1e-15
    )


def test_ptolemy_length_hand_value():
    # sides 1, 1.2 around one face and 1.3, 1.1 around the other, old
    # diagonal 2: new = (1*1.3 + 1.2*1.1) / 2 = 1.31
    mesh = build_from_face_lists([[0, 1, 2], [0, 2, 3]])
    metric = PennerMetric.uniform(mesh)
    helpers.set_length(mesh, metric, 0, 1, 1.0)
    helpers.set_length(mesh, metric, 1, 2, 1.2)
    helpers.set_length(mesh, metric, 2, 3, 1.3)
    helpers.set_length(mesh, metric, 3, 0, 1.1)
    helpers.set_length(mesh, metric, 0, 2, 2.0)
    e = next(x for x in mesh.edges() if set(mesh.edge_endpoints(x)) == {0, 2})
    assert flipped_length(mesh, metric, e) == pytest.approx(1.31, rel=1e-15)
    assert flipped_length(mesh, metric, mesh.opp[e]) == pytest.approx(
        1.31, rel=1e-15
    )
    _, lnew = flip_edge(mesh, metric, e)
    assert lnew == pytest.approx(1.31, rel=1e-15)


def test_ptolemy_length_on_tetra():
    mesh = helpers.tetra()
    metric = PennerMetric.uniform(mesh)
    e = next(iter(mesh.edges()))
    helpers.set_length(mesh, metric, *mesh.edge_endpoints(e), 1.9)
    assert flipped_length(mesh, metric, e) == pytest.approx(2.0 / 1.9, rel=1e-15)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.3, 3.0), min_size=6, max_size=6), st.integers(0, 5))
def test_flip_then_flip_back_restores_length(lens, which):
    mesh = helpers.tetra()
    eids = sorted(mesh.edges())
    metric = PennerMetric.from_edge_lengths(
        mesh, {e: v for e, v in zip(eids, lens)}
    )
    e = eids[which]
    before = metric.lengths[e]
    pairs = sorted(frozenset(mesh.edge_endpoints(x)) for x in mesh.edges())
    fr, _ = flip_edge(mesh, metric, e)
    flip_edge(mesh, metric, fr.h0)
    assert metric.lengths[fr.h0] == pytest.approx(before, rel=1e-12)
    assert sorted(frozenset(mesh.edge_endpoints(x)) for x in mesh.edges()) == pairs


# -- make_delaunay ---------------------------------------------------------


def test_make_delaunay_noop_when_already_delaunay():
    mesh = helpers.octa()
    metric = PennerMetric.uniform(mesh)
    log = make_delaunay(mesh, metric, [0.0] * 6)
    assert log.total == 0


def test_make_delaunay_flips_the_stretched_edge():
    mesh = helpers.octa()
    metric = PennerMetric.uniform(mesh)
    helpers.set_length(mesh, metric, 0, 1, 1.9)
    faces_before = mesh.n_faces()
    log = make_delaunay(mesh, metric, [0.0] * 6)
    assert log.total >= 1
    assert mesh.n_faces() == faces_before
    u = [0.0] * 6
    for e in mesh.edges():
        assert is_delaunay(mesh, metric, u, e)
    # flips preserve the per-face flat structure, so the total angle stays
    # the number of triangles times pi
    assert math.fsum(vertex_angle_sums(mesh, metric, u)) == pytest.approx(
        8 * math.pi, rel=1e-14
    )


def test_make_delaunay_commutes_with_constant_shift():
    rng = np.random.default_rng(3)
    mesh_a, metric_a = helpers.shuffled_closed_mesh(rng, flips=10)
    mesh_b, metric_b = mesh_a.copy(), metric_a.copy()
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
    for f in mesh.faces():
        sides = [scaled_length(mesh, metric, u, h) for h in mesh.face_halfedges(f)]
        per = sum(sides)
        for s in sides:
            assert per - 2 * s >= -1e-12 * per


def test_make_delaunay_path_independence():
    # evolving the factor gradually must land on the same metric as one
    # jump: intermediate Delaunay states are way stations, not choices
    rng = np.random.default_rng(5)
    mesh_a, metric_a = helpers.shuffled_closed_mesh(rng, level=1, flips=0)
    mesh_b, metric_b = mesh_a.copy(), metric_a.copy()
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
    # The scan reads the corner table; the scalar delaunay_value walks each
    # edge's faces.  They must agree on quads and on shuffled triangles,
    # and at a negative band that flags most edges.
    rng = np.random.default_rng(17)
    cover, cmetric, _ = helpers.hexagon_cover()
    helpers.drive_to_quads(cover, cmetric)
    assert cmetric.quad_diag
    mesh, metric = helpers.shuffled_closed_mesh(rng, level=1, flips=30)
    for m, met, refl in [(cover.mesh, cmetric, cover.refl), (mesh, metric, None)]:
        candidates = [
            e for e in m.edges()
            if not m.is_boundary_edge(e)
            and (refl is None or classify_flip(m, refl, e)[0] is not FlipType.ALWAYS_DELAUNAY)
        ]
        for _ in range(4):
            u = rng.normal(0.0, 0.3, m.n_vertices)
            want = [e for e in candidates if delaunay_value(m, met, u, e) < -eps]
            assert _scan_violations_vectorized(m, met, u, refl, eps) == want
            if eps < 0:
                assert len(want) > len(candidates) / 2
                if refl is not None:
                    assert any(m.in_quad[e] or m.in_quad[m.opp[e]] for e in want)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_scan_raises_where_a_side_product_overflows():
    # Sides near 1e260 are finite, but the product of two is not.
    mesh = helpers.octa()
    metric = PennerMetric.uniform(mesh)
    u = [600.0] * 6
    with pytest.raises(MetricError):
        delaunay_value(mesh, metric, u, mesh.edges()[0])
    with pytest.raises(MetricError, match="float range"):
        _scan_violations_vectorized(mesh, metric, u, None, 1e-12)


def test_make_delaunay_flip_budget():
    mesh = helpers.octa()
    metric = PennerMetric.uniform(mesh)
    helpers.set_length(mesh, metric, 0, 1, 1.9)
    with pytest.raises(FlipBudgetError):
        make_delaunay(mesh, metric, [0.0] * 6, flip_budget_factor=0.0)


# -- Newton pieces ----------------------------------------------------------


def test_gradient_is_target_minus_current():
    mesh = helpers.tetra()
    metric = PennerMetric.uniform(mesh)
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
    theta_hat = np.full(mesh.n_vertices, math.pi * mesh.n_faces() / mesh.n_vertices)
    g = gradient(mesh, metric, u, theta_hat)
    assert abs(float(np.sum(g))) <= 1e-10


def test_hessian_entries_on_unit_tetra():
    mesh = helpers.tetra()
    H = hessian(mesh, PennerMetric.uniform(mesh), [0.0] * 4).toarray()
    s3 = math.sqrt(3.0)
    for i in range(4):
        for j in range(4):
            want = s3 if i == j else -1.0 / s3
            assert H[i, j] == pytest.approx(want, rel=1e-14)


def test_hessian_entries_on_unit_octahedron():
    mesh = helpers.octa()
    H = hessian(mesh, PennerMetric.uniform(mesh), [0.0] * 6).toarray()
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
    H = hessian(mesh, metric, u).toarray()
    assert np.max(np.abs(H.sum(axis=1))) <= 1e-12
    assert np.max(np.abs(H - H.T)) <= 1e-13
    evals = np.linalg.eigvalsh(H)
    assert evals.min() >= -1e-10


def assert_hessian_matches_finite_differences(mesh, metric, u):
    H = hessian(mesh, metric, u).toarray()
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
    assert len(cmetric.quad_diag) == 2
    rng = np.random.default_rng(8)
    cmetric.lengths = helpers.random_symmetric_lengths(cover.mesh, cover.refl, rng, 0.9, 1.1)
    for f in cmetric.quad_diag:
        cmetric.quad_diag[f] = float(rng.uniform(0.9, 1.1))
    u = rng.normal(0.0, 0.05, cover.mesh.n_vertices)
    assert_hessian_matches_finite_differences(cover.mesh, cmetric, u)


@pytest.mark.parametrize("u0", [-1500.0, math.nan])
def test_kernel_raises_instead_of_nan_on_zero_or_nan_side(u0):
    mesh = helpers.octa()
    metric = PennerMetric.uniform(mesh)
    u = [u0, 0.0, 0.0, 0.0, 0.0, 0.0]
    with pytest.raises(MetricError):
        vertex_angle_sums(mesh, metric, u)
    with pytest.raises(MetricError):
        hessian(mesh, metric, u)


def test_hessian_of_quad_state_degenerate_raises():
    mesh = build_from_face_lists([[0, 1, 2], [0, 2, 3]])
    metric = PennerMetric.uniform(mesh)
    helpers.set_length(mesh, metric, 0, 2, 2.0)  # flat triangles
    with pytest.raises(MetricError):
        hessian(mesh, metric, [0.0] * 4)


def test_quad_faces_measured_via_virtual_triangles():
    cover, cmetric, _ = helpers.hexagon_cover()
    mesh = cover.mesh
    helpers.drive_to_quads(cover, cmetric)
    u = [0.0] * mesh.n_vertices
    sums = vertex_angle_sums(mesh, cmetric, u)
    n_tri = sum(1 for f in mesh.faces() if mesh.degree(f) == 3)
    n_quad = sum(1 for f in mesh.faces() if mesh.degree(f) == 4)
    assert n_quad == 2
    assert math.fsum(sums) == pytest.approx(
        math.pi * n_tri + 2 * math.pi * n_quad, rel=1e-13
    )
