"""Newton iteration: direction solve, line search, full driver."""

import math

import numpy as np
import pytest

import confmetric.solver as solver_mod
from confmetric.cover import build_double_cover, restrict_to_single_cover
from confmetric.generate import grid_disk
from confmetric.halfedge import build_from_face_lists, validate
from confmetric.metric import PennerMetric, hessian, make_delaunay, vertex_angle_sums
from confmetric.solver import (
    LineSearchError,
    SolverConfig,
    SolverError,
    find_conformal_metric,
    line_search,
    newton_direction,
    scale_conformally,
)

import helpers


def octa_problem(seed=0, spread=0.35):
    mesh = helpers.octa()
    metric = PennerMetric.uniform(mesh)
    rng = np.random.default_rng(seed)
    delta = rng.normal(0.0, spread, 6)
    delta -= delta.mean()
    theta_hat = 4 * math.pi / 3 + delta
    return mesh, metric, theta_hat


# -- direction solve --------------------------------------------------------


def test_direction_is_zero_for_zero_gradient():
    mesh = helpers.octa()
    H = hessian(mesh, PennerMetric.uniform(mesh), [0.0] * 6)
    d = newton_direction(H, np.zeros(6))
    assert np.all(d == 0.0)


def test_direction_solves_the_system_with_zero_mean():
    mesh, metric, theta_hat = octa_problem(1)
    from confmetric.metric import gradient

    g = gradient(mesh, metric, [0.0] * 6, theta_hat)
    H = hessian(mesh, metric, [0.0] * 6)
    d = newton_direction(H, g)
    assert abs(d.mean()) <= 1e-14
    r = H @ d + (g - g.mean())
    assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(g)


def test_direction_ignores_constant_gradient_component():
    mesh, metric, theta_hat = octa_problem(2)
    from confmetric.metric import gradient

    g = gradient(mesh, metric, [0.0] * 6, theta_hat)
    H = hessian(mesh, metric, [0.0] * 6)
    d1 = newton_direction(H, g)
    d2 = newton_direction(H, g + 0.7)
    assert d1 == pytest.approx(d2, abs=1e-12)


@pytest.mark.filterwarnings("ignore::scipy.sparse.linalg.MatrixRankWarning")
def test_direction_breakdown_raises():
    H = hessian(helpers.octa(), PennerMetric.uniform(helpers.octa()), [0.0] * 6)
    H = H.tolil()
    H[1, :] = 0.0
    H[:, 1] = 0.0          # vertex 1 decoupled: singular reduced system
    with pytest.raises(SolverError):
        newton_direction(H.tocsr(), np.array([0.3, -0.3, 0.2, -0.2, 0.1, -0.1]))


# -- line search -------------------------------------------------------------


def test_line_search_accepts_full_step_near_solution():
    mesh, metric, theta_hat = octa_problem(3, spread=0.01)
    from confmetric.metric import gradient

    u = np.zeros(6)
    g = gradient(mesh, metric, u, theta_hat)
    d = newton_direction(hessian(mesh, metric, u), g)
    res = line_search(mesh, metric, u, d, np.asarray(theta_hat))
    assert res.halvings == 0
    assert res.slope <= 0.0
    assert res.u == pytest.approx(d, abs=1e-15)


def test_line_search_slope_is_nonpositive_at_acceptance():
    mesh, metric, theta_hat = octa_problem(4, spread=0.8)
    from confmetric.metric import gradient

    u = np.zeros(6)
    g = gradient(mesh, metric, u, theta_hat)
    d = newton_direction(hessian(mesh, metric, u), g)
    res = line_search(mesh, metric, u, d, np.asarray(theta_hat))
    assert res.slope <= 0.0
    # the returned point is exactly u + d / 2**halvings
    assert res.u == pytest.approx(u + d / 2.0**res.halvings, abs=1e-15)


def test_line_search_rejects_a_step_that_does_not_move_u():
    # A step below the float resolution of u has slope <= 0; accepting it
    # would repeat the same step until max_newton_steps.
    from confmetric.metric import gradient

    mesh = helpers.tetra()
    metric = PennerMetric.uniform(mesh)
    u = np.array([0.5, -0.5, 0.25, -0.25])
    theta_hat = np.full(4, math.pi)
    g = gradient(mesh, metric, u, theta_hat)
    with pytest.raises(LineSearchError):
        line_search(mesh, metric, u, -1e-20 * g, theta_hat)


# -- full driver -------------------------------------------------------------


def test_already_satisfied_targets_need_no_steps():
    mesh = helpers.tetra()
    metric = PennerMetric.uniform(mesh)
    _, scaled, u, report = find_conformal_metric(mesh, metric, [math.pi] * 4)
    assert report.converged
    assert report.newton_steps == 0
    assert np.all(u == 0.0)
    assert report.final_residual <= 1e-12
    assert scaled.lengths == metric.lengths


def test_octahedron_solve_converges():
    mesh, metric, theta_hat = octa_problem(5)
    _, scaled, u, report = find_conformal_metric(mesh, metric, theta_hat)
    assert report.converged
    assert report.final_residual <= 1e-10
    sums = vertex_angle_sums(mesh, scaled, [0.0] * 6)
    assert np.max(np.abs(np.asarray(sums) - theta_hat)) <= 1e-10
    # iteration bookkeeping invariants
    for rec in report.steps[1:]:
        assert rec.decrement >= 0.0
        assert abs(rec.grad_sum) <= 1e-10 * mesh.n_vertices
    assert math.isnan(report.steps[0].decrement)


def test_solved_scaled_metric_matches_scale_conformally():
    mesh, metric, theta_hat = octa_problem(6)
    pristine = metric.copy()
    mesh_out, scaled, u, report = find_conformal_metric(mesh, metric, theta_hat)
    again = scale_conformally(mesh_out, metric, u)
    assert scaled.lengths == again.lengths
    # the driver never touches the original-scale lengths except by flips
    assert report.converged
    if report.total_flips().total == 0:
        assert metric.lengths == pristine.lengths


def test_solve_is_gauge_invariant():
    mesh_a, metric_a, theta_hat = octa_problem(7)
    mesh_b, metric_b = mesh_a.copy(), metric_a.copy()
    _, _, u_a, rep_a = find_conformal_metric(mesh_a, metric_a, theta_hat)
    _, _, u_b, rep_b = find_conformal_metric(
        mesh_b, metric_b, theta_hat, u0=np.full(6, 1.5)
    )
    assert rep_a.converged and rep_b.converged
    # the minimizer is unique up to an additive constant; the step-by-step
    # paths may differ in ulps, so only the solutions are compared
    shift = u_b - u_a
    assert np.max(np.abs(shift - shift.mean())) <= 1e-9
    la = sorted(helpers.active_lengths(mesh_a, metric_a))
    lb = sorted(helpers.active_lengths(mesh_b, metric_b))
    assert la == pytest.approx(lb, rel=1e-9)


def test_flat_grid_cover_solves_in_zero_steps():
    faces, pos = grid_disk(4)
    disk = build_from_face_lists(faces)
    metric = PennerMetric.uniform(disk)
    for e in disk.edges():
        a, b = disk.edge_endpoints(e)
        metric.lengths[e] = metric.lengths[disk.opp[e]] = math.dist(pos[a], pos[b])
    # flat grid boundary: right-angle corners, straight edges elsewhere
    kappa = [0.0] * 16
    for v, (x, y, _) in enumerate(pos):
        if {x, y} <= {0.0, 3.0} :
            kappa[v] = math.pi / 2
    cover, cmetric, theta_hat = build_double_cover(disk, metric, [0.0] * 16, kappa)
    _, _, u, report = find_conformal_metric(cover.mesh, cmetric, theta_hat, refl=cover.refl)
    assert report.converged
    assert report.newton_steps == 0
    assert np.max(np.abs(u)) == 0.0


def test_symmetric_solve_keeps_bitwise_mirror_symmetry():
    cover, cmetric, theta_hat = helpers.hexagon_cover(
        long_edges=((0, 1), (2, 3)), length=1.6
    )
    mesh, refl = cover.mesh, cover.refl
    _, scaled, u, report = find_conformal_metric(mesh, cmetric, theta_hat, refl=refl)
    assert report.converged
    assert all(rec.symmetry_ok for rec in report.steps)
    for v in range(mesh.n_vertices):
        assert u[v] == u[refl.vertex_refl[v]]
    for h in range(mesh.n_halfedges()):
        if not mesh.parked[h]:
            assert cmetric.lengths[h] == cmetric.lengths[refl.r[h]]
    # restriction of the solved cover has the prescribed boundary angles;
    # it takes the original-scale metric and applies u itself
    rmesh, rmetric, ru = restrict_to_single_cover(cover, cmetric, u)
    sums = vertex_angle_sums(rmesh, rmetric, [0.0] * rmesh.n_vertices)
    for v in range(7):
        want = theta_hat[v] / 2 if v < 6 else theta_hat[v]
        assert sums[v] == pytest.approx(want, abs=1e-9)


def test_verify_delaunay_config_counts_checks():
    mesh, metric, theta_hat = octa_problem(8)
    _, _, _, report = find_conformal_metric(
        mesh, metric, theta_hat, SolverConfig(verify_delaunay=True)
    )
    assert report.converged
    assert report.delaunay_checks > 0


def test_decrement_floor_stops_iteration():
    mesh, metric, theta_hat = octa_problem(9)
    _, _, _, report = find_conformal_metric(
        mesh, metric, theta_hat, SolverConfig(min_decrement=1e3)
    )
    assert report.termination == "decrement_floor"
    assert not report.converged


def test_step_budget_reaches_max_newton_steps():
    mesh, metric, theta_hat = octa_problem(10, spread=0.7)
    _, _, _, report = find_conformal_metric(
        mesh, metric, theta_hat, SolverConfig(max_newton_steps=1, eps_tol=1e-14)
    )
    assert report.termination in ("max_newton_steps", "converged")
    assert report.newton_steps <= 1


def test_gradient_only_evaluated_on_delaunay_states(monkeypatch):
    # the contract: every gradient evaluation happens at a u for which the
    # mesh has just been retriangulated; trace the call order to check it
    events = []
    real_md = solver_mod.make_delaunay
    real_grad = solver_mod.gradient

    def md(mesh, metric, u, *a, **kw):
        events.append(("md", tuple(np.round(np.asarray(u, dtype=float), 12))))
        return real_md(mesh, metric, u, *a, **kw)

    def grad(mesh, metric, u, theta_hat, *a, **kw):
        events.append(("grad", tuple(np.round(np.asarray(u, dtype=float), 12))))
        return real_grad(mesh, metric, u, theta_hat, *a, **kw)

    monkeypatch.setattr(solver_mod, "make_delaunay", md)
    monkeypatch.setattr(solver_mod, "gradient", grad)
    mesh, metric, theta_hat = octa_problem(11, spread=0.6)
    _, _, _, report = find_conformal_metric(mesh, metric, theta_hat)
    assert report.converged
    assert events[0][0] == "md"
    seen_md_at = set()
    for kind, u_key in events:
        if kind == "md":
            seen_md_at.add(u_key)
        else:
            assert u_key in seen_md_at, "gradient evaluated before make_delaunay"


def test_report_totals_add_up():
    mesh, metric, theta_hat = octa_problem(12, spread=0.9)
    _, _, _, report = find_conformal_metric(mesh, metric, theta_hat)
    total = report.total_flips()
    assert total.total == sum(rec.flips.total for rec in report.steps)
    assert validate(mesh) == []
