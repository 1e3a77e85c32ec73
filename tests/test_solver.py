"""Newton iteration: direction solve, line search, full driver."""

import collections
import contextlib
import copy
import math
import pickle

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph
import scipy.sparse.linalg

import confmetric.metric as metric_mod
import confmetric.solver as solver_mod
from confmetric.cover import build_double_cover, restrict_to_single_cover
from confmetric.generate import generate, grid_disk
from confmetric.halfedge import build_from_face_lists, validate
from confmetric.io import problem_to_mesh
from confmetric.metric import (
    FlipBudgetError,
    FlipLog,
    PennerMetric,
    flip_edge,
    gradient,
    hessian,
    make_delaunay,
    read_triangles,
    scalar_metric,
    vertex_angle_sums,
)
from confmetric.solver import (
    NewtonStep,
    SolverConfig,
    SolverError,
    find_conformal_metric,
    line_search,
    newton_direction,
    scale_conformally,
    solve_problem,
)

import helpers


def octa_problem(seed=0, spread=0.35):
    mesh = helpers.octa()
    metric = helpers.uniform_metric(mesh)
    rng = np.random.default_rng(seed)
    delta = rng.normal(0.0, spread, 6)
    delta -= delta.mean()
    theta_hat = 4 * math.pi / 3 + delta
    return mesh, metric, theta_hat


# -- direction solve --------------------------------------------------------


def test_direction_is_zero_for_zero_gradient():
    mesh = helpers.octa()
    terms = hessian(mesh, helpers.uniform_metric(mesh), [0.0] * 6)
    d = newton_direction(terms, np.zeros(6))
    assert np.all(d == 0.0)


def test_direction_solves_the_system_with_zero_mean():
    mesh, metric, theta_hat = octa_problem(1)
    from confmetric.metric import gradient

    g = gradient(mesh, metric, [0.0] * 6, theta_hat)
    terms = hessian(mesh, metric, [0.0] * 6)
    d = newton_direction(terms, g)
    assert abs(d.mean()) <= 1e-14
    r = helpers.hessian_matrix(terms, 6) @ d + (g - g.mean())
    assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(g)


def test_direction_ignores_constant_gradient_component():
    mesh, metric, theta_hat = octa_problem(2)
    from confmetric.metric import gradient

    g = gradient(mesh, metric, [0.0] * 6, theta_hat)
    terms = hessian(mesh, metric, [0.0] * 6)
    d1 = newton_direction(terms, g)
    d2 = newton_direction(terms, g + 0.7)
    assert d1 == pytest.approx(d2, abs=1e-12)


def test_direction_breakdown_raises():
    a, b, w = hessian(helpers.octa(), helpers.uniform_metric(helpers.octa()), [0.0] * 6)
    keep = (a != 1) & (b != 1)  # vertex 1 decoupled: singular reduced system
    with pytest.raises(SolverError):
        newton_direction((a[keep], b[keep], w[keep]), np.array([0.3, -0.3, 0.2, -0.2, 0.1, -0.1]))


@pytest.mark.parametrize("weight", [0.3, 1.7])
def test_star_direction_pins_the_hub_and_keeps_its_float_diagonal(weight):
    # Every term touches the hub, the stiffest vertex: once it is pinned no
    # off-diagonal term is left, and the band holds the leaves' diagonal
    # W alone.  Truncated to an integer, W was 0 at corner weight 0.3 (not
    # positive definite) and 3 at 1.7 (off the residual gate).
    leaves = np.array([1, 2, 3])
    a, b = np.concatenate(([0, 0, 0], leaves)), np.concatenate((leaves, [0, 0, 0]))
    g = np.array([0.9, -0.2, -0.4, 0.1])
    d = newton_direction((a, b, np.full(6, weight)), g)
    W = 2.0 * weight  # the two corner terms of each hub-leaf edge
    assert d[leaves] - d[0] == pytest.approx(-(g - g.mean())[leaves] / W, rel=1e-14)


def test_direction_of_a_negative_definite_system_raises_solver_error():
    # The band factor's LinAlgError must not escape as such: the solve ends
    # in linear_solve_breakdown only on SolverError.
    mesh, metric, theta_hat = octa_problem(1)
    g = gradient(mesh, metric, [0.0] * 6, theta_hat)
    a, b, w = hessian(mesh, metric, [0.0] * 6)
    with pytest.raises(SolverError, match="not positive definite"):
        newton_direction((a, b, -w), g)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_direction_does_not_depend_on_the_vertex_labels(seed):
    # The fill-reducing order is internal: relabelling the vertices
    # relabels the direction, up to the rounding of another factorization.
    prob = generate("sphere-random-angles", seed, 42)
    mesh, metric = problem_to_mesh(prob)
    theta_hat = [prob.theta_targets.get(v, 2 * math.pi) for v in range(mesh.n_vertices)]
    u = np.zeros(mesh.n_vertices)
    g = gradient(mesh, metric, u, theta_hat)
    a, b, w = hessian(mesh, metric, u)
    d = newton_direction((a, b, w), g)
    p = np.random.default_rng(seed).permutation(mesh.n_vertices)
    inv = np.argsort(p)  # vertex v is relabelled inv[v]
    d_p = newton_direction((inv[a], inv[b], w), g[p])
    assert np.linalg.norm(d_p - d[p]) <= 1e-13 * np.linalg.norm(d)


def _pinned_reference(H, g, vr):
    """The direction of a full pinned solve, with each mirror orbit then
    copied from its lower-index member (``vr`` maps each vertex to its
    mirror image)."""
    g0 = g - g.mean()
    x = scipy.sparse.linalg.spsolve(scipy.sparse.csc_matrix(H)[1:, 1:], -g0[1:])
    d = np.concatenate(([0.0], x))
    d -= d.mean()
    low = np.flatnonzero(vr > np.arange(len(vr)))
    d[vr[low]] = d[low]
    return d


def _direction_inputs(monkeypatch, solve):
    """Every (terms, g, orbit) that ``solve()`` hands to newton_direction,
    with the direction it got back under the solve's kept plan."""
    seen = []
    real = solver_mod.newton_direction

    def spy(terms, g, orbit=None, plan=None):
        d = real(terms, g, orbit, plan)
        seen.append((tuple(np.array(x) for x in terms), np.array(g), np.array(orbit), d))
        return d

    monkeypatch.setattr(solver_mod, "newton_direction", spy)
    solve()
    return seen


def _first_direction_input(monkeypatch, instance):
    if instance == "octahedron":
        mesh, metric, theta_hat = octa_problem(5)
        solve = lambda: find_conformal_metric(mesh, metric, theta_hat)
    elif instance == "hexagon-cover":
        cover, cmetric, theta_hat = helpers.hexagon_cover(long_edges=((0, 1), (2, 3)), length=1.6)
        solve = lambda: find_conformal_metric(cover.mesh, cmetric, theta_hat, refl=cover.refl)
    else:
        prob = generate("disk-random-boundary", 0, 1089)
        solve = lambda: solve_problem(prob, SolverConfig(max_newton_steps=1))
    return _direction_inputs(monkeypatch, solve)[0]


@pytest.mark.parametrize("instance", ["octahedron", "hexagon-cover", "disk-cover"])
def test_orbit_solve_is_mirror_symmetric_and_matches_a_full_solve(monkeypatch, instance):
    terms, g, orbit, _ = _first_direction_input(monkeypatch, instance)
    d = newton_direction(terms, g, orbit)
    vr = helpers.mirror_partner(orbit)
    want = _pinned_reference(helpers.hessian_matrix(terms, len(g)), g, vr)
    if instance != "octahedron":
        assert np.any(vr != np.arange(len(vr)))
        assert np.array_equal(d, d[vr])
    assert np.linalg.norm(d - want) <= 1e-12 * np.linalg.norm(want)


def test_every_direction_of_a_disk_solve_matches_a_full_solve(monkeypatch):
    # The reference solves for the orbit-averaged g, as the direction does:
    # from the raw g its last directions keep the antisymmetric roundoff,
    # which is 6e-4 of the direction at the last step.  The solve's
    # direction, from the plan it kept across steps, is a fresh plan's up
    # to the rounding of another order.
    prob = generate("disk-random-boundary", 0, 1089)
    seen = _direction_inputs(monkeypatch, lambda: solve_problem(prob))
    assert len(seen) > 1
    for terms, g, orbit, kept in seen:
        d = newton_direction(terms, g, orbit)
        assert np.linalg.norm(kept - d) <= 1e-12 * np.linalg.norm(d)
        vr = helpers.mirror_partner(orbit)
        assert np.array_equal(d, d[vr])
        g0 = g - g.mean()
        g_bar = np.where(vr == np.arange(len(vr)), g0, 0.5 * (g0 + g0[vr]))
        want = _pinned_reference(helpers.hessian_matrix(terms, len(g)), g_bar, vr)
        assert np.linalg.norm(d - want) <= 1e-12 * np.linalg.norm(want)


def _plan_trace(monkeypatch, prob, cfg):
    """Solve ``prob``; per Newton direction, the RCM orders it made and the
    pin its plan then held, and the width of every band solved."""
    calls, widths, rcm = [], [], []
    real, real_rcm, real_solve = (
        solver_mod.newton_direction,
        scipy.sparse.csgraph.reverse_cuthill_mckee,
        scipy.linalg.solveh_banded,
    )

    def direction(terms, g, orbit=None, plan=None):
        before = len(rcm)
        d = real(terms, g, orbit, plan)
        calls.append((len(rcm) - before, plan["pin"]))
        return d

    def order(*args, **kwargs):
        rcm.append(1)
        return real_rcm(*args, **kwargs)

    def solve(band, *args, **kwargs):
        widths.append(band.shape[0])
        return real_solve(band, *args, **kwargs)

    monkeypatch.setattr(solver_mod, "newton_direction", direction)
    monkeypatch.setattr(scipy.sparse.csgraph, "reverse_cuthill_mckee", order)
    monkeypatch.setattr(scipy.linalg, "solveh_banded", solve)
    *_, report = solve_problem(prob, cfg)
    return report, calls, widths


@pytest.mark.parametrize("genus", [8, 12])
def test_every_order_after_the_first_pins_the_cone_vertex(monkeypatch, genus):
    # Pinned by the largest diagonal, the genus-12 cone vertex (degree
    # 104-164) stayed in the system at steps 4-6 and 11-12, whose bands
    # held up to 122 diagonals.  An order pins the orbit with the most
    # cross terms.  At step 1 (u = 0, uniform lengths) the cone vertex has
    # degree 6, as its neighbours do, so no order there singles it out.
    cfg = SolverConfig(eps_tol=1e-8, max_newton_steps=12)
    prob = generate(f"single-cone-genus-{genus}", 0, 0)
    cone = next(v for v, t in prob.theta_targets.items() if t > 2.0 * math.pi)
    report, calls, widths = _plan_trace(monkeypatch, prob, cfg)
    assert report.newton_steps == len(calls) == len(widths) == 12
    pins = [pin for built, pin in calls[1:] if built]
    assert len(pins) > 5 and set(pins) == {cone}
    assert max(widths) < 100


def test_a_sphere_solve_orders_its_orbits_again_only_after_flips(monkeypatch):
    # The order belongs to the triangulation: a direction after a line
    # search that flipped nothing reuses its plan, and one after flips
    # keeps the order unless the band under it got wider.
    report, calls, _ = _plan_trace(monkeypatch, generate("sphere-random-angles", 0, 642), None)
    assert report.converged and len(calls) == report.newton_steps
    built = [n for n, _ in calls]
    assert sum(built) < report.newton_steps
    still = [k for k in range(2, len(calls) + 1) if report.steps[k - 1].flips.total == 0]
    assert still and all(built[k - 1] == 0 for k in still)


def test_orbit_solve_passes_the_residual_gate_near_convergence(monkeypatch):
    # The last step of this disk starts from |g| about 1.9e-9, where the
    # antisymmetric roundoff of g exceeds what the 1e-10 gate allows (a
    # mirror-symmetric d cannot cancel it); the gate measures d against the
    # orbit-averaged g.
    prob = generate("disk-random-boundary", 0, 1089)
    terms, g, orbit, _ = _direction_inputs(monkeypatch, lambda: solve_problem(prob))[-1]
    d = newton_direction(terms, g, orbit)
    vr = helpers.mirror_partner(orbit)
    assert np.array_equal(d, d[vr])
    g0 = g - g.mean()
    g_bar = np.where(vr == np.arange(len(vr)), g0, 0.5 * (g0 + g0[vr]))
    assert np.linalg.norm(g0 - g_bar) > 1e-10 * np.linalg.norm(g_bar)
    H = helpers.hessian_matrix(terms, len(g))
    assert np.linalg.norm(H @ d + g0) > 1e-10 * np.linalg.norm(g0)
    assert np.linalg.norm(H @ d + g_bar) <= 1e-10 * np.linalg.norm(g_bar)


# -- line search -------------------------------------------------------------


def _octa_search_inputs(seed, spread):
    """The arguments of the first line search of an octahedron solve."""
    mesh, metric, theta_hat = octa_problem(seed, spread)
    u = np.zeros(6)
    g = gradient(mesh, metric, u, theta_hat)
    d = newton_direction(hessian(mesh, metric, u), g)
    return mesh, metric, u, d, g, np.asarray(theta_hat)


def test_line_search_accepts_full_step_near_solution():
    mesh, metric, u, d, g, theta_hat = _octa_search_inputs(3, 0.01)
    u_new, g_new, _, row = line_search(mesh, metric, u, d, g, theta_hat)
    assert row.halvings == 0
    assert d @ g_new <= 0.0
    assert u_new == pytest.approx(d, abs=1e-15)


def test_line_search_slope_is_nonpositive_at_acceptance():
    mesh, metric, u, d, g, theta_hat = _octa_search_inputs(4, 0.8)
    u_new, g_new, _, row = line_search(mesh, metric, u, d, g, theta_hat)
    assert d @ g_new <= 0.0
    # the returned point is exactly u + t*d, at a t no larger than the first
    assert np.array_equal(u_new, u + row.t * d)
    assert 0.0 < row.t <= row.t0


def test_line_search_returns_the_trace_row_of_its_step(monkeypatch):
    # The row is built from the numbers the search holds: its decrement is
    # the slope at t = 0, its residual figures those of the returned g.
    mesh, metric, u, d, g, theta_hat = _octa_search_inputs(4, 0.8)
    _, g_new, _, row = line_search(mesh, metric, u, d, g, theta_hat)
    assert row.decrement == -(d @ g) and row.failure == ""
    assert row.max_error == np.abs(g_new).max() and row.grad_sum == g_new.sum()
    # The driver appends the very rows the searches return.
    real = solver_mod.line_search
    rows = []

    def search(*args):
        out = real(*args)
        rows.append(out[3])
        return out

    monkeypatch.setattr(solver_mod, "line_search", search)
    *_, report = solve_problem(generate("sphere-random-angles", 0, 642))
    assert report.converged and report.newton_steps > 1
    assert all(rec is row for rec, row in zip(report.steps[1:], rows, strict=True))


def _spy_gradient(monkeypatch):
    """Record the u of every gradient evaluation the solver makes."""
    seen = []
    real = solver_mod.gradient

    def spy(mesh, metric, u, theta_hat, *args):
        seen.append(np.array(u, dtype=float))
        return real(mesh, metric, u, theta_hat, *args)

    monkeypatch.setattr(solver_mod, "gradient", spy)
    return seen


def _secant_ratio(d, g, u_first, mesh, metric, theta_hat):
    """phi'(0) / (phi'(0) - phi'(t0)) for a first trial at u_first = u + t0*d:
    the zero of the slope's secant from t = 0, as a share of t0.  The first
    trial's slope is measured on a copy retriangulated there."""
    m, mt = helpers.copy_mesh(mesh), helpers.copy_metric(metric)
    make_delaunay(m, mt, u_first)
    slope_0, slope_1 = d @ g, d @ gradient(m, mt, u_first, theta_hat)
    assert slope_0 < 0.0 < slope_1
    return slope_0 / (slope_0 - slope_1)


@pytest.mark.parametrize(
    "seed, spread, halvings, ratio",
    [(3, 0.01, 0, None), (3, 1.0, 1, (0.1, 0.9)), (170, 1.5, 2, (0.1, 0.9)), (4, 0.8, 1, (0.9, 1))],
    ids=["full_step", "refined", "refinement_rejected", "refined_at_nine_tenths"],
)
def test_line_search_gradient_calls_are_halvings_plus_one(
    monkeypatch, seed, spread, halvings, ratio
):
    # A full step; a rejected t = 1 followed by its accepted secant trial;
    # a rejected secant trial, followed by half of it; and a secant zero
    # past 0.9, kept at 0.9.
    mesh, metric, u, d, g, theta_hat = _octa_search_inputs(seed, spread)
    inputs = helpers.copy_mesh(mesh), helpers.copy_metric(metric)
    seen = _spy_gradient(monkeypatch)
    u_new, _, _, row = line_search(mesh, metric, u, d, g, theta_hat)
    assert len(seen) == row.halvings + 1 == halvings + 1
    # the accepted point is the last one evaluated
    assert np.array_equal(seen[-1], u_new) and np.array_equal(u_new, u + row.t * d)
    if ratio:
        # After a rejected first trial with a slope, the second gradient is
        # evaluated at exactly u + t1*d; every later trial halves.
        r = _secant_ratio(d, g, seen[0], *inputs, theta_hat)
        assert ratio[0] < r < ratio[1]
        t1 = row.t0 * min(max(r, 0.1), 0.9)
        assert [x.tobytes() for x in seen[1:]] == [
            (u + t1 * 0.5**k * d).tobytes() for k in range(halvings)
        ]


def _failed_search(mesh, metric, u, d, g, theta_hat, **kwargs):
    """Run a line search that must fail; check that it returns the entry u,
    g and read, and a row with t NaN that measures the entry g, and return
    its reason."""
    read = read_triangles(mesh, metric)
    u_new, g_new, r, row = line_search(mesh, metric, u, d, g, theta_hat, read=read, **kwargs)
    assert u_new.tobytes() == np.asarray(u, dtype=float).tobytes() and r is read
    assert g_new.tobytes() == g.tobytes() and math.isnan(row.t)
    assert row.max_error == np.abs(g).max() and row.decrement == -(d @ g)
    return row.failure


def _failed_row(d, g, halvings, flips, failure):
    """The row a failed search from residual g along d returns, t0 = 1."""
    err, g_sum = float(np.abs(g).max()), float(g.sum())
    return NewtonStep(0, err, halvings, flips, float(-(d @ g)), g_sum, None, t0=1.0,
                      failure=failure)


@pytest.mark.parametrize("above", [True, False])
def test_line_search_accepts_a_trial_within_tolerance_whatever_its_slope(monkeypatch, above):
    # Near the solution the slope at a trial is roundoff, and its sign is
    # noise.  An ascent direction has a positive slope at every t: the first
    # trial is accepted only when its residual is within eps_tol.  Its slope
    # at t = 0 is positive too, so the search only halves.
    mesh, metric, u, d, g, theta_hat = _octa_search_inputs(3, 0.01)
    m2, metric2 = helpers.copy_mesh(mesh), helpers.copy_metric(metric)
    make_delaunay(m2, metric2, u - d)
    first = np.abs(gradient(m2, metric2, u - d, theta_hat)).max()
    monkeypatch.setattr(solver_mod, "_MAX_HALVINGS", 3)
    cfg = SolverConfig(eps_tol=2.0 * first if above else 0.5 * first)
    if not above:
        seen = _spy_gradient(monkeypatch)
        failure = _failed_search(mesh, metric, u, -d, g, theta_hat, config=cfg)
        assert failure == "no acceptable step within 3 halvings"
        assert [x.tobytes() for x in seen] == [(u - 0.5**k * d).tobytes() for k in range(4)]
        return
    u_new, g_new, _, row = line_search(mesh, metric, u, -d, g, theta_hat, config=cfg)
    assert row.halvings == 0 and row.t == row.t0 == 1.0
    assert (-d) @ g_new > 0.0
    assert np.array_equal(u_new, u - d)


def test_line_search_rejects_a_step_that_does_not_move_u():
    # A step below the float resolution of u has slope <= 0; accepting it
    # would repeat the same step until max_newton_steps.
    mesh = helpers.tetra()
    metric = helpers.uniform_metric(mesh)
    u = np.array([0.5, -0.5, 0.25, -0.25])
    theta_hat = np.full(4, math.pi)
    g = gradient(mesh, metric, u, theta_hat)
    failure = _failed_search(mesh, metric, u, -1e-20 * g, g, theta_hat)
    assert failure == "step does not move u"


def _cone_search_inputs(genus):
    """A single-cone mesh, Delaunay at u = 0, and its first Newton direction."""
    prob = generate(f"single-cone-genus-{genus}", 0, 0)
    mesh, metric = problem_to_mesh(prob)
    n = mesh.n_vertices
    theta_hat = np.array([prob.theta_targets.get(v, 2.0 * math.pi) for v in range(n)])
    u = np.zeros(n)
    make_delaunay(mesh, metric, u)
    g = gradient(mesh, metric, u, theta_hat)
    d = newton_direction(hessian(mesh, metric, u), g)
    return mesh, metric, u, d, g, theta_hat


@pytest.mark.parametrize("t_max, t0", [(0.7, 0.5), (0.5, 0.5), (0.3, 0.25)])
def test_warm_started_line_search_starts_at_the_largest_power_of_two_below_t_max(
    monkeypatch, t_max, t0
):
    # From t = 1 the genus-2 cone's first step caps t = 1, rejects t = 1/2
    # and accepts 1/4; a search started at 1/2 skips t = 1, and its secant
    # trial after 1/2 is accepted between 1/4 and 1/2.
    mesh, metric, u, d, g, theta_hat = _cone_search_inputs(2)
    seen = _spy_gradient(monkeypatch)
    u_new, _, _, row = line_search(mesh, metric, u, d, g, theta_hat, t_max=t_max)
    assert np.array_equal(seen[0], u + t0 * d)
    assert row.t0 == t0
    assert len(seen) == row.halvings + 1
    assert np.array_equal(seen[-1], u_new) and np.array_equal(u_new, u + row.t * d)
    if t0 == 0.5:
        assert row.halvings == 1 and 0.25 < row.t < 0.5
    else:
        assert row.halvings == 0 and row.t == 0.25


def test_warm_started_line_search_counts_max_halvings_from_its_first_trial(monkeypatch):
    # t = 1/2 is rejected: with no halving that is the only trial, and one
    # more trial reaches the accepted secant point below it.
    seen = _spy_gradient(monkeypatch)
    mesh, metric, u, d, g, theta_hat = _cone_search_inputs(2)
    monkeypatch.setattr(solver_mod, "_MAX_HALVINGS", 0)
    failure = _failed_search(mesh, metric, u, d, g, theta_hat, t_max=0.5)
    assert failure == "no acceptable step within 0 halvings" and len(seen) == 1
    seen.clear()
    mesh, metric, u, d, g, theta_hat = _cone_search_inputs(2)
    monkeypatch.setattr(solver_mod, "_MAX_HALVINGS", 1)
    row = line_search(mesh, metric, u, d, g, theta_hat, t_max=0.5)[3]
    assert len(seen) == row.halvings + 1 == 2 and row.t < 0.5


def _first_search_inputs(monkeypatch, kind, size):
    """Copies of the arguments of the first line search of a seed-0 solve."""
    got = []

    def grab(mesh, metric, u, d, g, theta_hat, refl, config, read, t_max):
        got.append(copy.deepcopy((mesh, metric, u, d, g, theta_hat, refl, config, read, t_max)))
        return u, g, read, _failed_row(d, g, -1, FlipLog(), "grabbed")

    with monkeypatch.context() as m:
        m.setattr(solver_mod, "line_search", grab)
        solve_problem(generate(kind, 0, size), SolverConfig(eps_tol=1e-8))
    return got[0]


@pytest.mark.parametrize(
    "kind, size", [("single-cone-genus-2", 0), ("disk-random-boundary", 289)]
)
def test_a_capped_trial_writes_back_the_entry_state_and_evaluates_no_gradient(
    monkeypatch, kind, size
):
    # From the entry state the full first step flips 161 times on the cone
    # and 178 on the disk cover, the half step 8 and 97; a cap of half + 1
    # flips rejects the first trial alone.
    args = _first_search_inputs(monkeypatch, kind, size)
    mesh, metric, u, d, g, theta_hat, refl, cfg, read, t_max = args

    def flips_at(t):
        m, mt, r = copy.deepcopy((mesh, metric, refl))
        return make_delaunay(m, mt, u + t * d, r).total

    full, half = flips_at(1.0), flips_at(0.5)
    assert t_max == 1.0 and full > half + 1
    monkeypatch.setattr(metric_mod, "_TRIAL_FLIP_CAP", (half + 0.5) / mesh.n_edges())
    entry = _state(mesh, metric, refl)
    calls = []  # per retriangulation: u, state and read it started from, flips
    real_md = solver_mod.make_delaunay

    def md(mesh, metric, u_try, refl, capped, r):
        calls.append([np.array(u_try), _state(mesh, metric, refl), r, None])
        try:
            calls[-1][3] = real_md(mesh, metric, u_try, refl, capped, r)
        except FlipBudgetError as exc:
            calls[-1][3] = exc.flips
            raise
        return calls[-1][3]

    monkeypatch.setattr(solver_mod, "make_delaunay", md)
    seen = _spy_gradient(monkeypatch)
    row = line_search(*args)[3]
    assert row.capped == 1 and calls[0][3].total == half + 1
    # The trial at t = 1/2 starts from the entry lists, bitwise, and from
    # the read the search was handed.
    assert np.array_equal(calls[1][0], u + 0.5 * d)
    assert calls[1][1] == entry and calls[1][2] is read
    # The capped trial evaluates no gradient, and its flips count.
    assert len(seen) == row.halvings + 1 == len(calls) - 1
    assert not any(np.array_equal(x, calls[0][0]) for x in seen)
    total = FlipLog()
    for *_, log in calls:
        total.merge(log)
    assert row.flips == total
    # A capped first trial measures no slope, so every later trial halves.
    assert math.frexp(row.t)[0] == 0.5


@pytest.mark.parametrize(
    "kind, size, t", [("sphere-random-angles", 642, 1.0), ("disk-random-boundary", 289, 4.0)]
)
def test_a_capped_retriangulation_that_its_scan_condemns_flips_nothing(monkeypatch, kind, size, t):
    # The sphere's full first step leaves more than a tenth of the edges
    # below -0.5 (capped after 480 flips before its scan refused it), and
    # so does four times the disk cover's, whose deep edges are classified
    # first.  Refused, the call leaves every list bitwise as it found it.
    args = _first_search_inputs(monkeypatch, kind, size)
    mesh, metric, u, d, g, theta_hat, refl, cfg, read, t_max = args
    entry = _state(mesh, metric, refl)
    with pytest.raises(FlipBudgetError) as exc:
        make_delaunay(mesh, metric, u + t * d, refl, True, read)
    assert exc.value.flips == FlipLog()
    assert _state(mesh, metric, refl) == entry
    assert make_delaunay(mesh, metric, u + t * d, refl, read=read).total > 0


@pytest.mark.parametrize(
    "kind, size, tol",
    [("sphere-random-angles", 642, 1e-10), ("single-cone-genus-4", 0, 1e-8),
     ("disk-random-boundary", 289, 1e-10)],
)
def test_a_capped_retriangulation_at_the_entry_u_is_never_refused(monkeypatch, kind, size, tol):
    # Every line search is handed a state that is Delaunay at its u, so no
    # edge lies below -0.5 there, and a capped call returns with no flip;
    # by continuity, halving reaches a trial the scan admits.
    real = solver_mod.line_search
    searches = 0

    def search(mesh, metric, u, d, g, theta_hat, refl, config, read, t_max):
        nonlocal searches
        searches += 1
        scan = metric_mod._scan_violations_vectorized
        assert scan(mesh, metric, u, metric_mod._EPS_FLIP, read, metric_mod._DEEP)[1] == []
        assert make_delaunay(mesh, metric, u, refl, True, read).total == 0
        return real(mesh, metric, u, d, g, theta_hat, refl, config, read, t_max)

    monkeypatch.setattr(solver_mod, "line_search", search)
    *_, report = solve_problem(generate(kind, 0, size), SolverConfig(eps_tol=tol))
    assert report.converged and searches == report.newton_steps


def test_an_uncapped_trial_that_spends_its_flip_budget_raises(monkeypatch):
    # The first trial of this search flips under its cap and is rejected;
    # the secant trial continues from there and flips under the full
    # budget: spent, that budget is a breach, not a capped rejection.
    mesh, metric, u, d, g, theta_hat = _octa_search_inputs(2, 1.0)
    monkeypatch.setattr(metric_mod, "_FLIP_BUDGET_FACTOR", 0.0)
    with pytest.raises(FlipBudgetError):
        line_search(mesh, metric, u, d, g, theta_hat)


def _cone_first_trial(genus):
    """A single-cone mesh retriangulated at the full first Newton step."""
    mesh, metric, u, d, *_ = _cone_search_inputs(genus)
    flips = make_delaunay(mesh, metric, u + d)
    holds = scalar_metric(mesh, metric, u + d).holds
    return flips, [e for e in mesh.edges() if not holds(e)]


def test_first_trial_of_the_genus_16_cone_retriangulates_within_budget():
    # The full first Newton step (|d| up to 366) scales some sides down to
    # about 1e-158.  A retriangulation that rescanned after each pass
    # flipped one edge back and forth until FlipBudgetError.  Unscaled, the
    # squares of those sides are subnormal, and both diagonals of that quad
    # evaluated to -1.3e-9; with the power-of-two rescale one pass ends
    # after about 31,500 flips with every edge Delaunay.
    flips, failing = _cone_first_trial(16)
    assert flips.total > 0
    assert failing == []


def test_first_trial_of_the_genus_17_cone_retriangulates():
    # Here the products of two sides overflow, which made the scan raise
    # MetricError before the power-of-two rescale.
    flips, failing = _cone_first_trial(17)
    assert flips.total > 0
    assert failing == []


@pytest.mark.parametrize("genus, audit", [(16, True), (17, False)])
def test_high_genus_cone_solves_end_in_a_termination(genus, audit):
    # Genus 16 with every retriangulation checked and the genus-17 line of
    # the cone sweep raised MetricError at their first trial without the
    # rescale.
    cfg = SolverConfig(eps_tol=1e-8, max_newton_steps=1)
    prob = generate(f"single-cone-genus-{genus}", 0, 0)
    with helpers.delaunay_after_every_retriangulation() if audit else contextlib.nullcontext():
        *_, report = solve_problem(prob, cfg)
    assert report.termination == "max_newton_steps"
    assert report.newton_steps == 1


def test_cone_sweep_converges_with_warm_started_line_searches():
    # Started at t = 1, each line search of the sweep flipped toward a full
    # step and back: 60,575 flips over genus 2-8.  Warm-started at twice
    # the last accepted step, the sweep needs 28,079.
    cfg = SolverConfig(eps_tol=1e-8, max_newton_steps=200)
    flips = 0
    for genus in range(2, 9):
        *_, report = solve_problem(generate(f"single-cone-genus-{genus}", 0, 0), cfg)
        assert report.converged, genus
        flips += report.total_flips().total
    assert flips <= 36_000


def test_genus_10_cone_solve_does_not_break_down():
    # With orbit 0 pinned, the cone vertex sat inside the band, and step 49
    # missed the 1e-10 residual gate.  An order pins the orbit with the most
    # cross terms instead, the cone vertex once it has the highest degree.
    cfg = SolverConfig(eps_tol=1e-8, max_newton_steps=200)
    *_, report = solve_problem(generate("single-cone-genus-10", 0, 0), cfg)
    assert report.termination != "linear_solve_breakdown"


def test_genus_9_cone_solve_converges():
    # Uncapped trials walked to each overshooting u, and the search ended
    # line_search_failed at step 134; with capped trials 42 steps and 2,362
    # flips reach the tolerance.
    cfg = SolverConfig(eps_tol=1e-8, max_newton_steps=200)
    *_, report = solve_problem(generate("single-cone-genus-9", 0, 0), cfg)
    assert report.converged
    assert sum(rec.capped for rec in report.steps) > 0


@pytest.mark.parametrize("genus", [4, 6])
def test_cone_solves_converge_without_a_tie_band(monkeypatch, genus):
    # At a zero tie band an uncapped overshooting trial of these cones
    # cycled through flips until the flip budget ran out (29,100 and 43,500
    # flips, FlipBudgetError); capped, they converge in 13 and 17 steps.
    monkeypatch.setattr(metric_mod, "_EPS_FLIP", 0.0)
    cfg = SolverConfig(eps_tol=1e-8, max_newton_steps=200)
    *_, report = solve_problem(generate(f"single-cone-genus-{genus}", 0, 0), cfg)
    assert report.converged


def test_newton_steps_record_the_accepted_and_first_trial_step():
    cfg = SolverConfig(eps_tol=1e-8, max_newton_steps=200)
    *_, report = solve_problem(generate("single-cone-genus-4", 0, 0), cfg)
    assert report.converged
    assert math.isnan(report.steps[0].t) and math.isnan(report.steps[0].t0)
    t_max = 1.0  # the first step starts at a full step
    for rec in report.steps[1:]:
        assert math.frexp(rec.t0)[0] == 0.5  # a power of two
        assert rec.t0 <= t_max < 2.0 * rec.t0
        assert rec.t <= rec.t0
        t_max = min(1.0, 2.0 * rec.t)
    assert any(rec.t0 < 1.0 for rec in report.steps[1:])


def test_sphere_solve_is_bitwise_the_same_with_every_line_search_started_at_t_1(monkeypatch):
    # Every step of this solve accepts t >= 1/2, a secant t included, so
    # the warm start never moves the first trial below t = 1.
    *_, u_warm, warm = solve_problem(generate("sphere-random-angles", 1, 642))
    real = solver_mod.line_search
    monkeypatch.setattr(solver_mod, "line_search", lambda *args: real(*args[:9], t_max=1.0))
    *_, u_cold, cold = solve_problem(generate("sphere-random-angles", 1, 642))
    assert any(0.5 < rec.t < 1.0 for rec in warm.steps[1:])
    assert all(rec.t0 == 1.0 for rec in warm.steps[1:])
    assert [(r.halvings, r.flips) for r in warm.steps] == [
        (r.halvings, r.flips) for r in cold.steps
    ]
    assert np.array_equal(u_warm, u_cold)


# -- full driver -------------------------------------------------------------


def test_already_satisfied_targets_need_no_steps():
    mesh = helpers.tetra()
    metric = helpers.uniform_metric(mesh)
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
    pristine = helpers.copy_metric(metric)
    mesh_out, scaled, u, report = find_conformal_metric(mesh, metric, theta_hat)
    again = scale_conformally(read_triangles(mesh_out, metric), u)
    assert scaled.lengths == again.lengths
    # the driver never touches the original-scale lengths except by flips
    assert report.converged
    if report.total_flips().total == 0:
        assert metric.lengths == pristine.lengths


def test_scale_conformally_scales_quad_diagonals_as_scalar_metric_does():
    # The read's heads put a parked pair between its quad's diagonal
    # corners, the corners ``scalar_metric(...).diag`` scales between.
    cover, cmetric, _ = helpers.hexagon_cover()
    helpers.drive_to_quads(cover, cmetric)
    mesh = cover.mesh
    assert mesh.quad_pairs
    n = mesh.n_vertices
    rep = np.minimum(np.arange(n), cover.refl.vertex_refl)
    rng = np.random.default_rng(5)
    for _ in range(20):
        u = rng.uniform(-3.0, 3.0, n)[rep]  # mirror-symmetric, bitwise
        scaled = scale_conformally(read_triangles(mesh, cmetric), u).lengths
        scalar = scalar_metric(mesh, cmetric, u)
        for h in range(mesh.n_halfedges()):
            if mesh.he_face[h] >= 0:
                assert abs(scaled[h] - scalar.length(h)) <= 2 * math.ulp(scalar.length(h))
        for f, pair in mesh.quad_pairs.items():
            for h in pair:
                assert abs(scaled[h] - scalar.diag(f)) <= 2 * math.ulp(scalar.diag(f))


@pytest.mark.parametrize(
    "kind, size", [("sphere-random-angles", 162), ("disk-random-boundary", 289)]
)
def test_a_solve_converts_the_length_list_once(monkeypatch, kind, size):
    # For the median and the scale-down, whatever the step count: the
    # symmetry snapshot, the scale-back and the returned metric use the read.
    real = solver_mod._array
    floats = []

    def spy(xs, dtype=np.intp):
        if np.dtype(dtype).kind == "f":
            floats.append(len(xs))
        return real(xs, dtype)

    monkeypatch.setattr(solver_mod, "_array", spy)
    *_, report = solve_problem(generate(kind, 0, size))
    assert report.converged and report.newton_steps > 1
    assert len(floats) == 1


def test_solve_is_gauge_invariant():
    # Lengths scaled by e^1.5 are the start u = 1.5 of the unscaled problem.
    # Angles do not see the scale, so u must come out the same and the
    # solved metric scaled by e^1.5; the step-by-step paths may differ in
    # ulps, so only the solutions are compared.
    scale = math.exp(1.5)
    mesh_a, metric_a, theta_hat = octa_problem(7)
    mesh_b = helpers.copy_mesh(mesh_a)
    metric_b = PennerMetric([x * scale for x in metric_a.lengths])
    _, scaled_a, u_a, rep_a = find_conformal_metric(mesh_a, metric_a, theta_hat)
    _, scaled_b, u_b, rep_b = find_conformal_metric(mesh_b, metric_b, theta_hat)
    assert rep_a.converged and rep_b.converged
    assert np.max(np.abs(u_b - u_a)) <= 1e-9
    la = helpers.active_lengths(mesh_a, scaled_a)
    lb = [x / scale for x in helpers.active_lengths(mesh_b, scaled_b)]
    assert la == pytest.approx(lb, rel=1e-9)


@pytest.mark.parametrize(
    "lengths, termination, steps",
    [
        ([1.027, 0.954, 0.908, 0.903, 1.063, 1.083], "converged", 16),
        ([1.002, 1.09, 0.929, 1.09, 0.962, 0.985], "converged", 17),
    ],
)
def test_lengths_scaled_by_a_power_of_two_change_no_bit_of_the_solve(lengths, termination, steps):
    # A tetrahedron with one small target.  The solve runs at the scale that
    # puts the median length in [1, 2), so copies scaled by 2^600 and
    # 2^-600, whose side products leave the float range, end the same way
    # with the same u, and their solved metrics are the same times 2^k.
    # The second tetrahedron's flips leave a star around its pinned hub;
    # its first full step flips past the cap of 1.5 flips on 6 edges.
    t = [1.03, 2.0e-5, 7.74]
    theta_hat = t + [4 * math.pi - sum(t)]
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    runs = []
    for k in (0, 600, -600):
        mesh = helpers.tetra()
        metric = helpers.uniform_metric(mesh)
        for (a, b), x in zip(pairs, lengths):
            helpers.set_length(mesh, metric, a, b, math.ldexp(x, k))
        given = list(metric.lengths)
        _, scaled, u, report = find_conformal_metric(mesh, metric, theta_hat)
        assert (report.termination, report.newton_steps) == (termination, steps)
        if report.total_flips().total == 0:
            assert metric.lengths == given
        runs.append((u.tobytes(), [math.ldexp(x, -k) for x in scaled.lengths]))
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_flat_grid_cover_solves_in_zero_steps():
    faces, pos = grid_disk(4)
    disk = build_from_face_lists(faces)
    metric = helpers.uniform_metric(disk)
    for e in disk.edges():
        a, b = helpers.edge_endpoints(disk, e)
        metric.lengths[e] = metric.lengths[disk.opp[e]] = math.dist(pos[a], pos[b])
    # flat grid boundary: right-angle corners, straight edges elsewhere
    boundary = disk.boundary_vertices()
    theta = [math.pi if v in boundary else 2 * math.pi for v in range(16)]
    for v, (x, y, _) in enumerate(pos):
        if {x, y} <= {0.0, 3.0} :
            theta[v] = math.pi / 2
    cover, cmetric, theta_hat = build_double_cover(disk, metric, theta)
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
        if mesh.he_face[h] >= 0:
            assert cmetric.lengths[h] == cmetric.lengths[refl.r[h]]
    # restriction of the solved cover has the prescribed boundary angles;
    # it cuts the scaled metric the solver returns
    rmesh, rmetric, ru = restrict_to_single_cover(cover, scaled, u)
    sums = vertex_angle_sums(rmesh, rmetric, [0.0] * rmesh.n_vertices)
    for v in range(7):
        want = theta_hat[v] / 2 if v < 6 else theta_hat[v]
        assert sums[v] == pytest.approx(want, abs=1e-9)


def _state(*records):
    """Every field of the records (mesh, metric, reflection map; None is
    skipped), pickled: lists and dicts in their order, floats bitwise."""
    fields = [(type(r).__name__, k, v) for r in records if r for k, v in vars(r).items()]
    return [(name, k, pickle.dumps(v)) for name, k, v in fields]


def test_retriangulation_after_line_search_failure_is_verified(monkeypatch):
    mesh, metric, theta_hat = octa_problem(8)
    edge = {frozenset(helpers.edge_endpoints(mesh, e)): e for e in mesh.edges()}
    entry = []

    def fail(mesh, metric, u, d, g, theta_hat, refl, config, read, t_max):
        # A failed search writes back the state it was handed, as
        # line_search does; here after flipping two edges with no face in
        # common, which leave two edges of the uniform octahedron failing
        # at u = 0.
        entry.append(_state(mesh, metric))
        restore = solver_mod._save(mesh, metric, None)
        for a, b in ((0, 1), (3, 5)):
            flip_edge(mesh, metric, edge[frozenset((a, b))])
        restore()
        return u, g, read, _failed_row(d, g, 0, FlipLog(single=2), "forced")

    monkeypatch.setattr(solver_mod, "line_search", fail)
    with helpers.delaunay_after_every_retriangulation() as audited:
        _, _, u, report = find_conformal_metric(mesh, metric, theta_hat)
    assert report.termination == "line_search_failed"
    # The state the step started from is kept, not retriangulated: the one
    # audit is the initial retriangulation's.  Uniform lengths 1 are solved
    # at scale 2^0, so the metric comes back as it was.
    assert len(audited) == 1 and np.array_equal(audited[0], u)
    assert _state(mesh, metric) == entry[0]
    last = report.steps[-1]
    assert report.newton_steps == 1 and last.flips == FlipLog(single=2) and last.halvings == 0
    assert math.isnan(last.t) and last.t0 == 1.0 and np.all(u == 0.0)
    assert last.failure == "forced" and report.steps[0].failure == ""


@pytest.mark.parametrize(
    "kind, size", [("sphere-random-angles", 642), ("disk-random-boundary", 1089)]
)
def test_a_line_search_saves_the_state_it_is_handed_once(monkeypatch, kind, size):
    # A rejected trial is followed by a smaller one from the triangulation
    # it left, or from the entry state after a cap: no state is saved at
    # any t, and nothing but the entry state is written back.
    real_search, real_save = solver_mod.line_search, solver_mod._save
    saves = []

    def save(*args):
        saves[-1] += 1
        return real_save(*args)

    def search(*args):
        saves.append(0)
        return real_search(*args)

    monkeypatch.setattr(solver_mod, "_save", save)
    monkeypatch.setattr(solver_mod, "line_search", search)
    *_, report = solve_problem(generate(kind, 0, size))
    assert report.converged and saves == [1] * report.newton_steps
    assert any(rec.halvings for rec in report.steps)  # some search rejects a trial


@pytest.mark.parametrize(
    "kind, size", [("sphere-random-angles", 642), ("disk-random-boundary", 1089)]
)
def test_a_failed_line_search_leaves_the_state_it_found(monkeypatch, kind, size):
    # One uncapped trial and no halving: the first Newton step of either
    # seed-0 instance fails after flipping (563 plain flips on the sphere,
    # 398 surgeries on the disk cover), and the write-back discards the
    # flips.  Capped, the sphere's trial is refused at its scan and flips
    # nothing; no disk trial is capped.
    monkeypatch.setattr(metric_mod, "_TRIAL_FLIP_CAP", metric_mod._FLIP_BUDGET_FACTOR)
    monkeypatch.setattr(metric_mod, "_DEEP", math.inf)
    real = solver_mod.line_search
    entry = []

    def search(mesh, metric, u, d, g, theta_hat, refl=None, *args):
        entry.append((mesh, metric, refl, copy.deepcopy((mesh, metric, refl))))
        return real(mesh, metric, u, d, g, theta_hat, refl, *args)

    monkeypatch.setattr(solver_mod, "line_search", search)
    monkeypatch.setattr(solver_mod, "_MAX_HALVINGS", 0)
    *_, u, report = solve_problem(generate(kind, 0, size), keep_double_cover=True)
    assert report.termination == "line_search_failed" and len(entry) == 1
    assert report.steps[-1].flips.total > 0 and np.all(u == 0.0)
    assert report.steps[-1].failure == "no acceptable step within 0 halvings"
    mesh, metric, refl, (mesh0, metric0, refl0) = entry[0]
    # The solve runs at a power-of-two length scale and multiplies the
    # metric back on return.
    k = math.frexp(metric.lengths[0])[1] - math.frexp(metric0.lengths[0])[1]
    metric0.lengths[:] = np.ldexp(metric0.lengths, k).tolist()
    assert _state(mesh, metric, refl) == _state(mesh0, metric0, refl0)


def _check_continuations(monkeypatch):
    """Wrap the solver's ``line_search`` and ``make_delaunay``.  Each search
    must start its first trial from the state it was handed, bitwise, and
    every later trial from the state the trial before it left, or from the
    handed state again when that trial was capped.  Returns, per search,
    the trials that continued from a state the search had flipped, its
    capped trials and its reflection map."""
    real_search, real_md = solver_mod.line_search, solver_mod.make_delaunay
    trials, searches = [], []

    def md(mesh, metric, u, refl=None, *args, **kwargs):
        before = _state(mesh, metric, refl)
        try:
            log = real_md(mesh, metric, u, refl, *args, **kwargs)
        except FlipBudgetError:
            trials.append((before, None))  # capped: the search writes back its entry state
            raise
        trials.append((before, _state(mesh, metric, refl)))
        return log

    def search(mesh, metric, u, d, g, theta_hat, refl=None, *args):
        entry = _state(mesh, metric, refl)
        trials.clear()
        res = real_search(mesh, metric, u, d, g, theta_hat, refl, *args)
        starts = [entry] + [entry if after is None else after for _, after in trials[:-1]]
        assert [before for before, _ in trials] == starts
        capped = sum(after is None for _, after in trials)
        assert capped == res[3].capped
        searches.append((sum(start != entry for start in starts), capped, refl))
        return res

    monkeypatch.setattr(solver_mod, "make_delaunay", md)
    monkeypatch.setattr(solver_mod, "line_search", search)
    return searches


@pytest.mark.parametrize(
    "kind, size, tol", [("sphere-random-angles", 642, 1e-10), ("single-cone-genus-4", 0, 1e-8)]
)
def test_a_retrial_continues_where_the_last_trial_left_off(monkeypatch, kind, size, tol):
    # Both solves have trials that continue and trials that are capped.
    searches = _check_continuations(monkeypatch)
    *_, report = solve_problem(generate(kind, 0, size), SolverConfig(eps_tol=tol))
    assert report.converged and len(searches) == report.newton_steps
    assert sum(n for n, _, _ in searches) > 0 and sum(n for _, n, _ in searches) > 0


@pytest.mark.parametrize("seed, size", [(0, 289), (7, 1089)])
def test_continued_cover_solves_stay_delaunay_and_mirror_symmetric(monkeypatch, seed, size):
    searches = _check_continuations(monkeypatch)
    with helpers.delaunay_after_every_retriangulation():
        mesh, metric, u, report = solve_problem(
            generate("disk-random-boundary", seed, size), keep_double_cover=True
        )
    assert report.converged and sum(n for n, _, _ in searches) > 0
    assert all(rec.symmetry_ok for rec in report.steps)
    refl = searches[0][2]
    assert np.array_equal(u, u[refl.vertex_refl])
    live = [h for h in range(mesh.n_halfedges()) if mesh.he_face[h] >= 0]
    assert all(metric.lengths[h] == metric.lengths[refl.r[h]] for h in live)


def test_the_sphere_set_flips_at_most_6_000_times():
    # Uncapped trials flipped 17,077 times over these seven solves when
    # every retrial continued from the last trial's triangulation; with
    # trials from the entry state capped at a quarter flip per edge, 8,162,
    # of which the seven capped first trials made 3,360.  Their scans now
    # refuse them before any flip: 4,802.
    flips = 0
    for seed in range(7):
        *_, report = solve_problem(generate("sphere-random-angles", seed, 642))
        assert report.converged, seed
        flips += report.total_flips().total
    assert flips <= 6_000


@pytest.mark.parametrize(
    "kind, size, max_halvings, termination",
    [
        ("sphere-random-angles", 642, 40, "converged"),
        ("disk-random-boundary", 1089, 40, "converged"),
        ("single-cone-genus-4", 0, 0, "line_search_failed"),
        ("sphere-random-angles", 642, 0, "line_search_failed"),
        ("disk-random-boundary", 1089, 0, "line_search_failed"),
    ],
)
def test_the_report_counts_what_the_kernels_were_called_for(
    monkeypatch, kind, size, max_halvings, termination
):
    # The traced benchmark checks these equalities between the calls its
    # wrappers see and what the solves report.  A failed line search has
    # a row of its own, so its Hessian, direction, trials and flips count
    # (1,195, 563 and 398 flips on the three failures).  Each failure's one
    # trial is uncapped: capped, the scan refuses the cone's and the
    # sphere's before any flip.
    calls = collections.Counter()
    searching = []

    def spy(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name, any(searching)] += 1
            searching.append(name == "line_search")
            try:
                return real(*args, **kwargs)
            finally:
                searching.pop()

        monkeypatch.setattr(module, name, wrapper)

    for module, name in [(solver_mod, "hessian"), (solver_mod, "newton_direction"),
                         (solver_mod, "line_search"), (solver_mod, "gradient"),
                         (metric_mod, "flip_edge"), (metric_mod, "apply_symmetric_flip")]:
        spy(module, name)
    monkeypatch.setattr(solver_mod, "_MAX_HALVINGS", max_halvings)
    if max_halvings == 0:
        monkeypatch.setattr(metric_mod, "_TRIAL_FLIP_CAP", metric_mod._FLIP_BUDGET_FACTOR)
        monkeypatch.setattr(metric_mod, "_DEEP", math.inf)
    *_, report = solve_problem(generate(kind, 0, size))
    assert report.termination == termination
    steps, total = report.newton_steps, report.total_flips()
    count = lambda name: calls[name, False] + calls[name, True]  # noqa: E731
    assert count("hessian") == count("newton_direction") == steps
    assert calls["gradient", True] == sum(rec.halvings + 1 for rec in report.steps[1:])
    assert count("flip_edge") == total.single
    assert count("apply_symmetric_flip") == total.total - total.single
    assert report.converged or report.steps[-1].flips.total > 0


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


@pytest.mark.parametrize(
    "kind, size", [("sphere-random-angles", 642), ("disk-random-boundary", 1089)]
)
def test_a_solve_reads_the_lists_once_per_triangulation(monkeypatch, kind, size):
    # One read at the start and one after every retriangulation that
    # flipped serve all scans, gradients and Hessians of the solve.
    calls = dict.fromkeys(("read", "flipping", "kernel"), 0)

    def counted(module, name, key):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            out = real(*args, **kwargs)
            if key != "flipping" or out.total:
                calls[key] += 1
            return out

        monkeypatch.setattr(module, name, wrapper)

    counted(solver_mod, "read_triangles", "read")
    counted(metric_mod, "read_triangles", "read")
    counted(solver_mod, "make_delaunay", "flipping")
    for module, name in [(solver_mod, "gradient"), (solver_mod, "hessian"),
                         (metric_mod, "_scan_violations_vectorized")]:
        counted(module, name, "kernel")
    *_, report = solve_problem(generate(kind, 0, size))
    assert report.converged
    assert calls["read"] == calls["flipping"] + 1
    assert calls["read"] < calls["kernel"] / 2


@pytest.mark.parametrize(
    "kind, size", [("sphere-random-angles", 642), ("disk-random-boundary", 1089)]
)
def test_full_step_overshoot_costs_no_halving_phase(kind, size):
    # Seed 1 of both families lands each full Newton step just past the
    # minimiser; halving alone took 29 (sphere) and 24 (disk) steps.
    *_, report = solve_problem(generate(kind, 1, size))
    assert report.converged
    assert report.newton_steps <= 10


def test_report_totals_add_up():
    mesh, metric, theta_hat = octa_problem(12, spread=0.9)
    _, _, _, report = find_conformal_metric(mesh, metric, theta_hat)
    total = report.total_flips()
    assert total.total == sum(rec.flips.total for rec in report.steps)
    assert validate(mesh) == []
