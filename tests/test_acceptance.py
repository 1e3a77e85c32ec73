"""End-to-end acceptance battery.

One test per contract item, at the stated tolerance.  The two 50-instance
suites (closed spheres, symmetric disk covers) are expensive and shared
between several tests, so they run once as module fixtures.  Every
retriangulation inside those suites is audited: after each make_delaunay
return the full edge set is rescanned with the solver's own vectorized
predicate scan at a zero tie band, and any offender's raw value is kept.
The genus-2 cone solve runs under
``helpers.delaunay_after_every_retriangulation``, which asserts after each
make_delaunay return that every edge holds at the solver's tie band, and
under ``helpers.every_read_is_fresh``, which asserts that every read the
solver hands to a scan, a gradient or a Hessian is a fresh one.
"""

import math
import time

import numpy as np
import pytest
import scipy.stats

import confmetric.metric as metric_mod
import confmetric.solver as solver_mod
from confmetric import io
from confmetric.generate import generate
from confmetric.metric import (
    FlipBudgetError,
    flip_edge,
    gradient,
    hessian,
    make_delaunay,
    scalar_metric,
    vertex_angle_sums,
)
from confmetric.solver import SolverConfig, find_conformal_metric, solve_problem
from confmetric.symmetry import FlipType, apply_symmetric_flip, classify_flip

import helpers

SUITE_SIZE = 50


# -- shared instrumentation ----------------------------------------------------


class RetriangulationAudit:
    """Tolerance-zero Delaunay census over every post-retriangulation state."""

    def __init__(self):
        self.scans = 0
        self.checks = 0
        self.offenders = []
        self._interior = {}

    def interior_edges(self, mesh):
        key = id(mesh)
        if key not in self._interior:
            self._interior[key] = sum(
                1 for e in mesh.edges() if not helpers.is_boundary_edge(mesh, e)
            )
        return self._interior[key]

    def install(self):
        real = solver_mod.make_delaunay

        def audited(mesh, metric, u, refl=None, capped=False, read=None):
            log = real(mesh, metric, u, refl, capped, read)
            bad, _ = metric_mod._scan_violations_vectorized(mesh, metric, u, 0.0)
            self.scans += 1
            self.checks += self.interior_edges(mesh)
            value = scalar_metric(mesh, metric, u).value
            for e in bad:
                self.offenders.append(float(value(e)))
            return log

        solver_mod.make_delaunay = audited
        return real

    def worst(self):
        return min(self.offenders) if self.offenders else 0.0


@pytest.fixture(scope="module")
def sphere_suite():
    audit = RetriangulationAudit()
    real = audit.install()
    runs = []
    t0 = time.perf_counter()
    try:
        for seed in range(SUITE_SIZE):
            mesh, _, _, report = solve_problem(generate("sphere-random-angles", seed, 642))
            runs.append((mesh.n_vertices, report))
    finally:
        solver_mod.make_delaunay = real
    return {"runs": runs, "elapsed": time.perf_counter() - t0, "audit": audit}


@pytest.fixture(scope="module")
def disk_suite():
    # Grid disks contain exactly co-circular edge configurations, and with
    # a zero tie band the flip loop resolves them instead of parking them,
    # so these runs enforce the weak inequality with no band at all.
    audit = RetriangulationAudit()
    real = audit.install()
    band, metric_mod._EPS_FLIP = metric_mod._EPS_FLIP, 0.0
    runs = []
    t0 = time.perf_counter()
    try:
        for seed in range(SUITE_SIZE):
            prob = generate("disk-random-boundary", seed, 1089)
            rmesh, rmetric, _, report = solve_problem(prob)
            sums = vertex_angle_sums(rmesh, rmetric, [0.0] * rmesh.n_vertices)
            boundary_dev = max(
                abs(sums[v] - (math.pi - k)) for v, k in prob.kappa_targets.items()
            )
            ks = list(prob.kappa_targets.values())
            runs.append(
                {
                    # The generator prescribes kappa at exactly the boundary
                    # vertices, and the cover shares those between its sheets.
                    "n_cover_vertices": 2 * prob.n_vertices - len(ks),
                    "report": report,
                    "boundary_dev": boundary_dev,
                    "flips": report.total_flips().total,
                    "kappa_range": max(ks) - min(ks),
                }
            )
    finally:
        solver_mod.make_delaunay, metric_mod._EPS_FLIP = real, band
    return {"runs": runs, "elapsed": time.perf_counter() - t0, "audit": audit}


@pytest.fixture(scope="module")
def cone_run():
    cfg = SolverConfig(eps_tol=1e-8)
    with helpers.delaunay_after_every_retriangulation(), helpers.every_read_is_fresh() as reads:
        mesh, _, _, report = solve_problem(generate("single-cone-genus-2", 0, 0), cfg)
    return {"n_vertices": mesh.n_vertices, "report": report, "reads": reads}


# -- the battery ---------------------------------------------------------------


def test_sphere_suite_converges_within_step_and_time_budget(sphere_suite):
    good = 0
    worst_steps = 0
    for n, report in sphere_suite["runs"]:
        if report.converged and report.newton_steps <= 50:
            assert report.final_residual <= 1e-10
            good += 1
        worst_steps = max(worst_steps, report.newton_steps)
    elapsed = sphere_suite["elapsed"]
    print(
        f"\nsphere suite: {good}/{SUITE_SIZE} converged to 1e-10, "
        f"worst {worst_steps} steps, {elapsed:.1f}s"
    )
    assert good >= 49
    assert elapsed <= 300.0


def test_disk_suite_boundary_angles_and_flip_monotonicity(disk_suite):
    runs = disk_suite["runs"]
    for run in runs:
        assert run["report"].converged
        assert run["report"].final_residual <= 1e-10
    worst_dev = max(run["boundary_dev"] for run in runs)
    rho = scipy.stats.spearmanr(
        [run["flips"] for run in runs], [run["kappa_range"] for run in runs]
    ).statistic
    print(
        f"\ndisk suite: {len(runs)}/{SUITE_SIZE} converged, "
        f"worst boundary angle deviation {worst_dev:.2e}, "
        f"flips-vs-curvature-range spearman {rho:.3f}, "
        f"{disk_suite['elapsed']:.1f}s"
    )
    assert worst_dev <= 1e-9
    assert rho > 0.5


def test_every_retriangulation_leaves_all_edges_delaunay(sphere_suite, disk_suite):
    """Weak-inequality rescan of every post-make_delaunay state.

    The disk suite runs with a zero tie band, so its rescan must be
    literally clean.  The sphere runs keep the fixed 1e-12 band, as every
    solve does.  No sphere has been seen to cycle at a zero band; the flip
    cycles on record are of genus-4 and genus-6 cones before line-search
    trials were capped.  A tie evaluates to either side of zero in double
    precision, and the flip loop's scalar ``holds``, not this vectorized
    rescan, decides whether an edge is flipped, so offenders there must
    stay inside the band in magnitude.  Anything
    beyond it is a genuine violation; those sit around 1e-5 when the scan
    is broken on purpose.
    """
    sphere_audit = sphere_suite["audit"]
    disk_audit = disk_suite["audit"]
    assert sphere_audit.checks > 0 and disk_audit.checks > 0
    print(
        f"\nsphere: {sphere_audit.checks} edge checks over {sphere_audit.scans} scans, "
        f"{len(sphere_audit.offenders)} tie-band offenders, worst {sphere_audit.worst():.2e}\n"
        f"disk:   {disk_audit.checks} edge checks over {disk_audit.scans} scans, "
        f"{len(disk_audit.offenders)} offenders"
    )
    assert disk_audit.offenders == []
    assert all(abs(v) <= 1e-12 for v in sphere_audit.offenders)


def test_single_shot_retriangulation_matches_substep_evolution():
    worst = 0.0
    for seed in range(20):
        level = seed % 2
        flips = 12 if level == 0 else 24
        mesh_a, metric_a = helpers.shuffled_closed_mesh(
            np.random.default_rng(seed), level=level, flips=flips
        )
        mesh_b, metric_b = helpers.shuffled_closed_mesh(
            np.random.default_rng(seed), level=level, flips=flips
        )
        rng = np.random.default_rng(1000 + seed)
        u = rng.normal(0.0, 0.4, mesh_a.n_vertices)
        make_delaunay(mesh_a, metric_a, u)
        n_sub = 10_000
        for k in range(1, n_sub + 1):
            make_delaunay(mesh_b, metric_b, (k / n_sub) * u)
        a = np.array(helpers.active_lengths(mesh_a, metric_a))
        b = np.array(helpers.active_lengths(mesh_b, metric_b))
        assert a.shape == b.shape
        worst = max(worst, float(np.max(np.abs(a - b) / np.abs(a))))
    print(f"\nsubstep evolution: 20 meshes x 10^4 substeps, worst multiset rel {worst:.2e}")
    assert worst <= 1e-9


def test_flip_unflip_involution_across_hundred_thousand_pairs():
    worst = 0.0
    pairs = 0
    for mesh_seed in range(10):
        rng = np.random.default_rng(mesh_seed)
        level = mesh_seed % 2
        mesh, metric = helpers.shuffled_closed_mesh(
            rng, level=level, flips=6 + mesh_seed
        )
        cand = helpers.flippable_edges(mesh)
        for _ in range(10_000):
            e = cand[rng.integers(len(cand))]
            before = list(metric.lengths)
            flip_edge(mesh, metric, e)
            flip_edge(mesh, metric, e)
            pairs += 1
            for h in range(mesh.n_halfedges()):
                if mesh.he_face[h] < 0:
                    continue
                rel = abs(metric.lengths[h] - before[h]) / before[h]
                if rel > worst:
                    worst = rel
    print(f"\nflip/unflip: {pairs} pairs, worst relative length error {worst:.2e}")
    assert pairs == 100_000
    assert worst <= 1e-12


def test_hessian_matches_central_difference_jacobian_on_flip_free_states():
    worst = 0.0
    entries = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        level = seed % 2
        mesh, metric = helpers.shuffled_closed_mesh(rng, level=level, flips=10)
        n = mesh.n_vertices
        assert n <= 100
        u = rng.normal(0.0, 0.25, n)
        make_delaunay(mesh, metric, u)
        theta_hat = np.asarray(vertex_angle_sums(mesh, metric, u))
        H = helpers.hessian_matrix(hessian(mesh, metric, u), n).toarray()
        # residual = target - angles, whose Jacobian is +H
        J = np.empty_like(H)
        h = 1e-6
        for v in range(n):
            up = u.copy()
            up[v] += h
            um = u.copy()
            um[v] -= h
            gp = gradient(mesh, metric, up, theta_hat)
            gm = gradient(mesh, metric, um, theta_hat)
            J[:, v] = (gp - gm) / (2.0 * h)
        mask = np.abs(H) > 1e-8
        assert mask.any()
        entries += int(mask.sum())
        rel = np.max(np.abs(J[mask] - H[mask]) / np.abs(H[mask]))
        worst = max(worst, float(rel))
    print(f"\nhessian check: 10 states, {entries} entries, worst FD mismatch {worst:.2e}")
    assert worst <= 1e-5


def test_boundary_runs_keep_bitwise_mirror_symmetry(disk_suite):
    steps = 0
    for run in disk_suite["runs"]:
        for rec in run["report"].steps:
            assert rec.symmetry_ok is True
            steps += 1
    print(f"\nsymmetry: {steps} iterations across {len(disk_suite['runs'])} runs, all bitwise mirrored")


# Edge ids to flip, in order, on the uniform hexagon-fan cover; each chain
# ends in a state holding at least one edge of the keyed kind.  The keys
# are (face, edge class, face, adjacency) with faces sorted: tie-broken
# by reflection behaviour, "par" edges map to their own opposite, "sheet"
# edges have a distinct mirror edge.
FORCED_DELAUNAY_CHAINS = {
    ("t", "par", "t", "self"): [15, 12, 4, 4, 0, 1],
    ("q", "par", "q", "self"): [22, 19, 4, 20, 0, 13, 9, 31, 4],
    ("t", "sheet", "t", "two"): [15, 12],
    ("q", "sheet", "t", "two"): [12, 0, 20],
    ("q", "sheet", "q", "two"): [15, 7, 31, 13, 31, 0, 9, 22, 19],
}


def _edge_signature(mesh, refl, e):
    if refl.r[e] == mesh.opp[e]:
        cls = "par"
    elif refl.r[e] == e:
        cls = "perp"
    else:
        cls = "sheet"
    a = "q" if mesh.he_face[e] in mesh.quad_pairs else "t"
    b = "q" if mesh.he_face[mesh.opp[e]] in mesh.quad_pairs else "t"
    lo, hi = sorted((a, b))
    adj = "self" if mesh.he_face[e] == mesh.he_face[mesh.opp[e]] else "two"
    return (lo, cls, hi, adj)


def test_symmetry_forced_configurations_stay_delaunay_under_random_metrics():
    rng = np.random.default_rng(2024)
    tallies = {}
    minima = {}
    for sig, chain in FORCED_DELAUNAY_CHAINS.items():
        tallies[sig] = 0
        minima[sig] = math.inf
        for _ in range(1000):
            mesh, refl, cmetric, _ = helpers.hexagon_cover(long_edges=(), length=1.0)
            fresh = helpers.random_symmetric_lengths(mesh, refl, rng)
            for h in range(mesh.n_halfedges()):
                if mesh.he_face[h] >= 0:
                    cmetric.lengths[h] = fresh[h]
            for e in chain:
                apply_symmetric_flip(mesh, cmetric, refl, e)
            u = np.zeros(mesh.n_vertices)
            for v in range(mesh.n_vertices):
                w = refl.vertex_refl[v]
                if w >= v:
                    u[v] = u[w] = rng.normal(0.0, 0.3)
            value = scalar_metric(mesh, cmetric, u).value
            for e in mesh.edges():
                if helpers.is_boundary_edge(mesh, e):
                    continue
                kind, _ = classify_flip(mesh, refl, e)
                if kind is not FlipType.ALWAYS_DELAUNAY:
                    continue
                if _edge_signature(mesh, refl, e) != sig:
                    continue
                tallies[sig] += 1
                minima[sig] = min(minima[sig], value(e))
    print("")
    for sig, chain in FORCED_DELAUNAY_CHAINS.items():
        print(f"{sig}: {tallies[sig]} evaluations, min value {minima[sig]:.3e}")
        assert tallies[sig] >= 1000
        assert minima[sig] >= 0.0


def test_holds_accepts_exactly_the_forced_edges_when_no_value_clears_the_band(monkeypatch):
    # With an infinite negative band no value clears it, so only
    # classify_flip can make an edge hold.  (A band of -4 would not do:
    # Penner lengths need not satisfy triangle inequalities, and these
    # states hold edges with values from 4 to 8.)
    monkeypatch.setattr(metric_mod, "_EPS_FLIP", -math.inf)
    for sig, chain in FORCED_DELAUNAY_CHAINS.items():
        mesh, refl, cmetric, _ = helpers.hexagon_cover(long_edges=(), length=1.0)
        for e in chain:
            apply_symmetric_flip(mesh, cmetric, refl, e)
        holds = scalar_metric(mesh, cmetric, [0.0] * mesh.n_vertices, refl).holds
        forced = {
            e for e in mesh.edges()
            if classify_flip(mesh, refl, e)[0] is FlipType.ALWAYS_DELAUNAY
        }
        assert any(_edge_signature(mesh, refl, e) == sig for e in forced)
        assert {e for e in mesh.edges() if holds(e)} == forced


def test_a_capped_retriangulation_does_not_count_forced_edges_as_deep(monkeypatch):
    # Forced edges hold whatever their value, so a capped call does not
    # count them toward refusing it.  With no floor and no share, the scan
    # here reports each chain state's forced edges as deep: the call goes
    # on.  One more edge that can flip makes it refuse before any flip.
    # A cap of just under a flip per edge leaves these small covers the
    # flips they need.
    monkeypatch.setattr(metric_mod, "_TRIAL_FLIP_CAP", 0.999)
    monkeypatch.setattr(metric_mod, "_DEEP_SHARE", 0.0)
    monkeypatch.setattr(metric_mod, "_DEEP_FLOOR", 0)
    real = metric_mod._scan_violations_vectorized
    for chain in FORCED_DELAUNAY_CHAINS.values():
        mesh, refl, cmetric, _ = helpers.hexagon_cover(long_edges=(), length=1.0)
        for e in chain:
            apply_symmetric_flip(mesh, cmetric, refl, e)
        u = [0.0] * mesh.n_vertices
        forced = [
            e for e in mesh.edges()
            if classify_flip(mesh, refl, e)[0] is FlipType.ALWAYS_DELAUNAY
        ]
        free = next(
            e for e in mesh.edges() if e not in forced and not helpers.is_boundary_edge(mesh, e)
        )
        for deep in (sorted([*forced, free]), forced):
            monkeypatch.setattr(
                metric_mod, "_scan_violations_vectorized", lambda *a, deep=deep: (real(*a)[0], deep)
            )
            if free in deep:
                with pytest.raises(FlipBudgetError) as exc:
                    make_delaunay(mesh, cmetric, u, refl, capped=True)
                assert exc.value.flips.total == 0
            else:
                make_delaunay(mesh, cmetric, u, refl, capped=True)


def test_genus_two_cone_of_three_full_turns_converges(cone_run):
    report = cone_run["report"]
    print(
        f"\ngenus-2 cone: {cone_run['n_vertices']} vertices, "
        f"{report.newton_steps} steps, residual {report.final_residual:.2e}, "
        f"u in [{report.u_min:.2f}, {report.u_max:.2f}]"
    )
    assert report.converged
    assert report.final_residual <= 1e-8


def _kernel_calls(report):
    """Scans, gradients and Hessians of a solve without a line-search failure.
    A trial rejected at its flip cap scans but evaluates no gradient."""
    retriangulations = 1 + sum(rec.halvings + 1 for rec in report.steps[1:])
    capped = sum(rec.capped for rec in report.steps)
    return 2 * retriangulations + capped + report.newton_steps


def test_the_cone_solve_hands_its_kernels_only_fresh_reads(cone_run):
    # helpers.every_read_is_fresh compared every read with a fresh one as
    # it reached a scan, a gradient or a Hessian; every call had one.
    assert cone_run["reads"] == {"read": _kernel_calls(cone_run["report"])}


def test_cover_solves_hand_their_kernels_only_fresh_reads():
    # The same audit through paired, axis and leg-pair surgeries, and on a
    # hexagon cover whose first retriangulation flips.
    with helpers.every_read_is_fresh() as reads:
        *_, report = solve_problem(generate("disk-random-boundary", 0, 1089))
    flips = report.total_flips()
    assert report.converged
    assert flips.paired and flips.axis and flips.tri_quad and flips.quad_quad
    assert reads == {"read": _kernel_calls(report)}
    mesh, refl, cmetric, theta_hat = helpers.hexagon_cover(((0, 1), (2, 3)), 1.6)
    with helpers.every_read_is_fresh() as reads:
        *_, report = find_conformal_metric(mesh, cmetric, theta_hat, refl=refl)
    assert report.converged and report.steps[0].flips.total > 0
    assert reads == {"read": _kernel_calls(report)}


def test_angle_residual_sum_vanishes_at_every_iteration(sphere_suite, disk_suite, cone_run):
    worst_ratio = 0.0
    iterations = 0
    groups = [
        [(n, report) for n, report in sphere_suite["runs"]],
        [(run["n_cover_vertices"], run["report"]) for run in disk_suite["runs"]],
        [(cone_run["n_vertices"], cone_run["report"])],
    ]
    for group in groups:
        for n, report in group:
            for rec in report.steps:
                iterations += 1
                worst_ratio = max(worst_ratio, abs(rec.grad_sum) / (1e-10 * n))
    print(f"\nresidual conservation: {iterations} iterations, worst |sum g| at {worst_ratio:.2e} of budget")
    assert worst_ratio <= 1.0


# -- the high-precision oracle --------------------------------------------------


@pytest.mark.parametrize(
    "kind, size, tol", [("sphere-random-angles", 642, 1e-10), ("single-cone-genus-8", 0, 1e-8)]
)
def test_reported_residual_is_the_oracle_residual_of_the_returned_metric(kind, size, tol):
    # The kernel measures the residual at the solve's own scale and u; the
    # 50-digit oracle measures the scaled metric the solve returns.
    prob = generate(kind, 0, size)
    mesh, scaled, _, report = solve_problem(prob, SolverConfig(eps_tol=tol))
    sums = helpers.mp_angle_sums(mesh, scaled.lengths)
    theta = [
        prob.theta_targets.get(v, 2.0 * math.pi - prob.kappa_targets.get(v, 0.0))
        for v in range(mesh.n_vertices)
    ]
    oracle = max(abs(t - s) for t, s in zip(theta, sums))
    assert abs(oracle - report.final_residual) <= 1e-12
    assert report.converged


@pytest.mark.parametrize(
    "make, tol, quads",
    [
        pytest.param(lambda: generate("sphere-random-angles", 0, 642), 1e-10, 0,
                     id="sphere-random-angles-642-1e-10"),
        pytest.param(lambda: generate("single-cone-genus-8", 0, 0), 1e-8, 0,
                     id="single-cone-genus-8-0-1e-08"),
        pytest.param(lambda: generate("disk-random-boundary", 0, 1089), 1e-10, 1,
                     id="disk-random-boundary-1089-1e-10"),
        pytest.param(lambda: helpers.annulus(2), 1e-10, 2, id="annulus-2-1e-10"),
    ],
)
def test_returned_triangulation_is_delaunay_by_the_oracle(make, tol, quads):
    # Every edge of the returned triangulation, a double cover with its
    # quads included, has a 50-digit Delaunay value at or above the tie
    # band on the returned scaled metric.  A flip loop whose tie band were
    # widened to 1e-3 would leave 4 edges of the disk cover below -1e-12.
    # The annulus's cover is a torus with two quads.
    cfg = SolverConfig(eps_tol=tol)
    mesh, scaled, _, report = solve_problem(make(), cfg, keep_double_cover=True)
    assert report.converged and len(mesh.quad_pairs) == quads
    values = helpers.mp_delaunay_values(mesh, scaled.lengths)
    assert len(values) == mesh.n_edges()
    assert [e for e, x in values.items() if x < -metric_mod._EPS_FLIP] == []


def test_restricted_bundle_meets_its_targets_by_the_oracle():
    # Boundary vertices close at pi - kappa, the midpoints the cut adds
    # (u is NaN there) at pi, and interior vertices at 2 pi: on the disk,
    # and on both boundary loops of the annulus.  Computing the forward
    # axis surgery's apex height as (L[c]*m1 + d0*m2)/d puts the annulus's
    # boundary 0.88 off.
    for prob in (generate("disk-random-boundary", 0, 1089), helpers.annulus(2)):
        rmesh, rmetric, ru, report = solve_problem(prob)
        assert report.converged
        bundle = io.bundle_from_solution(rmesh, rmetric, ru, report, 0)
        assert not bundle.quad_diags and any(math.isnan(x) for x in bundle.u)
        mesh, edge = bundle.rebuild_mesh()
        sums = helpers.mp_angle_sums(mesh, [bundle.edge_lengths[e] for e in edge])
        for v, s in enumerate(sums):
            if v in prob.kappa_targets:
                want = math.pi - prob.kappa_targets[v]
            else:
                want = math.pi if math.isnan(bundle.u[v]) else 2.0 * math.pi
            assert abs(s - want) <= 1e-9, (v, s, want)
