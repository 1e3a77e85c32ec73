"""Newton solver driving angle sums to prescribed targets.

The iteration follows the classical scheme for the convex scale-factor
energy while never evaluating the energy itself: residual g = theta_hat -
Theta(u), direction d = -H^-1 g with H the cotangent matrix, and a line
search that retriangulates to Delaunay before every gradient evaluation.
The line search halves t from its first trial until the slope
<d, g(u + t*d)> is nonpositive or max|g| is within the tolerance; when a
rejected trial at 2t brackets the minimiser, it then tries one
regula-falsi point between t and 2t on that slope, so a full step that
lands just past the minimiser does not cost a rate-1/2 phase.  The first
trial is warm-started near the last accepted step: at the largest power
of two <= min(1, 2 * t_prev), and at t = 1 on the first Newton step.  A
step that accepted t >= 1/2 thus starts the next one at t = 1; after a
short step the search no longer pays the flips toward a full step and
back that each rejected trial costs.
A line search saves the state it is handed: mesh, metric and reflection
map.  Edge flips reach the Delaunay triangulation at any u from any
triangulation, so a halving retrial continues from the triangulation the
last trial left, and a trial from the saved state need not walk all the
way to an overshooting u: it is rejected once it has flipped a quarter
of the edges, and the saved state is written back.  A failed search
writes it back too, so its Newton step keeps the state it started from,
and returns the same record as an accepted one, with the reason in
``failure``; a rejected regula-falsi trial writes back the state saved
at t.  Nothing is flipped back.
H is never built as a matrix: ``hessian`` gives one term per corner, and
the Newton system is summed from them with one unknown per mirror orbit
of the double cover (a closed mesh has one vertex per orbit).  With the
stiffest orbit pinned the system is symmetric positive definite (the
energy is convex), so it is factored by a banded LAPACK Cholesky after a
reverse Cuthill-McKee ordering of the orbits narrows its band.

A solve reads the mesh and metric lists into numpy at its start and
after every retriangulation that flips; each read serves the scans,
gradients and Hessians up to the next flip, and a saved state keeps its
read, which serves again once the state is written back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph

from . import io
from .cover import build_double_cover, restrict_to_single_cover
from .halfedge import CombinatorialMesh, _array
from .metric import (
    _EPS_FLIP,
    _FLIP_BUDGET_FACTOR,
    FlipBudgetError,
    FlipLog,
    MetricError,
    PennerMetric,
    TriangleRead,
    _scale,
    gradient,
    hessian,
    make_delaunay,
    read_triangles,
    scalar_metric,
)
from .symmetry import ReflectionMap

# The first trial of a line search is at most this factor times the t the
# previous Newton step accepted (Nocedal & Wright, Numerical Optimization,
# section 3.5).
_T_GROWTH = 2.0

# A line search fails after _MAX_HALVINGS halvings of its first trial.  A
# trial that starts from the entry triangulation is rejected once it has
# made _TRIAL_FLIP_CAP flips per edge: on the seed-0 benchmark sets no trial
# that far from the entry state passes the slope test.
_MAX_HALVINGS = 40
_TRIAL_FLIP_CAP = 0.25


class SolverError(Exception):
    """Linear solve breakdown (non-finite or high-residual direction)."""


@dataclass
class SolverConfig:
    """Stopping knobs for the Newton iteration, each with an ``opt`` name
    (``cli._OPT_NAMES``); the halving and flip caps are constants.

    ``eps_flip`` is the Delaunay tie tolerance: edges whose predicate value
    sits in [-eps_flip, 0) are treated as co-circular and never flipped.
    The disk battery and the cones of genus 2 to 8 converge at 0: the line
    search's trial cap keeps the genus-4 and genus-6 cones away from a flip
    cycle there, but nothing proves the flip loop free of cycles.  Up to
    1e-2 a sphere, a disk and a cone take the same steps; wider bands end
    in a degenerate triangle (exit 4), the cone from 0.05, the sphere from
    0.5 and the disk at 1 (``docs/formats.md``).
    """

    eps_tol: float = 1e-10
    max_newton_steps: int = 50
    eps_flip: float = _EPS_FLIP


@dataclass
class NewtonStep:
    """One row of the iteration trace.

    ``step`` 0 describes the state after the initial retriangulation,
    before any Newton update; its decrement is NaN.  ``flips`` aggregates
    every surgery performed during the step, including rejected line-search
    trials (a rejected refinement, a capped trial or a failed search is
    written back, not flipped back).  ``symmetry_ok`` is None for solves
    without a reflection map.  ``halvings`` counts the line-search trials
    that evaluated a gradient, less one; ``capped`` the trials rejected at
    their flip cap, which evaluate none; and ``refined`` is True when the
    step taken is the line search's regula-falsi point.  ``t`` is the step
    the line search accepted and ``t0`` its first trial: 1.0 unless the
    step was warm-started below a full step.  Both are NaN at step 0, and
    ``t`` in the last row of a failed line search, which keeps u, counts
    its trials and flips, and gives the search's reason in ``failure``
    (empty in every other row).
    """

    step: int
    max_error: float
    halvings: int
    flips: FlipLog
    decrement: float
    grad_sum: float
    symmetry_ok: bool | None
    refined: bool = False
    t: float = math.nan
    t0: float = math.nan
    capped: int = 0
    failure: str = ""


@dataclass
class SolverReport:
    steps: list[NewtonStep]
    termination: str
    final_residual: float
    u_min: float
    u_max: float

    @property
    def converged(self) -> bool:
        return self.termination == "converged"

    @property
    def newton_steps(self) -> int:
        return len(self.steps) - 1

    def total_flips(self) -> FlipLog:
        out = FlipLog()
        for rec in self.steps:
            out.merge(rec.flips)
        return out


@dataclass
class LineSearchResult:
    """The accepted point u + t*d, and the residual ``g_try`` evaluated there.

    ``halvings`` is the number of gradient evaluations less one, ``slope``
    is <d, g_try>: <= 0 unless the trial was accepted for max|g_try| <=
    ``eps_tol``; ``t0`` is the first trial, and ``refined`` is True when t
    is the regula-falsi point rather than a power of two.  ``capped``
    counts the trials rejected at their flip cap.  ``read`` is what the
    gradient at the accepted point read.  ``failure`` is empty, or the
    reason no point was accepted: then ``u`` and ``read`` are the entry's,
    ``g_try`` is None, and ``slope`` and ``t`` are NaN.
    """

    u: np.ndarray
    g_try: np.ndarray | None
    halvings: int
    flips: FlipLog
    slope: float
    t: float
    t0: float
    refined: bool
    capped: int
    read: TriangleRead
    failure: str = ""


def newton_direction(terms: tuple, g: np.ndarray, orbit: np.ndarray | None = None) -> np.ndarray:
    """Solve H d = -g with one unknown per mirror orbit; d has zero mean.

    H = sum w (e_a - e_b)(e_a - e_b)^T comes as the corner terms ``(a, b,
    w)`` of ``hessian``, and ``orbit`` maps each vertex to its mirror orbit
    (None: every vertex alone), so d = P y is mirror-symmetric bitwise.  g
    is projected to zero mean (Gauss-Bonnet roundoff) and averaged per orbit
    to g_bar, which drops the antisymmetric roundoff no symmetric d can
    cancel.  Terms inside one orbit add nothing to P^T H P and are dropped.
    The constants span its nullspace, so the orbit with the largest
    diagonal, the stiffest, is pinned (a high-degree vertex would widen the
    band) and d recentred.  The pinned system is symmetric positive
    definite: its orbits are ordered by reverse Cuthill-McKee, its lower
    band is summed from the terms, and LAPACK factors it by Cholesky.
    Raises SolverError if the band is not positive definite, if d is
    non-finite, or if the flux residual |sum w (d_a - d_b)(e_a - e_b) +
    g_bar| exceeds 1e-10 * |g_bar|.
    """
    g = np.asarray(g, dtype=float)
    n = g.shape[0]
    orbit = np.arange(n) if orbit is None else orbit
    g_sum = np.bincount(orbit, g - g.mean())  # P^T g_bar
    g_bar = (g_sum / np.bincount(orbit))[orbit]
    gnorm = float(np.linalg.norm(g_bar))
    m = len(g_sum) - 1  # unknowns: every orbit but the pinned one
    if gnorm == 0.0 or m == 0:
        return np.zeros(n)
    a, b, w = terms
    i, j = orbit[a], orbit[b]
    cross = np.flatnonzero(i != j)  # indices: gathers beat boolean masks here
    a, b, i, j, w = a[cross], b[cross], i[cross], j[cross], w[cross]
    diag = np.bincount(i, w, m + 1) + np.bincount(j, w, m + 1)
    pin = int(np.argmax(diag))
    free = np.insert(np.arange(m), pin, m)  # the pinned orbit becomes m
    i, j = free[i], free[j]
    kept = np.flatnonzero((i < m) & (j < m))
    i, j, v = i[kept], j[kept], -w[kept]
    cols = np.sort(i * m + j) % m  # an edge's two corners give i -> j and j -> i; CSR order
    indptr = np.concatenate(([0], np.cumsum(np.bincount(i, minlength=m))))
    graph = scipy.sparse.csr_matrix((np.ones(len(cols)), cols, indptr), shape=(m, m))
    perm = scipy.sparse.csgraph.reverse_cuthill_mckee(graph, symmetric_mode=True)
    rank = np.argsort(perm)
    i, j = rank[i], rank[j]
    k, j = np.abs(i - j), np.minimum(i, j)  # LAPACK's lower band: band[i - j, j] = A[i, j]
    width = int(k.max(initial=0)) + 1
    # When every term touches the pinned orbit, bincount returns integers.
    band = np.bincount(k * m + j, v, width * m).astype(float, copy=False).reshape(width, m)
    band[0] = np.delete(diag, pin)[perm]
    try:
        factor = scipy.linalg.cholesky_banded(
            band, overwrite_ab=True, lower=True, check_finite=False
        )
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"pinned Hessian is not positive definite ({exc})") from exc
    y = np.zeros(m + 1)
    y[perm] = scipy.linalg.cho_solve_banded(
        (factor, True), -np.delete(g_sum, pin)[perm], check_finite=False
    )
    d = y[free][orbit]
    if not np.all(np.isfinite(d)):
        raise SolverError("non-finite Newton direction (degenerate Hessian)")
    d -= d.mean()
    flux = w * (d[a] - d[b])
    residual = float(np.linalg.norm(np.bincount(a, flux, n) - np.bincount(b, flux, n) + g_bar))
    if residual > 1e-10 * gnorm:
        raise SolverError(
            f"linear solve residual {residual:.3e} exceeds 1e-10 * |g| = {1e-10 * gnorm:.3e}"
        )
    return d


def line_search(
    mesh: CombinatorialMesh,
    metric: PennerMetric,
    u: np.ndarray,
    d: np.ndarray,
    theta_hat: np.ndarray,
    refl: ReflectionMap | None = None,
    config: SolverConfig | None = None,
    read: TriangleRead | None = None,
    t_max: float = 1.0,
) -> LineSearchResult:
    """Step to u + t*d with slope phi'(t) = <d, g(u + t*d)> <= 0.

    Trials run at t = t0, t0/2, t0/4, ... until one has phi'(t) <= 0,
    where t0 is the largest power of two <= ``t_max`` (1 by default;
    ``find_conformal_metric`` passes twice the last accepted t).  When a
    rejected trial at 2t precedes it, phi'(t) <= 0 < phi'(2t) brackets the
    minimiser along d, and one regula-falsi trial at
    t_r = t + t * -phi'(t) / (phi'(2t) - phi'(t)) follows: t_r is accepted
    if its slope is <= 0, otherwise the mesh, metric and reflection map
    saved at t are written back and t is accepted with the gradient and
    read measured there.  The energy is convex, so a nonpositive slope
    means descent without evaluating the energy.  A trial with max|g| <=
    ``config.eps_tol`` is accepted at once, whatever its slope, with no
    refinement after it: the sign of a slope made of roundoff is noise.

    Every trial retriangulates to Delaunay in place before evaluating the
    gradient.  The search saves the mesh, metric and reflection map it is
    handed, with their read.  The first trial, and a trial after a capped
    one, starts from that entry state; every other trial, the regula-falsi
    one among them, continues from the triangulation the last trial left.
    A power-of-two trial that starts from the entry state may flip
    ``_TRIAL_FLIP_CAP`` times per edge: one that needs more is capped,
    rejected without a gradient, and the entry state and its read are
    written back; the next trial has no regula-falsi bracket.  Other trials
    have the full flip budget.  The returned u is exactly ``u + t * d``,
    ``halvings`` counts the gradient evaluations minus one, and ``capped``
    the capped trials, whose flips count in ``flips``.

    The search fails when no trial within ``_MAX_HALVINGS`` halvings of t0
    is accepted, or when a power of two t leaves u unchanged (rounding is
    monotone, so a regula-falsi point past a t that moved u moves it too).
    It then writes the entry state back, bitwise, and returns the entry u
    and read with the reason in ``failure``.  ``config`` also gives the
    Delaunay tie tolerance of each retriangulation.  ``read`` reads the
    mesh at entry (None: read afresh); every trial that flips reads again.
    """
    cfg = config if config is not None else SolverConfig()
    u = np.asarray(u, dtype=float)
    d = np.asarray(d, dtype=float)
    flips = FlipLog()
    trials = capped = 0
    restore = _save(mesh, metric, refl)
    read = entry = read if read is not None else read_triangles(mesh, metric)

    def trial(u_try: np.ndarray, cap: bool) -> tuple[np.ndarray | None, float, bool]:
        nonlocal trials, capped, read
        cap = cap and read is entry
        budget = _TRIAL_FLIP_CAP if cap else _FLIP_BUDGET_FACTOR
        try:
            log = make_delaunay(mesh, metric, u_try, refl, cfg.eps_flip, budget, read)
        except FlipBudgetError as exc:
            if not cap:
                raise
            flips.merge(exc.flips)
            restore()
            read = entry
            capped += 1
            return None, math.nan, False  # rejected, with no slope to bracket
        read = read_triangles(mesh, metric) if log.total else read
        flips.merge(log)
        g_try = gradient(mesh, metric, u_try, theta_hat, read)
        trials += 1
        return g_try, float(d @ g_try), np.abs(g_try).max(initial=0.0) <= cfg.eps_tol

    t0 = math.ldexp(0.5, math.frexp(t_max)[1])  # largest power of two <= t_max
    slope_2t = None  # phi'(2t), once the trial at 2t has been rejected
    failure = f"no acceptable step within {_MAX_HALVINGS} halvings"
    for k in range(_MAX_HALVINGS + 1):
        t = t0 * 0.5**k
        u_try = u + t * d
        if np.array_equal(u_try, u):
            # The step is below the float resolution of u: accepting it
            # would repeat the same step until the Newton budget runs out.
            failure = "step does not move u"
            break
        g_try, slope, within = trial(u_try, True)
        if slope <= 0.0 or within:
            if slope_2t is not None and not within:
                t_r = t + t * -slope / (slope_2t - slope)
                if t < t_r < 2.0 * t:
                    restore_t, read_t = _save(mesh, metric, refl), read
                    u_r = u + t_r * d
                    g_r, slope_r, within = trial(u_r, False)
                    if slope_r <= 0.0 or within:
                        return LineSearchResult(
                            u_r, g_r, trials - 1, flips, slope_r, t_r, t0, True, capped, read
                        )
                    restore_t()
                    read = read_t
            return LineSearchResult(
                u_try, g_try, trials - 1, flips, slope, t, t0, False, capped, read
            )
        slope_2t = None if g_try is None else slope
    restore()
    return LineSearchResult(
        u, None, trials - 1, flips, math.nan, math.nan, t0, False, capped, entry, failure
    )


def _save(
    mesh: CombinatorialMesh, metric: PennerMetric, refl: ReflectionMap | None
) -> Callable[[], None]:
    """Copy every list and dict a retriangulation writes; the returned call
    writes them back in place, bitwise, so a read of the saved state is
    valid again.  Dicts keep their saved order, which reads follow."""
    parts = [mesh.next_he, mesh.opp, mesh.to, mesh.he_face, mesh.quad_pairs]
    parts += [metric.lengths, metric.quad_diag] + ([refl.r, refl.he_label] if refl else [])
    saved = [p.copy() for p in parts]

    def restore() -> None:
        for p, s in zip(parts, saved):
            p.clear()
            (p.update if isinstance(p, dict) else p.extend)(s)

    return restore


def _symmetry_snapshot(
    mesh: CombinatorialMesh,
    metric: PennerMetric,
    u: np.ndarray,
    refl: ReflectionMap | None,
) -> bool | None:
    if refl is None:
        return None
    if np.any(u != u[_array(refl.vertex_refl)]):
        return False
    L = _array(metric.lengths, float)
    live = np.flatnonzero(_array(mesh.he_face) >= 0)
    return not np.any(L[live] != L[_array(refl.r)[live]])


def scale_conformally(
    mesh: CombinatorialMesh,
    metric: PennerMetric,
    u: np.ndarray,
) -> PennerMetric:
    """Materialize the scaled metric: lengths and quad diagonals at u."""
    uu = np.asarray(u, dtype=float)
    to = _array(mesh.to)
    lengths = _array(metric.lengths, float)
    live = np.flatnonzero(_array(mesh.he_face) >= 0)
    lengths[live] = _scale(lengths[live], uu, to[live], to[_array(mesh.opp)[live]])
    scaled_diag = scalar_metric(mesh, metric, u).diag
    diag = {f: scaled_diag(f) for f in metric.quad_diag}
    return PennerMetric(lengths.tolist(), diag)


def _ldexp_metric(metric: PennerMetric, k: int) -> None:
    """Multiply every length and quad diagonal of ``metric`` by 2^k, in place."""
    metric.lengths[:] = np.ldexp(_array(metric.lengths, float), k).tolist()
    metric.quad_diag.update({f: math.ldexp(d, k) for f, d in metric.quad_diag.items()})


def find_conformal_metric(
    mesh: CombinatorialMesh,
    metric: PennerMetric,
    theta_hat: "list[float] | np.ndarray",
    config: SolverConfig | None = None,
    refl: ReflectionMap | None = None,
) -> tuple[CombinatorialMesh, PennerMetric, np.ndarray, SolverReport]:
    """Newton iteration for |theta_hat - Theta|_inf <= eps_tol.

    Mutates mesh and metric in place (flips); returns the mesh, the final
    scaled metric, the scale factors, and the iteration report.  The
    iteration starts at u = 0, on the lengths and quad diagonals divided by
    the power of two that puts the median length in [1, 2); both metrics
    are multiplied back at the end (not on an exception).  Scaling every
    input length by one factor changes no angle, so it scales the returned
    metric by that factor and leaves u as it is: bitwise for a power of
    two, up to rounding otherwise.  The returned triangulation is Delaunay
    for the returned u.  Convergence is judged on the residual recomputed
    after the final retriangulation.  A failed line search leaves the
    state its Newton step started from.
    """
    cfg = config if config is not None else SolverConfig()
    n = mesh.n_vertices
    u = np.zeros(n)
    theta_hat = np.asarray(theta_hat, dtype=float)
    if theta_hat.shape[0] != n:
        raise MetricError("theta_hat length does not match vertex count")
    scale = math.frexp(np.median(_array(metric.lengths, float)))[1] - 1
    _ldexp_metric(metric, -scale)

    # Each vertex's mirror orbit; surgeries keep vertex_refl.
    rep = np.arange(n) if refl is None else np.minimum(np.arange(n), _array(refl.vertex_refl))
    orbit = np.unique(rep, return_inverse=True)[1]
    read = read_triangles(mesh, metric)
    flips0 = make_delaunay(mesh, metric, u, refl, cfg.eps_flip, _FLIP_BUDGET_FACTOR, read)
    read = read_triangles(mesh, metric) if flips0.total else read
    g = gradient(mesh, metric, u, theta_hat, read)
    err = float(np.abs(g).max()) if n else 0.0
    steps = [
        NewtonStep(
            0, err, 0, flips0, math.nan, float(g.sum()), _symmetry_snapshot(mesh, metric, u, refl)
        )
    ]

    termination: str | None = None
    t_max = 1.0
    for k in range(1, cfg.max_newton_steps + 1):
        if err <= cfg.eps_tol:
            termination = "converged"
            break
        terms = hessian(mesh, metric, u, read)
        try:
            d = newton_direction(terms, g, orbit)
        except SolverError:
            termination = "linear_solve_breakdown"
            break
        decrement = float(-(d @ g))
        ls = line_search(mesh, metric, u, d, theta_hat, refl, cfg, read, t_max)
        u, read = ls.u, ls.read  # a failed search returns the u it was handed
        g = g if ls.g_try is None else ls.g_try
        t_max = min(1.0, _T_GROWTH * ls.t)
        err = float(np.abs(g).max())
        snapshot = _symmetry_snapshot(mesh, metric, u, refl)
        row = (ls.halvings, ls.flips, decrement, float(g.sum()), snapshot, ls.refined, ls.t, ls.t0)
        steps.append(NewtonStep(k, err, *row, ls.capped, ls.failure))
        if ls.failure:
            termination = "line_search_failed"
            break
    if termination is None:
        termination = "converged" if err <= cfg.eps_tol else "max_newton_steps"

    _ldexp_metric(metric, scale)
    scaled = scale_conformally(mesh, metric, u)
    report = SolverReport(
        steps=steps,
        termination=termination,
        final_residual=err,
        u_min=float(u.min()) if n else 0.0,
        u_max=float(u.max()) if n else 0.0,
    )
    return mesh, scaled, u, report


def _n_components(mesh: CombinatorialMesh) -> int:
    """Connected components of the vertex graph; isolated vertices count."""
    opp, to = _array(mesh.opp), _array(mesh.to)
    edges = np.flatnonzero((_array(mesh.he_face) >= 0) & (np.arange(len(opp)) < opp))
    n = mesh.n_vertices
    ends = (to[opp[edges]], to[edges])
    graph = scipy.sparse.coo_matrix((np.ones(len(edges)), ends), shape=(n, n))
    return scipy.sparse.csgraph.connected_components(graph, directed=False)[0]


def solve_problem(
    prob: io.ProblemFile,
    config: SolverConfig | None = None,
    keep_double_cover: bool = False,
) -> tuple[CombinatorialMesh, PennerMetric, "np.ndarray | list[float]", SolverReport]:
    """Solve a parsed problem, closed or with boundary.

    Targets are theta (angle sums, default 2*pi) or kappa (curvatures,
    default 0); a boundary vertex's angle sum is pi - kappa.  A closed mesh
    goes straight to ``find_conformal_metric``.  A mesh with boundary is
    solved on its mirror-symmetric double cover, and the result is cut back
    to the source disk unless ``keep_double_cover`` is set; the restricted
    u is NaN at the midpoint vertices the cut adds.  Returns the same tuple
    as ``find_conformal_metric``.  Raises ``io.ParseError`` when the input
    is rejected: bad lengths, more than one connected component, a target
    angle sum that is not positive, or targets that violate Gauss-Bonnet.
    Gauss-Bonnet is checked on the system the solver receives (the cover
    for a bounded mesh): the residual sums to the deviation, so a deviation
    above V * eps_tol cannot converge.
    """
    cfg = config if config is not None else SolverConfig()
    mesh, metric = io.problem_to_mesh(prob)
    n = mesh.n_vertices
    if _n_components(mesh) > 1:
        raise io.ParseError("mesh is not connected")
    two_pi = 2.0 * math.pi
    if prob.kappa_targets:
        boundary = mesh.boundary_vertices()
        flat = [math.pi if v in boundary else two_pi for v in range(n)]
        theta = [f - prob.kappa_targets.get(v, 0.0) for v, f in enumerate(flat)]
    else:
        theta = [prob.theta_targets.get(v, two_pi) for v in range(n)]
    v = next((v for v, t in enumerate(theta) if not t > 0.0), None)
    if v is not None:
        raise io.ParseError(f"vertex {v + 1} has target angle sum {theta[v]!r}, not > 0")
    refl = None
    if mesh.boundary_faces:
        # From here on the system is the double cover.
        cover, metric, theta = build_double_cover(mesh, metric, theta)
        mesh, refl = cover.mesh, cover.refl
    deviation = io.gauss_bonnet_deviation(mesh, theta)
    bound = mesh.n_vertices * cfg.eps_tol
    if abs(deviation) > bound:
        raise io.ParseError(
            f"targets violate Gauss-Bonnet beyond V * tol = {bound!r} (deviation {deviation!r})"
        )
    smesh, scaled, u, report = find_conformal_metric(mesh, metric, theta, cfg, refl=refl)
    if refl is None or keep_double_cover:
        return smesh, scaled, u, report
    rmesh, rmetric, ru = restrict_to_single_cover(cover, scaled, u)
    return rmesh, rmetric, ru, report
