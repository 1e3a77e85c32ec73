"""Newton solver driving angle sums to prescribed targets.

The iteration follows the classical scheme for the convex scale-factor
energy while never evaluating the energy itself: residual g = theta_hat -
Theta(u), direction d = -H^-1 g with H the cotangent matrix, and a line
search that retriangulates to Delaunay before every gradient evaluation.
The line search accepts the first trial whose slope <d, g(u + t*d)> is
nonpositive or whose max|g| is within the tolerance.  The slope at t = 0
is <d, g>, so when the first trial t0 is rejected with a slope, the next
trial is the zero of the slope's secant between 0 and t0, kept within
[t0/10, 9*t0/10]: a full step that lands just past the minimiser does not
cost a rate-1/2 phase.  Every other rejected trial halves t.  The first
trial is warm-started near the last accepted step: at the largest power
of two <= min(1, 2 * t_prev), and at t = 1 on the first Newton step.  A
step that accepted t >= 1/2 thus starts the next one at t = 1; after a
short step the search no longer pays the flips toward a full step and
back that each rejected trial costs.
A line search saves the state it is handed: mesh, metric and reflection
map.  Edge flips reach the Delaunay triangulation at any u from any
triangulation, so a retrial continues from the triangulation the last
trial left, and a trial from the saved state need not walk all the way
to an overshooting u: it is rejected once it has flipped a quarter of
the edges, or before any flip when its scan condemns it, and the saved
state is written back.  A failed search writes it back too, so its
Newton step keeps the state it started from.  Nothing is flipped back.
Either way the search returns its step's trace row, a ``NewtonStep``,
built where its numbers are known.
H is never built as a matrix: ``hessian`` gives one term per corner, and
the Newton system is summed from them with one unknown per mirror orbit
of the double cover (a closed mesh has one vertex per orbit).  With the
stiffest orbit pinned the system is symmetric positive definite (the
energy is convex), so it is factored by a banded LAPACK Cholesky after a
reverse Cuthill-McKee ordering of the orbits narrows its band.

A solve reads the mesh and metric lists into numpy at its start and
after every retriangulation that flips; each read serves the scans,
gradients, Hessians and symmetry snapshots up to the next flip, and a
saved state keeps its read, which serves again once the state is
written back.  The returned scaled metric is the last read's.
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
)
from .symmetry import ReflectionMap

# The first trial of a line search is at most this factor times the t the
# previous Newton step accepted (Nocedal & Wright, Numerical Optimization,
# section 3.5).
_T_GROWTH = 2.0

# A line search fails after _MAX_HALVINGS rejected trials past its first,
# the secant trial among them.
_MAX_HALVINGS = 40


class SolverError(Exception):
    """Linear solve breakdown (non-finite or high-residual direction)."""


@dataclass
class SolverConfig:
    """Stopping knobs for the Newton iteration, each with an ``opt`` name
    (``cli._OPT_NAMES``); the halving cap is a constant here, and the flip
    caps and the Delaunay tie band are ``metric``'s."""

    eps_tol: float = 1e-10
    max_newton_steps: int = 50


@dataclass
class NewtonStep:
    """One row of the iteration trace; the one place that says what its
    numbers mean.

    ``line_search`` builds every row after step 0; the driver numbers it
    and sets ``symmetry_ok`` (None for solves without a reflection map).
    Step 0 is the state after the initial retriangulation, before any
    Newton update.  ``max_error`` and ``grad_sum`` are max|g| and sum g of
    the residual the step ends with, ``decrement`` is -<d, g> at its start
    (NaN at step 0), and ``flips`` counts every surgery the step made,
    those of rejected trials included.  ``halvings`` counts the trials
    that evaluated a gradient, less one; ``capped`` the trials rejected at
    their flip cap or by their scan, which evaluate none.  ``t`` is the
    step accepted and ``t0`` the first trial: 1.0 unless warm-started
    below a full step.  Both are NaN at step 0, and ``t`` in the row of a
    failed search, which ends with the state it started from and gives
    its reason in ``failure`` (empty in every other row).
    """

    step: int
    max_error: float
    halvings: int
    flips: FlipLog
    decrement: float
    grad_sum: float
    symmetry_ok: bool | None
    t: float = math.nan
    t0: float = math.nan
    capped: int = 0
    failure: str = ""


@dataclass
class SolverReport:
    steps: list[NewtonStep]
    termination: str
    u_min: float
    u_max: float

    @property
    def final_residual(self) -> float:
        """The last row's residual: every exit records it there."""
        return self.steps[-1].max_error

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
    band is summed from the terms, and one LAPACK call solves it by Cholesky.
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
    y = np.zeros(m + 1)
    try:
        y[perm] = scipy.linalg.solveh_banded(
            band, -np.delete(g_sum, pin)[perm], overwrite_ab=True, lower=True, check_finite=False
        )
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"pinned Hessian is not positive definite ({exc})") from exc
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
    g: np.ndarray,
    theta_hat: np.ndarray,
    refl: ReflectionMap | None = None,
    config: SolverConfig | None = None,
    read: TriangleRead | None = None,
    t_max: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, TriangleRead, NewtonStep]:
    """Step to u + t*d with slope phi'(t) = <d, g(u + t*d)> <= 0.

    ``g`` is the residual at u, so phi'(0) = <d, g>.  The first trial is
    at t0, the largest power of two <= ``t_max`` (1 by default;
    ``find_conformal_metric`` passes twice the last accepted t).  When it
    is rejected with a measured slope and phi'(0) < 0 < phi'(t0), the next
    trial is the zero of the secant of phi' through 0 and t0,
    t1 = t0 * phi'(0) / (phi'(0) - phi'(t0)), kept within [t0/10,
    9*t0/10]; every other rejected trial halves t.  The energy is convex,
    so a nonpositive slope means descent without evaluating the energy.  A
    trial with max|g| <= ``config.eps_tol`` is accepted at once, whatever
    its slope: the sign of a slope made of roundoff is noise.

    Every trial retriangulates to Delaunay in place before evaluating the
    gradient.  The search saves the mesh, metric and reflection map it is
    handed, with their read.  A trial that starts from that entry state
    (the first, and any trial after one that was capped or flipped
    nothing) is a capped ``make_delaunay`` call, which may make a quarter
    flip per edge (``metric`` owns the cap): one that needs more is
    capped, rejected with no gradient and so no slope, and the entry state
    and its read are written back; a trial its scan condemns flips nothing
    and needs none.  On the seed-0 benchmark sets no trial that far from
    the entry state passes.  Every other trial continues from the
    triangulation the last trial left, with the full flip budget.

    Returns ``(u, g, read, row)``: the accepted point, exactly ``u + t * d``,
    its residual and read, and the step's ``NewtonStep`` with its
    decrement -phi'(0); the caller sets ``step`` and ``symmetry_ok``.  The
    search fails when t0 and the ``_MAX_HALVINGS`` trials after it are
    rejected, or when a trial leaves u unchanged.  It then writes the
    entry state back, bitwise, and returns the entry u, g and read, with
    the reason in the row's ``failure``.  ``read`` reads the mesh at entry
    (None: read afresh); every trial that flips reads again.
    """
    cfg = config if config is not None else SolverConfig()
    u = np.asarray(u, dtype=float)
    d = np.asarray(d, dtype=float)
    flips = FlipLog()
    trials = capped = 0
    restore = _save(mesh, metric, refl)
    read = entry = read if read is not None else read_triangles(mesh, metric)

    def trial(u_try: np.ndarray) -> tuple[np.ndarray | None, float, bool]:
        nonlocal trials, capped, read
        cap = read is entry
        try:
            log = make_delaunay(mesh, metric, u_try, refl, cap, read)
        except FlipBudgetError as exc:
            if not cap:
                raise
            flips.merge(exc.flips)
            if exc.flips.total:  # a trial its scan refused flipped nothing
                restore()
            capped += 1
            return None, math.nan, False  # rejected, with no slope to interpolate
        read = read_triangles(mesh, metric) if log.total else read
        flips.merge(log)
        g_try = gradient(mesh, metric, u_try, theta_hat, read)
        trials += 1
        return g_try, float(d @ g_try), np.abs(g_try).max(initial=0.0) <= cfg.eps_tol

    slope_0 = float(d @ g)
    t = t0 = math.ldexp(0.5, math.frexp(t_max)[1])  # largest power of two <= t_max
    failure = f"no acceptable step within {_MAX_HALVINGS} halvings"
    for k in range(_MAX_HALVINGS + 1):
        u_try = u + t * d
        if np.array_equal(u_try, u):
            # The step is below the float resolution of u: accepting it
            # would repeat the same step until the Newton budget runs out.
            failure = "step does not move u"
            break
        g_try, slope, within = trial(u_try)
        if slope <= 0.0 or within:
            u, g, failure = u_try, g_try, ""
            break
        if k == 0 and slope_0 < 0.0 < slope:  # a capped trial's slope is NaN
            t = t0 * min(max(slope_0 / (slope_0 - slope), 0.1), 0.9)  # the secant zero of phi'
        else:
            t *= 0.5
    if failure:
        restore()
        t, read = math.nan, entry
    err, g_sum = float(np.abs(g).max()), float(g.sum())
    row = NewtonStep(0, err, trials - 1, flips, -slope_0, g_sum, None, t, t0, capped, failure)
    return u, g, read, row


def _save(
    mesh: CombinatorialMesh, metric: PennerMetric, refl: ReflectionMap | None
) -> Callable[[], None]:
    """Copy every list and dict a retriangulation writes; the returned call
    writes them back in place, bitwise, so a read of the saved state is
    valid again.  Dicts keep their saved order, which reads follow."""
    parts = [mesh.next_he, mesh.opp, mesh.to, mesh.he_face, mesh.quad_pairs, metric.lengths]
    parts += [refl.r, refl.he_label] if refl else []
    saved = [p.copy() for p in parts]

    def restore() -> None:
        for p, s in zip(parts, saved):
            p.clear()
            (p.update if isinstance(p, dict) else p.extend)(s)

    return restore


def _symmetry_snapshot(
    read: TriangleRead, u: np.ndarray, refl: ReflectionMap | None, mirror: np.ndarray
) -> bool | None:
    if refl is None:
        return None
    if np.any(u != u[mirror]):
        return False
    return not np.any(read.lengths != read.lengths[_array(refl.r)])


def scale_conformally(read: TriangleRead, u: np.ndarray, k: int = 0) -> PennerMetric:
    """The scaled metric of ``read`` at u, times 2^k, stored diagonals included."""
    to, uu = read.heads, np.asarray(u, dtype=float)
    return PennerMetric(_scale(np.ldexp(read.lengths, k), uu, to, to[read.opp]).tolist())


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
    lengths = _array(metric.lengths, float)
    scale = math.frexp(np.median(lengths))[1] - 1
    metric.lengths[:] = np.ldexp(lengths, -scale).tolist()

    # Each vertex's mirror orbit; surgeries keep vertex_refl.
    mirror = np.arange(n) if refl is None else _array(refl.vertex_refl)
    orbit = np.unique(np.minimum(np.arange(n), mirror), return_inverse=True)[1]
    read = read_triangles(mesh, metric)
    flips0 = make_delaunay(mesh, metric, u, refl, read=read)
    read = read_triangles(mesh, metric) if flips0.total else read
    g = gradient(mesh, metric, u, theta_hat, read)
    err = float(np.abs(g).max()) if n else 0.0
    snapshot = _symmetry_snapshot(read, u, refl, mirror)
    steps = [NewtonStep(0, err, 0, flips0, math.nan, float(g.sum()), snapshot)]

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
        # A failed search returns the u, g and read it was handed.
        u, g, read, row = line_search(mesh, metric, u, d, g, theta_hat, refl, cfg, read, t_max)
        row.step, row.symmetry_ok = k, _symmetry_snapshot(read, u, refl, mirror)
        steps.append(row)
        err, t_max = row.max_error, min(1.0, _T_GROWTH * row.t)
        if row.failure:
            termination = "line_search_failed"
            break
    if termination is None:
        termination = "converged" if err <= cfg.eps_tol else "max_newton_steps"

    metric.lengths[:] = np.ldexp(read.lengths, scale).tolist()  # read is of the current lists
    scaled = scale_conformally(read, u, scale)
    report = SolverReport(
        steps=steps,
        termination=termination,
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

    Targets are theta (angle sums) or kappa (curvatures); a vertex's angle
    sum is its flat value minus kappa, where flat is pi on the boundary and
    2*pi inside, and an omitted vertex is flat in either form.  A closed mesh
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
    boundary = mesh.boundary_vertices()
    flat = [math.pi if v in boundary else 2.0 * math.pi for v in range(n)]
    given, kappa = prob.theta_targets, prob.kappa_targets
    theta = [given.get(v, f - kappa.get(v, 0.0)) for v, f in enumerate(flat)]
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
