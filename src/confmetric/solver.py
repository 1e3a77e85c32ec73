"""Newton solver driving angle sums to prescribed targets.

The iteration follows the classical scheme for the convex scale-factor
energy while never evaluating the energy itself: residual g = theta_hat -
Theta(u), direction d = -H^-1 g with H the cotangent matrix, and a
backtracking line search that retriangulates to Delaunay before every
gradient evaluation.  A step is accepted as soon as <d, g(u + d)> <= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from . import io
from .cover import build_double_cover, restrict_to_single_cover
from .halfedge import CombinatorialMesh
from .metric import (
    FlipLog,
    MetricError,
    PennerMetric,
    _array,
    _scale,
    _scaled_diag,
    gradient,
    hessian,
    is_delaunay,
    make_delaunay,
)
from .symmetry import ReflectionMap


class SolverError(Exception):
    """Linear solve breakdown (non-finite or high-residual direction)."""


class LineSearchError(Exception):
    """No acceptable step within the halving budget."""


@dataclass
class SolverConfig:
    """Stopping and safety knobs for the Newton iteration.

    ``eps_flip`` is the Delaunay tie tolerance: edges whose predicate value
    sits in [-eps_flip, 0) are treated as co-circular and never flipped.
    ``verify_delaunay`` re-scans every edge after each retriangulation and
    raises on any violation; it exists for test harnesses and costs a full
    predicate sweep per make_delaunay call.
    """

    eps_tol: float = 1e-10
    max_newton_steps: int = 50
    max_halvings: int = 40
    min_decrement: float = 0.0
    flip_budget_factor: float = 100.0
    eps_flip: float = 1e-12
    verify_delaunay: bool = False


@dataclass
class NewtonStep:
    """One row of the iteration trace.

    ``step`` 0 describes the state after the initial retriangulation,
    before any Newton update; its decrement is NaN.  ``flips`` aggregates
    every surgery performed during the step, including rejected line-search
    trials (the mesh keeps those flips; there is no rollback).
    ``symmetry_ok`` is None for solves without a reflection map.
    """

    step: int
    max_error: float
    halvings: int
    flips: FlipLog
    decrement: float
    grad_sum: float
    symmetry_ok: bool | None


@dataclass
class SolverReport:
    steps: list[NewtonStep]
    termination: str
    final_residual: float
    u_min: float
    u_max: float
    delaunay_checks: int = 0

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
    """The accepted point, and the residual ``g_try`` evaluated there."""

    u: np.ndarray
    g_try: np.ndarray
    halvings: int
    flips: FlipLog
    slope: float
    delaunay_checks: int = 0


def newton_direction(H: "scipy.sparse.spmatrix", g: np.ndarray) -> np.ndarray:
    """Solve H d = -g on the complement of constants; d has zero mean.

    H is PSD with nullspace spanned by the constant vector on a connected
    mesh, so the system is solved with vertex 0 pinned and the result
    recentred.  g is projected to zero mean first (its mean is Gauss-Bonnet
    roundoff).  Raises SolverError if the direction is non-finite or the
    residual exceeds 1e-10 * |g|.
    """
    g = np.asarray(g, dtype=float)
    n = g.shape[0]
    g0 = g - g.mean()
    gnorm = float(np.linalg.norm(g0))
    if gnorm == 0.0 or n == 1:
        return np.zeros(n)
    reduced = scipy.sparse.csc_matrix(H)[1:, 1:]
    x = scipy.sparse.linalg.spsolve(reduced, -g0[1:])
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(x)):
        raise SolverError("non-finite Newton direction (degenerate Hessian)")
    d = np.concatenate(([0.0], x))
    d -= d.mean()
    residual = float(np.linalg.norm(H @ d + g0))
    if residual > 1e-10 * gnorm:
        raise SolverError(
            f"linear solve residual {residual:.3e} exceeds 1e-10 * |g| = {1e-10 * gnorm:.3e}"
        )
    return d


def _symmetrize_direction(d: np.ndarray, refl: ReflectionMap) -> np.ndarray:
    # Copy each mirror orbit from its lower-index member so u stays
    # bitwise symmetric; the solve itself only matches to roundoff.
    vr = refl.vertex_refl
    for v in range(d.shape[0]):
        w = vr[v]
        if w > v:
            d[w] = d[v]
    return d


def _verify_delaunay(
    mesh: CombinatorialMesh,
    metric: PennerMetric,
    u: np.ndarray,
    refl: ReflectionMap | None,
    eps_flip: float,
) -> int:
    checked = 0
    for e in mesh.edges():
        if mesh.is_boundary_edge(e):
            continue
        if not is_delaunay(mesh, metric, u, e, refl, eps_flip):
            raise MetricError(f"edge {e} violates the Delaunay condition after make_delaunay")
        checked += 1
    return checked


def line_search(
    mesh: CombinatorialMesh,
    metric: PennerMetric,
    u: np.ndarray,
    d: np.ndarray,
    theta_hat: np.ndarray,
    refl: ReflectionMap | None = None,
    *,
    max_halvings: int = 40,
    eps_flip: float = 1e-12,
    flip_budget_factor: float = 100.0,
    verify: bool = False,
) -> LineSearchResult:
    """Backtracking step: try u + d, halving d until <d, g(u + d)> <= 0.

    Every trial retriangulates to Delaunay in place before evaluating the
    gradient, and rejected trials leave their flips in the mesh; the next
    trial continues from whatever triangulation the previous one reached.
    Raises LineSearchError when no trial within ``max_halvings`` is
    accepted, or when a trial leaves u unchanged.
    """
    u = np.asarray(u, dtype=float)
    step = np.asarray(d, dtype=float).copy()
    flips = FlipLog()
    checks = 0
    for halvings in range(max_halvings + 1):
        u_try = u + step
        if np.array_equal(u_try, u):
            # The step is below the float resolution of u: accepting it
            # would repeat the same step until the Newton budget runs out.
            raise LineSearchError("step does not move u")
        flips.merge(
            make_delaunay(mesh, metric, u_try, refl, eps_flip, flip_budget_factor)
        )
        if verify:
            checks += _verify_delaunay(mesh, metric, u_try, refl, eps_flip)
        g_try = gradient(mesh, metric, u_try, theta_hat)
        slope = float(step @ g_try)
        if slope <= 0.0:
            return LineSearchResult(u_try, g_try, halvings, flips, slope, checks)
        step = step / 2.0
    raise LineSearchError(f"no acceptable step within {max_halvings} halvings")


def _symmetry_snapshot(
    mesh: CombinatorialMesh,
    metric: PennerMetric,
    u: np.ndarray,
    refl: ReflectionMap | None,
) -> bool | None:
    if refl is None:
        return None
    vr = refl.vertex_refl
    for v in range(u.shape[0]):
        if u[v] != u[vr[v]]:
            return False
    L = metric.lengths
    for h in range(mesh.n_halfedges()):
        if not mesh.parked[h] and L[h] != L[refl.r[h]]:
            return False
    return True


def scale_conformally(
    mesh: CombinatorialMesh,
    metric: PennerMetric,
    u: np.ndarray,
) -> PennerMetric:
    """Materialize the scaled metric: lengths and quad diagonals at u."""
    uu = np.asarray(u, dtype=float)
    to = _array(mesh.to)
    lengths = _array(metric.lengths, float)
    live = np.flatnonzero(~_array(mesh.parked, bool))
    lengths[live] = _scale(lengths[live], uu, to[live], to[_array(mesh.opp)[live]])
    diag = {f: _scaled_diag(mesh, metric, u, f) for f in metric.quad_diag}
    return PennerMetric(lengths.tolist(), diag)


def find_conformal_metric(
    mesh: CombinatorialMesh,
    metric: PennerMetric,
    theta_hat: "list[float] | np.ndarray",
    config: SolverConfig | None = None,
    refl: ReflectionMap | None = None,
    u0: "list[float] | np.ndarray | None" = None,
) -> tuple[CombinatorialMesh, PennerMetric, np.ndarray, SolverReport]:
    """Newton iteration for |theta_hat - Theta|_inf <= eps_tol.

    Mutates mesh and metric in place (flips); returns the mesh, the final
    scaled metric, the scale factors, and the iteration report.  The
    returned triangulation is Delaunay for the returned u.  Convergence is
    judged on the residual recomputed after the final retriangulation.
    """
    cfg = config if config is not None else SolverConfig()
    n = mesh.n_vertices
    u = np.zeros(n) if u0 is None else np.asarray(u0, dtype=float).copy()
    theta_hat = np.asarray(theta_hat, dtype=float)
    if theta_hat.shape[0] != n:
        raise MetricError("theta_hat length does not match vertex count")

    checks = 0
    flips0 = make_delaunay(mesh, metric, u, refl, cfg.eps_flip, cfg.flip_budget_factor)
    if cfg.verify_delaunay:
        checks += _verify_delaunay(mesh, metric, u, refl, cfg.eps_flip)
    g = gradient(mesh, metric, u, theta_hat)
    err = float(np.abs(g).max()) if n else 0.0
    steps = [
        NewtonStep(
            0, err, 0, flips0, math.nan, float(g.sum()), _symmetry_snapshot(mesh, metric, u, refl)
        )
    ]

    termination: str | None = None
    for k in range(1, cfg.max_newton_steps + 1):
        if err <= cfg.eps_tol:
            termination = "converged"
            break
        H = hessian(mesh, metric, u)
        try:
            d = newton_direction(H, g)
        except SolverError:
            termination = "linear_solve_breakdown"
            break
        decrement = float(-(d @ g))
        if decrement < cfg.min_decrement:
            termination = "decrement_floor"
            break
        if refl is not None:
            d = _symmetrize_direction(d, refl)
        try:
            ls = line_search(
                mesh,
                metric,
                u,
                d,
                theta_hat,
                refl,
                max_halvings=cfg.max_halvings,
                eps_flip=cfg.eps_flip,
                flip_budget_factor=cfg.flip_budget_factor,
                verify=cfg.verify_delaunay,
            )
        except LineSearchError:
            # The failed trials moved the triangulation; restore the
            # Delaunay state for the u we are keeping.
            make_delaunay(mesh, metric, u, refl, cfg.eps_flip, cfg.flip_budget_factor)
            termination = "line_search_failed"
            break
        u = ls.u
        g = ls.g_try
        checks += ls.delaunay_checks
        err = float(np.abs(g).max())
        steps.append(
            NewtonStep(
                k,
                err,
                ls.halvings,
                ls.flips,
                decrement,
                float(g.sum()),
                _symmetry_snapshot(mesh, metric, u, refl),
            )
        )
    if termination is None:
        termination = "converged" if err <= cfg.eps_tol else "max_newton_steps"

    scaled = scale_conformally(mesh, metric, u)
    report = SolverReport(
        steps=steps,
        termination=termination,
        final_residual=err,
        u_min=float(u.min()) if n else 0.0,
        u_max=float(u.max()) if n else 0.0,
        delaunay_checks=checks,
    )
    return mesh, scaled, u, report


def _n_components(mesh: CombinatorialMesh) -> int:
    """Connected components of the vertex graph; isolated vertices count."""
    root = list(range(mesh.n_vertices))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for e in mesh.edges():
        root[find(mesh.to[e])] = find(mesh.tail_of(e))
    return sum(root[v] == v for v in range(mesh.n_vertices))


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
    is rejected: bad lengths, more than one connected component, or
    targets that violate Gauss-Bonnet.
    """
    mesh, metric = io.problem_to_mesh(prob)
    n = mesh.n_vertices
    if _n_components(mesh) > 1:
        raise io.ParseError("mesh is not connected")
    two_pi = 2.0 * math.pi
    boundary = {mesh.to[h] for h in range(mesh.n_halfedges()) if mesh.is_boundary_halfedge(h)}
    flat = [math.pi if v in boundary else two_pi for v in range(n)]
    if prob.kappa_targets:
        kappa = [prob.kappa_targets.get(v, 0.0) for v in range(n)]
        theta = [f - k for f, k in zip(flat, kappa)]
    else:
        theta = [prob.theta_targets.get(v, two_pi) for v in range(n)]
        kappa = [f - t for f, t in zip(flat, theta)]
    deviation = io.gauss_bonnet_deviation(mesh, theta)
    if abs(deviation) > 1e-8 * max(1, n):
        raise io.ParseError(f"targets violate Gauss-Bonnet (deviation {deviation!r})")
    if not mesh.boundary_faces:
        return find_conformal_metric(mesh, metric, theta, config)
    cover, cmetric, theta_hat = build_double_cover(mesh, metric, kappa, kappa)
    cmesh, cscaled, u, report = find_conformal_metric(
        cover.mesh, cmetric, theta_hat, config, refl=cover.refl
    )
    if keep_double_cover:
        return cmesh, cscaled, u, report
    rmesh, rmetric, ru = restrict_to_single_cover(cover, cmetric, u)
    return rmesh, rmetric, ru, report
