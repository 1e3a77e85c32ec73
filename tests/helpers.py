"""Shared fixtures: small meshes, randomized states, symmetric test rigs."""

import collections
import contextlib
import inspect
import math

import numpy as np

import confmetric.metric as metric_mod
import confmetric.solver as solver_mod
from confmetric.cover import build_double_cover
from confmetric.generate import icosphere
from confmetric.halfedge import CombinatorialMesh, build_from_face_lists, plan_flip
from confmetric.metric import PennerMetric, flip_edge, read_triangles, scalar_metric
from confmetric.symmetry import FlipType, ReflectionMap, apply_symmetric_flip, classify_flip


def corner_angle(l_opp, l_a, l_b):
    """Angle between sides ``l_a`` and ``l_b`` opposite ``l_opp``, by arccos.

    The independent law-of-cosines oracle for the corner-table kernel.  The
    cosine is clamped to [-1, 1]: lengths violating the triangle inequality
    yield a flat angle of 0 or pi instead of a domain error.
    """
    c = (l_a * l_a + l_b * l_b - l_opp * l_opp) / (2.0 * l_a * l_b)
    if c > 1.0:
        c = 1.0
    elif c < -1.0:
        c = -1.0
    return math.acos(c)


def copy_mesh(mesh):
    return CombinatorialMesh(
        next_he=list(mesh.next_he),
        opp=list(mesh.opp),
        to=list(mesh.to),
        n_vertices=mesh.n_vertices,
        boundary_faces=set(mesh.boundary_faces),
        he_face=list(mesh.he_face),
        quad_pairs=dict(mesh.quad_pairs),
    )


def copy_metric(metric):
    return PennerMetric(list(metric.lengths), dict(metric.quad_diag))


def copy_refl(refl):
    return ReflectionMap(list(refl.r), list(refl.he_label), list(refl.vertex_refl))


def tetra():
    return build_from_face_lists([[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]])


def octa():
    return build_from_face_lists(
        [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 1],
         [5, 2, 1], [5, 3, 2], [5, 4, 3], [5, 1, 4]]
    )


def fan_disk(k):
    """k boundary triangles around one interior hub vertex (id k)."""
    return build_from_face_lists([[i, (i + 1) % k, k] for i in range(k)])


def set_length(mesh, metric, a, b, val):
    """Assign one edge length by endpoint pair (both halfedge slots)."""
    hit = False
    for e in mesh.edges():
        if set(mesh.edge_endpoints(e)) == {a, b}:
            metric.lengths[e] = val
            metric.lengths[mesh.opp[e]] = val
            hit = True
    assert hit, f"no edge {a}-{b}"


def is_boundary_edge(mesh, e):
    return mesh.is_boundary_halfedge(e) or mesh.is_boundary_halfedge(mesh.opp[e])


def n_faces(mesh):
    return len(mesh.faces())


def euler_characteristic(mesh):
    # Outer loops are not faces of the surface; each contributes a
    # boundary component, not a 2-cell.
    return mesh.n_vertices - mesh.n_edges() + n_faces(mesh)


def flippable_edges(mesh):
    out = []
    for e in mesh.edges():
        if is_boundary_edge(mesh, e):
            continue
        try:
            plan_flip(mesh, e)
        except Exception:
            continue
        out.append(e)
    return out


def shuffled_closed_mesh(rng, level=0, flips=12, low=0.6, high=1.8):
    """Random connectivity + random Penner lengths on a small sphere."""
    mesh = build_from_face_lists(icosphere(level)[0])
    metric = PennerMetric.uniform(mesh)
    for e in mesh.edges():
        val = float(rng.uniform(low, high))
        metric.lengths[e] = val
        metric.lengths[mesh.opp[e]] = val
    for _ in range(flips):
        cand = flippable_edges(mesh)
        flip_edge(mesh, metric, cand[rng.integers(len(cand))])
    return mesh, metric


def hexagon_cover(long_edges=((0, 1),), length=1.9):
    """Double cover of a hexagonal fan disk with selected edges lengthened.

    The stretched boundary edges become non-Delaunay axis-parallel edges of
    the cover, which is the seed every symmetric surgery chain grows from.
    """
    disk = fan_disk(6)
    metric = PennerMetric.uniform(disk)
    for e in disk.edges():
        if tuple(sorted(disk.edge_endpoints(e))) in {tuple(sorted(p)) for p in long_edges}:
            metric.lengths[e] = length
            metric.lengths[disk.opp[e]] = length
    return build_double_cover(disk, metric, [math.pi - math.pi / 3] * 6 + [2 * math.pi])


def find_flip_of_kind(mesh, refl, want, forward):
    for e in mesh.edges():
        kind, fwd = classify_flip(mesh, refl, e)
        if kind is want and fwd == forward:
            return e
    return None


def drive_to_quads(cover, cmetric):
    """Produce a cover state containing quad faces: axis, tri-quad, quad-quad.

    Returns the list of flip records applied.  Requires a hexagon_cover-like
    state with one stretched parallel edge.
    """
    mesh, refl = cover.mesh, cover.refl
    recs = []
    for want in (FlipType.AXIS, FlipType.TRI_QUAD, FlipType.QUAD_QUAD):
        e = find_flip_of_kind(mesh, refl, want, True)
        assert e is not None, f"no forward {want} available"
        recs.append(apply_symmetric_flip(mesh, cmetric, refl, e))
    return recs


@contextlib.contextmanager
def delaunay_after_every_retriangulation():
    """Wrap the solver's ``make_delaunay`` for the duration of the block.

    After each call every edge must hold at the call's tie band, with the
    same scalar predicate the flip loop uses, and the call must have made
    exactly ``FlipLog.single`` calls to ``confmetric.metric.flip_edge``
    (a traced run counts plain flips by wrapping that global); a failure
    raises AssertionError out of the solve.  Yields the list of the u of
    every audited call, in call order.
    """
    real, real_flip = solver_mod.make_delaunay, metric_mod.flip_edge
    audited = []
    flips = 0

    def counted(*args):
        nonlocal flips
        flips += 1
        return real_flip(*args)

    def audit(mesh, metric, u, refl=None, eps_flip=1e-12, flip_budget_factor=100.0, read=None):
        before = flips
        log = real(mesh, metric, u, refl, eps_flip, flip_budget_factor, read)
        assert flips - before == log.single, "flip_edge not called once per plain flip"
        holds = scalar_metric(mesh, metric, u, refl, eps_flip).holds
        failing = [e for e in mesh.edges() if not holds(e)]
        assert failing == [], f"{len(failing)} edges not Delaunay after make_delaunay"
        audited.append(np.array(u, dtype=float))
        return log

    solver_mod.make_delaunay, metric_mod.flip_edge = audit, counted
    try:
        yield audited
    finally:
        solver_mod.make_delaunay, metric_mod.flip_edge = real, real_flip


@contextlib.contextmanager
def every_read_is_fresh():
    """Wrap the solver's ``gradient`` and ``hessian`` and the metric
    module's scan for the duration of the block.

    A read handed to any of them must equal a fresh ``read_triangles`` of
    the mesh and metric lists at that moment, array by array and bitwise;
    a stale one raises AssertionError out of the solve.  Yields a Counter
    of the calls made with a read (``"read"``) and without (``"fresh"``).
    """
    targets = [(solver_mod, "gradient"), (solver_mod, "hessian"),
               (metric_mod, "_scan_violations_vectorized")]
    saved = [getattr(module, name) for module, name in targets]
    calls = collections.Counter()

    def checked(fn):
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs).arguments
            read = bound.get("read")
            if read is None:
                calls["fresh"] += 1
            else:
                want = read_triangles(bound["mesh"], bound["metric"])
                assert all(
                    x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
                    for x, y in zip(read, want, strict=True)
                ), f"{fn.__name__} was handed a stale read"
                calls["read"] += 1
            return fn(*args, **kwargs)

        return wrapper

    for (module, name), fn in zip(targets, saved):
        setattr(module, name, checked(fn))
    try:
        yield calls
    finally:
        for (module, name), fn in zip(targets, saved):
            setattr(module, name, fn)


def reference_delaunay_value(mesh, metric, u, e):
    """Delaunay value of edge ``e`` built from ``scalar_metric(...).length``.

    Each halfedge h of ``e`` adds (a^2 + b^2 - c^2) / ab, where c is the
    scaled length of h and a, b the other two sides of its triangle (for a
    side of a quad, its neighbour in the virtual triangle and the stored
    diagonal).  The three sides are first divided by the power of two of
    the largest, which is exact, so every term is formed in range.
    """
    sm = scalar_metric(mesh, metric, u)
    terms = []
    for h in (e, mesh.opp[e]):
        f = mesh.he_face[h]
        if f in metric.quad_diag:
            hs = mesh.face_halfedges(f)
            a, b = sm.length(hs[hs.index(h) ^ 1]), sm.diag(f)
        else:
            a, b = sm.length(mesh.next_he[h]), sm.length(mesh.prev(h))
        c = sm.length(h)
        s = -math.frexp(max(a, b, c))[1]
        a, b, c = math.ldexp(a, s), math.ldexp(b, s), math.ldexp(c, s)
        terms.append((a * a + b * b - c * c) / (a * b))
    return terms[0] + terms[1]


def active_lengths(mesh, metric):
    return sorted(
        metric.lengths[h] for h in range(mesh.n_halfedges()) if mesh.he_face[h] >= 0
    )


def random_symmetric_lengths(mesh, refl, rng, low=0.5, high=2.0):
    """Fresh positive lengths, assigned once per reflection orbit."""
    L = [0.0] * mesh.n_halfedges()
    for h in range(mesh.n_halfedges()):
        if mesh.he_face[h] < 0 or L[h]:
            continue
        val = float(rng.uniform(low, high))
        for x in (h, mesh.opp[h], refl.r[h], mesh.opp[refl.r[h]]):
            L[x] = val
    return L
