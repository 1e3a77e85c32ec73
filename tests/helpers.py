"""Shared fixtures: small meshes, randomized states, symmetric test rigs."""

import collections
import contextlib
import inspect
import math
from typing import Iterable

import mpmath
import numpy as np
import scipy.sparse

import confmetric.metric as metric_mod
import confmetric.solver as solver_mod
from confmetric.cover import build_double_cover
from confmetric.generate import icosphere
from confmetric.halfedge import (
    CombinatorialMesh,
    MeshError,
    build_from_face_edge_lists,
    build_from_face_lists,
    plan_flip,
)
from confmetric.io import ParseError, ProblemFile
from confmetric.metric import MetricError, PennerMetric, flip_edge, read_triangles, scalar_metric
from confmetric.symmetry import FlipType, apply_symmetric_flip, classify_flip


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


def mp_angle_sums(mesh, lengths):
    """Angle sum of every vertex of ``mesh`` at 50 significant digits.

    The high-precision oracle for the kernel's angle sums: each corner of a
    triangle is ``acos((b^2 + c^2 - a^2) / 2bc)`` of the per-halfedge
    ``lengths``, taken as given (u = 0), with the cosine clamped as in
    ``corner_angle``.  At 50 digits the law of cosines loses nothing a
    double can show, needles included.  Returns the sums rounded to
    floats; a face that is not a triangle raises ValueError.
    """
    with mpmath.workdps(50):
        sums = [mpmath.mpf(0)] * mesh.n_vertices
        for f in mesh.faces():
            hs = mesh.face_halfedges(f)
            if len(hs) != 3:
                raise ValueError(f"face {f} is not a triangle")
            sides = [mpmath.mpf(lengths[h]) for h in hs]
            for k, h in enumerate(hs):
                # The corner at the head of side k lies between sides k and
                # k + 1, opposite side k - 1.
                a, b, c = sides[k - 1], sides[k], sides[(k + 1) % 3]
                cos = (b * b + c * c - a * a) / (2 * b * c)
                sums[mesh.to[h]] += mpmath.acos(max(-1, min(1, cos)))
        return [float(x) for x in sums]


def mp_delaunay_values(mesh, lengths):
    """Delaunay value of every interior edge of ``mesh`` at 50 digits.

    The high-precision oracle for the kernel's ``value``: each halfedge h
    of an edge adds (a^2 + b^2 - c^2) / ab, with c the length of h and a, b
    the other two sides of its triangle; for a side of a quad, its
    neighbour in the virtual triangle and the stored diagonal (the parked
    pair's length).  The per-halfedge ``lengths`` are taken as given
    (u = 0).  Returns {edge: value rounded to a float} over the edges with
    no boundary face on either side.
    """
    with mpmath.workdps(50):

        def term(h):
            f = mesh.he_face[h]
            hs = mesh.face_halfedges(f)
            if f in mesh.quad_pairs:
                others = hs[hs.index(h) ^ 1], mesh.quad_pairs[f][0]
            else:
                others = mesh.next_he[h], prev(mesh, h)
            a, b = (mpmath.mpf(lengths[x]) for x in others)
            c = mpmath.mpf(lengths[h])
            return (a * a + b * b - c * c) / (a * b)

        outer = mesh.boundary_faces
        return {
            e: float(term(e) + term(mesh.opp[e]))
            for e in mesh.edges()
            if mesh.he_face[e] not in outer and mesh.he_face[mesh.opp[e]] not in outer
        }


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
    return PennerMetric(list(metric.lengths))


def hessian_matrix(terms, n):
    """The n x n CSR matrix sum w (e_a - e_b)(e_a - e_b)^T of ``hessian``'s
    corner terms ``(a, b, w)``: -w at (a, b) and (b, a), +w at (a, a) and
    (b, b), duplicates summed."""
    a, b, w = terms
    rows = np.concatenate((a, b, a, b))
    cols = np.concatenate((b, a, a, b))
    vals = np.concatenate((-w, -w, w, w))
    return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))


def mirror_partner(orbit):
    """Each vertex's mirror image, from an orbit map of orbits of size 1 or 2."""
    n = len(orbit)
    lo = np.full(n, n)
    hi = np.full(n, -1)
    np.minimum.at(lo, orbit, np.arange(n))
    np.maximum.at(hi, orbit, np.arange(n))
    return lo[orbit] + hi[orbit] - np.arange(n)


def prev(mesh, h):
    """Inverse of ``next_he`` by orbit walk (faces have small degree)."""
    p = h
    while mesh.next_he[p] != h:
        p = mesh.next_he[p]
    return p


def degree(mesh, f):
    return len(mesh.face_halfedges(f))


def edge_endpoints(mesh, e):
    return mesh.to[mesh.opp[e]], mesh.to[e]


def is_boundary_halfedge(mesh, h):
    return mesh.he_face[h] in mesh.boundary_faces


def uniform_metric(mesh, value=1.0):
    """The same length on every halfedge of ``mesh``."""
    return PennerMetric([value] * mesh.n_halfedges())


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
        if set(edge_endpoints(mesh, e)) == {a, b}:
            metric.lengths[e] = val
            metric.lengths[mesh.opp[e]] = val
            hit = True
    assert hit, f"no edge {a}-{b}"


def is_boundary_edge(mesh, e):
    return is_boundary_halfedge(mesh, e) or is_boundary_halfedge(mesh, mesh.opp[e])


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
    metric = uniform_metric(mesh)
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
    metric = uniform_metric(disk)
    for e in disk.edges():
        if tuple(sorted(edge_endpoints(disk, e))) in {tuple(sorted(p)) for p in long_edges}:
            metric.lengths[e] = length
            metric.lengths[disk.opp[e]] = length
    return build_double_cover(disk, metric, [math.pi - math.pi / 3] * 6 + [2 * math.pi])


def annulus(seed, rings=4, around=12, radii=(1.0, 2.0)):
    """A planar annulus of ``rings`` rings of ``around`` vertices, with
    random boundary curvature.

    Ring i is vertices ``around * i`` on, at a radius from ``radii[0]``
    (the inner ring) to ``radii[1]`` in equal steps; each cell between two
    rings is split along the same diagonal.  The boundary curvatures are
    ``default_rng(seed).uniform(-1.5, 1.5)``, inner ring first, less their
    mean, so that they total 2 pi chi = 0.
    """
    r0, r1 = radii
    pos, faces = [], []
    for i in range(rings):
        r = r0 + (r1 - r0) * i / (rings - 1)
        for j in range(around):
            a = 2.0 * math.pi * j / around
            pos.append((r * math.cos(a), r * math.sin(a), 0.0))
    v = lambda i, j: around * i + j % around
    for i in range(rings - 1):
        for j in range(around):
            faces.append([v(i, j), v(i + 1, j), v(i + 1, j + 1)])
            faces.append([v(i, j), v(i + 1, j + 1), v(i, j + 1)])
    kappa = np.random.default_rng(seed).uniform(-1.5, 1.5, 2 * around)
    kappa -= kappa.mean()
    boundary = [*range(around), *range(around * (rings - 1), around * rings)]
    return ProblemFile(
        faces, positions=pos, kappa_targets={b: float(k) for b, k in zip(boundary, kappa)}
    )


def holed_torus(seed, size=6, jitter=0.0):
    """A ``size`` x ``size`` grid torus of equilateral unit triangles less
    the two triangles of one cell: one boundary loop, chi = -1.

    Vertex ``size * i + j`` is grid point (i, j), and each cell is split
    along the same diagonal; the cell at (0, 0) is left out.  The curvatures
    of its four corners are ``default_rng(seed).uniform(-1.5, 1.5)`` less
    their mean, less pi/2, so that they total 2 pi chi = -2 pi.  Each edge
    length is then scaled by ``default_rng(100 + seed).uniform(1 - jitter,
    1 + jitter)``, in edge order; below 1/3 every face keeps the triangle
    inequality.
    """
    v = lambda i, j: size * (i % size) + j % size
    faces = []
    for i in range(size):
        for j in range(size):
            if (i, j) != (0, 0):
                faces.append([v(i, j), v(i + 1, j), v(i + 1, j + 1)])
                faces.append([v(i, j), v(i + 1, j + 1), v(i, j + 1)])
    edges = {tuple(sorted((f[k - 1], f[k]))): None for f in faces for k in range(3)}
    scale = np.random.default_rng(100 + seed).uniform(1 - jitter, 1 + jitter, len(edges))
    lengths = {e: float(s) for e, s in zip(edges, scale)}
    kappa = np.random.default_rng(seed).uniform(-1.5, 1.5, 4)
    kappa -= kappa.mean() + math.pi / 2
    boundary = [v(0, 0), v(1, 0), v(1, 1), v(0, 1)]
    return ProblemFile(
        faces, edge_lengths=lengths, kappa_targets={b: float(k) for b, k in zip(boundary, kappa)}
    )


def find_flip_of_kind(mesh, refl, want, forward):
    for e in mesh.edges():
        kind, fwd = classify_flip(mesh, refl, e)
        if kind is want and fwd == forward:
            return e
    return None


def drive_to_quads(mesh, refl, cmetric):
    """Produce a cover state containing quad faces: axis, tri-quad, quad-quad.

    Returns the list of flip records applied.  Requires a hexagon_cover-like
    state with one stretched parallel edge.
    """
    recs = []
    for want in (FlipType.AXIS, FlipType.TRI_QUAD, FlipType.QUAD_QUAD):
        e = find_flip_of_kind(mesh, refl, want, True)
        assert e is not None, f"no forward {want} available"
        recs.append(apply_symmetric_flip(mesh, cmetric, refl, e))
    return recs


@contextlib.contextmanager
def delaunay_after_every_retriangulation():
    """Wrap the solver's ``make_delaunay`` for the duration of the block.

    After each call every edge must hold at the tie band, with the
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

    def audit(mesh, metric, u, refl=None, capped=False, read=None):
        before = flips
        log = real(mesh, metric, u, refl, capped, read)
        assert flips - before == log.single, "flip_edge not called once per plain flip"
        holds = scalar_metric(mesh, metric, u, refl).holds
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
        if f in mesh.quad_pairs:
            hs = mesh.face_halfedges(f)
            a, b = sm.length(hs[hs.index(h) ^ 1]), sm.diag(f)
        else:
            a, b = sm.length(mesh.next_he[h]), sm.length(prev(mesh, h))
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


# -- scalar reference of the mesh builder and validate --------------------------
#
# Per-halfedge loops that build and check a mesh one element at a time: the
# oracle the tests hold the numpy builder and ``validate`` to.  Their
# numbering and their messages are the contract.


def reference_orbits(perm: list[int], skip: list[bool] | None = None) -> list[list[int]]:
    """Decompose a permutation into orbits, each listed from its minimum element.

    ``skip[i]`` excludes index ``i`` (used to hide parked halfedges).
    """
    n = len(perm)
    seen = [False] * n
    orbits: list[list[int]] = []
    for start in range(n):
        if seen[start] or (skip is not None and skip[start]):
            continue
        orbit = []
        h = start
        while not seen[h]:
            seen[h] = True
            orbit.append(h)
            h = perm[h]
        orbits.append(orbit)
    return orbits


def _reference_close_boundary_loops(
    next_he: list[int],
    opp: list[int],
    boundary_of: dict[int, int],
    n_interior: int,
) -> None:
    """Wire the appended boundary halfedges into outer loops.

    For each interior halfedge ha = a->b with a gap, circulate the outgoing
    halfedges of b until the next gap hc; the boundary partner of hc is then
    followed by the boundary partner of ha.
    """
    for ha, hb in boundary_of.items():
        it = next_he[ha]
        guard = 0
        while it not in boundary_of:
            it = next_he[opp[it]]
            guard += 1
            if guard > n_interior:
                raise MeshError("boundary walk failed to close; bad connectivity")
        next_he[boundary_of[it]] = hb
    if any(x == -1 for x in next_he):
        raise MeshError("boundary loops did not close")


def reference_build_from_face_lists(faces: list[list[int]]) -> CombinatorialMesh:
    """Construct a mesh from per-face vertex loops (counterclockwise).

    Each unordered vertex pair is one edge, numbered in order of first use,
    and :func:`build_from_face_edge_lists` pairs the halfedges and closes
    the boundary (pairs used once) with outer loops.  Raises
    :class:`MeshError` on a face that repeats a vertex, and on non-manifold
    or unorientable input.
    """
    eid: dict[tuple[int, int], int] = {}
    face_edges = []
    for f in faces:
        if len(set(f)) != len(f):
            raise MeshError(f"face {f} repeats a vertex")
        k = len(f)
        pairs = ((f[i], f[(i + 1) % k]) for i in range(k))
        keys = [(a, b) if a < b else (b, a) for a, b in pairs]
        face_edges.append([eid.setdefault(key, len(eid)) for key in keys])
    return reference_build_from_face_edge_lists(faces, face_edges)[0]


def reference_build_from_face_edge_lists(
    faces: list[list[int]],
    face_edges: list[list[int]],
    n_vertices: int | None = None,
    quad_rows: Iterable[int] = (),
) -> tuple[CombinatorialMesh, list[int]]:
    """Construct a mesh from vertex loops plus parallel edge-id loops.

    ``face_edges[f][i]`` names the edge from ``faces[f][i]`` to
    ``faces[f][i+1]``.  Pairing by edge id instead of by vertex pair makes
    the format safe for meshes with parallel edges or repeated vertices in
    a face, which vertex pairs cannot express.  Each edge id may appear at
    most twice, in opposite directions; ids appearing once lie on the
    boundary.  Returns the mesh and the edge id of every halfedge
    (boundary halfedges inherit their partner's id).  Each row named in
    ``quad_rows`` becomes a recorded quad; its parked pair, appended last,
    takes a fresh id past every id used, in ``quad_rows`` order.
    """
    if n_vertices is None:
        n_vertices = 1 + max(max(f) for f in faces)
    if len(faces) != len(face_edges):
        raise MeshError("faces and face_edges differ in length")

    n_interior = sum(len(f) for f in faces)
    next_he: list[int] = [-1] * n_interior
    to: list[int] = [-1] * n_interior
    tail: list[int] = [-1] * n_interior
    he_eid: list[int] = [-1] * n_interior
    uses: dict[int, list[int]] = {}

    h = 0
    first: list[int] = []  # each row's first halfedge, its face id
    for f, fe in zip(faces, face_edges):
        first.append(h)
        k = len(f)
        if k < 3:
            raise MeshError(f"face {f} has fewer than 3 vertices")
        if len(fe) != k:
            raise MeshError(f"face {f} has {len(fe)} edge ids for {k} sides")
        base = h
        for i in range(k):
            tail[h] = f[i]
            to[h] = f[(i + 1) % k]
            he_eid[h] = fe[i]
            next_he[h] = base + (i + 1) % k
            uses.setdefault(fe[i], []).append(h)
            h += 1

    opp: list[int] = [-1] * n_interior
    boundary_of: dict[int, int] = {}
    for eid, hs in uses.items():
        if len(hs) > 2:
            raise MeshError(
                f"edge ({tail[hs[0]]}-{to[hs[0]]}) used {len(hs)} times"
            )
        if len(hs) == 2:
            ha, hb = hs
            if (tail[ha], to[ha]) != (to[hb], tail[hb]):
                raise MeshError(
                    "edge used with inconsistent orientation "
                    f"({tail[ha]}->{to[ha]} vs {tail[hb]}->{to[hb]})"
                )
            opp[ha] = hb
            opp[hb] = ha
        else:
            ha = hs[0]
            hb = len(next_he)
            next_he.append(-1)
            to.append(tail[ha])
            he_eid.append(eid)
            opp[ha] = hb
            opp.append(ha)
            boundary_of[ha] = hb

    _reference_close_boundary_loops(next_he, opp, boundary_of, n_interior)
    n_active = len(next_he)
    quad_pairs = {}
    fresh = 1 + max(max(fe) for fe in face_edges)
    for row in quad_rows:
        a, b = len(next_he), len(next_he) + 1
        next_he += [b, a]
        opp += [b, a]
        to += [-1, -1]
        he_eid += [fresh] * 2
        fresh += 1
        quad_pairs[first[row]] = (a, b)
    he_face = [-1] * len(next_he)
    for orbit in reference_orbits(next_he[:n_active]):
        for h in orbit:
            he_face[h] = orbit[0]
    mesh = CombinatorialMesh(
        next_he=next_he, opp=opp, to=to, n_vertices=n_vertices, he_face=he_face
    )
    mesh.boundary_faces = set(mesh.he_face[n_interior:n_active])
    mesh.quad_pairs = quad_pairs
    errors = reference_validate(mesh)
    if errors:
        raise MeshError("; ".join(errors))
    return mesh, he_eid


def reference_validate(mesh: CombinatorialMesh) -> list[str]:
    """Structural diagnostics; empty list means the complex is consistent."""
    errs: list[str] = []
    n = len(mesh.next_he)
    parked = [f < 0 for f in mesh.he_face]
    active = [h for h in range(n) if not parked[h]]

    for h in active:
        o = mesh.opp[h]
        if parked[o]:
            errs.append(f"opp[{h}]={o} is parked")
        elif mesh.opp[o] != h:
            errs.append(f"opp not involutive at {h}")
        if mesh.opp[h] == h:
            errs.append(f"opp has fixed point at {h}")
        if not (0 <= mesh.to[h] < mesh.n_vertices):
            errs.append(f"to[{h}]={mesh.to[h]} out of range")

    # next_he restricted to active halfedges must be a permutation.
    hit = [0] * n
    for h in active:
        nx = mesh.next_he[h]
        if parked[nx]:
            errs.append(f"next_he[{h}]={nx} is parked")
        else:
            hit[nx] += 1
    for h in active:
        if hit[h] != 1:
            errs.append(f"next_he not a bijection at {h} (hit {hit[h]})")
    if errs:
        return errs

    for orbit in reference_orbits(mesh.next_he, parked):
        fid = min(orbit)
        if orbit[0] != fid:
            errs.append(f"orbit listing of face {fid} does not start at min")
        deg = len(orbit)
        if fid not in mesh.boundary_faces:
            kind, want = ("quad", 4) if fid in mesh.quad_pairs else ("triangle", 3)
            if deg != want:
                errs.append(f"{kind} face {fid} has degree {deg}")
        for h in orbit:
            if mesh.he_face[h] != fid:
                errs.append(f"he_face[{h}]={mesh.he_face[h]} but orbit min is {fid}")
        # Head/tail chaining: the head of h is the tail of next(h).
        for i, h in enumerate(orbit):
            nx = orbit[(i + 1) % deg]
            if mesh.to[h] != mesh.to[mesh.opp[nx]]:
                errs.append(f"vertex chaining broken at halfedge {h}")

    for fid, pair in mesh.quad_pairs.items():
        if mesh.he_face[fid] != fid or fid in mesh.boundary_faces:
            errs.append(f"quad record {fid} names no live face")
        for p in pair:
            if not parked[p]:
                errs.append(f"recorded parked halfedge {p} of quad {fid} is active")

    # Every active vertex label is reachable; labels are consistent per orbit
    # by the chaining check above, so just count coverage.
    seen_v = set(mesh.to[h] for h in active)
    if len(seen_v) > mesh.n_vertices:
        errs.append("more vertex labels in use than n_vertices")
    if errs:
        return errs

    # One umbrella per vertex: count the orbits of h -> opp[next[h]] (the
    # fans of halfedges into a vertex) at each head.
    fans = [0] * mesh.n_vertices
    circulate = [mesh.opp[mesh.next_he[h]] for h in range(n)]
    for orbit in reference_orbits(circulate, parked):
        fans[mesh.to[orbit[0]]] += 1
    return [
        f"vertex {v} has more than one umbrella ({c} fans)" for v, c in enumerate(fans) if c > 1
    ]


# -- reference of the axis restriction ------------------------------------------
#
# The restriction as it cut one axis face at a time and numbered its output
# edges by first reference: the oracle the array restriction is held to.


def reference_restrict_to_single_cover(mesh, refl, scaled, u, v0):
    """Cut a solved symmetric metric along its axis and keep one sheet.

    Copy-1 faces are copied with arrays; each axis face is cut in a loop:
    its sheet-1 leg a -> b and the midpoints ``m_in``/``m_out`` of the
    crossing sides before and after it bound the polygon
    ``[m_in] a b [m_out]``, split along a -> m_out.  Output edge ids follow
    first reference in a face by face walk, and an edge takes the length of
    its first referring halfedge, halved for a crossing edge.  ``v0`` is the
    source disk's own vertex count.
    """
    L = scaled.lengths
    n = mesh.n_halfedges()
    nxt = np.asarray(mesh.next_he)
    opp = np.asarray(mesh.opp)
    he_face = np.asarray(mesh.he_face)
    label = np.asarray(refl.he_label)
    h = np.arange(n)

    is_crossing = (he_face >= 0) & (h < opp) & (np.asarray(refl.r) == h)
    crossing = np.flatnonzero(is_crossing)
    midpoint = dict(zip(crossing.tolist(), range(v0, v0 + len(crossing))))

    faces = np.flatnonzero(he_face == h)
    has_axis = np.zeros(n, dtype=bool)
    has_axis[he_face[(he_face >= 0) & (label == 0)]] = True
    axis_faces = faces[has_axis[faces]]
    copy1 = faces[~has_axis[faces] & (label[faces] == 1)]
    sides = np.stack([copy1, nxt[copy1], nxt[nxt[copy1]]], axis=1)

    # A reference is a cover halfedge, or -1 for a fresh edge.
    ref_face = np.repeat(copy1, 3).tolist()
    ref_h = sides.ravel().tolist()
    fresh_len: list[float] = []
    row_face, row_rank = copy1.tolist(), [0] * len(copy1)
    faces_v = np.asarray(mesh.to)[opp[sides]]
    faces_e = np.arange(sides.size).reshape(-1, 3)
    axis_v: list[list[int]] = []
    axis_e: list[list[int]] = []

    def ref(f, x):
        ref_face.append(f)
        ref_h.append(x)
        return len(ref_h) - 1

    def fresh(f, length):
        fresh_len.append(length)
        return ref(f, -1)

    def row(f, rank, verts, refs):
        row_face.append(f)
        row_rank.append(rank)
        axis_v.append(verts)
        axis_e.append(refs)

    for f in axis_faces.tolist():
        hs = mesh.face_halfedges(f)
        g = next(x for x in hs if refl.he_label[x] == 1)
        pg, ng = prev(mesh, g), mesh.next_he[g]
        a, b = mesh.tail_of(g), mesh.to[g]
        m_in = midpoint.get(mesh.edge_of(pg), a)
        m_out = midpoint.get(mesh.edge_of(ng), b)
        b1 = L[pg] if m_in != a else 0.0
        b2 = L[ng] if m_out != b else 0.0
        arg = L[g] * L[g] - 0.25 * (b1 - b2) * (b1 - b2)
        if not arg > 0.0:
            raise MetricError(f"axis face {f} has no real height")
        height = math.sqrt(arg)
        cut = fresh(f, height)  # m_out -> m_in, along the axis
        if m_in == a:
            diag = cut
        elif m_out == b:
            diag = ref(f, g)
        else:
            diag = fresh(f, math.sqrt(0.25 * b1 * b1 + height * height))
        if m_in != a:
            row(f, 0, [m_in, a, m_out], [ref(f, pg), diag, cut])
        if m_out != b:
            row(f, 1, [a, b, m_out], [ref(f, g), ref(f, ng), diag])

    src_h = np.array(ref_h)
    new = src_h < 0
    key = np.where(new, n + np.cumsum(new) - 1, np.minimum(src_h, opp[src_h]))
    ref_len = np.empty(len(src_h))
    old_len = np.asarray(L)[src_h[~new]]
    ref_len[~new] = np.where(is_crossing[key[~new]], 0.5 * old_len, old_len)
    ref_len[new] = fresh_len
    walk = np.lexsort((np.arange(len(key)), ref_face))
    # Number the keys 0, 1, ... in order of first use along the walk.
    _, first, inverse = np.unique(key[walk], return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(first)
    rank[order] = np.arange(len(first))
    eid = np.empty_like(key)
    eid[walk] = rank[inverse]
    edge_len = ref_len[walk[first[order]]]

    rows = np.lexsort((row_rank, row_face))
    faces_v = np.concatenate([faces_v, np.array(axis_v, dtype=np.int64).reshape(-1, 3)])
    faces_e = np.concatenate([faces_e, np.array(axis_e, dtype=np.int64).reshape(-1, 3)])
    out_mesh, he_eid = build_from_face_edge_lists(
        faces_v[rows], eid[faces_e[rows]], v0 + len(crossing)
    )
    u_out = [float(u[v]) for v in range(v0)] + [math.nan] * len(crossing)
    return out_mesh, PennerMetric(edge_len[he_eid].tolist()), u_out


# -- reference of the problem file readers ---------------------------------------
#
# The readers as they read one line at a time, each row its own tuple, list
# or dict entry: the oracle the bulk readers are held to, value for value
# and message for message.


def _reference_finite(tok: str) -> float:
    val = float(tok)
    if not math.isfinite(val):
        raise ValueError(f"non-finite number {tok!r}")
    return val


def _reference_tokens(path: str):
    """(line number, fields) per nonblank line; ParseError at a non-UTF-8 line."""
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    for lineno, raw in enumerate(lines, 1):
        try:
            line = raw.decode("utf-8").split("#", 1)[0].strip()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}:{lineno}: not UTF-8 text: {exc.reason}") from None
        if line:
            yield lineno, line.split()


def reference_read_mesh_file(path: str) -> ProblemFile:
    """Parse `v x y z`, `f i j k`, and `el i j length` lines."""
    positions: list[tuple[float, float, float]] = []
    faces: list[list[int]] = []
    lengths: dict[tuple[int, int], float] = {}
    for lineno, tok in _reference_tokens(path):
        try:
            if tok[0] == "v" and len(tok) == 4:
                positions.append(tuple(_reference_finite(t) for t in tok[1:]))
            elif tok[0] == "f" and len(tok) == 4:
                f = [int(t) - 1 for t in tok[1:]]
                if min(f) < 0:
                    raise ValueError("vertex index < 1")
                faces.append(f)
            elif tok[0] == "el" and len(tok) == 4:
                i, j = int(tok[1]) - 1, int(tok[2]) - 1
                val = _reference_finite(tok[3])
                if min(i, j) < 0 or not val > 0.0:
                    raise ValueError("bad el line")
                lengths[(min(i, j), max(i, j))] = val
            else:
                raise ValueError(f"unrecognized line {tok[0]!r}")
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
    if not faces:
        raise ParseError(f"{path}: no faces")
    n = max(w for f in faces for w in f) + 1
    if positions and len(positions) != n:
        raise ParseError(f"{path}: {len(positions)} v lines but the faces use vertices 1..{n}")
    return ProblemFile(faces, positions or None, lengths)


def reference_read_targets_file(path: str, prob: ProblemFile) -> None:
    """Parse `v i theta`, `k i kappa` and `opt name value` lines into ``prob``."""
    n = prob.n_vertices
    for lineno, tok in _reference_tokens(path):
        try:
            if tok[0] in ("v", "k") and len(tok) == 3:
                v = int(tok[1])
                if not 1 <= v <= n:
                    raise ValueError(f"vertex index {v} outside 1..{n}")
                targets = prob.theta_targets if tok[0] == "v" else prob.kappa_targets
                targets[v - 1] = _reference_finite(tok[2])
            elif tok[0] == "opt" and len(tok) == 3:
                prob.options[tok[1]] = _reference_finite(tok[2])
            else:
                raise ValueError(f"unrecognized line {tok[0]!r}")
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
    if prob.theta_targets and prob.kappa_targets:
        raise ParseError(f"{path}: mixes theta (v) and kappa (k) targets")
