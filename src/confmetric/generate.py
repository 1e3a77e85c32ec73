"""Random problem instance generators for the experiment suites.

Three families: icospheres with uniformly random angle targets, square-grid
disks with random boundary curvature, and genus-g surfaces (chained
grid tori) carrying all curvature in a single cone vertex.  Every family
is deterministic for a fixed seed and normalizes its targets so the
discrete Gauss-Bonnet identity holds to machine precision.
"""

from __future__ import annotations

import math

import numpy as np

from .halfedge import MeshError, build_from_face_lists
from .io import ProblemFile


# -- base meshes ---------------------------------------------------------------


def icosahedron() -> tuple[list[list[int]], list[tuple[float, float, float]]]:
    p = (1.0 + math.sqrt(5.0)) / 2.0
    raw = [
        (-1, p, 0), (1, p, 0), (-1, -p, 0), (1, -p, 0),
        (0, -1, p), (0, 1, p), (0, -1, -p), (0, 1, -p),
        (p, 0, -1), (p, 0, 1), (-p, 0, -1), (-p, 0, 1),
    ]
    faces = [
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ]
    nrm = lambda v: tuple(c / math.sqrt(sum(x * x for x in v)) for c in v)
    return faces, [nrm(v) for v in raw]


def icosphere(level: int) -> tuple[list[list[int]], list[tuple[float, float, float]]]:
    """Icosahedron subdivided ``level`` times, vertices on the unit sphere."""
    faces, pos = icosahedron()
    for _ in range(level):
        pos = list(pos)
        midpoint: dict[tuple[int, int], int] = {}

        def mid(a: int, b: int) -> int:
            key = (a, b) if a < b else (b, a)
            v = midpoint.get(key)
            if v is None:
                x, y, z = (pos[a][i] + pos[b][i] for i in range(3))
                n = math.sqrt(x * x + y * y + z * z)
                midpoint[key] = v = len(pos)
                pos.append((x / n, y / n, z / n))
            return v

        out = []
        for a, b, c in faces:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            out += [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
        faces = out
    return faces, pos


ICOSPHERE_SIZES = (12, 42, 162, 642, 2562)


def grid_disk(n: int) -> tuple[list[list[int]], list[tuple[float, float, float]]]:
    """n x n planar vertex grid triangulated with uniform diagonals."""
    if n < 2:
        raise ValueError("grid_disk needs n >= 2")
    pos = [(float(i), float(j), 0.0) for i in range(n) for j in range(n)]
    v = lambda i, j: n * i + j
    faces = []
    for i in range(n - 1):
        for j in range(n - 1):
            faces.append([v(i, j), v(i + 1, j), v(i + 1, j + 1)])
            faces.append([v(i, j), v(i + 1, j + 1), v(i, j + 1)])
    return faces, pos


def _grid_torus(n: int = 5) -> list[list[int]]:
    v = lambda i, j: n * (i % n) + (j % n)
    faces = []
    for i in range(n):
        for j in range(n):
            faces.append([v(i, j), v(i + 1, j), v(i + 1, j + 1)])
            faces.append([v(i, j), v(i + 1, j + 1), v(i, j + 1)])
    return faces


def glued_tori(genus: int) -> tuple[list[list[int]], int]:
    """Chain of ``genus`` grid tori glued along removed triangles.

    Gluing identifies the removed faces' vertices with reversed
    orientation (cycle (a,b,c) against (d,e,f) as d->b, e->a, f->c), which
    keeps the merged face list consistently oriented.  Counts: V = 22g+3,
    E = 72g+3, F = 48g+2, so chi = 2-2g.
    """
    if genus < 1:
        raise ValueError("genus must be >= 1")
    n = 5
    base = _grid_torus(n)
    # Two vertex-disjoint faces per torus: the chain enters through one
    # and leaves through the other.
    fin = base.index([0, n, n + 1])
    fout = base.index([2 * n + 2, 3 * n + 2, 3 * n + 3])

    faces: list[list[int]] = []
    next_id = 0

    def fresh_copy(drop: list[int]) -> list[list[int]]:
        nonlocal next_id
        offset = next_id
        next_id += n * n
        return [[w + offset for w in f] for k, f in enumerate(base) if k not in drop]

    prev_out = base[fout]
    faces += fresh_copy([fout] if genus > 1 else [])
    for g in range(1, genus):
        drop = [fin] if g == genus - 1 else [fin, fout]
        offset = next_id
        copy = fresh_copy(drop)
        a, b, c = prev_out
        d, e, f = (w + offset for w in base[fin])
        rename = {d: b, e: a, f: c}
        copy = [[rename.get(w, w) for w in face] for face in copy]
        faces += copy
        prev_out = [w + offset for w in base[fout]]

    used = sorted({w for f in faces for w in f})
    dense = {w: i for i, w in enumerate(used)}
    faces = [[dense[w] for w in f] for f in faces]
    return faces, len(used)


# -- target randomization ------------------------------------------------------


def _sphere_targets(rng: np.random.Generator, n_vertices: int, n_faces: int) -> np.ndarray:
    total = math.pi * n_faces
    while True:
        theta = rng.uniform(math.pi, 3.0 * math.pi, n_vertices)
        # One uniform spread leaves an O(n*eps) residual on large meshes;
        # iterating with an exactly-rounded sum pulls it under 1e-12.
        for _ in range(3):
            theta += (total - math.fsum(theta)) / n_vertices
        if theta.min() > math.pi and theta.max() < 3.0 * math.pi:
            return theta


def _disk_boundary_kappa(rng: np.random.Generator, n_boundary: int) -> np.ndarray:
    while True:
        spread = rng.uniform(0.05 * math.pi, 0.85 * math.pi)
        kappa = rng.uniform(-spread, spread, n_boundary)
        kappa += (2.0 * math.pi - kappa.sum()) / n_boundary
        # Theta_hat = pi - kappa on the boundary must stay inside (0, 2pi).
        if -math.pi < kappa.min() and kappa.max() < math.pi:
            return kappa


def closest_icosphere_level(size: int) -> int:
    return min(range(len(ICOSPHERE_SIZES)), key=lambda i: abs(ICOSPHERE_SIZES[i] - size))


def generate(kind: str, seed: int, size: int | None = None) -> ProblemFile:
    """Build a deterministic random instance of the named family.

    ``size`` is a vertex-count hint: spheres snap to the nearest icosphere
    level, disks to the nearest square grid.  ``single-cone-genus-<g>``
    parses the genus from the kind string and ignores ``size``.  Raises
    MeshError for an unknown kind and a negative seed or size.
    """
    if seed < 0:
        raise MeshError(f"seed must be >= 0, got {seed}")
    if size is not None and size < 0:
        raise MeshError(f"size must be >= 0, got {size}")
    rng = np.random.default_rng(seed)
    if kind == "sphere-random-angles":
        level = closest_icosphere_level(size if size is not None else 642)
        faces, pos = icosphere(level)
        theta = _sphere_targets(rng, len(pos), len(faces))
        return ProblemFile(
            faces, positions=pos, theta_targets={i: float(t) for i, t in enumerate(theta)}
        )
    if kind == "disk-random-boundary":
        n = max(2, round(math.sqrt(size if size is not None else 1089)))
        faces, pos = grid_disk(n)
        boundary = sorted(build_from_face_lists(faces).boundary_vertices())
        kappa = _disk_boundary_kappa(rng, len(boundary))
        return ProblemFile(
            faces, positions=pos, kappa_targets={v: float(k) for v, k in zip(boundary, kappa)}
        )
    if kind.startswith("single-cone-genus-"):
        try:
            genus = int(kind.rsplit("-", 1)[1])
        except ValueError:
            raise MeshError(f"bad genus in kind {kind!r}")
        if genus < 2:
            raise MeshError("single-cone needs genus >= 2")
        faces, nv = glued_tori(genus)
        lengths = {}
        for f in faces:
            for a, b in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0])):
                lengths[(min(a, b), max(a, b))] = 1.0
        cone = 1  # any vertex off the glue seams; fixed for determinism
        theta = {v: 2.0 * math.pi for v in range(nv)}
        theta[cone] = 2.0 * math.pi * (2 * genus - 1)
        return ProblemFile(faces, edge_lengths=lengths, theta_targets=theta)
    raise MeshError(f"unsupported instance kind {kind!r}")
