"""File formats: problem input, target sidecars, result bundles, CSV traces.

All vertex/edge/face indices are 1-based in files and 0-based in memory.
Result bundles carry every float twice, as a decimal for humans and a hex
literal for exactness; the reader trusts the hex field, so a bundle
survives write -> read -> write byte-identically.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, fields
from itertools import chain

import numpy as np

from .halfedge import CombinatorialMesh, MeshError, _array
from .halfedge import build_from_face_edge_lists, build_from_face_lists
from .metric import PennerMetric


class ParseError(Exception):
    """Malformed or inconsistent input file."""


# -- problem files ---------------------------------------------------------------


@dataclass
class ProblemFile:
    """Parsed mesh + targets, before any solver objects are built.

    ``edge_lengths`` is keyed by sorted vertex pair; it overrides
    position-derived lengths edge by edge.  ``theta_targets`` and
    ``kappa_targets`` are mutually exclusive.
    """

    faces: list[list[int]]
    positions: list[tuple[float, float, float]] | None = None
    edge_lengths: dict[tuple[int, int], float] = field(default_factory=dict)
    theta_targets: dict[int, float] = field(default_factory=dict)
    kappa_targets: dict[int, float] = field(default_factory=dict)
    options: dict[str, float] = field(default_factory=dict)

    @property
    def n_vertices(self) -> int:
        """Vertex count of the mesh the faces build: one past the largest id."""
        return 1 + max(max(f) for f in self.faces)


def _finite(tok: str) -> float:
    val = float(tok)
    if not math.isfinite(val):
        raise ValueError(f"non-finite number {tok!r}")
    return val


def _tokens(path: str):
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


def read_mesh_file(path: str) -> ProblemFile:
    """Parse `v x y z`, `f i j k`, and `el i j length` lines."""
    positions: list[tuple[float, float, float]] = []
    faces: list[list[int]] = []
    lengths: dict[tuple[int, int], float] = {}
    for lineno, tok in _tokens(path):
        try:
            if tok[0] == "v" and len(tok) == 4:
                positions.append((_finite(tok[1]), _finite(tok[2]), _finite(tok[3])))
            elif tok[0] == "f" and len(tok) == 4:
                f = [int(t) - 1 for t in tok[1:]]
                if min(f) < 0:
                    raise ValueError("vertex index < 1")
                faces.append(f)
            elif tok[0] == "el" and len(tok) == 4:
                i, j = int(tok[1]) - 1, int(tok[2]) - 1
                val = _finite(tok[3])
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


def read_targets_file(path: str, prob: ProblemFile) -> None:
    """Parse `v i theta`, `k i kappa` and `opt name value` lines into ``prob``.

    Every target must name a vertex of ``prob``, 1..V.
    """
    n = prob.n_vertices
    for lineno, tok in _tokens(path):
        try:
            if tok[0] in ("v", "k") and len(tok) == 3:
                v = int(tok[1])
                if not 1 <= v <= n:
                    raise ValueError(f"vertex index {v} outside 1..{n}")
                targets = prob.theta_targets if tok[0] == "v" else prob.kappa_targets
                targets[v - 1] = _finite(tok[2])
            elif tok[0] == "opt" and len(tok) == 3:
                prob.options[tok[1]] = _finite(tok[2])
            else:
                raise ValueError(f"unrecognized line {tok[0]!r}")
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
    if prob.theta_targets and prob.kappa_targets:
        raise ParseError(f"{path}: mixes theta (v) and kappa (k) targets")


def problem_to_mesh(prob: ProblemFile) -> tuple[CombinatorialMesh, PennerMetric]:
    """Build mesh + metric, deriving lengths from positions where needed.

    The faces must use every vertex index up to the largest, and every
    ``el`` pair must be an edge of the faces."""
    used = np.unique(np.fromiter(chain.from_iterable(prob.faces), dtype=np.int64))
    if used.size != used[-1] + 1:
        raise ParseError(f"the faces use {used.size} of the vertex indices 1..{used[-1] + 1}")
    try:
        mesh = build_from_face_lists(prob.faces)
    except MeshError as exc:
        raise ParseError(str(exc)) from None
    opp, to = _array(mesh.opp), _array(mesh.to)
    edges = np.flatnonzero(np.arange(len(opp)) < opp)  # the builder parks nothing
    ends = list(zip(to[opp[edges]].tolist(), to[edges].tolist()))
    given, positions = prob.edge_lengths, prob.positions
    found = 0
    vals = []
    for a, b in ends:
        val = given.get((a, b) if a < b else (b, a))
        if val is not None:
            found += 1
        elif positions is not None:
            val = math.dist(positions[a], positions[b])
        else:
            raise ParseError(f"no length for edge {a + 1}-{b + 1} and no positions")
        if not val > 0.0:
            raise ParseError(f"degenerate edge {a + 1}-{b + 1}")
        vals.append(val)
    if found < len(given):
        pairs = {(a, b) if a < b else (b, a) for a, b in ends}
        a, b = next(key for key in given if key not in pairs)
        raise ParseError(f"el {a + 1} {b + 1} names no edge of the faces")
    lengths = np.empty(len(opp))
    lengths[edges] = lengths[opp[edges]] = vals
    # Solver input contract: faces must start as honest triangles.  The
    # builder has checked that every f row is one, and row i's sides are
    # halfedges 3i..3i+2.
    sides = np.sort(lengths[: 3 * len(prob.faces)].reshape(-1, 3), axis=1)
    bad = np.flatnonzero(sides[:, 0] + sides[:, 1] < sides[:, 2])
    if bad.size:
        i = bad[0]
        verts = " ".join(str(w + 1) for w in prob.faces[i])
        raise ParseError(f"triangle inequality violated on face {i + 1} (f {verts})")
    return mesh, PennerMetric(lengths.tolist())


def write_problem_files(prob: ProblemFile, mesh_path: str) -> str:
    """Write mesh + sidecar; returns the sidecar's path."""
    targets_path = sidecar_path(mesh_path)
    lines = []
    if prob.positions is not None:
        for p in prob.positions:
            lines.append(f"v {p[0]!r} {p[1]!r} {p[2]!r}")
    for f in prob.faces:
        lines.append("f " + " ".join(str(w + 1) for w in f))
    for (a, b), val in sorted(prob.edge_lengths.items()):
        lines.append(f"el {a + 1} {b + 1} {val!r}")
    with open(mesh_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    lines = []
    for v, t in sorted(prob.theta_targets.items()):
        lines.append(f"v {v + 1} {t!r}")
    for v, k in sorted(prob.kappa_targets.items()):
        lines.append(f"k {v + 1} {k!r}")
    for name, val in sorted(prob.options.items()):
        lines.append(f"opt {name} {val!r}")
    with open(targets_path, "w") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))
    return targets_path


def sidecar_path(mesh_path: str, suffix: str = ".targets") -> str:
    """``mesh_path`` with the last extension of its file name, if it has
    one, replaced by ``suffix``: the targets file, or the result bundle."""
    stem = mesh_path.rsplit(".", 1)[0] if "." in mesh_path.rsplit("/", 1)[-1] else mesh_path
    return stem + suffix


def gauss_bonnet_deviation(mesh: CombinatorialMesh, theta_hat: "list[float]") -> float:
    """Sum of targets minus the combinatorial angle total pi*sum(deg f - 2).

    Solvable targets make it zero.  On a mesh with boundary this is the
    Gauss-Bonnet identity when boundary targets are pi - kappa.
    """
    he_face = _array(mesh.he_face)
    inner = np.flatnonzero((he_face >= 0) & ~np.isin(he_face, list(mesh.boundary_faces)))
    # sum(deg f - 2) = the corners of the faces less two per face, an int.
    corners = inner.size - 2 * int(np.count_nonzero(he_face[inner] == inner))
    expected = math.pi * corners
    return math.fsum(theta_hat) - expected


# -- result bundles --------------------------------------------------------------


@dataclass
class IterationRow:
    """One Newton step of the trace: a bundle ``it`` line and a CSV row.

    The field order is the order of both.  The bundle writes a float field
    as ``repr hex`` and an int field as one token; the CSV writes ``repr``.
    """

    step: int
    max_error: float
    halvings: int
    flips_111: int
    flips_par: int
    flips_t: int
    flips_q: int
    decrement: float
    grad_sum: float
    symmetry_ok: int  # -1 n/a, 0 broken, 1 held


# True for each float field of IterationRow, in field order.
_IT_FLOATS = tuple(f.type in (float, "float") for f in fields(IterationRow))
_IT_TOKENS = len(_IT_FLOATS) + sum(_IT_FLOATS)


@dataclass
class ResultBundle:
    termination: str
    exit_code: int
    final_residual: float
    u_min: float
    u_max: float
    flip_totals: tuple[int, int, int, int, int, int]
    u: list[float]
    faces_v: list[list[int]]
    faces_e: list[list[int]]
    edge_lengths: list[float]
    quad_diags: dict[int, float]  # face row index -> diagonal
    iterations: list[IterationRow]

    def rebuild_mesh(self) -> tuple[CombinatorialMesh, list[int]]:
        """The bundle's mesh, each 4-entry row a recorded quad, and the
        ``edge_lengths`` index of every halfedge."""
        return build_from_face_edge_lists(
            self.faces_v, self.faces_e, len(self.u), quad_rows=self.quad_diags
        )


def _fl(x: float) -> str:
    x = float(x)
    return f"{x!r} {x.hex()}"


def write_bundle(bundle: ResultBundle, path: str) -> None:
    L = ["confmetric-result 1"]
    L.append(f"termination {bundle.termination}")
    L.append(f"exit {bundle.exit_code}")
    L.append(f"residual {_fl(bundle.final_residual)}")
    L.append(f"urange {_fl(bundle.u_min)} {_fl(bundle.u_max)}")
    L.append("flips " + " ".join(str(c) for c in bundle.flip_totals))
    L.append(f"nv {len(bundle.u)}")
    L += [f"u {_fl(x)}" for x in bundle.u]
    L.append(f"nf {len(bundle.faces_v)}")
    for fv, fe in zip(bundle.faces_v, bundle.faces_e):
        L.append("fv " + " ".join(str(w + 1) for w in fv))
        L.append("fe " + " ".join(str(e + 1) for e in fe))
    L.append(f"ne {len(bundle.edge_lengths)}")
    L += [f"el {_fl(x)}" for x in bundle.edge_lengths]
    L += [f"qd {row + 1} {_fl(d)}" for row, d in sorted(bundle.quad_diags.items())]
    L.append(f"nit {len(bundle.iterations)}")
    for it in bundle.iterations:
        toks = (_fl(v) if fl else str(v) for v, fl in zip(astuple(it), _IT_FLOATS))
        L.append("it " + " ".join(toks))
    with open(path, "w") as fh:
        fh.write("\n".join(L) + "\n")


def _iteration_row(t: list[str]) -> IterationRow:
    """An ``it`` line's tokens, tag included, as a row; floats from hex."""
    if len(t) != 1 + _IT_TOKENS:
        raise ValueError(f"expected {_IT_TOKENS} fields")
    vals, i = [], 1
    for fl in _IT_FLOATS:
        vals.append(float.fromhex(t[i + 1]) if fl else int(t[i]))
        i += 2 if fl else 1
    return IterationRow(*vals)


def read_bundle(path: str) -> ResultBundle:
    """Parse a result bundle.  Raises ParseError, with the path and the
    line, at any missing line or malformed field."""
    rows = list(_tokens(path))
    pos = 0

    def need(tag: str) -> list[str]:
        nonlocal pos
        if pos == len(rows):
            raise ParseError(f"{path}: missing {tag!r} line")
        lineno, tok = rows[pos]
        if tok[0] != tag:
            raise ParseError(f"{path}:{lineno}: expected {tag!r}, found {tok[0]!r}")
        pos += 1
        return tok

    try:
        head = need("confmetric-result")
        if head[1] != "1":
            raise ParseError(f"{path}: unsupported bundle version {head[1]}")
        termination = need("termination")[1]
        exit_code = int(need("exit")[1])
        residual = float.fromhex(need("residual")[2])
        t = need("urange")
        u_min, u_max = float.fromhex(t[2]), float.fromhex(t[4])
        t = need("flips")
        if len(t) != 7:
            raise ValueError("expected six flip counts")
        flip_totals = tuple(int(x) for x in t[1:])
        u = [float.fromhex(need("u")[2]) for _ in range(int(need("nv")[1]))]
        faces_v, faces_e = [], []
        for _ in range(int(need("nf")[1])):
            faces_v.append([int(w) - 1 for w in need("fv")[1:]])
            faces_e.append([int(w) - 1 for w in need("fe")[1:]])
        lengths = [float.fromhex(need("el")[2]) for _ in range(int(need("ne")[1]))]
        quad_diags: dict[int, float] = {}
        while pos < len(rows) and rows[pos][1][0] == "qd":
            t = need("qd")
            row = int(t[1]) - 1
            if not 0 <= row < len(faces_v) or len(faces_v[row]) != 4:
                raise ValueError(f"face row {row + 1} is not a 4-entry row")
            quad_diags[row] = float.fromhex(t[3])
        iterations = [_iteration_row(need("it")) for _ in range(int(need("nit")[1]))]
    except (ValueError, IndexError) as exc:
        lineno, tok = rows[pos - 1]
        raise ParseError(f"{path}:{lineno}: malformed {tok[0]!r} line: {exc}") from None
    return ResultBundle(
        termination, exit_code, residual, u_min, u_max, flip_totals,
        u, faces_v, faces_e, lengths, quad_diags, iterations,
    )


def bundle_from_solution(
    mesh: CombinatorialMesh,
    scaled: PennerMetric,
    u: "list[float]",
    report,
    exit_code: int,
    flips=None,
) -> ResultBundle:
    """Snapshot a finished solve, or a bare retriangulation at u = 0
    (``report`` None and its ``flips``), as a bundle."""
    edge_ids = sorted(mesh.edges())
    dense = {e: i for i, e in enumerate(edge_ids)}
    faces_v, faces_e, quad_diags = [], [], {}
    for row, f in enumerate(sorted(mesh.faces())):
        hs = mesh.face_halfedges(f)
        faces_v.append([mesh.tail_of(h) for h in hs])
        faces_e.append([dense[mesh.edge_of(h)] for h in hs])
        if len(hs) == 4:
            quad_diags[row] = scaled.quad_diag[f]
    steps = report.steps if report is not None else []
    iterations = [
        IterationRow(
            rec.step, rec.max_error, rec.halvings,
            rec.flips.single + rec.flips.paired, rec.flips.axis,
            rec.flips.tri_quad, rec.flips.quad_quad,
            rec.decrement, rec.grad_sum,
            -1 if rec.symmetry_ok is None else int(rec.symmetry_ok),
        )
        for rec in steps
    ]
    if report is None:
        termination, residual, u_min, u_max, log = "delaunay", math.nan, 0.0, 0.0, flips
    else:
        termination, residual = report.termination, report.final_residual
        u_min, u_max, log = report.u_min, report.u_max, report.total_flips()
    return ResultBundle(
        termination, exit_code, residual, u_min, u_max, (log.total, *astuple(log)),
        [float(x) for x in u], faces_v, faces_e, [scaled.lengths[e] for e in edge_ids],
        quad_diags, iterations,
    )


CSV_HEADER = ",".join(f.name for f in fields(IterationRow))


def bundle_to_csv(bundle: ResultBundle) -> str:
    rows = [CSV_HEADER]
    rows += (",".join(repr(v) for v in astuple(it)) for it in bundle.iterations)
    return "\n".join(rows) + "\n"
