"""File formats: problem input, target sidecars, result bundles, CSV traces.

All vertex/edge/face indices are 1-based in files and 0-based in memory.
Result bundles carry every float twice, as a decimal for humans and a hex
literal for exactness; the reader trusts the hex field, so a bundle
survives write -> read -> write byte-identically.
"""

from __future__ import annotations

import math
import re
from dataclasses import astuple, dataclass, field, fields
from itertools import chain, repeat
from operator import itemgetter

import numpy as np

from .halfedge import CombinatorialMesh, MeshError, PennerMetric, _array, _rows
from .halfedge import build_from_face_edge_lists, build_from_face_lists


class ParseError(Exception):
    """Malformed or inconsistent input file."""


# -- problem files ---------------------------------------------------------------


@dataclass
class ProblemFile:
    """Parsed mesh + targets, before any solver objects are built.

    ``faces`` and ``positions`` are lists of rows or (F, 3) and (V, 3)
    arrays; the readers give arrays.  ``edge_lengths`` is keyed by sorted
    vertex pair; it overrides position-derived lengths edge by edge.
    ``theta_targets`` and ``kappa_targets`` are mutually exclusive.
    """

    faces: list[list[int]] | np.ndarray
    positions: list[tuple[float, float, float]] | np.ndarray | None = None
    edge_lengths: dict[tuple[int, int], float] = field(default_factory=dict)
    theta_targets: dict[int, float] = field(default_factory=dict)
    kappa_targets: dict[int, float] = field(default_factory=dict)
    options: dict[str, float] = field(default_factory=dict)

    @property
    def n_vertices(self) -> int:
        """Vertex count of the mesh the faces build: one past the largest id."""
        return 1 + int(_rows(self.faces)[1].max())


def _split(path: str) -> tuple[list[list[str]], np.ndarray, tuple[int, str] | None]:
    """The token rows of a file's nonblank lines, their line numbers, and
    the error at its first line that is not UTF-8 text, if any: the rows
    stop before it.  Lines end where ``bytes.splitlines`` ends them, and
    ``#`` starts a comment."""
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    data, error = b"\n".join(lines), None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        bad = data.count(b"\n", 0, exc.start)
        text = b"\n".join(lines[:bad]).decode("utf-8")
        try:
            lines[bad].decode("utf-8")
        except UnicodeDecodeError as line_exc:
            error = (bad + 1, f"not UTF-8 text: {line_exc.reason}")
    rows = list(map(str.split, re.sub("#.*", "", text).split("\n")))
    sizes = np.fromiter(map(len, rows), np.intp, len(rows))
    return list(filter(None, rows)), np.flatnonzero(sizes) + 1, error


class _Table:
    """A problem file's rows grouped by tag, one token tuple per column,
    and the first error found in them.

    Every row must have ``width`` tokens and one of ``tags``.  The checks
    run in the order in which a line reads its tokens, each over a whole
    column, and an error displaces the one held only from an earlier line;
    so :meth:`done` raises the error that reading line by line meets first.
    """

    def __init__(self, path: str, tags: tuple[str, ...], width: int):
        rows, lineno, error = _split(path)
        self.path, self.error = path, error or (math.inf, "")
        first = list(map(itemgetter(0), rows))
        kind = dict(zip(tags, range(len(tags))))
        code = np.fromiter(map(kind.get, first, repeat(-1)), np.intp, len(rows))
        code[np.fromiter(map(len, rows), np.intp, len(rows)) != width] = -1
        if (code < 0).any():
            i = np.argmax(code < 0)
            self.error = min(self.error, (lineno[i], f"unrecognized line {first[i]!r}"))
        self.groups = {}
        for i, tag in enumerate(tags):
            sel = np.flatnonzero(code == i).tolist()
            self.groups[tag] = lineno[sel], list(zip(*map(rows.__getitem__, sel))) or [()] * width

    def fail(self, tag: str, i: int, word) -> None:
        """An error at row ``i`` of ``tag``'s rows, unless the error held is
        on an earlier line or the same one; ``word`` is its message, or
        makes it from the row's tokens."""
        lines, cols = self.groups[tag]
        if lines[i] < self.error[0]:
            self.error = (lines[i], word([c[i] for c in cols]) if callable(word) else word)

    def check(self, tag: str, bad: np.ndarray, word) -> None:
        """An error at the first of ``tag``'s rows that ``bad`` marks."""
        if bad.any():
            self.fail(tag, np.argmax(bad), word)

    def numbers(self, tag: str, j: int, cast=float) -> np.ndarray:
        """Column ``j`` of ``tag``'s rows as one array, each token read by
        ``cast``, ``float`` (which must come out finite) or ``int``.  From
        the first token that ``cast`` rejects on the column reads 0, and an
        int beyond 64 bits reads as 0 or, when positive, the largest int."""
        toks = self.groups[tag][1][j]
        dtype = np.int64 if cast is int else np.float64
        try:
            vals = np.fromiter(map(cast, toks), dtype, len(toks))
        except (ValueError, OverflowError):
            vals = np.zeros(len(toks), dtype)
            for i, tok in enumerate(toks):  # only for a column with a bad token
                try:
                    vals[i] = cast(tok)
                except OverflowError:
                    vals[i] = np.iinfo(dtype).max if int(tok) > 0 else 0
                except ValueError as exc:
                    self.fail(tag, i, str(exc))
                    break
        if cast is float:
            self.check(tag, ~np.isfinite(vals), lambda row: f"non-finite number {row[j]!r}")
        return vals

    def done(self) -> None:
        line, message = self.error
        if message:
            raise ParseError(f"{self.path}:{line}: {message}")


def read_mesh_file(path: str) -> ProblemFile:
    """Parse `v x y z`, `f i j k`, and `el i j length` lines."""
    table = _Table(path, ("v", "f", "el"), 4)
    xyz = np.column_stack([table.numbers("v", j) for j in (1, 2, 3)])
    f = np.column_stack([table.numbers("f", j, int) for j in (1, 2, 3)])
    table.check("f", f.min(axis=1) < 1, "vertex index < 1")
    a, b, length = table.numbers("el", 1, int), table.numbers("el", 2, int), table.numbers("el", 3)
    lo, hi = np.minimum(a, b) - 1, np.maximum(a, b) - 1
    table.check("el", (lo < 0) | ~(length > 0.0), "bad el line")
    table.done()
    if not len(f):
        raise ParseError(f"{path}: no faces")
    if len(xyz) and len(xyz) != f.max():
        raise ParseError(f"{path}: {len(xyz)} v lines but the faces use vertices 1..{f.max()}")
    lengths = dict(zip(zip(lo.tolist(), hi.tolist()), length.tolist()))
    return ProblemFile(f - 1, xyz if len(xyz) else None, lengths)


def read_targets_file(path: str, prob: ProblemFile) -> None:
    """Parse `v i theta`, `k i kappa` and `opt name value` lines into ``prob``.

    Every target must name a vertex of ``prob``, 1..V.  A vertex or option
    named twice takes its last value.
    """
    n = prob.n_vertices
    table = _Table(path, ("v", "k", "opt"), 3)
    read = []
    for tag in ("v", "k"):
        v = table.numbers(tag, 1, int)
        outside = lambda row: f"vertex index {int(row[1])} outside 1..{n}"  # noqa: E731
        table.check(tag, (v < 1) | (v > n), outside)
        read.append(zip((v - 1).tolist(), table.numbers(tag, 2).tolist()))
    value = table.numbers("opt", 2)
    table.done()
    prob.theta_targets.update(read[0])
    prob.kappa_targets.update(read[1])
    prob.options.update(zip(table.groups["opt"][1][1], value.tolist()))
    if prob.theta_targets and prob.kappa_targets:
        raise ParseError(f"{path}: mixes theta (v) and kappa (k) targets")


def problem_to_mesh(prob: ProblemFile) -> tuple[CombinatorialMesh, PennerMetric]:
    """Build mesh + metric, deriving lengths from positions where needed.

    The faces must use every vertex index up to the largest, and every
    ``el`` pair must be an edge of the faces.  Connectivity errors name
    vertices by file index."""
    flat = _rows(prob.faces)[1]
    ids = np.sort(flat)  # not np.unique: it imports numpy.ma, 15 ms without scipy
    used = 1 + np.count_nonzero(np.diff(ids))
    if used != ids[-1] + 1:
        raise ParseError(f"the faces use {used} of the vertex indices 1..{ids[-1] + 1}")
    try:
        mesh = build_from_face_lists(prob.faces)
    except MeshError as exc:
        raise ParseError(exc.one_based()) from None
    opp, to = _array(mesh.opp), _array(mesh.to)
    edges = np.flatnonzero(np.arange(len(opp)) < opp)  # the builder parks nothing
    a, b = to[opp[edges]], to[edges]
    n, given = mesh.n_vertices, prob.edge_lengths
    keys = np.minimum(a, b) * n + np.maximum(a, b)
    order = np.argsort(keys)
    lo, hi = np.fromiter(chain.from_iterable(given), np.int64, 2 * len(given)).reshape(-1, 2).T
    at = order[np.searchsorted(keys, lo * n + hi, sorter=order).clip(max=len(keys) - 1)]
    named = (0 <= lo) & (lo < hi) & (hi < n) & (keys[at] == lo * n + hi)
    vals = np.full(len(edges), np.nan)
    vals[at[named]] = np.fromiter(given.values(), float, len(given))[named]
    missing = np.ones(len(edges), dtype=bool)
    missing[at[named]] = False
    if prob.positions is not None:
        xyz = np.asarray(prob.positions, dtype=float).tolist()
        ends = (map(xyz.__getitem__, end[missing].tolist()) for end in (a, b))
        vals[missing] = list(map(math.dist, *ends))
    bad = np.flatnonzero(~(vals > 0.0))
    if bad.size:
        e = bad[0]
        if prob.positions is None and missing[e]:
            raise ParseError(f"no length for edge {a[e] + 1}-{b[e] + 1} and no positions")
        raise ParseError(f"degenerate edge {a[e] + 1}-{b[e] + 1}")
    if not named.all():
        i = np.argmin(named)
        raise ParseError(f"el {lo[i] + 1} {hi[i] + 1} names no edge of the faces")
    lengths = np.empty(len(opp))
    lengths[edges] = lengths[opp[edges]] = vals
    # Solver input contract: faces must start as honest triangles.  The
    # builder has checked that every f row is one, and row i's sides are
    # halfedges 3i..3i+2.
    sides = np.sort(lengths[: len(flat)].reshape(-1, 3), axis=1)
    bad = np.flatnonzero(sides[:, 0] + sides[:, 1] < sides[:, 2])
    if bad.size:
        verts = " ".join(map(str, flat[3 * bad[0] : 3 * bad[0] + 3] + 1))
        raise ParseError(f"triangle inequality violated on face {bad[0] + 1} (f {verts})")
    return mesh, PennerMetric(lengths.tolist())


def write_problem_files(prob: ProblemFile, mesh_path: str) -> str:
    """Write mesh + sidecar; returns the sidecar's path."""
    targets_path = sidecar_path(mesh_path)
    lines = []
    if prob.positions is not None:
        for p in np.asarray(prob.positions, dtype=float).tolist():
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
        """The bundle's mesh, each ``qd`` row a recorded quad, and every
        halfedge's index into ``edge_lengths`` followed by the ``qd``
        diagonals in line order (a parked pair indexes its quad's)."""
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
    line, at any missing line or malformed field, and unless the ``fe``
    rows use exactly the edge ids 1..``ne``."""
    rows, lineno, error = _split(path)
    if error:
        raise ParseError(f"{path}:{error[0]}: {error[1]}")
    rows = list(zip(lineno.tolist(), rows))
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
        e = min(set().union(*faces_e) ^ set(range(len(lengths))), default=None)
        if e is not None:  # a quad's parked pair takes the first id past ne
            where = "in no fe row" if 0 <= e < len(lengths) else "outside 1..ne"
            raise ParseError(f"{path}: edge id {e + 1} is {where} (ne {len(lengths)})")
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
            quad_diags[row] = scaled.lengths[mesh.quad_pairs[f][0]]
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
