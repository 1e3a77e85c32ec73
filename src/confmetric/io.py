"""File formats: problem input, target sidecars, result bundles, CSV traces.

All vertex/edge/face indices are 1-based in files and 0-based in memory.
Result bundles carry every float twice, as a decimal for humans and a hex
literal for exactness; the reader trusts the hex field, so a bundle
survives write -> read -> write byte-identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .halfedge import CombinatorialMesh, MeshError, build_from_face_edge_lists, build_from_face_lists
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
    with open(path, "r") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
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
    """Build mesh + metric, deriving lengths from positions where needed."""
    try:
        mesh = build_from_face_lists(prob.faces)
    except MeshError as exc:
        raise ParseError(str(exc)) from None
    lengths: dict[int, float] = {}
    for e in mesh.edges():
        a, b = mesh.edge_endpoints(e)
        key = (min(a, b), max(a, b))
        if key in prob.edge_lengths:
            lengths[e] = prob.edge_lengths[key]
        elif prob.positions is not None:
            pa, pb = prob.positions[a], prob.positions[b]
            lengths[e] = math.dist(pa, pb)
        else:
            raise ParseError(f"no length for edge {a + 1}-{b + 1} and no positions")
        if not lengths[e] > 0.0:
            raise ParseError(f"degenerate edge {a + 1}-{b + 1}")
    # Solver input contract: faces must start as honest triangles.
    for f in mesh.faces():
        hs = mesh.face_halfedges(f)
        ls = sorted(lengths[mesh.edge_of(h)] for h in hs)
        if ls[0] + ls[1] < ls[2]:
            raise ParseError(f"triangle inequality violated on face {f}")
    return mesh, PennerMetric.from_edge_lengths(mesh, lengths)


def write_problem_files(
    prob: ProblemFile, mesh_path: str, targets_path: str | None = None
) -> str:
    """Write mesh + sidecar; returns the sidecar's path."""
    if targets_path is None:
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


def sidecar_path(mesh_path: str) -> str:
    stem = mesh_path.rsplit(".", 1)[0] if "." in mesh_path.rsplit("/", 1)[-1] else mesh_path
    return stem + ".targets"


def gauss_bonnet_deviation(mesh: CombinatorialMesh, theta_hat: "list[float]") -> float:
    """Sum of targets minus the combinatorial angle total pi*sum(deg f - 2).

    Solvable targets make it zero.  On a mesh with boundary this is the
    Gauss-Bonnet identity when boundary targets are pi - kappa.
    """
    expected = math.pi * sum(mesh.degree(f) - 2 for f in mesh.faces())
    return math.fsum(theta_hat) - expected


# -- result bundles --------------------------------------------------------------


@dataclass
class IterationRow:
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
        return build_from_face_edge_lists(self.faces_v, self.faces_e, len(self.u))


def _fl(x: float) -> str:
    x = float(x)
    return f"{x!r} {x.hex()}"


def _parse_hex(tok: str) -> float:
    return float.fromhex(tok)


def write_bundle(bundle: ResultBundle, path: str) -> None:
    L = ["confmetric-result 1"]
    L.append(f"termination {bundle.termination}")
    L.append(f"exit {bundle.exit_code}")
    L.append(f"residual {_fl(bundle.final_residual)}")
    L.append(f"urange {_fl(bundle.u_min)} {_fl(bundle.u_max)}")
    L.append("flips " + " ".join(str(c) for c in bundle.flip_totals))
    L.append(f"nv {len(bundle.u)}")
    for x in bundle.u:
        L.append(f"u {_fl(x)}")
    L.append(f"nf {len(bundle.faces_v)}")
    for fv, fe in zip(bundle.faces_v, bundle.faces_e):
        L.append("fv " + " ".join(str(w + 1) for w in fv))
        L.append("fe " + " ".join(str(e + 1) for e in fe))
    L.append(f"ne {len(bundle.edge_lengths)}")
    for x in bundle.edge_lengths:
        L.append(f"el {_fl(x)}")
    for row, d in sorted(bundle.quad_diags.items()):
        L.append(f"qd {row + 1} {_fl(d)}")
    L.append(f"nit {len(bundle.iterations)}")
    for it in bundle.iterations:
        L.append(
            f"it {it.step} {_fl(it.max_error)} {it.halvings} "
            f"{it.flips_111} {it.flips_par} {it.flips_t} {it.flips_q} "
            f"{_fl(it.decrement)} {_fl(it.grad_sum)} {it.symmetry_ok}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(L) + "\n")


def read_bundle(path: str) -> ResultBundle:
    rows = list(_tokens(path))
    it = iter(rows)

    def need(tag: str) -> list[str]:
        try:
            lineno, tok = next(it)
        except StopIteration:
            raise ParseError(f"{path}: missing {tag!r} line") from None
        if tok[0] != tag:
            raise ParseError(f"{path}:{lineno}: expected {tag!r}, found {tok[0]!r}")
        return tok

    head = need("confmetric-result")
    if head[1] != "1":
        raise ParseError(f"{path}: unsupported bundle version {head[1]}")
    termination = need("termination")[1]
    exit_code = int(need("exit")[1])
    t = need("residual")
    residual = _parse_hex(t[2])
    t = need("urange")
    u_min, u_max = _parse_hex(t[2]), _parse_hex(t[4])
    t = need("flips")
    flip_totals = tuple(int(x) for x in t[1:7])
    nv = int(need("nv")[1])
    u = [_parse_hex(need("u")[2]) for _ in range(nv)]
    nf = int(need("nf")[1])
    faces_v, faces_e = [], []
    for _ in range(nf):
        faces_v.append([int(w) - 1 for w in need("fv")[1:]])
        faces_e.append([int(w) - 1 for w in need("fe")[1:]])
    ne = int(need("ne")[1])
    lengths = [_parse_hex(need("el")[2]) for _ in range(ne)]
    quad_diags: dict[int, float] = {}
    tail = list(it)
    k = 0
    while k < len(tail) and tail[k][1][0] == "qd":
        tok = tail[k][1]
        quad_diags[int(tok[1]) - 1] = _parse_hex(tok[3])
        k += 1
    if k >= len(tail) or tail[k][1][0] != "nit":
        raise ParseError(f"{path}: missing 'nit' line")
    nit = int(tail[k][1][1])
    iterations = []
    for j in range(nit):
        lineno, tok = tail[k + 1 + j]
        if tok[0] != "it" or len(tok) != 14:
            raise ParseError(f"{path}:{lineno}: malformed it line")
        iterations.append(
            IterationRow(
                step=int(tok[1]),
                max_error=_parse_hex(tok[3]),
                halvings=int(tok[4]),
                flips_111=int(tok[5]),
                flips_par=int(tok[6]),
                flips_t=int(tok[7]),
                flips_q=int(tok[8]),
                decrement=_parse_hex(tok[10]),
                grad_sum=_parse_hex(tok[12]),
                symmetry_ok=int(tok[13]),
            )
        )
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
    """Snapshot a finished solve (or a bare retriangulation) as a bundle."""
    edge_ids = sorted(mesh.edges())
    dense = {e: i for i, e in enumerate(edge_ids)}
    faces_v, faces_e, quad_diags = [], [], {}
    for row, f in enumerate(sorted(mesh.faces())):
        hs = mesh.face_halfedges(f)
        faces_v.append([mesh.tail_of(h) for h in hs])
        faces_e.append([dense[mesh.edge_of(h)] for h in hs])
        if len(hs) == 4:
            quad_diags[row] = scaled.quad_diag[f]
    iterations = []
    steps = report.steps if report is not None else []
    for rec in steps:
        sym = -1 if rec.symmetry_ok is None else int(rec.symmetry_ok)
        iterations.append(
            IterationRow(
                rec.step, rec.max_error, rec.halvings,
                rec.flips.single + rec.flips.paired, rec.flips.axis,
                rec.flips.tri_quad, rec.flips.quad_quad,
                rec.decrement, rec.grad_sum, sym,
            )
        )
    if report is not None:
        totals = report.total_flips()
        termination = report.termination
        residual = report.final_residual
        u_min, u_max = report.u_min, report.u_max
    else:
        from .metric import FlipLog

        totals = flips if flips is not None else FlipLog()
        termination = "delaunay"
        residual = math.nan
        finite = [x for x in u if not math.isnan(x)]
        u_min = min(finite) if finite else 0.0
        u_max = max(finite) if finite else 0.0
    return ResultBundle(
        termination=termination,
        exit_code=exit_code,
        final_residual=residual,
        u_min=u_min,
        u_max=u_max,
        flip_totals=(
            totals.total, totals.single, totals.paired,
            totals.axis, totals.tri_quad, totals.quad_quad,
        ),
        u=[float(x) for x in u],
        faces_v=faces_v,
        faces_e=faces_e,
        edge_lengths=[scaled.lengths[e] for e in edge_ids],
        quad_diags=quad_diags,
        iterations=iterations,
    )


CSV_HEADER = "step,max_error,halvings,flips_111,flips_par,flips_t,flips_q"


def bundle_to_csv(bundle: ResultBundle) -> str:
    rows = [CSV_HEADER]
    for it in bundle.iterations:
        rows.append(
            f"{it.step},{it.max_error!r},{it.halvings},"
            f"{it.flips_111},{it.flips_par},{it.flips_t},{it.flips_q}"
        )
    return "\n".join(rows) + "\n"
