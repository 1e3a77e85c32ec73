"""Problem files, result bundles, CSV traces, instance generators."""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confmetric.generate import (
    ICOSPHERE_SIZES,
    closest_icosphere_level,
    generate,
    glued_tori,
    grid_disk,
    icosphere,
)
from confmetric.halfedge import MeshError, build_from_face_lists, validate
from confmetric.io import (
    CSV_HEADER,
    ParseError,
    ProblemFile,
    bundle_from_solution,
    bundle_to_csv,
    gauss_bonnet_deviation,
    problem_to_mesh,
    read_bundle,
    read_mesh_file,
    read_targets_file,
    sidecar_path,
    write_bundle,
    write_problem_files,
)
from confmetric.metric import FlipLog, PennerMetric, vertex_angle_sums
from confmetric.solver import find_conformal_metric

import helpers


# -- problem files -----------------------------------------------------------


def test_read_mesh_file_vertices_and_faces(tmp_path):
    p = tmp_path / "m.mesh"
    p.write_text(
        "# comment line\n"
        "v 0.0 0.0 0.0\n"
        "v 1.0 0.0 0.0\n"
        "v 0.0 1.0 0.0   # trailing comment\n"
        "f 1 2 3\n"
    )
    prob = read_mesh_file(str(p))
    assert prob.faces.tolist() == [[0, 1, 2]]
    assert prob.positions.tolist() == [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    mesh, metric = problem_to_mesh(prob)
    assert validate(mesh) == []
    assert sorted(metric.lengths[e] for e in mesh.edges()) == pytest.approx(
        [1.0, 1.0, math.sqrt(2.0)]
    )


def test_el_lines_override_positions(tmp_path):
    p = tmp_path / "m.mesh"
    p.write_text(
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nel 1 2 1.25\n"
    )
    prob = read_mesh_file(str(p))
    mesh, metric = problem_to_mesh(prob)
    e = next(x for x in mesh.edges() if set(helpers.edge_endpoints(mesh, x)) == {0, 1})
    assert metric.lengths[e] == 1.25


@pytest.mark.parametrize(
    "body",
    [
        "q 1 2 3\n",                    # unknown tag
        "f 0 1 2\n",                    # index below 1
        "v 0 0 0\n",                    # no faces
        "f 1 2 3\nel 1 2 -1.0\n",       # nonpositive length
        "v 0 0 0\nv 1 0 0\nf 1 2 3\n",  # missing third v line
        "v 0 0 inf\nv 1 0 0\nv 0 1 0\nf 1 2 3\n",  # non-finite position
        "f 1 2 3\nel 1 2 nan\n",      # non-finite length
    ],
)
def test_mesh_file_rejects(tmp_path, body):
    p = tmp_path / "bad.mesh"
    p.write_text(body)
    with pytest.raises(ParseError):
        read_mesh_file(str(p))


def test_lengths_without_positions_must_cover_all_edges(tmp_path):
    p = tmp_path / "m.mesh"
    p.write_text("f 1 2 3\nel 1 2 1.0\nel 2 3 1.0\n")
    with pytest.raises(ParseError):
        problem_to_mesh(read_mesh_file(str(p)))


@pytest.mark.parametrize("line, pair", [("el 1 1 5.0", "1 1"), ("el 9 2 7.0", "2 9")])
def test_el_pair_that_is_no_edge_is_rejected(tmp_path, line, pair):
    # A loop pair, and a pair naming vertex 9 of a tetrahedron.
    p = tmp_path / "m.mesh"
    p.write_text(
        "f 1 2 3\nf 1 3 4\nf 1 4 2\nf 2 4 3\n"
        + "".join(f"el {a} {b} 1.0\n" for a, b in [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
        + line + "\n"
    )
    with pytest.raises(ParseError, match=f"^el {pair} names no edge of the faces$"):
        problem_to_mesh(read_mesh_file(str(p)))


def test_triangle_inequality_enforced_on_input(tmp_path):
    p = tmp_path / "m.mesh"
    p.write_text("f 1 2 3\nel 1 2 1.0\nel 2 3 1.0\nel 1 3 9.0\n")
    with pytest.raises(ParseError):
        problem_to_mesh(read_mesh_file(str(p)))


def test_triangle_inequality_error_names_the_f_row(tmp_path):
    # The second face's halfedges start at id 3; the message names its row.
    p = tmp_path / "m.mesh"
    p.write_text(
        "f 1 2 3\nf 1 3 4\nel 1 2 1.0\nel 2 3 1.0\nel 1 3 1.0\nel 3 4 1.0\nel 1 4 3.0\n"
    )
    with pytest.raises(ParseError, match=r"violated on face 2 \(f 1 3 4\)$"):
        problem_to_mesh(read_mesh_file(str(p)))


def test_targets_file_theta_and_options(tmp_path):
    m = tmp_path / "m.mesh"
    m.write_text("f 1 2 3\nel 1 2 1\nel 2 3 1\nel 1 3 1\n")
    t = tmp_path / "m.targets"
    t.write_text("v 1 3.14\nv 2 3.0\nopt tol 1e-8\n")
    prob = read_mesh_file(str(m))
    read_targets_file(str(t), prob)
    assert prob.theta_targets == {0: 3.14, 1: 3.0}
    assert prob.options == {"tol": 1e-8}


def test_targets_file_rejects_mixed_kinds(tmp_path):
    m = tmp_path / "m.mesh"
    m.write_text("f 1 2 3\nel 1 2 1\nel 2 3 1\nel 1 3 1\n")
    t = tmp_path / "m.targets"
    t.write_text("v 1 3.14\nk 2 0.5\n")
    prob = read_mesh_file(str(m))
    with pytest.raises(ParseError):
        read_targets_file(str(t), prob)


# -- the bulk readers against the line-by-line reference -------------------------

INT_FORMS = (str, lambda i: f"+{i}", lambda i: f"0{i}", lambda i: "_".join(str(i)))
ANY_FLOATS = ("1e-400", "-0.0", "+3", "1_0", "2.5E-1", "-7")
POSITIVE_FLOATS = ("+3", "1_0", "2.5E-1", "1e-300", "0.1")
SEPARATORS = (" ", "  ", "\t", " \x0c ", "\u0085", " \t ")
LINE_ENDS = ("\n", "\r\n", "\r")


def _int(rng, i):
    return rng.choice(INT_FORMS)(i)


def _float(rng, positive=False):
    if rng.random() < 0.3:
        return rng.choice(POSITIVE_FLOATS if positive else ANY_FLOATS)
    return repr(rng.uniform(0.01, 5.0) if positive else rng.uniform(-5.0, 5.0))


def _mesh_rows(rng):
    """The rows of a valid mesh file: faces over vertices 1..n, maybe one
    position per vertex, maybe el lines, some pairs named twice."""
    n = rng.randint(3, 9)
    faces = [rng.sample(range(1, n + 1), 3) for _ in range(rng.randint(1, 6))]
    faces.append([n, 1, 2])
    rows = [["f", *(_int(rng, w) for w in f)] for f in faces]
    if rng.random() < 0.7:
        rows += [["v", _float(rng), _float(rng), _float(rng)] for _ in range(n)]
    for _ in range(rng.randint(0, 5)):
        a, b = rng.sample(range(1, n + 1), 2)
        rows.append(["el", _int(rng, a), _int(rng, b), _float(rng, positive=True)])
    rng.shuffle(rows)
    return rows, n


def _target_rows(rng, n):
    """The rows of a valid targets file for vertices 1..n, of one kind."""
    tag = rng.choice("vk")
    rows = [[tag, _int(rng, rng.randint(1, n)), _float(rng)] for _ in range(rng.randint(0, 6))]
    rows += [["opt", rng.choice(["tol", "max_steps", "x_y"]), _float(rng)]
             for _ in range(rng.randint(0, 3))]
    rng.shuffle(rows)
    return rows


def _file_bytes(rng, rows):
    """``rows`` as a file, with blank lines, comments, mixed separators and
    mixed line ends; a row may already be bytes."""
    out = []
    for row in rows:
        if rng.random() < 0.15:
            out.append(rng.choice(["", "   ", "# a comment, é", "\t# x"]).encode())
        if isinstance(row, bytes):
            out.append(row)
            continue
        line = rng.choice(["", " ", "\t"]) + rng.choice(SEPARATORS).join(row)
        if rng.random() < 0.2:
            line += rng.choice(["#", " # note", "\t#é # more"])
        out.append(line.encode())
    return b"".join(line + rng.choice(LINE_ENDS).encode() for line in out)


MESH_MUTATIONS = tuple(
    line.split() if isinstance(line, str) else line
    for line in (
        "q 1 2 3", "f 1 2", "v 1 2 3 4", "el 1 2",  # unknown tag, wrong token count
        "f 1 x 3", "v 0 abc 0", "el 1 2 1.0.0", "f 1.0 2 3",  # not a number
        "v nan 0 0", "v 0 0 -inf", "el 1 2 inf", "v nan x 1",  # not finite
        "f 0 1 2", "f 1 -99999999999999999999 2", "el 0 1 1.0",  # index < 1
        "el 1 2 -1.0", "el 1 2 0", "el 1 2 1e-400", "el 0 2 x",  # el <= 0
        b"f 1 2 \xff", b"v 1 2 \xc3", b"# \xe9\xff",  # not UTF-8
    )
)
TARGET_MUTATIONS = tuple(
    line.split() if isinstance(line, str) else line
    for line in (
        "q 1 2", "v 1", "opt tol", "k 1 2 3",  # unknown tag, wrong token count
        "v 1 abc", "k x 1.0", "opt tol zz", "v 1.5 1",  # not a number
        "k 2 inf", "opt tol nan",  # not finite
        "v 0 1.0", "k -3 x", "v 99 1.0",  # index outside 1..V
        "k 99999999999999999999 1.0", "v -99999999999999999999 1",
        b"v 1 \xff", b"opt \xc3",  # not UTF-8
    )
)


def _read(reader, *args):
    """What ``reader`` makes of a file: its result, or its ParseError text."""
    try:
        return reader(*args), None
    except ParseError as exc:
        return None, str(exc)


def _bits(values):
    """A dict's items with each value's bits, or an array's rows' bits."""
    if isinstance(values, dict):
        assert all(type(v) is float for v in values.values())
        return [(k, v.hex()) for k, v in values.items()]
    return None if values is None else np.asarray(values, dtype=float).tobytes()


def _assert_same_problem(bulk, ref):
    assert np.asarray(bulk.faces).tolist() == ref.faces
    assert _bits(bulk.positions) == _bits(ref.positions)
    for name in ("edge_lengths", "theta_targets", "kappa_targets", "options"):
        assert _bits(getattr(bulk, name)) == _bits(getattr(ref, name))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 3))
def test_bulk_readers_match_the_line_by_line_reference(tmp_path_factory, seed, mutations):
    # Valid files (mutations 0) read to the same values bitwise; files with
    # one or more bad lines, or a file-level fault, give the same ParseError.
    rng = random.Random(seed)
    folder = tmp_path_factory.mktemp("files")
    rows, n = _mesh_rows(rng)
    targets = _target_rows(rng, n)
    for _ in range(mutations):
        kind = rng.randrange(4)
        if kind == 0:
            rows.insert(rng.randint(0, len(rows)), rng.choice(MESH_MUTATIONS))
        elif kind == 1:
            targets.insert(rng.randint(0, len(targets)), rng.choice(TARGET_MUTATIONS))
        elif kind == 2:  # one v line too many or too few, or no f line
            v_rows = [r for r in rows if r[0] == "v"]
            if v_rows and rng.random() < 0.5:
                rows.remove(v_rows[0])
            else:
                rows.append(["v", "0", "0", "0"])
            if rng.random() < 0.2:
                rows = [r for r in rows if r[0] != "f"]
        else:  # the other kind of target
            targets.insert(rng.randint(0, len(targets)), [rng.choice("vk"), "1", "0.5"])
    mesh = folder / "m.mesh"
    mesh.write_bytes(_file_bytes(rng, rows))
    bulk, error = _read(read_mesh_file, str(mesh))
    ref, ref_error = _read(helpers.reference_read_mesh_file, str(mesh))
    assert error == ref_error
    if error is None:
        _assert_same_problem(bulk, ref)
    side = folder / "m.targets"
    side.write_bytes(_file_bytes(rng, targets))
    bulk, ref = ProblemFile([[0, 1, n - 1]]), ProblemFile([[0, 1, n - 1]])
    _, error = _read(read_targets_file, str(side), bulk)
    assert error == _read(helpers.reference_read_targets_file, str(side), ref)[1]
    if error is None:
        _assert_same_problem(bulk, ref)


def test_a_pair_vertex_or_option_named_twice_keeps_its_last_value(tmp_path):
    m = tmp_path / "m.mesh"
    m.write_text("f 1 2 3\nel 1 2 1\nel 2 3 1\nel 1 3 1\nel 2 1 1.5\n")
    t = tmp_path / "m.targets"
    t.write_text("v 2 1.0\nopt tol 1e-6\nv 1 2.0\nv 2 3.0\nopt tol 1e-9\n")
    prob = read_mesh_file(str(m))
    read_targets_file(str(t), prob)
    assert list(prob.edge_lengths.items()) == [((0, 1), 1.5), ((1, 2), 1.0), ((0, 2), 1.0)]
    assert list(prob.theta_targets.items()) == [(1, 3.0), (0, 2.0)]
    assert prob.options == {"tol": 1e-9}


def test_sidecar_path():
    assert sidecar_path("runs/case7.mesh") == "runs/case7.targets"
    assert sidecar_path("case7") == "case7.targets"
    assert sidecar_path("a.b/case7") == "a.b/case7.targets"


def test_write_problem_files_round_trip(tmp_path):
    inst = generate("sphere-random-angles", seed=3, size=12)
    mesh_path = str(tmp_path / "s.mesh")
    targets_path = write_problem_files(inst, mesh_path)
    prob = read_mesh_file(mesh_path)
    read_targets_file(targets_path, prob)
    assert prob.faces.tolist() == inst.faces
    assert prob.theta_targets == inst.theta_targets
    mesh, metric = problem_to_mesh(prob)
    assert validate(mesh) == []
    assert mesh.n_vertices == 12


def test_write_problem_files_length_only_instance(tmp_path):
    inst = generate("single-cone-genus-2", seed=0)
    mesh_path = str(tmp_path / "g2.mesh")
    write_problem_files(inst, mesh_path)
    prob = read_mesh_file(mesh_path)
    assert prob.positions is None
    mesh, metric = problem_to_mesh(prob)
    assert validate(mesh) == []
    assert helpers.euler_characteristic(mesh) == -2


@pytest.mark.parametrize("kind", ["sphere-random-angles", "disk-random-boundary"])
def test_the_benchmark_harness_api_round_trips(tmp_path, kind):
    # What perfbench/workloads.py and setup_probe.py do with the library:
    # relabel a generated instance as lists and dicts, write it, read it
    # back, build the solver input and look targets up.
    inst = generate(kind, seed=1, size=30)
    rng = np.random.default_rng([4, 1])
    n = inst.n_vertices
    perm = [int(p) for p in rng.permutation(n)]
    faces = [[perm[v] for v in f] for f in inst.faces]
    turns = rng.integers(0, 3, len(faces))
    inst.faces = [faces[i][t:] + faces[i][:t] for i, t in zip(rng.permutation(len(faces)), turns)]
    positions = [None] * n
    for v, p in enumerate(inst.positions):
        positions[perm[v]] = p
    inst.positions = positions
    inst.theta_targets = {perm[v]: t for v, t in inst.theta_targets.items()}
    inst.kappa_targets = {perm[v]: k for v, k in inst.kappa_targets.items()}

    path = str(tmp_path / "a.mesh")
    write_problem_files(inst, path)
    prob = read_mesh_file(path)
    read_targets_file(sidecar_path(path), prob)
    mesh, lengths = problem_to_mesh(prob)
    theta = [prob.theta_targets.get(v, 2.0 * math.pi) for v in range(mesh.n_vertices)]
    assert theta == [inst.theta_targets.get(v, 2.0 * math.pi) for v in range(n)]
    assert dict(prob.kappa_targets.items()) == inst.kappa_targets
    # The parsed arrays and the generated lists build the same mesh and lengths.
    listed_mesh, listed_lengths = problem_to_mesh(inst)
    for name in ("next_he", "opp", "to", "he_face"):
        assert getattr(mesh, name) == getattr(listed_mesh, name)
    assert np.array_equal(np.asarray(lengths.lengths), np.asarray(listed_lengths.lengths))
    # Write -> read -> write is byte-identical: no numpy scalar reaches repr.
    again = str(tmp_path / "b.mesh")
    write_problem_files(prob, again)
    for a, b in [(path, again), (sidecar_path(path), sidecar_path(again))]:
        assert Path(a).read_bytes() == Path(b).read_bytes()


def test_gauss_bonnet_deviation():
    mesh = helpers.tetra()
    assert gauss_bonnet_deviation(mesh, [math.pi] * 4) == pytest.approx(0.0, abs=1e-15)
    assert gauss_bonnet_deviation(mesh, [math.pi + 0.1] + [math.pi] * 3) == (
        pytest.approx(0.1, abs=1e-12)
    )


# -- result bundles -----------------------------------------------------------


def solve_octa(seed=1):
    mesh = helpers.octa()
    metric = helpers.uniform_metric(mesh)
    rng = np.random.default_rng(seed)
    delta = rng.normal(0.0, 0.4, 6)
    delta -= delta.mean()
    theta_hat = 4 * math.pi / 3 + delta
    mesh, scaled, u, report = find_conformal_metric(mesh, metric, theta_hat)
    return mesh, scaled, u, report


def test_bundle_write_read_write_is_byte_identical(tmp_path):
    mesh, scaled, u, report = solve_octa()
    bundle = bundle_from_solution(mesh, scaled, u, report, exit_code=0)
    p1, p2 = str(tmp_path / "a.result"), str(tmp_path / "b.result")
    write_bundle(bundle, p1)
    back = read_bundle(p1)
    write_bundle(back, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_bundle_preserves_floats_exactly(tmp_path):
    mesh, scaled, u, report = solve_octa(2)
    bundle = bundle_from_solution(mesh, scaled, u, report, exit_code=0)
    p = str(tmp_path / "a.result")
    write_bundle(bundle, p)
    back = read_bundle(p)
    assert back.u == list(u)
    assert back.edge_lengths == bundle.edge_lengths
    assert back.final_residual == report.final_residual
    assert back.termination == "converged" and back.exit_code == 0
    assert len(back.iterations) == len(report.steps)
    for row, rec in zip(back.iterations, report.steps):
        assert row.step == rec.step
        assert row.max_error == rec.max_error
        assert row.halvings == rec.halvings
        assert row.symmetry_ok == -1


def test_bundle_mesh_rebuilds(tmp_path):
    mesh, scaled, u, report = solve_octa(3)
    bundle = bundle_from_solution(mesh, scaled, u, report, exit_code=0)
    rebuilt, he_eid = bundle.rebuild_mesh()
    assert validate(rebuilt) == []
    assert rebuilt.n_vertices == 6
    assert rebuilt.n_edges() == len(bundle.edge_lengths)
    assert helpers.n_faces(rebuilt) == len(bundle.faces_v)
    # scaled lengths transfer through the dense edge numbering
    for e in rebuilt.edges():
        assert bundle.edge_lengths[he_eid[e]] > 0.0


def test_bundle_with_quads_rebuilds_recorded_quads(tmp_path):
    mesh, refl, cmetric, _ = helpers.hexagon_cover()
    helpers.drive_to_quads(mesh, refl, cmetric)
    u = [0.0] * mesh.n_vertices
    p = str(tmp_path / "q.result")
    write_bundle(bundle_from_solution(mesh, cmetric, u, None, 0, flips=FlipLog()), p)
    bundle = read_bundle(p)
    assert len(bundle.quad_diags) == 2
    rebuilt, he_eid = bundle.rebuild_mesh()
    assert validate(rebuilt) == []
    assert rebuilt.n_edges() == len(bundle.edge_lengths)
    # The ids index the edge lengths followed by the diagonals, and each
    # quad's parked pair takes its own diagonal's id.
    lengths = bundle.edge_lengths + list(bundle.quad_diags.values())
    assert sorted(set(he_eid)) == list(range(len(lengths)))
    ne = len(bundle.edge_lengths)
    assert [he_eid[p] for p, _ in rebuilt.quad_pairs.values()] == [ne, ne + 1]
    metric = PennerMetric([lengths[e] for e in he_eid])
    want = vertex_angle_sums(mesh, cmetric, u)
    got = vertex_angle_sums(rebuilt, metric, u)
    assert np.max(np.abs(np.asarray(got) - want)) <= 1e-12


def test_csv_header_and_rows():
    mesh, scaled, u, report = solve_octa(4)
    bundle = bundle_from_solution(mesh, scaled, u, report, exit_code=0)
    lines = bundle_to_csv(bundle).splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(report.steps)
    first = lines[1].split(",")
    assert first[0] == "0"
    # every iteration field is emitted, floats exactly
    for line, it in zip(lines[1:], bundle.iterations):
        cells = line.split(",")
        assert len(cells) == len(CSV_HEADER.split(","))
        assert [int(c) for c in cells[2:7]] == [
            it.halvings, it.flips_111, it.flips_par, it.flips_t, it.flips_q
        ]
        decrement, grad_sum = float(cells[7]), float(cells[8])
        assert decrement == it.decrement or math.isnan(decrement) and math.isnan(it.decrement)
        assert grad_sum == it.grad_sum
        assert int(cells[9]) == it.symmetry_ok


def test_csv_of_zero_step_solve():
    mesh = helpers.tetra()
    metric = helpers.uniform_metric(mesh)
    mesh, scaled, u, report = find_conformal_metric(mesh, metric, [math.pi] * 4)
    bundle = bundle_from_solution(mesh, scaled, u, report, exit_code=0)
    lines = bundle_to_csv(bundle).splitlines()
    assert len(lines) == 2


# -- generators ---------------------------------------------------------------


def test_icospheres_have_documented_sizes():
    for level, nv in enumerate(ICOSPHERE_SIZES[:3]):
        faces, pos = icosphere(level)
        assert len(pos) == nv
        mesh = build_from_face_lists(faces)
        assert validate(mesh) == []
        assert helpers.euler_characteristic(mesh) == 2
        assert all(abs(math.dist(p, (0, 0, 0)) - 1.0) < 1e-12 for p in pos)


def test_closest_icosphere_level():
    assert ICOSPHERE_SIZES[closest_icosphere_level(642)] == 642
    assert ICOSPHERE_SIZES[closest_icosphere_level(100)] == 42
    assert ICOSPHERE_SIZES[closest_icosphere_level(10**6)] == 2562


def test_grid_disk_counts():
    faces, pos = grid_disk(4)
    mesh = build_from_face_lists(faces)
    assert validate(mesh) == []
    assert mesh.n_vertices == 16
    assert len(faces) == 2 * 3 * 3
    assert len(mesh.boundary_faces) == 1
    assert helpers.degree(mesh, next(iter(mesh.boundary_faces))) == 12


def test_glued_tori_counts():
    for genus in (2, 3):
        faces, nv = glued_tori(genus)
        mesh = build_from_face_lists(faces)
        assert validate(mesh) == []
        assert mesh.n_vertices == nv == 22 * genus + 3
        assert mesh.n_edges() == 72 * genus + 3
        assert helpers.n_faces(mesh) == 48 * genus + 2
        assert helpers.euler_characteristic(mesh) == 2 - 2 * genus


def test_sphere_instance_targets():
    inst = generate("sphere-random-angles", seed=11, size=42)
    assert inst.n_vertices == 42
    th = [inst.theta_targets[v] for v in range(42)]
    assert all(math.pi < t < 3 * math.pi for t in th)
    assert abs(math.fsum(th) - (2 * math.pi * 42 - 4 * math.pi)) <= 1e-12


def test_disk_instance_targets():
    inst = generate("disk-random-boundary", seed=11, size=16)
    assert inst.n_vertices == 16
    ks = list(inst.kappa_targets.values())
    assert len(ks) == 12
    assert all(-math.pi < k < math.pi for k in ks)
    assert abs(math.fsum(ks) - 2 * math.pi) <= 1e-12


def test_cone_instance_targets():
    inst = generate("single-cone-genus-2", seed=0)
    th = inst.theta_targets
    assert th[1] == pytest.approx(6 * math.pi)
    assert all(th[v] == pytest.approx(2 * math.pi) for v in th if v != 1)
    assert abs(
        math.fsum(th.values()) - math.pi * len(inst.faces)
    ) <= 1e-9


def test_generate_is_deterministic():
    a = generate("sphere-random-angles", seed=9, size=42)
    b = generate("sphere-random-angles", seed=9, size=42)
    assert a.faces == b.faces and a.theta_targets == b.theta_targets
    c = generate("disk-random-boundary", seed=9, size=25)
    d = generate("disk-random-boundary", seed=9, size=25)
    assert c.kappa_targets == d.kappa_targets


def test_generate_rejects_unknown_kind():
    with pytest.raises(MeshError):
        generate("klein-bottle", seed=0)
    with pytest.raises(MeshError):
        generate("single-cone-genus-1", seed=0)


def test_importing_the_package_and_io_leaves_scipy_unloaded():
    # The package root must not pull scipy in through the solver, nor io
    # the metric and symmetry modules, so parsing and writing files stays
    # light.
    src = Path(__file__).resolve().parent.parent / "src"
    names = ["scipy", "confmetric.metric", "confmetric.symmetry"]
    code = f"import sys, confmetric, confmetric.io; print([n for n in {names} if n in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
