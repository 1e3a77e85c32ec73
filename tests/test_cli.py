"""End-to-end command line behavior and exit codes."""

import dataclasses
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
import scipy.linalg

import confmetric.cli
import confmetric.metric
from confmetric.cli import main, make_parser
from confmetric.io import read_bundle, read_mesh_file, read_targets_file, sidecar_path
from confmetric.metric import PennerMetric, vertex_angle_sums
from confmetric.solver import SolverConfig


PI = repr(math.pi)
README = Path(__file__).resolve().parent.parent / "README.md"


def put(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def tetra_files(tmp_path, theta=None):
    mesh = put(
        tmp_path, "t.mesh",
        "f 1 2 3\nf 1 3 4\nf 1 4 2\nf 2 4 3\n"
        + "".join(f"el {a} {b} 1.0\n" for a, b in
                  [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]),
    )
    theta = theta or [math.pi] * 4
    put(tmp_path, "t.targets", "".join(f"v {i+1} {t!r}\n" for i, t in enumerate(theta)))
    return mesh


def triangle_disk_files(tmp_path, kappa=2 * math.pi / 3):
    mesh = put(tmp_path, "d.mesh", "f 1 2 3\nel 1 2 1.0\nel 2 3 1.0\nel 1 3 1.0\n")
    put(tmp_path, "d.targets", "".join(f"k {i} {kappa!r}\n" for i in (1, 2, 3)))
    return mesh


def test_solve_satisfied_targets(tmp_path, capsys):
    mesh = tetra_files(tmp_path)
    assert main(["solve", mesh]) == 0
    out = capsys.readouterr().out
    assert "converged" in out and "steps=0" in out
    bundle = read_bundle(str(tmp_path / "t.result"))
    assert bundle.termination == "converged"
    assert bundle.exit_code == 0
    assert bundle.u == [0.0] * 4
    assert len(bundle.faces_v) == 4 and len(bundle.edge_lengths) == 6


def test_solve_gauss_bonnet_violation(tmp_path, capsys):
    mesh = tetra_files(tmp_path, [math.pi + 0.1, math.pi, math.pi, math.pi])
    assert main(["solve", mesh]) == 2
    err = capsys.readouterr().err
    assert "Gauss-Bonnet" in err
    reported = float(err.rsplit("deviation", 1)[1].strip().rstrip(")\n"))
    assert reported == pytest.approx(0.1, abs=1e-12)


@pytest.mark.parametrize(
    "kind, seed, size, delta",
    [
        # One boundary curvature off by 1.06e-5, under 1e-8 per disk vertex:
        # the 2050-vertex cover doubles it to 2.12e-5, above 2050 * 1e-10.
        ("disk-random-boundary", 0, 1089, -1.06e-5),
        # One angle off by 1e-6: the mean residual 1e-6 / 642 is above the
        # default tolerance 1e-10, so no Newton step could reach it.
        ("sphere-random-angles", 1, 642, 1e-6),
    ],
)
def test_solve_gauss_bonnet_deviation_above_tolerance(tmp_path, capsys, kind, seed, size, delta):
    mesh = str(tmp_path / "g.mesh")
    assert main(["generate", kind, "--seed", str(seed), "--size", str(size),
                 "--out", mesh]) == 0
    targets = tmp_path / "g.targets"
    lines = targets.read_text().splitlines()
    tag, index, value = lines[0].split()
    lines[0] = f"{tag} {index} {float(value) + delta!r}"
    targets.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["solve", mesh]) == 2
    assert "Gauss-Bonnet" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "g.result")


def test_solve_nonpositive_target_on_closed_mesh_exits_2(tmp_path, capsys):
    # The angles still total 4*pi; without the check the solve breaks down.
    mesh = tetra_files(tmp_path, [0.0] + [4 * math.pi / 3] * 3)
    assert main(["solve", mesh]) == 2
    err = capsys.readouterr().err
    assert err.endswith(": error: vertex 1 has target angle sum 0.0, not > 0\n")
    assert not (tmp_path / "t.result").exists()


def test_solve_nonpositive_boundary_target_exits_2(tmp_path, capsys):
    # A boundary vertex's angle sum is pi - kappa; the curvatures total 2*pi.
    mesh = triangle_disk_files(tmp_path)
    put(tmp_path, "d.targets", f"k 1 0.5\nk 2 {math.pi + 0.25!r}\nk 3 {math.pi - 0.75!r}\n")
    assert main(["solve", mesh]) == 2
    assert f"vertex 2 has target angle sum {math.pi - (math.pi + 0.25)!r}, not > 0" in (
        capsys.readouterr().err
    )


def test_solve_nan_target_rejected(tmp_path, capsys):
    mesh = tetra_files(tmp_path, [math.nan, math.pi, math.pi, math.pi])
    assert main(["solve", mesh]) == 2
    assert "non-finite number 'nan'" in capsys.readouterr().err


def test_solve_infinite_targets_rejected(tmp_path, capsys):
    mesh = tetra_files(tmp_path, [math.inf, -math.inf, math.pi, math.pi])
    assert main(["solve", mesh]) == 2
    assert "non-finite number 'inf'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "body",
    [
        "v 0 0 nan\nv 1 0 0\nv 0 1 0\nf 1 2 3\n",
        "f 1 2 3\nel 1 2 inf\nel 2 3 1\nel 1 3 1\n",
    ],
)
def test_solve_non_finite_mesh_numbers_rejected(tmp_path, capsys, body):
    mesh = put(tmp_path, "d.mesh", body)
    put(tmp_path, "d.targets", "")
    assert main(["solve", mesh]) == 2
    assert "non-finite number" in capsys.readouterr().err


@pytest.mark.parametrize("index", [0, 99])
def test_solve_target_outside_vertex_range_rejected(tmp_path, capsys, index):
    mesh = tetra_files(tmp_path)
    with open(tmp_path / "t.targets", "a") as fh:
        fh.write(f"v {index} 1.0\n")
    assert main(["solve", mesh]) == 2
    assert f"t.targets:5: vertex index {index} outside 1..4" in capsys.readouterr().err


def test_solve_disconnected_mesh_rejected(tmp_path, capsys):
    # Two tetrahedra: the targets balance over both (sum 8*pi) but not
    # over each one, so no metric exists.
    tets = [[1, 2, 3], [1, 3, 4], [1, 4, 2], [2, 4, 3]]
    faces = tets + [[v + 4 for v in f] for f in tets]
    pairs = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    mesh = put(
        tmp_path, "two.mesh",
        "".join(f"f {a} {b} {c}\n" for a, b, c in faces)
        + "".join(f"el {a + k} {b + k} 1.0\n" for k in (0, 4) for a, b in pairs),
    )
    theta = [math.pi + 0.5] * 4 + [math.pi - 0.5] * 4
    put(tmp_path, "two.targets", "".join(f"v {i + 1} {t!r}\n" for i, t in enumerate(theta)))
    assert main(["solve", mesh]) == 2
    assert "not connected" in capsys.readouterr().err


def _pinched_bowtie(tmp_path):
    mesh = put(
        tmp_path, "p.mesh",
        "f 1 2 3\nf 1 4 5\n"
        + "".join(f"el {a} {b} 1.0\n" for a, b in [(1, 2), (2, 3), (1, 3), (1, 4), (4, 5), (1, 5)]),
    )
    put(tmp_path, "p.targets", "")
    return mesh, 1


def _pinched_grid_disks(tmp_path):
    # Two 4x4 grids of unit squares' corners; the second grid's corner
    # (0, 0) is the first one's corner (3, 3), vertex 16.  Equal boundary
    # curvature 3*pi/23 balances Gauss-Bonnet on the double cover.
    ids = {(x, y): 1 + 4 * y + x for x in range(4) for y in range(4)}
    for x in range(4):
        for y in range(4):
            if (x, y) != (0, 0):
                ids[x + 3, y + 3] = 16 + 4 * y + x
    faces = []
    for dx in (0, 3):
        for x in range(dx, dx + 3):
            for y in range(dx, dx + 3):
                a, b, c, d = ids[x, y], ids[x + 1, y], ids[x + 1, y + 1], ids[x, y + 1]
                faces += [(a, b, c), (a, c, d)]
    at = {v: p for p, v in ids.items()}
    boundary = {v for (x, y), v in ids.items() if x % 3 == 0 or y % 3 == 0}
    mesh = put(
        tmp_path, "p.mesh",
        "".join(f"v {at[v][0]} {at[v][1]} 0\n" for v in range(1, 32))
        + "".join(f"f {a} {b} {c}\n" for a, b, c in faces),
    )
    put(tmp_path, "p.targets", "".join(f"k {v} {3 * math.pi / 23!r}\n" for v in sorted(boundary)))
    return mesh, 16


def _pinched_tetrahedra(tmp_path):
    # Two tetrahedra that share vertex 1; the targets balance over both.
    tets = [[1, 2, 3], [1, 3, 4], [1, 4, 2], [2, 4, 3]]
    other = {1: 1, 2: 5, 3: 6, 4: 7}
    faces = tets + [[other[v] for v in f] for f in tets]
    pairs = {tuple(sorted((f[i], f[(i + 1) % 3]))) for f in faces for i in range(3)}
    mesh = put(
        tmp_path, "p.mesh",
        "".join(f"f {a} {b} {c}\n" for a, b, c in faces)
        + "".join(f"el {a} {b} 1.0\n" for a, b in sorted(pairs)),
    )
    put(tmp_path, "p.targets", "".join(f"v {v} {8 * math.pi / 7!r}\n" for v in range(1, 8)))
    return mesh, 1


@pytest.mark.parametrize("command", ["solve", "delaunay"])
@pytest.mark.parametrize("make", [_pinched_bowtie, _pinched_grid_disks, _pinched_tetrahedra])
def test_vertex_with_more_than_one_umbrella_exits_2_naming_it(tmp_path, capsys, command, make):
    # The message names the vertex by its file index, as every io message does.
    mesh, vertex = make(tmp_path)
    assert main([command, mesh]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{mesh}: error: vertex {vertex} has more than one umbrella")
    assert err.count("\n") == 1
    assert not (tmp_path / "p.result").exists()


@pytest.mark.parametrize(
    "faces, message",
    [
        ([(1, 2, 3), (1, 2, 4), (2, 1, 5)], "edge (1-2) used 3 times"),
        ([(1, 2, 3), (1, 2, 4)], "edge used with inconsistent orientation (1->2 vs 1->2)"),
    ],
)
def test_misused_edge_exits_2_naming_its_vertex_pair(tmp_path, capsys, faces, message):
    # The builder keys each edge by its vertex pair internally; the message
    # names the pair by file index and no internal key.
    n = max(map(max, faces))
    rows = [f"v {v} {v * v} 0" for v in range(n)] + [f"f {a} {b} {c}" for a, b, c in faces]
    mesh = put(tmp_path, "e.mesh", "\n".join(rows) + "\n")
    put(tmp_path, "e.targets", "")
    assert main(["solve", mesh]) == 2
    assert capsys.readouterr().err == f"{mesh}: error: {message}\n"


def test_solve_el_line_naming_no_edge_exits_2(tmp_path, capsys):
    mesh = tetra_files(tmp_path)
    with open(mesh, "a") as fh:
        fh.write("el 2 9 7.0\n")
    assert main(["solve", mesh]) == 2
    assert "el 2 9 names no edge of the faces" in capsys.readouterr().err


def test_solve_unused_v_line_rejected(tmp_path, capsys):
    # Dropping a v line that no face uses would solve a smaller mesh than
    # the file describes.
    mesh = put(tmp_path, "d.mesh", "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\nf 1 2 3\n")
    put(tmp_path, "d.targets", "".join(f"k {i} {2 * math.pi / 3!r}\n" for i in (1, 2, 3)))
    assert main(["solve", mesh]) == 2
    assert "4 v lines but the faces use vertices 1..3" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "delaunay"])
def test_faces_that_skip_a_vertex_index_rejected_before_allocating(tmp_path, capsys, command):
    # A tetrahedron whose fourth vertex is numbered 1,000,000: a mesh of
    # 1,000,000 vertices, 999,996 of them in no face.
    n = 1_000_000
    pairs = [(1, 2), (1, 3), (1, n), (2, 3), (2, n), (3, n)]
    mesh = put(
        tmp_path, "t.mesh",
        f"f 1 2 3\nf 1 3 {n}\nf 1 {n} 2\nf 2 {n} 3\n"
        + "".join(f"el {a} {b} 1.0\n" for a, b in pairs),
    )
    put(tmp_path, "t.targets", "".join(f"v {i} {PI}\n" for i in (1, 2, 3, n)))
    start = time.perf_counter()
    assert main([command, mesh]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "the faces use 4 of the vertex indices 1..1000000" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["solve", "delaunay"])
def test_triangle_inequality_violation_exits_2_naming_the_file(tmp_path, capsys, command):
    mesh = triangle_disk_files(tmp_path)
    put(tmp_path, "d.mesh", "f 1 2 3\nel 1 2 1.0\nel 2 3 1.0\nel 1 3 3.0\n")
    assert main([command, mesh]) == 2
    err = capsys.readouterr().err
    assert err == f"{mesh}: error: triangle inequality violated on face 1 (f 1 2 3)\n"


def test_solve_missing_targets(tmp_path, capsys):
    mesh = put(tmp_path, "alone.mesh", "f 1 2 3\nel 1 2 1\nel 2 3 1\nel 1 3 1\n")
    assert main(["solve", mesh]) == 2
    assert "no targets file" in capsys.readouterr().err


def test_solve_triangle_disk_kappa(tmp_path):
    mesh = triangle_disk_files(tmp_path)
    assert main(["solve", mesh]) == 0
    bundle = read_bundle(str(tmp_path / "d.result"))
    assert bundle.termination == "converged"
    # uniform triangle with 2pi/3 corner curvature is already solved
    # and restricts to itself
    assert bundle.u == [0.0] * 3
    assert len(bundle.faces_v) == 1
    assert bundle.edge_lengths == [1.0, 1.0, 1.0]


def test_solve_disk_with_theta_targets(tmp_path):
    # same geometry, prescribed as boundary angle sums pi/3 instead
    mesh = put(tmp_path, "d.mesh", "f 1 2 3\nel 1 2 1.0\nel 2 3 1.0\nel 1 3 1.0\n")
    put(
        tmp_path, "d.targets",
        "".join(f"v {i} {repr(math.pi / 3)}\n" for i in (1, 2, 3)),
    )
    assert main(["solve", mesh]) == 0
    bundle = read_bundle(str(tmp_path / "d.result"))
    assert bundle.u == [0.0] * 3


def test_solve_square_fan_disk_converges(tmp_path):
    # four unit triangles around a hub: cone angle 4pi/3 at the hub must
    # spread to 2pi, right angles at the four corners
    mesh = put(
        tmp_path, "fan.mesh",
        "f 1 2 5\nf 2 3 5\nf 3 4 5\nf 4 1 5\n"
        + "".join(
            f"el {a} {b} 1.0\n"
            for a, b in [(1, 2), (2, 3), (3, 4), (4, 1), (1, 5), (2, 5), (3, 5), (4, 5)]
        ),
    )
    put(
        tmp_path, "fan.targets",
        "".join(f"k {i} {repr(math.pi / 2)}\n" for i in (1, 2, 3, 4)),
    )
    assert main(["solve", mesh]) == 0
    bundle = read_bundle(str(tmp_path / "fan.result"))
    assert bundle.termination == "converged"
    assert bundle.final_residual <= 1e-10
    assert not any(math.isnan(x) for x in bundle.u[:5])


def test_keep_double_cover_emits_cover_mesh(tmp_path):
    mesh = put(
        tmp_path, "fan.mesh",
        "f 1 2 5\nf 2 3 5\nf 3 4 5\nf 4 1 5\n"
        + "".join(
            f"el {a} {b} 1.0\n"
            for a, b in [(1, 2), (2, 3), (3, 4), (4, 1), (1, 5), (2, 5), (3, 5), (4, 5)]
        ),
    )
    put(
        tmp_path, "fan.targets",
        "".join(f"k {i} {repr(math.pi / 2)}\n" for i in (1, 2, 3, 4)),
    )
    out = str(tmp_path / "cover.result")
    assert main(["solve", mesh, "--keep-double-cover", "--out", out]) == 0
    bundle = read_bundle(out)
    assert len(bundle.u) == 6          # 2*5 - 4 cover vertices
    assert len(bundle.faces_v) == 8
    assert not any(math.isnan(x) for x in bundle.u)


def test_solve_nonconvergence_exit_3(tmp_path, capsys):
    r = repr(4 * math.pi / 3)
    targets = [f"v 1 {repr(4 * math.pi / 3 + 0.3)}", f"v 2 {repr(4 * math.pi / 3 - 0.3)}"]
    targets += [f"v {i} {r}" for i in (3, 4, 5, 6)]
    mesh = put(
        tmp_path, "o.mesh",
        "f 1 2 3\nf 1 3 4\nf 1 4 5\nf 1 5 2\nf 6 3 2\nf 6 4 3\nf 6 5 4\nf 6 2 5\n"
        + "".join(
            f"el {a} {b} 1.0\n"
            for a, b in [
                (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (3, 4), (4, 5), (5, 2),
                (6, 2), (6, 3), (6, 4), (6, 5),
            ]
        ),
    )
    put(tmp_path, "o.targets", "\n".join(targets) + "\n")
    assert main(["solve", mesh, "--max-steps", "1"]) == 3
    bundle = read_bundle(str(tmp_path / "o.result"))
    assert bundle.termination == "max_newton_steps"
    assert bundle.exit_code == 3
    # same instance with the full budget converges
    assert main(["solve", mesh]) == 0


def test_opt_lines_configure_solver_and_flags_win(tmp_path):
    mesh = put(
        tmp_path, "o.mesh",
        "f 1 2 3\nf 1 3 4\nf 1 4 2\nf 2 4 3\n"
        + "".join(f"el {a} {b} 1.0\n" for a, b in
                  [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]),
    )
    t = [math.pi + 0.2, math.pi - 0.2, math.pi, math.pi]
    put(
        tmp_path, "o.targets",
        "".join(f"v {i+1} {x!r}\n" for i, x in enumerate(t)) + "opt max_steps 1\n",
    )
    assert main(["solve", mesh]) == 3
    assert main(["solve", mesh, "--max-steps", "50"]) == 0


def test_unknown_option_rejected(tmp_path, capsys):
    mesh = put(tmp_path, "d.mesh", "f 1 2 3\nel 1 2 1\nel 2 3 1\nel 1 3 1\n")
    put(tmp_path, "d.targets", "k 1 2.0943951023931953\nk 2 2.0943951023931953\n"
        "k 3 2.0943951023931953\nopt banana 1\n")
    assert main(["solve", mesh]) == 2
    assert "banana" in capsys.readouterr().err
    # a removed option is rejected like any other unknown name
    for name, value in [("min_decrement", 0), ("max_halvings", 3), ("flip_budget", 1)]:
        put(tmp_path, "d.targets", f"opt {name} {value}\n")
        assert main(["solve", mesh]) == 2
        assert f"unknown solver option {name!r}" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "d.result")


@pytest.mark.parametrize(
    "name, flags, opt",
    [
        ("tol", ["--tol", "nan"], ""),
        ("tol", ["--tol", "-1"], ""),
        ("tol", ["--tol", "0"], ""),
        ("tol", [], "opt tol 0\n"),
        ("max_steps", ["--max-steps", "-3"], ""),
        ("max_steps", [], "opt max_steps 2.5\n"),
        ("max_halvings", ["--max-halvings", "-1"], ""),
        ("max_halvings", [], "opt max_halvings 1.5\n"),
        ("flip_budget", ["--flip-budget", "inf"], ""),
        ("flip_budget", [], "opt flip_budget -1\n"),
        ("max_halvings", [], "opt max_halvings -2\n"),
        ("eps_flip", [], "opt eps_flip -1e-12\n"),
        ("eps_flip", [], "opt eps_flip 0\n"),
    ],
)
def test_out_of_range_solver_option_exit_2(tmp_path, capsys, name, flags, opt):
    # max_halvings, flip_budget and eps_flip (the Delaunay tie band) are
    # constants now: their flags and opt lines are rejected whatever the
    # value, with the same exit code, eps_flip even at a value once accepted.
    mesh = tetra_files(tmp_path)
    with open(sidecar_path(mesh), "a") as fh:
        fh.write(opt)
    try:
        code = main(["solve", mesh, *flags])
    except SystemExit as exc:  # argparse rejects the flag
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    if name not in confmetric.cli._OPT_NAMES:
        message = f"unrecognized arguments: {flags[0]}" if flags else f"unknown solver option {name!r}"
    else:
        message = f"solver option {name} must be"
    assert message in err
    assert not os.path.exists(tmp_path / "t.result")


def test_flip_budget_breach_exit_4(tmp_path, capsys, monkeypatch):
    # The square whose bad diagonal needs one flip, with no flip allowed.
    # The initial retriangulation is not a line-search trial, so no cap
    # turns its spent budget into a rejection.
    monkeypatch.setattr(confmetric.metric, "_FLIP_BUDGET_FACTOR", 0.0)
    mesh = put(
        tmp_path, "sq.mesh",
        "f 1 2 3\nf 1 3 4\nel 1 2 1.0\nel 2 3 1.0\nel 3 4 1.0\nel 1 4 1.0\nel 1 3 1.9\n",
    )
    put(
        tmp_path, "sq.targets",
        "".join(f"k {i} {repr(math.pi / 2)}\n" for i in (1, 2, 3, 4)),
    )
    assert main(["solve", mesh]) == 4
    assert "invariant breach" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "sq.result")


def test_direction_off_the_residual_gate_ends_linear_solve_breakdown(tmp_path, capsys, monkeypatch):
    # A linear solver that answers twice the solution: the direction misses
    # the 1e-10 residual gate, and the solve ends with its last good state.
    solve = scipy.linalg.solveh_banded
    monkeypatch.setattr(scipy.linalg, "solveh_banded", lambda *a, **kw: 2.0 * solve(*a, **kw))
    mesh = tetra_files(tmp_path, [math.pi + 0.1, math.pi - 0.1, math.pi, math.pi])
    assert main(["solve", mesh]) == 3
    assert "linear_solve_breakdown steps=0" in capsys.readouterr().out
    bundle = read_bundle(str(tmp_path / "t.result"))
    assert bundle.termination == "linear_solve_breakdown"
    assert bundle.exit_code == 3
    assert bundle.u == [0.0] * 4


def test_factor_that_is_not_positive_definite_ends_linear_solve_breakdown(
    tmp_path, capsys, monkeypatch
):
    def not_positive_definite(*args, **kwargs):
        raise scipy.linalg.LinAlgError("1-th leading minor not positive definite")

    monkeypatch.setattr(scipy.linalg, "solveh_banded", not_positive_definite)
    mesh = tetra_files(tmp_path, [math.pi + 0.1, math.pi - 0.1, math.pi, math.pi])
    assert main(["solve", mesh]) == 3
    out, err = capsys.readouterr()
    assert "linear_solve_breakdown steps=0" in out
    assert err == ""
    bundle = read_bundle(str(tmp_path / "t.result"))
    assert bundle.termination == "linear_solve_breakdown"
    assert bundle.exit_code == 3


def test_delaunay_flip_budget_breach_exit_4(tmp_path, capsys, monkeypatch):
    # The square whose bad diagonal needs one flip, with no flip allowed.
    monkeypatch.setattr(confmetric.metric, "_FLIP_BUDGET_FACTOR", 0.0)
    mesh = put(
        tmp_path, "sq.mesh",
        "f 1 2 3\nf 1 3 4\nel 1 2 1.0\nel 2 3 1.0\nel 3 4 1.0\nel 1 4 1.0\nel 1 3 1.9\n",
    )
    assert main(["delaunay", mesh]) == 4
    assert capsys.readouterr().err.startswith(f"{mesh}: invariant breach: ")
    assert not os.path.exists(tmp_path / "sq.result")


def test_targets_flag_limited_to_single_input(tmp_path, capsys):
    a = tetra_files(tmp_path)
    assert main(["solve", a, a, "--targets", "x.targets"]) == 2
    assert "--targets" in capsys.readouterr().err


def test_batch_solve_writes_all_results(tmp_path, capsys):
    outdir = str(tmp_path / "runs")
    files = []
    for k in range(3):
        m = put(
            tmp_path, f"case{k}.mesh",
            "f 1 2 3\nf 1 3 4\nf 1 4 2\nf 2 4 3\n"
            + "".join(f"el {a} {b} 1.0\n" for a, b in
                      [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]),
        )
        put(tmp_path, f"case{k}.targets",
            "".join(f"v {i} {PI}\n" for i in (1, 2, 3, 4)))
        files.append(m)
    assert main(["solve", *files, "--out", outdir]) == 0
    assert sorted(os.listdir(outdir)) == [f"case{k}.result" for k in range(3)]
    out = capsys.readouterr().out
    assert out.count("converged") == 3


def test_batch_exit_code_is_worst_case(tmp_path):
    g1 = tmp_path / "good"
    g1.mkdir()
    good = tetra_files(g1)
    b1 = tmp_path / "bad"
    b1.mkdir()
    bad = tetra_files(b1, [math.pi + 0.5, math.pi, math.pi, math.pi])
    assert main(["solve", good, bad]) == 2


def test_unexpected_failure_ends_only_its_input(tmp_path, capsys, monkeypatch):
    files = []
    for name in ("first", "second"):
        (tmp_path / name).mkdir()
        files.append(tetra_files(tmp_path / name))
    real = confmetric.cli.solve_problem
    calls = []

    def fail_first(prob, *args):
        calls.append(prob)
        if len(calls) == 1:
            raise RuntimeError("boom")
        return real(prob, *args)

    monkeypatch.setattr(confmetric.cli, "solve_problem", fail_first)
    assert main(["solve", *files]) == 4
    assert "first/t.mesh: invariant breach: RuntimeError: boom" in capsys.readouterr().err
    assert not (tmp_path / "first" / "t.result").exists()
    assert read_bundle(str(tmp_path / "second" / "t.result")).termination == "converged"


def test_delaunay_unexpected_failure_exit_4(tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(confmetric.cli, "make_delaunay", boom)
    mesh = tetra_files(tmp_path)
    assert main(["delaunay", mesh]) == 4
    assert capsys.readouterr().err == f"{mesh}: invariant breach: RuntimeError: boom\n"
    assert not os.path.exists(tmp_path / "t.result")


def test_delaunay_identity(tmp_path, capsys):
    mesh = tetra_files(tmp_path)
    assert main(["delaunay", mesh]) == 0
    assert "0 flips" in capsys.readouterr().out
    bundle = read_bundle(str(tmp_path / "t.result"))
    assert bundle.termination == "delaunay"
    assert bundle.edge_lengths == [1.0] * 6
    assert math.isnan(bundle.final_residual)


def test_delaunay_flips_bad_diagonal(tmp_path, capsys):
    mesh = put(
        tmp_path, "sq.mesh",
        "f 1 2 3\nf 1 3 4\nel 1 2 1.0\nel 2 3 1.0\nel 3 4 1.0\nel 1 4 1.0\nel 1 3 1.9\n",
    )
    assert main(["delaunay", mesh]) == 0
    assert "1 flips" in capsys.readouterr().out
    bundle = read_bundle(str(tmp_path / "sq.result"))
    assert len(bundle.edge_lengths) == 5
    assert sorted(bundle.edge_lengths) == pytest.approx([1.0] * 4 + [2.0 / 1.9])
    assert bundle.flip_totals[0] == 1


def test_generate_then_solve(tmp_path, capsys):
    mesh = str(tmp_path / "s.mesh")
    assert main(["generate", "sphere-random-angles", "--seed", "5",
                 "--size", "42", "--out", mesh]) == 0
    assert os.path.exists(mesh)
    assert os.path.exists(str(tmp_path / "s.targets"))
    assert main(["solve", mesh]) == 0
    bundle = read_bundle(str(tmp_path / "s.result"))
    assert bundle.termination == "converged"
    assert len(bundle.u) == 42


def test_solve_bundle_stores_the_solved_lengths(tmp_path):
    # At u = 0 the stored lengths give the target angle sums; u only
    # records how far the input lengths were scaled.
    mesh_path = str(tmp_path / "s.mesh")
    assert main(["generate", "sphere-random-angles", "--seed", "1", "--size", "42",
                 "--out", mesh_path]) == 0
    assert main(["solve", mesh_path]) == 0
    bundle = read_bundle(str(tmp_path / "s.result"))
    mesh, he_eid = bundle.rebuild_mesh()
    metric = PennerMetric([bundle.edge_lengths[i] for i in he_eid])
    prob = read_mesh_file(mesh_path)
    read_targets_file(sidecar_path(mesh_path), prob)
    theta = [prob.theta_targets.get(v, 2 * math.pi) for v in range(mesh.n_vertices)]
    sums = vertex_angle_sums(mesh, metric, [0.0] * mesh.n_vertices)
    assert max(abs(s - t) for s, t in zip(sums, theta)) <= 1e-10
    # Scaling the stored lengths by u once more misses the targets.
    sums = vertex_angle_sums(mesh, metric, bundle.u)
    assert max(abs(s - t) for s, t in zip(sums, theta)) > 1.0


def test_generate_unknown_kind(tmp_path, capsys):
    assert main(["generate", "moebius", "--out", str(tmp_path / "x.mesh")]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--size", "-5")])
def test_generate_negative_seed_or_size_exit_2(tmp_path, capsys, flag, value):
    mesh = str(tmp_path / "x.mesh")
    assert main(["generate", "disk-random-boundary", flag, value, "--out", mesh]) == 2
    assert f"must be >= 0, got {value}" in capsys.readouterr().err
    assert not os.path.exists(mesh)


def test_report_stdout_and_file(tmp_path, capsys):
    mesh = tetra_files(tmp_path)
    main(["solve", mesh])
    capsys.readouterr()
    result = str(tmp_path / "t.result")
    assert main(["report", result]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == (
        "step,max_error,halvings,flips_111,flips_par,flips_t,flips_q,"
        "decrement,grad_sum,symmetry_ok"
    )
    csv_path = str(tmp_path / "trace.csv")
    assert main(["report", result, "--out", csv_path]) == 0
    assert open(csv_path).read().splitlines()[0].startswith("step,")


def test_report_on_missing_file(tmp_path, capsys):
    assert main(["report", str(tmp_path / "none.result")]) == 2


def _solved_bundle(tmp_path):
    main(["solve", tetra_files(tmp_path)])
    return str(tmp_path / "t.result")


def _edited_bundle(tmp_path, edit):
    path = _solved_bundle(tmp_path)
    lines = open(path).read().splitlines(keepends=True)
    open(path, "w").write("".join(edit(lines)))
    return path


@pytest.mark.parametrize(
    "argv",
    [
        lambda tmp: ["delaunay", tetra_files(tmp), "--out", str(tmp / "missing" / "x.result")],
        lambda tmp: ["report", _solved_bundle(tmp), "--out", str(tmp / "missing" / "x.csv")],
        lambda tmp: ["generate", "sphere-random-angles", "--size", "42",
                     "--out", str(tmp / "missing" / "x.mesh")],
        lambda tmp: ["report", _edited_bundle(
            tmp, lambda ls: ["nv abc\n" if x.startswith("nv ") else x for x in ls])],
        lambda tmp: ["report", _edited_bundle(tmp, lambda ls: ls[: len(ls) // 2])],
        lambda tmp: ["report", _edited_bundle(
            tmp, lambda ls: [("qd 1 1.0 0x1p+0\n" + x) if x.startswith("nit ") else x for x in ls])],
    ],
    ids=["delaunay-out-dir", "report-out-dir", "generate-out-dir", "bundle-bad-count",
         "bundle-truncated", "bundle-quad-diagonal-on-a-triangle"],
)
def test_bad_file_or_path_exits_2_with_one_error_line(tmp_path, capsys, argv):
    argv = argv(tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "edit",
    [
        lambda t: t[:-1],
        lambda t: t + ["0"],
        lambda t: t[:4] + ["1.5"] + t[5:],
    ],
    ids=["missing-token", "extra-token", "non-integer-halvings"],
)
def test_malformed_it_line_exits_2_naming_file_and_line(tmp_path, capsys, edit):
    path = _solved_bundle(tmp_path)
    lines = open(path).read().splitlines()
    k = next(i for i, x in enumerate(lines) if x.startswith("it "))
    lines[k] = " ".join(edit(lines[k].split()))
    open(path, "w").write("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["report", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:{k + 1}: malformed 'it' line: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command, name", [
    ("solve", "bin.mesh"), ("delaunay", "bin.mesh"), ("report", "bin.result"),
])
def test_file_that_is_not_utf8_exits_2_with_one_error_line(tmp_path, capsys, command, name):
    path = tmp_path / name
    path.write_bytes(b"\xff\xfe\x00\x01\x02\x03")
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert "error: " in err and "not UTF-8" in err
    assert err.count("\n") == 1


def test_every_solver_setting_is_an_opt_name():
    # A SolverConfig field that no opt line or flag sets is a knob only
    # tests can turn.
    fields = {f.name for f in dataclasses.fields(SolverConfig)}
    assert fields == {field for field, _ in confmetric.cli._OPT_NAMES.values()}


BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("given, want", [({}, "1 1 1"), ({"OPENBLAS_NUM_THREADS": "2"}, "1 2 1")])
def test_the_command_line_pins_blas_to_one_thread_unless_told(given, want):
    # The pins go in before numpy loads; a user's own setting wins.
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env.update(given, PYTHONPATH=src)
    code = f"import os, confmetric.cli; print(*(os.environ[k] for k in {BLAS_THREADS!r}))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout.strip()) == (0, want), proc.stderr


def test_the_docs_name_exactly_the_solver_options():
    # The opt names of the targets grammar in docs/formats.md, and the
    # solve flags the README's command line section lists.
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    with open(os.path.join(root, "docs", "formats.md")) as fh:
        grammar = re.search(r"^name\s+=(.*?);", fh.read(), re.M | re.S).group(1)
    assert set(re.findall(r'"(\w+)"', grammar)) == set(confmetric.cli._OPT_NAMES)
    with open(os.path.join(root, "README.md")) as fh:
        paragraph = next(p for p in fh.read().split("\n\n") if re.search(r"Useful\s+flags", p))
    listed = re.findall(r"`[^`]*?(--[\w-]+)", paragraph)
    assert "--tol" in listed
    for flag in listed:
        assert flag not in make_parser().parse_known_args(["solve", flag, "1", "a.mesh"])[1]


def test_readme_command_line_block_prints_its_output_line(tmp_path, monkeypatch, capsys):
    # README's "Command line" section: its first code block runs as shown,
    # and its second is the line the solve prints, verbatim.
    section = README.read_text().split("## Command line\n", 1)[1]
    commands, _, output = section.split("```\n")[1:4]
    monkeypatch.chdir(tmp_path)
    for line in commands.splitlines():
        name, *argv = line.split()
        assert name == "confmetric"
        assert main(argv) == 0, line
    assert output.strip() in capsys.readouterr().out.splitlines()
