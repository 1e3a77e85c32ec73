"""End-to-end command line behavior and exit codes."""

import math
import os

import pytest

import confmetric.cli
from confmetric.cli import main
from confmetric.io import read_bundle

import helpers


PI = repr(math.pi)


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


def test_solve_unused_v_line_rejected(tmp_path, capsys):
    # Dropping a v line that no face uses would solve a smaller mesh than
    # the file describes.
    mesh = put(tmp_path, "d.mesh", "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\nf 1 2 3\n")
    put(tmp_path, "d.targets", "".join(f"k {i} {2 * math.pi / 3!r}\n" for i in (1, 2, 3)))
    assert main(["solve", mesh]) == 2
    assert "4 v lines but the faces use vertices 1..3" in capsys.readouterr().err


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


def test_flip_budget_breach_exit_4(tmp_path, capsys):
    mesh = put(
        tmp_path, "sq.mesh",
        "f 1 2 3\nf 1 3 4\nel 1 2 1.0\nel 2 3 1.0\nel 3 4 1.0\nel 1 4 1.0\nel 1 3 1.9\n",
    )
    put(
        tmp_path, "sq.targets",
        "".join(f"k {i} {repr(math.pi / 2)}\n" for i in (1, 2, 3, 4)),
    )
    assert main(["solve", mesh, "--flip-budget", "0.0"]) == 4
    assert "invariant breach" in capsys.readouterr().err
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


def test_generate_unknown_kind(tmp_path, capsys):
    assert main(["generate", "moebius", "--out", str(tmp_path / "x.mesh")]) == 2
    assert "error" in capsys.readouterr().err


def test_report_stdout_and_file(tmp_path, capsys):
    mesh = tetra_files(tmp_path)
    main(["solve", mesh])
    capsys.readouterr()
    result = str(tmp_path / "t.result")
    assert main(["report", result]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "step,max_error,halvings,flips_111,flips_par,flips_t,flips_q"
    csv_path = str(tmp_path / "trace.csv")
    assert main(["report", result, "--out", csv_path]) == 0
    assert open(csv_path).read().splitlines()[0].startswith("step,")


def test_report_on_missing_file(tmp_path, capsys):
    assert main(["report", str(tmp_path / "none.result")]) == 2
