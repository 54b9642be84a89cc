import subprocess
import sys

import numpy as np
import pytest

from femscript.cli import main
from femscript.errors import InvalidArgumentError, UnsupportedError
from femscript.fespace import FeSpace, interpolate
from femscript.io import (export_bb, export_dof_txt, export_eps, export_gnu,
                          export_mathematica_txt, import_dof_txt)
from femscript.mesh import build_square, save_msh


# -- gnuplot series ---------------------------------------------------------

def test_gnu_exact_bytes(tmp_path):
    path = tmp_path / "plot.gnu"
    export_gnu([0, 1], [2, 3], path)
    assert path.read_bytes() == b"0 2\n1 3\n"


def test_gnu_empty(tmp_path):
    path = tmp_path / "empty.gnu"
    export_gnu([], [], path)
    assert path.read_bytes() == b""


def test_gnu_roundtrip(tmp_path):
    xs = np.linspace(0, 1, 33)
    ys = np.sin(2 * np.pi * xs)
    path = tmp_path / "sin.gnu"
    export_gnu(xs, ys, path)
    back = np.array([[float(v) for v in line.split()]
                     for line in path.read_text().splitlines()])
    assert np.abs(back[:, 0] - xs).max() <= 1e-12
    assert np.abs(back[:, 1] - ys).max() <= 1e-12


def test_gnu_length_mismatch(tmp_path):
    with pytest.raises(InvalidArgumentError):
        export_gnu([0, 1], [2], tmp_path / "x.gnu")


# -- .bb -----------------------------------------------------------------------

def test_bb_header_and_body(tmp_path):
    mesh = build_square(1, 1)
    Vh = FeSpace(mesh, "P1")
    u = Vh.function(1.0)
    path = tmp_path / "sol.bb"
    export_bb(Vh, u, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "2 1 1 4 2"
    assert lines[1:] == ["1"] * 4
    assert len(lines) - 1 == Vh.ndof


def test_bb_requires_p1(tmp_path):
    mesh = build_square(2, 2)
    V0 = FeSpace(mesh, "P0")
    with pytest.raises(UnsupportedError):
        export_bb(V0, V0.function(1.0), tmp_path / "x.bb")


def test_bb_values_roundtrip_against_dof_txt(tmp_path):
    mesh = build_square(3, 3)
    Vh = FeSpace(mesh, "P1")
    u = interpolate(Vh, lambda x, y: np.sin(x) + y ** 2)
    export_bb(Vh, u, tmp_path / "sol.bb")
    export_dof_txt(u, tmp_path / "sol.txt")
    w = import_dof_txt(Vh, tmp_path / "sol.txt")
    assert np.array_equal(w.dofs, u.dofs)
    bb_vals = [float(v) for v in (tmp_path / "sol.bb").read_text().split()[5:]]
    assert np.array_equal(np.array(bb_vals), u.dofs)


def test_dof_txt_length_check(tmp_path):
    mesh = build_square(2, 2)
    Vh = FeSpace(mesh, "P1")
    (tmp_path / "short.txt").write_text("1\n2\n")
    with pytest.raises(InvalidArgumentError):
        import_dof_txt(Vh, tmp_path / "short.txt")


# -- mathematica blocks ----------------------------------------------------------

def test_mathematica_block_structure(tmp_path):
    mesh = build_square(1, 1)
    Vh = FeSpace(mesh, "P1")
    u = interpolate(Vh, lambda x, y: x + y)
    path = tmp_path / "m.txt"
    export_mathematica_txt(Vh, u, path)
    blocks = path.read_text().split("\n\n")
    blocks = [b for b in blocks if b.strip()]
    assert len(blocks) == 2
    for block in blocks:
        lines = block.splitlines()
        assert len(lines) == 4
        assert lines[0] == lines[-1]


def test_mathematica_shared_vertices_consistent(tmp_path):
    mesh = build_square(2, 2)
    Vh = FeSpace(mesh, "P1")
    u = interpolate(Vh, lambda x, y: 3 * x - y)
    path = tmp_path / "m.txt"
    export_mathematica_txt(Vh, u, path)
    seen = {}
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        x, y, v = (float(t) for t in line.split())
        key = (x, y)
        assert seen.setdefault(key, v) == v


def test_exports_deterministic(tmp_path):
    mesh = build_square(3, 3)
    Vh = FeSpace(mesh, "P1")
    u = interpolate(Vh, lambda x, y: np.cos(x * y))
    for name, writer in [("a.bb", lambda p: export_bb(Vh, u, p)),
                         ("a.txt", lambda p: export_mathematica_txt(Vh, u, p))]:
        p1 = tmp_path / ("1" + name)
        p2 = tmp_path / ("2" + name)
        writer(p1)
        writer(p2)
        assert p1.read_bytes() == p2.read_bytes()


def test_eps_writer(tmp_path):
    mesh = build_square(4, 4)
    Vh = FeSpace(mesh, "P1")
    u = interpolate(Vh, lambda x, y: x * y)
    path = tmp_path / "u.eps"
    export_eps(u, path)
    text = path.read_text()
    assert text.startswith("%!PS-Adobe-3.0 EPSF-3.0")
    assert "fill" in text and "stroke" in text
    export_eps(mesh, tmp_path / "m.eps")
    assert (tmp_path / "m.eps").read_text().count("stroke") == mesh.nt


# -- CLI ----------------------------------------------------------------------------

POISSON_SCRIPT = """
mesh Th=square(8,8);
fespace Vh(Th,P1);
Vh uh,vh;
macro Grad(u)[dx(u),dy(u)]//
solve p(uh,vh) = int2d(Th)(Grad(uh)'*Grad(vh)) - int2d(Th)(1.*vh) + on(1,2,3,4,uh=0);
plot(uh, ps="uh.eps");
"""


def test_cli_run_script(tmp_path, capsys):
    path = tmp_path / "poisson.edp"
    path.write_text(POISSON_SCRIPT)
    code = main(["run", str(path), "--verbosity", "0"])
    assert code == 0
    assert (tmp_path / "uh.eps").exists()


def test_cli_run_no_plot_files(tmp_path):
    path = tmp_path / "poisson.edp"
    path.write_text(POISSON_SCRIPT)
    assert main(["run", str(path), "--verbosity", "0", "--no-plot-files"]) == 0
    assert not (tmp_path / "uh.eps").exists()


def test_cli_run_missing_file(tmp_path, capsys):
    code = main(["run", str(tmp_path / "missing.edp")])
    assert code == 1
    assert "file not found" in capsys.readouterr().err


def test_cli_run_script_error(tmp_path, capsys):
    path = tmp_path / "bad.edp"
    path.write_text("int a=zz;")
    assert main(["run", str(path)]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_run_builtin_arity_error_gives_the_line(tmp_path, capsys):
    path = tmp_path / "bad.edp"
    path.write_text("real b = 1;\nreal a = abs();\n")
    assert main(["run", str(path)]) == 1
    assert capsys.readouterr().err == "error: line 2: abs needs 1 argument\n"


def test_cli_study_poisson_table(capsys):
    assert main(["study", "poisson", "--nref", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 3  # header + two rows
    assert out[1].split()[0] == "16"
    assert out[2].split()[0] == "32"


def test_cli_study_csv(tmp_path, capsys):
    csv = tmp_path / "rows.csv"
    assert main(["study", "heat", "--theta", "1", "--nref", "2",
                 "--csv", str(csv)]) == 0
    lines = csv.read_text().splitlines()
    assert len(lines) == 3 and lines[0].startswith("N,")


def test_cli_study_ellnl_reports_iterations(tmp_path, capsys):
    csv = tmp_path / "rows.csv"
    assert main(["study", "ellnl", "--dbc", "50", "--nref", "2", "--csv", str(csv)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split()[-1] == "iters"
    lines = csv.read_text().splitlines()
    assert lines[0] == "N,h,L2 error,rate,iters"
    for printed, row in zip(out[1:], lines[1:]):
        iters = int(row.split(",")[-1])
        assert printed.split()[-1] == str(iters) and 1 <= iters <= 8
    # tables whose rows carry no iteration count keep their columns
    assert main(["study", "poisson", "--nref", "2", "--csv", str(csv)]) == 0
    assert csv.read_text().splitlines()[0] == "N,h,L2 error,rate"


def test_cli_mesh_info(tmp_path, capsys):
    mesh = build_square(2, 3)
    path = tmp_path / "m.msh"
    save_msh(mesh, path)
    assert main(["mesh-info", str(path)]) == 0
    out = capsys.readouterr().out
    assert "vertices:       12" in out
    assert "triangles:      12" in out


def test_cli_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    assert main([]) == 2


def test_env_variable_sets_default_verbosity(tmp_path, monkeypatch, capsys):
    path = tmp_path / "quiet.edp"
    path.write_text('plot(0);\n')  # logs a skip message at verbosity >= 2
    monkeypatch.setenv("FEMSCRIPT_VERBOSITY", "0")
    assert main(["run", str(path)]) == 0
    assert capsys.readouterr().err == ""
    monkeypatch.setenv("FEMSCRIPT_VERBOSITY", "2")
    assert main(["run", str(path)]) == 0
    assert "plot" in capsys.readouterr().err


def test_console_entry_point(tmp_path):
    r = subprocess.run([sys.executable, "-m", "femscript.cli", "study",
                        "poisson", "--nref", "2"],
                       capture_output=True, text=True)
    assert r.returncode == 0
    assert "16" in r.stdout
