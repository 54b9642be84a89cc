import subprocess
import sys

import numpy as np
import pytest

from femscript.cli import main
from femscript.fespace import FeSpace, interpolate
from femscript.io import export_dof_txt, export_eps
from femscript.mesh import build_square, save_msh


# -- DOF text -------------------------------------------------------------------

def test_dof_txt_roundtrips_exactly_and_deterministically(tmp_path):
    mesh = build_square(3, 3)
    Vh = FeSpace(mesh, "P1")
    u = interpolate(Vh, lambda x, y: np.sin(x) + np.cos(x * y) + y ** 2)
    export_dof_txt(u, tmp_path / "a.txt")
    export_dof_txt(u, tmp_path / "b.txt")
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
    back = [float(v) for v in (tmp_path / "a.txt").read_text().splitlines()]
    assert np.array_equal(np.array(back), u.dofs)


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


@pytest.mark.parametrize("args,message", [
    (["--T", "-1"], "T must be finite and positive"), (["--T", "0"], "T must be finite and positive"),
    (["--T", "nan"], "T must be finite and positive"), (["--mu", "inf"], "mu must be finite and positive"),
])
def test_cli_heat_study_rejects_settings_that_cannot_run(args, message, capsys):
    assert main(["study", "heat", "--nref", "2"] + args) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"
