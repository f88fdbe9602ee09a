"""Command-line front end: output formats, determinism and exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cpsfds import cli, euler2d
from cpsfds.state import GasModel


def run_main(argv):
    return cli.main(argv)


def test_list_cases_mentions_all_registries(capsys):
    assert run_main(["list-cases"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    for name in ("sod", "lax", "blast", "shock-entropy",
                 "shock-reflection", "ramp", "wedge", "half-cylinder"):
        assert name in out


def test_list_cases_machine_variant_is_tab_separated(capsys):
    assert run_main(["list-cases", "--machine"]) == cli.EXIT_OK
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 15        # 11 one-dimensional + 4 two-dimensional
    for line in lines:
        assert "\t" in line
        assert line.split("\t")[1] in ("1d", "2d")


def test_run_writes_csv_with_one_row_per_cell(tmp_path):
    out = tmp_path / "sod.csv"
    code = run_main(["run", "--case", "sod", "--scheme", "zbs",
                     "--cells", "50", "--out", str(out)])
    assert code == cli.EXIT_OK
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "x,rho,u,p,e"
    assert len(lines) == 51
    values = np.array([[float(v) for v in line.split(",")]
                       for line in lines[1:]])
    assert values.shape == (50, 5)
    assert np.all(values[:, 1] > 0.0)      # densities stay positive
    # internal energy column is consistent with rho and p
    np.testing.assert_allclose(values[:, 4],
                               values[:, 3] / (values[:, 1] * 0.4),
                               rtol=1e-12)


def test_csv_round_trips_full_precision(tmp_path):
    out = tmp_path / "sod.csv"
    run_main(["run", "--case", "sod", "--cells", "40", "--out", str(out)])
    first = out.read_text().split("\n")[1].split(",")[0]
    assert float(first) == float(f"{float(first):.16e}")
    assert "e" in first            # scientific notation


def test_identical_configs_produce_byte_identical_output(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["run", "--case", "lax", "--scheme", "tvs", "--cells", "60"]
    run_main(argv + ["--out", str(a)])
    run_main(argv + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_eoc_format_emits_the_refinement_table(tmp_path):
    out = tmp_path / "eoc.csv"
    code = run_main(["run", "--case", "smooth", "--format", "eoc",
                     "--out", str(out)])
    assert code == cli.EXIT_OK
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "cells,L1,L2,Linf,EOC_L1,EOC_L2,EOC_Linf"
    cells = [int(line.split(",")[0]) for line in lines[1:]]
    assert cells == [40, 80, 160, 320, 640]


def test_eoc_format_rejects_cases_without_a_reference(capsys):
    assert run_main(["run", "--case", "blast", "--format", "eoc"]) \
        == cli.EXIT_CONFIG


def test_report_format_has_error_norms(tmp_path):
    out = tmp_path / "report.txt"
    run_main(["run", "--case", "sod", "--cells", "40", "--format", "report",
              "--out", str(out)])
    text = out.read_text()
    assert "case=sod" in text
    assert "L1=" in text


def test_unknown_case_is_a_config_error(capsys):
    assert run_main(["run", "--case", "nope"]) == cli.EXIT_CONFIG
    assert "unknown case" in capsys.readouterr().err


def test_module_runs_the_cli_from_a_plain_checkout():
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=str(src) + (os.pathsep + path if path else ""))
    done = subprocess.run([sys.executable, "-m", "cpsfds", "list-cases"],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == cli.EXIT_OK, done.stderr
    assert "half-cylinder" in done.stdout


def test_missing_case_is_a_config_error(capsys):
    assert run_main(["run", "--scheme", "zbs"]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("argv,message", [
    (["--case", "sod", "--cells", "2"], "cells must be at least 4"),
    (["--case", "sod", "--cfl", "1.5"], "cfl must be in (0, 1]"),
    (["--case", "shock-reflection", "--cfl", "0"], "cfl must be in (0, 1]"),
    (["--case", "wedge", "--grid", "0x5"], "grid must be at least 2x2"),
    (["--case", "sod", "--t-final", "nan"], "t-final must be positive"),
    (["--case", "wedge", "--t-final", "inf"], "t-final must be finite"),
    # options that the run would ignore
    (["--case", "wedge", "--scheme", "tvs"], "2D cases run zbs only"),
    (["--case", "ramp", "--format", "eoc"], "format eoc is for 1D cases"),
    (["--case", "smooth", "--format", "eoc", "--cells", "80"],
     "format eoc sets its own cells, cfl and t-final"),
    (["--case", "smooth", "--format", "eoc", "--cfl", "0.5"],
     "format eoc sets its own cells, cfl and t-final"),
    (["--case", "smooth", "--format", "eoc", "--t-final", "0.1"],
     "format eoc sets its own cells, cfl and t-final"),
    (["--case", "sod", "--grid", "40x4"], "grid is for 2D cases"),
    (["--case", "shock-reflection", "--cells", "40"], "cells is for 1D cases"),
])
def test_invalid_run_option_is_a_config_error(argv, message, capsys,
                                              monkeypatch):
    """Checked before the solve: no solver is called."""
    def no_solve(*args, **kwargs):
        raise AssertionError("solver called")
    monkeypatch.setattr(cli.bench1d, "run_case", no_solve)
    monkeypatch.setattr(cli.euler2d, "run_case_2d", no_solve)
    assert run_main(["run"] + argv) == cli.EXIT_CONFIG
    assert f"config error: {message}" in capsys.readouterr().err


def test_blow_up_exit_code_with_diagnostics(capsys):
    code = run_main(["run", "--case", "blast", "--scheme", "tvs",
                     "--order", "2", "--cells", "400", "--out", "/dev/null"])
    assert code == cli.EXIT_BLOWUP
    err = capsys.readouterr().err
    assert "blew up" in err
    assert "step" in err and "cell" in err


def test_config_file_is_read_and_flags_win(tmp_path):
    cfg = tmp_path / "run.cfg"
    # keys that are no run option, such as seed=, are ignored
    cfg.write_text("case=sod\ncells=40\nscheme=tvs\nseed=3\n"
                   "# comment line\n")
    out = tmp_path / "out.csv"
    code = run_main(["run", "--config", str(cfg), "--cells", "60",
                     "--out", str(out)])
    assert code == cli.EXIT_OK
    assert len(out.read_text().strip().split("\n")) == 61   # flag overrode 40


def test_malformed_config_file_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("case sod\n")
    assert run_main(["run", "--config", str(cfg)]) == cli.EXIT_CONFIG


def test_2d_run_emits_grid_header_and_contours(tmp_path):
    out = tmp_path / "cyl.csv"
    code = run_main(["run", "--case", "half-cylinder", "--grid", "10x12",
                     "--t-final", "0.05", "--out", str(out)])
    assert code == cli.EXIT_OK
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "ni,nj=10,12"
    assert lines[1].startswith("contour-levels=")
    assert lines[2] == "x,y,rho,u,v,p"
    assert len(lines) == 3 + 10 * 12


def test_2d_csv_matches_a_per_cell_rendering(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_CSV_CHUNK_ROWS", 7)   # chunks end mid-row
    out = tmp_path / "cyl.csv"
    assert run_main(["run", "--case", "half-cylinder", "--grid", "10x12",
                     "--t-final", "0.05", "--out", str(out)]) == cli.EXIT_OK
    gas = GasModel(1.4)
    case = euler2d.half_cylinder_case()
    grid, U, _ = euler2d.run_case_2d(case, gas, grid_shape=(10, 12),
                                     t_final=0.05)
    rho, u, v, p = euler2d.cons_to_prim_fields(U, gas.gamma)
    lines = ["ni,nj=10,12", f"contour-levels={case.contour_levels}",
             "x,y,rho,u,v,p"]
    for i in range(10):
        for j in range(12):
            lines.append(",".join(f"{q[i, j]:.16e}" for q in
                                  (grid.xc, grid.yc, rho, u, v, p)))
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_run_has_no_seed_option(capsys):
    with pytest.raises(SystemExit):
        run_main(["run", "--case", "sod", "--seed", "1"])


def test_verify_suites_pass_and_are_reproducible(capsys):
    assert run_main(["verify", "all", "--seed", "7"]) == cli.EXIT_OK
    first = capsys.readouterr().out
    assert run_main(["verify", "all", "--seed", "7"]) == cli.EXIT_OK
    second = capsys.readouterr().out
    assert first == second
    assert "FAIL" not in first


def test_free_parameter_check_fails_on_a_perturbed_flux(monkeypatch, capsys):
    """The flux part of the check compares interface_flux with the flux
    assembled from the eigensystems, so a 1e-9 relative error fails it."""
    flux = cli.fds1d.interface_flux
    monkeypatch.setattr(cli.fds1d, "interface_flux",
                        lambda *args: flux(*args) * (1.0 + 1e-9))
    assert run_main(["verify", "algebra", "--seed", "0"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] algebra: free-parameter invariance" in out
