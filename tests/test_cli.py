"""Command-line front end: output formats, determinism and exit codes."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cpsfds import cli, euler2d, render
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


def test_eoc_format_leaves_the_order_of_exact_errors_empty(tmp_path):
    """The stationary contact is exact on every grid: the table has five
    rows of zero errors and no order, where it used to raise."""
    out = tmp_path / "eoc.csv"
    code = run_main(["run", "--case", "contact", "--format", "eoc",
                     "--out", str(out)])
    assert code == cli.EXIT_OK
    rows = [line.split(",") for line in out.read_text().split("\n")[1:-1]]
    assert [int(row[0]) for row in rows] == [40, 80, 160, 320, 640]
    for row in rows:
        assert [float(q) for q in row[1:4]] == [0.0] * 3
        assert row[4:] == [""] * 3


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


def checkout_env():
    """The environment with this checkout's src first on PYTHONPATH."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=str(src) + (os.pathsep + path if path else ""))


def test_module_runs_the_cli_from_a_plain_checkout():
    done = subprocess.run([sys.executable, "-m", "cpsfds", "list-cases"],
                          env=checkout_env(), capture_output=True, text=True,
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
    (["--case", "wedge", "--grid", "40"], "grid must be NIxNJ, got '40'"),
    (["--case", "wedge", "--grid", "40x"], "grid must be NIxNJ, got '40x'"),
    (["--case", "wedge", "--grid", "x40"], "grid must be NIxNJ, got 'x40'"),
    (["--case", "wedge", "--grid", "40x4x2"],
     "grid must be NIxNJ, got '40x4x2'"),
    # a case that no registry holds, or one with nothing to compare against
    (["--case", "nope"], "unknown case 'nope'"),
    (["--case", "blast", "--format", "eoc"],
     "case 'blast' has no reference solution for an EOC table"),
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
    # the march names the step once; the error beneath it names the cell
    assert err.count("step") == 1


def test_config_file_is_read_and_flags_win(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("case=sod\ncells=40\nscheme=tvs\n# comment line\n")
    out = tmp_path / "out.csv"
    code = run_main(["run", "--config", str(cfg), "--cells", "60",
                     "--out", str(out)])
    assert code == cli.EXIT_OK
    assert len(out.read_text().strip().split("\n")) == 61   # flag overrode 40


def run_namespace(argv, monkeypatch):
    """The namespace that main hands to cli.run for a run command line."""
    seen = []
    monkeypatch.setattr(cli, "run", seen.append)
    assert run_main(["run"] + argv) == cli.EXIT_OK
    (config,) = seen
    return {k: v for k, v in vars(config).items() if k != "config"}


@pytest.mark.parametrize("key,flag,value,other,base", [
    ("case", "--case", "lax", "sod", []),
    ("scheme", "--scheme", "tvs", "zbs", ["--case", "sod"]),
    ("order", "--order", "2", "1", ["--case", "sod"]),
    ("cells", "--cells", "40", "60", ["--case", "sod"]),
    ("grid", "--grid", "10x12", "12x10", ["--case", "wedge"]),
    ("cfl", "--cfl", "0.5", "0.25", ["--case", "sod"]),
    ("t-final", "--t-final", "0.1", "0.05", ["--case", "sod"]),
    ("t_final", "--t-final", "0.1", "0.05", ["--case", "sod"]),
    ("out", "--out", "a.csv", "b.csv", ["--case", "sod"]),
    ("format", "--format", "report", "csv", ["--case", "sod"]),
    ("fmt", "--format", "report", "csv", ["--case", "sod"]),
])
def test_config_line_parses_as_its_flag(key, flag, value, other, base,
                                        tmp_path, monkeypatch):
    """key=value in the file gives what the flag gives; a flag beside the
    file wins."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={value}\n")
    by_flag = run_namespace(base + [flag, value], monkeypatch)
    assert run_namespace(base + ["--config", str(cfg)], monkeypatch) \
        == by_flag
    by_other = run_namespace(base + [flag, other], monkeypatch)
    assert by_other != by_flag
    assert run_namespace(base + ["--config", str(cfg), flag, other],
                         monkeypatch) == by_other


def test_config_value_may_start_with_a_dash(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("case=sod\nout=-sod.csv\n")
    assert run_namespace(["--config", str(cfg)], monkeypatch)["out"] \
        == "-sod.csv"


@pytest.mark.parametrize("line,message", [
    ("cels=40", "unrecognized arguments: --cels=40"),
    ("order=3", "argument --order: invalid choice: 3"),
    ("cfl=fast", "argument --cfl: invalid float value: 'fast'"),
    # a key is a whole flag, not a prefix of one
    ("cell=40", "unrecognized arguments: --cell=40"),
    ("ord=2", "unrecognized arguments: --ord=2"),
])
def test_bad_config_line_fails_as_its_flag_would(line, message, tmp_path,
                                                 capsys):
    """A misspelt key or a bad value exits 2 through argparse, naming the
    key as the flag that it stands for."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"case=sod\n{line}\n")
    with pytest.raises(SystemExit) as done:
        run_main(["run", "--config", str(cfg)])
    assert done.value.code == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_abbreviated_flag_is_unknown(capsys):
    """A prefix of a run flag is not taken as the flag."""
    with pytest.raises(SystemExit) as done:
        run_main(["run", "--case", "sod", "--cell", "40"])
    assert done.value.code == cli.EXIT_CONFIG
    assert "unrecognized arguments: --cell 40" in capsys.readouterr().err


def test_config_file_reads_keys_spelled_as_flags(tmp_path):
    """format= and t-final= were ignored: the run wrote CSV and ran to the
    case's own t_final."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("case=half-cylinder\ngrid=10x12\nformat=report\n"
                   "t-final=0.01\n")
    out = tmp_path / "out.txt"
    assert run_main(["run", "--config", str(cfg), "--out", str(out)]) \
        == cli.EXIT_OK
    assert out.read_text().startswith("case=half-cylinder grid=10x12 ")
    assert out.read_text().endswith(" t=0.010000\n")


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


@pytest.mark.parametrize("argv", [
    ["--case", "sod", "--cells", "50"],
    ["--case", "half-cylinder", "--grid", "10x12", "--t-final", "0.05"],
])
def test_stdout_holds_the_bytes_of_the_out_file(argv, tmp_path):
    out = tmp_path / "run.csv"
    assert run_main(["run"] + argv + ["--out", str(out)]) == cli.EXIT_OK
    done = subprocess.run([sys.executable, "-m", "cpsfds", "run"] + argv,
                          env=checkout_env(), capture_output=True,
                          timeout=120)
    assert done.returncode == cli.EXIT_OK, done.stderr
    assert done.stdout == out.read_bytes()


# --------------------------------------------------------------------------
# the CSV renderer against "%.16e"

def percent_rows(table):
    """The oracle of render.render_rows: every value through "%.16e", joined
    by "," within a row, each row ended by a newline."""
    rows, cols = table.shape
    row = ",".join(["%.16e"] * cols) + "\n"
    return row * rows % tuple(table.ravel().tolist())


def assert_renders_as_percent(values, cols=1):
    table = np.asarray(values, dtype=np.float64).reshape(-1, cols)
    for k in range(0, len(table), cli._CSV_CHUNK_ROWS):
        chunk = table[k:k + cli._CSV_CHUNK_ROWS]
        assert render.render_rows(chunk) == percent_rows(chunk)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True,
                          allow_subnormal=True), min_size=1, max_size=24),
       st.integers(1, 6))
def test_renderer_matches_percent_format_on_any_float(values, cols):
    values += [0.0] * (-len(values) % cols)
    assert_renders_as_percent(values, cols)


def test_renderer_matches_percent_format_on_random_bit_patterns():
    """10**6 patterns of both signs: the first half with any exponent, the
    second with binary exponents in [-330, 330], all in the range of the
    vectorized path, so that fewer take the one-at-a-time fallback."""
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 2**64, 10**6, dtype=np.uint64)
    half = bits[len(bits) // 2:]
    half &= ~np.uint64(0x7ff << 52)
    half |= rng.integers(1023 - 330, 1023 + 331, len(half),
                         dtype=np.uint64) << np.uint64(52)
    assert_renders_as_percent(bits.view(np.float64), cols=8)


def test_renderer_matches_percent_format_on_exact_ties():
    """n 2**-18 for odd n with 18 digits in n 5**18 ends in a 5 after the
    17th significant digit: "%.16e" rounds it half to even."""
    n = np.arange(26215, 262144, 2)
    assert len(str(n[0] * 5**18)) == len(str(n[-1] * 5**18)) == 18
    ties = n / 2.0**18
    assert "%.16e" % ties[(100001 - 26215) // 2] == "3.8147354125976562e-01"
    assert_renders_as_percent(np.stack([ties, np.nextafter(ties, 0.0),
                                        np.nextafter(ties, 1.0)], axis=1),
                              cols=3)


# Doubles x = m 2**e whose 17-digit scaled value x 10**(16 - k) lies within
# 1e-17 of a half-integer without being one.  For each of 40 exponents k,
# the smallest m in [2**52, 2**53) with m 2**e 10**(16 - k) mod 1 in that
# window, found by the Euclid-like search for the least m with (A m mod M)
# in [L, R].  The double-double product misrounds 20 of them; they pass only
# through the fallback for near-ties.
NEAR_TIES = [
    2.5041072873102316e-54, 2.5041072873102316e-55, 3.582104527464823e-90,
    1.9736279758088171e-94, 1.5456026235604067e-104, 2.1099821240873298e-127,
    1.190576090315835e-134, 2.757512541618499e-145, 1.6619261593183327e-197,
    2.7698769321972212e-198, 2.3660281387116354e-219, 2.3660281387116354e-220,
    1.7020633919039689e-224, 1.7020633919039689e-225, 2.2134216087109993e-229,
    2.0398802919148655e-239, 3.3213314465291107e-251, 2.1275773745467462e-262,
    2.8976678011269906e-269, 2.5402663160941524e-278, 2.2176152941026023e+278,
    2.5229794357925416e+268, 2.0016975267369384e+256, 2.1569089501761704e+249,
    2.7068323819784194e+247, 2.3045993857310316e+238, 2.734714798292607e+237,
    1.8815693447568785e+234, 2.5963366618376985e+231, 2.3311886550274038e+226,
    1.8437873064311797e+209, 2.711176770832212e+162, 2.711176770832212e+160,
    3.2162273618468162e+156, 2.976184616299706e+153, 1.8229376589239845e+142,
    3.7535332682022824e+115, 2.408349954083754e+107, 2.253360749459095e+85,
    3.425598997614725e+81,
]


def test_renderer_matches_percent_format_next_to_ties():
    assert_renders_as_percent(NEAR_TIES + [-x for x in NEAR_TIES], cols=4)


def test_renderer_matches_percent_format_next_to_powers_of_ten():
    """Rounding to 17 digits may carry into the next decade: the double
    nearest 1e-14 lies below 10**-14 and is written 1.0000000000000000e-14.
    """
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)]
                      + [9.99999999999999999e5, 9.99999999999999999e-101,
                         9.99999999999999999e99])
    values = [powers]
    down = up = powers
    for _ in range(2):
        down, up = np.nextafter(down, 0.0), np.nextafter(up, np.inf)
        values += [down, up]
    values = np.concatenate(values)
    assert_renders_as_percent(np.concatenate([values, -values]))
    assert render.render_rows(np.array([[1e-14, 9.99999999999999999e5]])) \
        == "1.0000000000000000e-14,1.0000000000000000e+06\n"


def test_renderer_matches_percent_format_at_the_extremes():
    extremes = [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                0.0, np.inf, np.nan]
    assert_renders_as_percent(extremes + [-v for v in extremes], cols=4)


def csv_peak_beyond_table(n):
    """Peak bytes traced while draining cli._csv over six n x n columns,
    less the stacked (n * n, 6) table."""
    columns = np.random.default_rng(5).standard_normal((6, n, n))
    render.render_tables()
    tracemalloc.start()
    try:
        for _ in cli._csv(["x,y,rho,u,v,p"], columns):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - columns.nbytes


def test_csv_memory_is_bounded_by_one_chunk():
    """Rendering holds one chunk's work arrays at a time, never a table's."""
    small, large = csv_peak_beyond_table(100), csv_peak_beyond_table(400)
    assert large < 8e6
    assert large < small + 0.5e6


def test_import_builds_no_render_tables():
    """Importing cpsfds.cli does not import the renderer, so a process that
    writes no CSV neither compiles it nor builds its tables."""
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, cpsfds.cli; print('cpsfds.render' in sys.modules)"],
        env=checkout_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


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
