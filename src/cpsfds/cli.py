"""Command-line front end: run benchmark cases, list the registries, and
drive the built-in verification suites.

Exit codes: 0 success, 1 a verification check failed, 2 configuration
error, 3 solver blow-up.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import bench1d, euler2d
from .fds1d import SchemeKind
from .solver1d import MIN_CELLS, SolverBlowUp, check_cfl, check_t_final
from .state import GasModel

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_BLOWUP = 3

_SCHEMES = {k.value: k for k in SchemeKind}


# Rows stacked and rendered per pass of render.render_rows: bounds the
# stacked rows, the renderer's work arrays and each piece of text held in
# memory before it is written.
_CSV_CHUNK_ROWS = 4096


def _fmt(x: float) -> str:
    return f"{x:.16e}"


def _write_text(path, pieces):
    """Write the strings of the iterable pieces, in order, to path or to
    standard output."""
    if path is None:
        sys.stdout.writelines(pieces)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(pieces)


def _csv(header, columns):
    """Header lines, then one row per element of the equal-sized columns,
    every value written as _fmt writes it.  Yields the text in pieces of
    at most _CSV_CHUNK_ROWS rows, each stacked from the columns on its
    own, so the whole table is never held."""
    # imported on first use: a process that writes no CSV never compiles it
    from .render import render_rows
    yield "".join(line + "\n" for line in header)
    columns = [np.ravel(c) for c in columns]
    for k in range(0, len(columns[0]), _CSV_CHUNK_ROWS):
        yield render_rows(np.stack([c[k:k + _CSV_CHUNK_ROWS]
                                    for c in columns], axis=1))


def _csv_1d(result: bench1d.CaseResult, gamma: float):
    e = result.p / (result.rho * (gamma - 1.0))   # specific internal energy
    return _csv(["x,rho,u,p,e"], (result.x, result.rho, result.u, result.p, e))


def _csv_2d(grid, U, gas, contour_levels):
    header = [f"ni,nj={grid.ni},{grid.nj}"]
    if contour_levels:
        header.append(f"contour-levels={contour_levels}")
    header.append("x,y,rho,u,v,p")
    return _csv(header, (grid.xc, grid.yc,
                         *euler2d.cons_to_prim_fields(U, gas.gamma)))


def _eoc_table(case, scheme, order, gas) -> str:
    rows = bench1d.convergence_table(case, scheme, (40, 80, 160, 320, 640),
                                     order=order, gas=gas)
    lines = ["cells,L1,L2,Linf,EOC_L1,EOC_L2,EOC_Linf"]
    for n, err, orders in rows:
        tail = ",".join("" if o is None else f"{o:.4f}"
                        for o in orders or [None] * 3)
        lines.append(f"{n},{_fmt(err.l1)},{_fmt(err.l2)},{_fmt(err.linf)},"
                     f"{tail}")
    return "\n".join(lines) + "\n"


def _find_case(name):
    """The 1D or 2D case of the given name; ValueError if neither registry
    holds it."""
    for case in (*bench1d.case_registry(), *euler2d.case_registry_2d()):
        if case.name == name:
            return case
    raise ValueError(f"unknown case {name!r}")


def run(config: argparse.Namespace) -> None:
    """Solve the case of a checked run namespace and write its output."""
    gas = GasModel(1.4)
    case = _find_case(config.case)
    if isinstance(case, euler2d.CaseSpec2D):
        grid, U, log = euler2d.run_case_2d(
            case, gas, grid_shape=config.grid, order=config.order,
            cfl=config.cfl, t_final=config.t_final)
        if config.fmt == "report":
            text = [f"case={case.name} grid={grid.ni}x{grid.nj} "
                    f"steps={log.steps} t={log.t:.6f}\n"]
        else:
            text = _csv_2d(grid, U, gas, case.contour_levels)
    elif config.fmt == "eoc":
        text = [_eoc_table(case, _SCHEMES[config.scheme], config.order, gas)]
    else:
        result = bench1d.run_case(case, _SCHEMES[config.scheme],
                                  order=config.order, n_cells=config.cells,
                                  cfl=config.cfl, t_final=config.t_final,
                                  gas=gas)
        if config.fmt == "report":
            lines = [f"case={case.name} scheme={config.scheme} "
                     f"order={config.order} cells={result.x.size} "
                     f"steps={result.steps}"]
            if result.errors:
                lines.append(f"L1={_fmt(result.errors.l1)} "
                             f"L2={_fmt(result.errors.l2)} "
                             f"Linf={_fmt(result.errors.linf)}")
            text = ["\n".join(lines) + "\n"]
        else:
            text = _csv_1d(result, gas.gamma)
    _write_text(config.out, text)


def list_cases(machine: bool = False) -> str:
    lines = []
    for c in bench1d.case_registry():
        if machine:
            lines.append(f"{c.name}\t1d\t[{c.x_min},{c.x_max}]\t"
                         f"t={c.t_final}\tcells={c.n_cells}")
        else:
            lines.append(f"{c.name}: 1D on [{c.x_min}, {c.x_max}], "
                         f"t_final={c.t_final}, {c.n_cells} cells, "
                         f"reference={c.reference.value}")
    for c in euler2d.case_registry_2d():
        ni, nj = c.default_grid
        if machine:
            lines.append(f"{c.name}\t2d\tgrid={ni}x{nj}\tt={c.t_final}")
        else:
            lines.append(f"{c.name}: 2D, default grid {ni}x{nj}, "
                         f"t_final={c.t_final} — {c.notes}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# verification suites

def verify(suite: str, seed: int = 0) -> int:
    """Print one line per record of the named suite of cpsfds.checks, or of
    every suite for "all"; EXIT_CHECK_FAILED if any record fails."""
    # imported on first use: a run never loads the property checks
    from .checks import SUITES
    failed = 0
    for name in SUITES if suite == "all" else (suite,):
        for c in SUITES[name](seed):
            print(f"[{'PASS' if c.ok else 'FAIL'}] {name}: {c.name} "
                  f"(worst {c.worst:.2e}, bound {c.bound:.0e}, "
                  f"samples {c.samples})")
            failed += not c.ok
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


class _SuiteNames:
    """The suites that verify takes: those of cpsfds.checks, and "all".
    argparse reads them only to parse or print a verify command, so that
    building the parser for a run imports no check code."""

    def __iter__(self):
        from .checks import SUITES
        return iter((*SUITES, "all"))

    def __contains__(self, name):
        return name in tuple(self)


# --------------------------------------------------------------------------
# argument handling

def _config_args(path):
    """The key=value lines of a config file as --key=value tokens of the
    run command.  A key is a run option's flag without the dashes or its
    dest (t-final or t_final, format or fmt).  One token per line keeps a
    value that starts with "-" a value."""
    tokens = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {line!r}")
            key, _, val = line.partition("=")
            key = key.strip().replace("_", "-")
            tokens.append(f"--{'format' if key == 'fmt' else key}="
                          f"{val.strip()}")
    return tokens


def _parse_grid(text):
    ni, _, nj = text.lower().partition("x")
    try:
        return int(ni), int(nj)
    except ValueError:
        raise ValueError(f"grid must be NIxNJ, got {text!r}") from None


def _check_run_config(config):
    """Raise ValueError for an unknown case, or for an option value that no
    case accepts or that the run of the given case would ignore, so that
    it is reported before any solve starts."""
    case = _find_case(config.case)
    if config.cells is not None and config.cells < MIN_CELLS:
        raise ValueError(f"cells must be at least {MIN_CELLS}, "
                         f"got {config.cells}")
    if config.grid is not None:
        euler2d.check_grid_shape(*config.grid)
    if config.cfl is not None:
        check_cfl(config.cfl)
    if config.t_final is not None:
        check_t_final(config.t_final)
        if config.t_final == math.inf:
            raise ValueError("t-final must be finite, got inf")
    # options that the run would ignore
    if isinstance(case, euler2d.CaseSpec2D):
        if config.scheme != SchemeKind.ZBS_FDS.value:
            raise ValueError(f"2D cases run zbs only, got {config.scheme}")
        if config.fmt == "eoc":
            raise ValueError("format eoc is for 1D cases only")
        if config.cells is not None:
            raise ValueError("cells is for 1D cases; 2D cases take grid")
    else:
        if config.grid is not None:
            raise ValueError("grid is for 2D cases; 1D cases take cells")
        if config.fmt == "eoc":
            if case.reference is bench1d.ReferenceKind.NONE:
                raise ValueError(f"case {case.name!r} has no reference "
                                 "solution for an EOC table")
            if any(q is not None for q in (config.cells, config.cfl,
                                           config.t_final)):
                raise ValueError("format eoc sets its own cells, cfl and "
                                 "t-final; give none of them")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cpsfds",
        description="Convection-pressure split FDS Euler solver")
    sub = parser.add_subparsers(dest="command", required=True)

    # no prefix matching, so a config key must be a whole flag or dest
    p_run = sub.add_parser("run", help="run a benchmark case",
                           allow_abbrev=False)
    p_run.add_argument("--case")
    p_run.add_argument("--scheme", choices=sorted(_SCHEMES), default="zbs")
    p_run.add_argument("--order", type=int, choices=(1, 2), default=1)
    p_run.add_argument("--cells", type=int)
    p_run.add_argument("--grid", help="NIxNJ for 2D cases")
    p_run.add_argument("--cfl", type=float)
    p_run.add_argument("--t-final", type=float)
    p_run.add_argument("--out")
    p_run.add_argument("--format", dest="fmt",
                       choices=("csv", "eoc", "report"), default="csv")
    p_run.add_argument("--config",
                       help="file of key=value lines, each read as "
                            "--key=value; flags win")

    p_list = sub.add_parser("list-cases", help="print the case registries")
    p_list.add_argument("--machine", action="store_true",
                        help="tab-separated, one case per line")

    p_verify = sub.add_parser("verify", help="run property suites")
    # a metavar, so that argparse lists the choices only in an error or in
    # the help text
    p_verify.add_argument("suite", choices=_SuiteNames(), metavar="suite",
                          help="%(choices)s")
    p_verify.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list-cases":
        sys.stdout.write(list_cases(machine=args.machine))
        return EXIT_OK
    if args.command == "verify":
        return verify(args.suite, seed=args.seed)

    if args.config:
        try:
            tokens = _config_args(args.config)
        except (OSError, ValueError) as err:
            print(f"config error: {err}", file=sys.stderr)
            return EXIT_CONFIG
        # argv[0] is the command: the file's options go right after it,
        # so that the command line's own come later and win
        args = parser.parse_args(argv[:1] + tokens + argv[1:])
    if args.case is None:
        print("config error: no case given", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if args.grid is not None:
            args.grid = _parse_grid(args.grid)
        _check_run_config(args)
    except ValueError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        run(args)
    except SolverBlowUp as err:
        print(f"blow-up: {err}", file=sys.stderr)
        return EXIT_BLOWUP
    except OSError as err:
        print(f"output error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
