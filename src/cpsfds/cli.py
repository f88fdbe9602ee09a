"""Command-line front end: run benchmark cases, list the registries, and
drive the built-in verification suites.

Exit codes: 0 success, 2 configuration error, 3 solver blow-up.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import bench1d, euler2d, exact_riemann, fds1d, splittings
from .fds1d import SchemeKind
from .solver1d import MIN_CELLS, SolverBlowUp, check_cfl, check_t_final
from .state import GasModel, PrimitiveState, physical_flux, \
    prim_to_cons_arrays

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3

_SCHEMES = {k.value: k for k in SchemeKind}


@dataclass
class RunConfig:
    case: str
    scheme: str = "zbs"
    order: int = 1
    cells: Optional[int] = None
    grid: Optional[tuple] = None
    cfl: Optional[float] = None
    t_final: Optional[float] = None
    out: Optional[str] = None
    fmt: str = "csv"


# Rows rendered per pass of render.render_rows: bounds its work arrays and
# each piece of text held in memory before it is written.
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
    at most _CSV_CHUNK_ROWS rows."""
    # imported on first use: a process that writes no CSV never compiles it
    from .render import render_rows
    yield "".join(line + "\n" for line in header)
    table = np.stack([np.ravel(c) for c in columns], axis=1)
    for k in range(0, len(table), _CSV_CHUNK_ROWS):
        yield render_rows(table[k:k + _CSV_CHUNK_ROWS])


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
        tail = (",".join(f"{o:.4f}" for o in orders) if orders
                else ",,".join([""] * 2))
        lines.append(f"{n},{_fmt(err.l1)},{_fmt(err.l2)},{_fmt(err.linf)},"
                     f"{tail}")
    return "\n".join(lines) + "\n"


def run(config: RunConfig) -> int:
    gas = GasModel(1.4)
    try:
        case1d = bench1d.get_case(config.case)
    except KeyError:
        case1d = None
    if case1d is not None:
        scheme = _SCHEMES[config.scheme]
        if config.fmt == "eoc":
            if case1d.reference is bench1d.ReferenceKind.NONE:
                print(f"case {config.case!r} has no reference solution for "
                      "an EOC table", file=sys.stderr)
                return EXIT_CONFIG
            _write_text(config.out,
                        [_eoc_table(case1d, scheme, config.order, gas)])
            return EXIT_OK
        result = bench1d.run_case(case1d, scheme, order=config.order,
                                  n_cells=config.cells, cfl=config.cfl,
                                  t_final=config.t_final, gas=gas)
        if config.fmt == "report":
            lines = [f"case={case1d.name} scheme={config.scheme} "
                     f"order={config.order} cells={result.x.size} "
                     f"steps={result.steps}"]
            if result.errors:
                lines.append(f"L1={_fmt(result.errors.l1)} "
                             f"L2={_fmt(result.errors.l2)} "
                             f"Linf={_fmt(result.errors.linf)}")
            _write_text(config.out, ["\n".join(lines) + "\n"])
        else:
            _write_text(config.out, _csv_1d(result, gas.gamma))
        return EXIT_OK

    for case2d in euler2d.case_registry_2d():
        if case2d.name == config.case:
            grid, U, log = euler2d.run_case_2d(
                case2d, gas, grid_shape=config.grid, order=config.order,
                cfl=config.cfl, t_final=config.t_final)
            if config.fmt == "report":
                _write_text(config.out,
                            [f"case={case2d.name} grid={grid.ni}x{grid.nj} "
                             f"steps={log.steps} t={log.t:.6f}\n"])
            else:
                _write_text(config.out,
                            _csv_2d(grid, U, gas, case2d.contour_levels))
            return EXIT_OK

    print(f"unknown case {config.case!r}", file=sys.stderr)
    return EXIT_CONFIG


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

def _random_state(rng) -> PrimitiveState:
    return PrimitiveState(float(rng.uniform(0.1, 10.0)),
                          float(rng.uniform(-5.0, 5.0)),
                          float(rng.uniform(0.1, 10.0)))


def _suite_algebra(seed, n=200):
    rng = np.random.default_rng(seed)
    gas = GasModel(1.4)
    checks = []

    worst_split = worst_jordan = worst_free = worst_uprop = 0.0
    for _ in range(n):
        w = _random_state(rng)
        F = physical_flux(w, gas)
        for kind in splittings.SplittingKind:
            sf = splittings.split_flux(kind, w, gas)
            worst_split = max(worst_split,
                              float(np.max(np.abs(sf.total - F))))
        for kind in (splittings.SplittingKind.ZHA_BILGEN,
                     splittings.SplittingKind.TORO_VAZQUEZ):
            A = splittings.convection_jacobian(kind, w, gas)
            es = splittings.convection_eigensystem(kind, w, gas)
            worst_jordan = max(worst_jordan,
                               splittings.verify_jordan(A, es)
                               / max(1.0, float(np.max(np.abs(A)))))
        wR = _random_state(rng)
        # the free constants of the generalized eigenvectors leave the
        # Jordan residual small ...
        for x1 in (-1.0, 2.0):
            es = splittings.convection_eigensystem(
                splittings.SplittingKind.ZHA_BILGEN, w, gas, x1=x1, x3=x1)
            A = splittings.convection_jacobian(
                splittings.SplittingKind.ZHA_BILGEN, w, gas)
            worst_free = max(worst_free, splittings.verify_jordan(A, es)
                             / max(1.0, float(np.max(np.abs(A)))))
        wb = splittings.face_average(w, wR)
        dU = (prim_to_cons_arrays(wR, gas.gamma)
              - prim_to_cons_arrays(w, gas.gamma))
        central = 0.5 * (physical_flux(w, gas) + physical_flux(wR, gas))
        for scheme, kind in (
                (SchemeKind.ZBS_FDS, splittings.SplittingKind.ZHA_BILGEN),
                (SchemeKind.TVS_FDS, splittings.SplittingKind.TORO_VAZQUEZ)):
            es = splittings.pressure_eigensystem(kind, wb, gas)
            # ... and never reach the flux: it equals the dissipation
            # assembled from the eigensystems at the face state
            flux = fds1d.interface_flux(scheme, w, wR, gas)
            d_press = splittings.upwind_dissipation(es, dU)
            for x1 in (-1.0, 2.0):
                conv = splittings.convection_eigensystem(kind, wb, gas,
                                                         x1=x1, x3=x1)
                d_conv = splittings.upwind_dissipation(conv, dU)
                want = central - 0.5 * (d_conv + d_press)
                worst_free = max(worst_free,
                                 float(np.max(np.abs(flux - want)))
                                 / max(1.0, float(np.max(np.abs(flux)))))
            # U-property of the pressure parts: flux jump = R Lambda R^-1 dU
            jump = splittings.split_flux(kind, wR, gas).pressure \
                - splittings.split_flux(kind, w, gas).pressure
            R = es.vectors
            model = R @ (es.eigenvalues * np.linalg.solve(R, dU))
            scale = max(1.0, float(np.max(np.abs(jump))))
            worst_uprop = max(worst_uprop,
                              float(np.max(np.abs(model - jump))) / scale)

    checks.append(("splitting consistency", worst_split <= 1e-12,
                   f"max residual {worst_split:.2e}"))
    checks.append(("Jordan residuals", worst_jordan <= 1e-10,
                   f"max residual {worst_jordan:.2e}"))
    checks.append(("free-parameter invariance", worst_free <= 1e-11,
                   f"max deviation {worst_free:.2e}"))
    checks.append(("pressure-part U property", worst_uprop <= 1e-11,
                   f"max residual {worst_uprop:.2e}"))

    worst = 0.0
    for m in (1.5, 2.0, 5.0, 10.0, 100.0):
        wl, wr = bench1d.steady_shock_states(m, gas)
        scale = max(prim_to_cons_arrays(w, gas.gamma)[2]    # rho E
                    for w in (wl, wr))
        worst = max(worst, abs(bench1d.error3(wl, wr, gas)) / scale)
    checks.append(("steady-shock jump identity", worst <= 1e-12,
                   f"max scaled residual {worst:.2e}"))
    return checks


def _suite_oracle(seed, n=100):
    rng = np.random.default_rng(seed)
    gas = GasModel(1.4)
    worst = 0.0
    failures = 0
    for _ in range(n):
        wL, wR = _random_state(rng), _random_state(rng)
        try:
            star = exact_riemann.solve_star(wL, wR, gas)
        except exact_riemann.VacuumError:
            continue
        except exact_riemann.ConvergenceError:
            failures += 1
            continue
        res = abs(exact_riemann.pressure_function(star.p_star, wL, wR, gas))
        worst = max(worst, res / max(wL.p, wR.p))
    checks = [("star-state residuals", failures == 0 and worst <= 1e-10,
               f"max scaled residual {worst:.2e}, {failures} failures")]

    sod = bench1d.get_case("sod")
    star = exact_riemann.solve_star(sod.left, sod.right, gas)
    mid = exact_riemann.sample(star, sod.left, sod.right, gas, star.u_star)
    ok = abs(mid.p - star.p_star) <= 1e-10 * star.p_star
    checks.append(("sampling consistency at the contact", ok,
                   f"p={mid.p:.6e} vs p*={star.p_star:.6e}"))
    return checks


def _suite_conservation(seed):
    gas = GasModel(1.4)
    from .solver1d import BoundaryCondition, Grid1D, ReconstructionConfig, \
        TimeControls, advance
    rng = np.random.default_rng(seed)
    checks = []
    grid = Grid1D(0.0, 1.0, 64)
    x = grid.centers()
    rho = 1.0 + 0.3 * np.sin(2.0 * math.pi * x) \
        + 0.1 * float(rng.uniform(0, 1))
    u = 0.5 * np.cos(2.0 * math.pi * x)
    p = 1.0 + 0.2 * np.sin(4.0 * math.pi * x)
    U0 = prim_to_cons_arrays((rho, u, p), gas.gamma)
    worst = 0.0
    for scheme in SchemeKind:
        U, _ = advance(U0, grid, scheme, ReconstructionConfig(order=1),
                       (BoundaryCondition.PERIODIC,) * 2,
                       TimeControls(0.1), gas)
        tot0 = U0.sum(axis=1) * grid.dx
        tot = U.sum(axis=1) * grid.dx
        scale = np.abs(U0).sum(axis=1) * grid.dx   # momentum total is ~0
        worst = max(worst, float(np.max(np.abs(tot - tot0) / scale)))
    checks.append(("periodic conservation", worst <= 1e-12,
                   f"max relative drift {worst:.2e}"))

    const = prim_to_cons_arrays((np.full(64, 1.3), np.full(64, 0.7),
                                 np.full(64, 2.1)), gas.gamma)
    U, _ = advance(const, grid, SchemeKind.TVS_FDS,
                   ReconstructionConfig(order=2),
                   (BoundaryCondition.PERIODIC,) * 2, TimeControls(0.1), gas)
    drift = float(np.max(np.abs(U - const)))
    checks.append(("uniform-state preservation", drift <= 1e-13,
                   f"max drift {drift:.2e}"))
    return checks


def verify(suite: str, seed: int = 0) -> int:
    suites = {"algebra": _suite_algebra, "oracle": _suite_oracle,
              "conservation": _suite_conservation}
    if suite == "all":
        names = list(suites)
    elif suite in suites:
        names = [suite]
    else:
        print(f"unknown suite {suite!r}", file=sys.stderr)
        return EXIT_CONFIG
    failed = 0
    for name in names:
        for check, ok, detail in suites[name](seed):
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {check} ({detail})")
            failed += 0 if ok else 1
    return EXIT_OK if failed == 0 else 1


# --------------------------------------------------------------------------
# argument handling

def _read_config_file(path):
    """The key=value lines of a config file.  A key is a run option's dest
    or its flag without the dashes (t_final or t-final, fmt or format)."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {line!r}")
            key, _, val = line.partition("=")
            key = key.strip().replace("-", "_")
            values["fmt" if key == "format" else key] = val.strip()
    return values


def _parse_grid(text):
    ni, _, nj = text.lower().partition("x")
    try:
        return int(ni), int(nj)
    except ValueError:
        raise ValueError(f"grid must be NIxNJ, got {text!r}") from None


def _check_run_config(config: RunConfig):
    """Raise ValueError for an option value that no case accepts, or that
    the run of the given case would ignore, so that it is reported before
    any solve starts.  An unknown case is reported by run."""
    if config.scheme not in _SCHEMES or config.order not in (1, 2) \
            or config.fmt not in ("csv", "eoc", "report"):
        raise ValueError("invalid scheme/order/format")
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
    if config.case in {c.name for c in euler2d.case_registry_2d()}:
        if config.scheme != SchemeKind.ZBS_FDS.value:
            raise ValueError(f"2D cases run zbs only, got {config.scheme}")
        if config.fmt == "eoc":
            raise ValueError("format eoc is for 1D cases only")
        if config.cells is not None:
            raise ValueError("cells is for 1D cases; 2D cases take grid")
    elif config.case in {c.name for c in bench1d.case_registry()}:
        if config.grid is not None:
            raise ValueError("grid is for 2D cases; 1D cases take cells")
        if config.fmt == "eoc" and any(
                q is not None for q in (config.cells, config.cfl,
                                        config.t_final)):
            raise ValueError("format eoc sets its own cells, cfl and "
                             "t-final; give none of them")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cpsfds",
        description="Convection-pressure split FDS Euler solver")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a benchmark case")
    p_run.add_argument("--case")
    p_run.add_argument("--scheme", choices=sorted(_SCHEMES))
    p_run.add_argument("--order", type=int, choices=(1, 2))
    p_run.add_argument("--cells", type=int)
    p_run.add_argument("--grid", help="NIxNJ for 2D cases")
    p_run.add_argument("--cfl", type=float)
    p_run.add_argument("--t-final", type=float)
    p_run.add_argument("--out")
    p_run.add_argument("--format", dest="fmt",
                       choices=("csv", "eoc", "report"))
    p_run.add_argument("--config", help="key=value file; flags win")

    p_list = sub.add_parser("list-cases", help="print the case registries")
    p_list.add_argument("--machine", action="store_true",
                        help="tab-separated, one case per line")

    p_verify = sub.add_parser("verify", help="run property suites")
    p_verify.add_argument("suite",
                          choices=("algebra", "oracle", "conservation",
                                   "all"))
    p_verify.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list-cases":
        sys.stdout.write(list_cases(machine=args.machine))
        return EXIT_OK
    if args.command == "verify":
        return verify(args.suite, seed=args.seed)

    merged = {}
    if args.config:
        try:
            merged.update(_read_config_file(args.config))
        except (OSError, ValueError) as err:
            print(f"config error: {err}", file=sys.stderr)
            return EXIT_CONFIG
    for key in ("case", "scheme", "order", "cells", "grid", "cfl",
                "t_final", "out", "fmt"):
        val = getattr(args, key)
        if val is not None:
            merged[key] = val
    if "case" not in merged:
        print("config error: no case given", file=sys.stderr)
        return EXIT_CONFIG
    try:
        config = RunConfig(
            case=str(merged["case"]),
            scheme=str(merged.get("scheme", "zbs")),
            order=int(merged.get("order", 1)),
            cells=int(merged["cells"]) if "cells" in merged else None,
            grid=(_parse_grid(str(merged["grid"]))
                  if "grid" in merged else None),
            cfl=float(merged["cfl"]) if "cfl" in merged else None,
            t_final=(float(merged["t_final"])
                     if "t_final" in merged else None),
            out=merged.get("out"),
            fmt=str(merged.get("fmt", "csv")))
        _check_run_config(config)
    except (ValueError, TypeError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        return run(config)
    except SolverBlowUp as err:
        print(f"blow-up: {err}", file=sys.stderr)
        return EXIT_BLOWUP
    except OSError as err:
        print(f"output error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
