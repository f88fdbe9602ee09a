"""Print the SHA-256 of the conserved field U after a fixed set of runs, to
show that a change to the solver keeps every output bit.

Run it on two checkouts and compare the output:

    PYTHONPATH=src python tools/digests.py

Each line is "<run> <steps> <sha256 of U.tobytes()>".  The 2D runs are the
shock reflection at order 1 to its steady-state stop and at order 2 to
t = 0.3, the half cylinder at order 1, the 400 x 400 wedge to t = 0.0047
and the 100 x 100 wedge at order 2.  Each 2D run prints a second line,
"<run>-csv <steps> <sha256>", of the CSV text the CLI writes for it, so
the cell centres in its x and y columns are checked byte for byte too.
The 1D runs are every registered case but `blast` (3000 cells; its
order-2 runs blow up, and tests pin those) with both schemes at both
orders.  Each 1D case with a reference solution prints one more line,
"<case>-reference - <sha256>", of the stacked (rho, u, p) of
`bench1d.reference_profile` at its registered grid and t_final: 59 lines
in all.  The whole set takes about ten seconds on a 2-vCPU machine.
"""

import hashlib
import sys

import numpy as np

from cpsfds import bench1d, cli, euler2d
from cpsfds.fds1d import SchemeKind
from cpsfds.solver1d import Grid1D, TimeControls, advance, initialize
from cpsfds.state import GasModel

GAS = GasModel(1.4)

RUNS_2D = (
    ("reflection-o1", euler2d.shock_reflection_case, {}),
    ("reflection-o2-t0.3", euler2d.shock_reflection_case,
     {"order": 2, "t_final": 0.3}),
    ("half-cylinder-o1", euler2d.half_cylinder_case, {}),
    ("wedge-400-t0.0047", euler2d.wedge_case, {"t_final": 0.0047}),
    ("wedge-100-o2", euler2d.wedge_case,
     {"grid_shape": (100, 100), "order": 2}),
)


def digest(data):
    return hashlib.sha256(data).hexdigest()


def runs_1d():
    for case in bench1d.case_registry():
        if case.name == "blast":
            continue
        grid = Grid1D(case.x_min, case.x_max, case.n_cells)
        if case.reference is not bench1d.ReferenceKind.NONE:
            ref = bench1d.reference_profile(case, grid.centers(),
                                            case.t_final, GAS)
            yield f"{case.name}-reference", "-", np.stack(ref).tobytes()
        for scheme in SchemeKind:
            for order in (1, 2):
                U, log = advance(initialize(grid, case.initial_profile, GAS),
                                 grid, scheme, case.bc,
                                 TimeControls(case.t_final, case.cfl,
                                              order=order), GAS)
                yield (f"{case.name}-{scheme.value}-o{order}", log.steps,
                       U.tobytes())


def runs_2d():
    for name, make, kw in RUNS_2D:
        case = make()
        grid, U, log = euler2d.run_case_2d(case, GAS, **kw)
        yield name, log.steps, U.tobytes()
        csv = "".join(cli._csv_2d(grid, U, GAS, case.contour_levels))
        yield f"{name}-csv", log.steps, csv.encode()


def main():
    for runs in (runs_2d(), runs_1d()):
        for name, steps, data in runs:
            print(name, steps, digest(data), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
