"""The benchmark's workloads: their inputs, their operations and the checks
on what the operations return.

Each workload is a list of operations.  An operation is one user-visible
call into cpsfds (one solver run, or one convergence table of five runs)
and is timed as a whole.  Checks run after timing and compare the outputs
with `oracles`, which shares no code with the library.  A check returns
(operation id, message) pairs; an operation with a message counts as
failed.  `KNOWN_FAULTS` names the operations that fail on every run
because of a diagnosed fault in the program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from cpsfds import bench1d, cli, euler2d, solver1d
from cpsfds.fds1d import SchemeKind
from cpsfds.state import GasModel, PrimitiveState

import oracles

GAS = GasModel(oracles.GAMMA)
CELLS = (40, 80, 160, 320, 640)
SCHEMES = (SchemeKind.ZBS_FDS, SchemeKind.TVS_FDS)


@dataclass
class Op:
    id: str
    fn: Callable
    setup: Callable        # builds the grids and initial states it uses


@dataclass
class OpResult:
    value: object = None
    solves: list = field(default_factory=list)   # (U, StepLog) per advance
    error: Optional[str] = None


def finite_positive(rho, p):
    return bool(np.all(np.isfinite(rho)) and np.all(np.isfinite(p))
                and np.all(rho > 0.0) and np.all(p > 0.0))


# --------------------------------------------------------------------------
# sweep1d

def riemann_case(name, left, right):
    """A Riemann problem on [0, 1] split at 0.5, run until the fastest
    signal has travelled 0.3, so that step counts hardly depend on the
    states."""
    exact = oracles.RiemannSolution(left, right)
    return bench1d.CaseSpec(
        name, 0.0, 1.0, 0.3 / exact.max_signal_speed(), 100,
        (solver1d.BoundaryCondition.TRANSMISSIVE,) * 2,
        bench1d.ReferenceKind.EXACT_RIEMANN,
        PrimitiveState(*left), PrimitiveState(*right), 0.5)


def seeded_riemann_problems(seed, count=3):
    """Riemann problems with density and pressure ratios below 10 and
    |u| < 0.5 (so no vacuum), drawn from the seed.

    Draws whose contact moves slower than a third of the fastest signal are
    skipped: a contact that travels only a few cells leaves a first-order L1
    error that depends on its position within a cell and need not fall from
    one grid to the next (TVS on (0.4, 0, 0.6) | (0.9, 0.15, 0.8) gives
    6.77e-3 at 40 cells and 6.89e-3 at 80), so the monotone-L1 check would
    not hold.  The near-stagnant flow this leaves out is covered by the
    fixed `stagnant-jump` problem.
    """
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        rl, rr, pl, pr = 10.0 ** rng.uniform(-0.5, 0.5, 4)
        ul, ur = rng.uniform(-0.5, 0.5, 2)
        left, right = (float(rl), float(ul), float(pl)), \
            (float(rr), float(ur), float(pr))
        exact = oracles.RiemannSolution(left, right)
        if abs(exact.u_star) >= exact.max_signal_speed() / 3.0:
            cases.append(riemann_case(f"seeded-{len(cases)}", left, right))
    return cases


# A 1% pressure jump in gas at rest.  First-order ZBS develops grid-scale
# oscillations in the nearly stagnant star region that grow as the grid is
# refined (L1 6.4e-4 at 40 cells, 1.1e-2 at 640; velocity error 0.22 where
# the exact |u| is below 0.005), so its table fails the monotone-L1 check
# on every run.  TVS converges on the same problem.
STAGNANT = riemann_case("stagnant-jump", (1.0, 0.0, 1.0), (1.0, 0.0, 1.01))
KNOWN_FAULTS = {"table/stagnant-jump/zbs":
                "first-order ZBS oscillates in near-stagnant flow"}

# Drawn by seed 348: first-order ZBS gives a negative pressure at step 1 in
# the cell right of the jump, on every grid from 40 to 640 cells; its face
# mass flux there is -0.265 where the exact solution has +0.661.  TVS
# completes and converges.  A fault that shows on some seeds only cannot
# be counted run for run, so ZBS is left out of the seeded tables.
SEEDED_ZBS_BLOW_UP = ((2.671808296186507, -0.46200116360912025,
                       2.8392434748374273),
                      (0.3174303737162776, 0.3692127273101604,
                       0.41467370603126813))


def _setup_1d(case, cell_counts):
    def build():
        for n in cell_counts:
            grid = solver1d.Grid1D(case.x_min, case.x_max, n)
            solver1d.initialize(grid, case.initial_profile, GAS)
    return build


class Sweep1D:
    """Registered 1D cases, convergence tables and seeded Riemann problems."""

    name = "sweep1d"
    known_faults = KNOWN_FAULTS

    def __init__(self, seed, out_dir):
        self.seeded = seeded_riemann_problems(seed)
        self.registered = {c.name: c for c in bench1d.case_registry()
                           if c.name != "blast"}
        self.cases = dict(self.registered)
        self.cases.update((c.name, c) for c in self.seeded + [STAGNANT])

    def ops(self):
        ops = []
        for name, case in self.registered.items():
            for scheme in SCHEMES:
                for order in (1, 2):
                    ops.append(Op(f"{name}/{scheme.value}/o{order}",
                                  self._run_case(case, scheme, order),
                                  _setup_1d(case, (case.n_cells,))))
        tables = [(name, scheme) for name in ("smooth", "sod", "sonic",
                                              "strong-shock", STAGNANT.name)
                  for scheme in SCHEMES]
        # ZBS raises on some seeded problems (a first-step negative
        # pressure, see SEEDED_ZBS_BLOW_UP), so the seeded tables use TVS
        tables += [(c.name, SchemeKind.TVS_FDS) for c in self.seeded]
        for name, scheme in tables:
            ops.append(Op(f"table/{name}/{scheme.value}",
                          self._table(self.cases[name], scheme),
                          _setup_1d(self.cases[name], CELLS)))
        return ops

    @staticmethod
    def _run_case(case, scheme, order):
        return lambda: bench1d.run_case(case, scheme, order=order, gas=GAS)

    @staticmethod
    def _table(case, scheme):
        return lambda: bench1d.convergence_table(case, scheme, CELLS,
                                                 gas=GAS)

    # checks ---------------------------------------------------------------

    def _exact_density(self, case, x):
        if case.name == "smooth":
            s = oracles.SMOOTH
            return oracles.smooth_profile(x - s["u"] * s["t_final"])
        exact = oracles.RiemannSolution(
            *((w.rho, w.u, w.p) for w in (case.left, case.right)))
        return exact.sample((x - case.x0) / case.t_final)[0]

    def _check_run(self, label, case, U, reported_l1, order):
        """Checks on one solver run; returns messages and its own L1."""
        bad = []
        n = U.shape[1]
        dx = (case.x_max - case.x_min) / n
        x = case.x_min + (np.arange(n) + 0.5) * dx
        rho, p = U[0], oracles.pressure_1d(U)
        if not finite_positive(rho, p):
            return [f"{label}: non-finite or non-positive rho or p"], None
        l1 = None
        if case.reference is not bench1d.ReferenceKind.NONE:
            l1 = float(np.sum(np.abs(rho - self._exact_density(case, x)))
                       * dx)
            if not abs(reported_l1 - l1) <= 1e-8 * l1 + 1e-12:
                bad.append(f"{label}: reported L1 {reported_l1!r} vs "
                           f"independent {l1!r}")
        if case.name == "smooth":
            U0 = oracles.conserved_1d(oracles.smooth_profile(x),
                                      oracles.SMOOTH["u"],
                                      oracles.SMOOTH["p"])
            drift = np.abs(U.sum(axis=1) - U0.sum(axis=1)) \
                / np.abs(U0).sum(axis=1)
            if not np.all(drift <= 1e-12):
                bad.append(f"{label}: conserved totals drift by "
                           f"{drift.max():.2e}")
            if order == 1:
                want = oracles.smooth_upwind_density(n)
                dev = float(np.max(np.abs(rho - want)) / np.max(want))
                if not dev <= 1e-10:
                    bad.append(f"{label}: {dev:.2e} from scalar upwinding")
        if case.name == "contact":
            rho0 = np.where(x < case.x0, case.left.rho, case.right.rho)
            dev = float(np.max(np.abs(rho - rho0)))
            if not dev <= 1e-12:
                bad.append(f"{label}: stationary contact moved by "
                           f"{dev:.2e}")
        return bad, l1

    def check(self, results):
        bad = []
        l1 = {}
        for op_id, res in results.items():
            if res.error is not None:
                continue
            if op_id.startswith("table/"):
                _, name, scheme = op_id.split("/")
                case = self.cases[name]
                if len(res.solves) != len(CELLS) or \
                        [row[0] for row in res.value] != list(CELLS):
                    bad.append((op_id, "table incomplete"))
                    continue
                errs = []
                for n, (U, _), (_, rep, _) in zip(CELLS, res.solves,
                                                  res.value):
                    msgs, e = self._check_run(f"{n} cells", case, U, rep.l1,
                                              1)
                    bad += [(op_id, m) for m in msgs]
                    errs.append(e)
                if None in errs or \
                        not all(b < a for a, b in zip(errs, errs[1:])):
                    bad.append((op_id, f"L1 did not fall over {CELLS}: "
                                       f"{errs}"))
            else:
                name, scheme, order = op_id.split("/")
                case = self.cases[name]
                U = res.solves[0][0]
                rep = res.value.errors.l1 if res.value.errors else None
                msgs, e = self._check_run(f"{case.n_cells} cells", case, U,
                                          rep, int(order[1]))
                bad += [(op_id, m) for m in msgs]
                l1[(name, scheme, order)] = e
        for (name, scheme, order), e in l1.items():
            if order == "o2" and e is not None:
                e1 = l1.get((name, scheme, "o1"))
                if e1 is not None and not e <= e1 + 1e-12:
                    bad.append((f"{name}/{scheme}/o2",
                                f"order 2 L1 {e:.4e} above order 1 "
                                f"{e1:.4e}"))
        return bad


# --------------------------------------------------------------------------
# wedge2d

WEDGE = {"grid": (400, 400), "t_final": 0.0047, "x_min": 0.0, "x_max": 2.0,
         "height": 1.5, "ramp_start": 0.5, "angle_deg": 30.0,
         "shock_x": 0.25, "mach": 5.5, "pre": (1.4, 0.0, 0.0, 1.0)}


def wedge_mass_balance(path, ni, nj, t):
    """Checks on a written wedge CSV: one row per cell at the expected
    centres, physical states, and total mass equal to the initial mass plus
    the inflow mass flux times t (nothing has reached another boundary)."""
    w = WEDGE
    bad = []
    try:
        csv_ni, csv_nj, data = oracles.read_csv_2d(path)
    except (OSError, ValueError) as err:
        return [f"unreadable CSV: {err}"]
    if (csv_ni, csv_nj) != (ni, nj) or data.shape[0] != ni * nj:
        return [f"CSV holds {data.shape[0]} rows for {csv_ni}x{csv_nj}, "
                f"expected {ni * nj}"]
    area, xc, yc = oracles.cell_areas_and_centres(*oracles.ramp_vertices(
        w["x_min"], w["x_max"], w["height"], ni, nj, w["ramp_start"],
        w["angle_deg"]))
    x, y, rho, p = (data[:, k].reshape(ni, nj) for k in (0, 1, 2, 5))
    if not (np.max(np.abs(x - xc)) <= 1e-12
            and np.max(np.abs(y - yc)) <= 1e-12):
        bad.append("cell centres differ from the wedge grid")
    if not finite_positive(rho, p):
        bad.append("non-finite or non-positive rho or p")
    r1, _, _, p1 = w["pre"]
    r2, u2, _ = oracles.normal_shock_post(w["mach"], r1, p1)
    rho0 = np.where(xc < w["shock_x"], r2, r1)
    inflow_length = w["height"]            # the ramp starts downstream
    want = float(np.sum(rho0 * area)) + r2 * u2 * inflow_length * t
    got = float(np.sum(rho * area))
    if not abs(got - want) <= 1e-12 * want:
        bad.append(f"mass {got!r} vs balance {want!r} "
                   f"(relative {abs(got - want) / want:.2e})")
    return bad


class Wedge2D:
    """The CLI run of the wedge case on its 400x400 grid, writing a CSV."""

    name = "wedge2d"
    known_faults = {}

    def __init__(self, seed, out_dir):
        self.path = str(out_dir / "wedge2d.csv")

    def ops(self):
        ni, nj = WEDGE["grid"]
        argv = ["run", "--case", "wedge", "--grid", f"{ni}x{nj}",
                "--order", "1", "--t-final", repr(WEDGE["t_final"]),
                "--out", self.path]

        def run():
            code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"cpsfds run exited with {code}")
            return self.path

        return [Op("wedge/cli", run,
                   _setup_2d(euler2d.wedge_case(), WEDGE["grid"]))]

    def check(self, results):
        res = results["wedge/cli"]
        if res.error is not None:
            return []
        ni, nj = WEDGE["grid"]
        return [("wedge/cli", m)
                for m in wedge_mass_balance(self.path, ni, nj,
                                            WEDGE["t_final"])]


# --------------------------------------------------------------------------
# steady2d

REFLECTION = {"mach": 2.9, "beta_deg": 29.0, "p1": 1.0 / oracles.GAMMA,
              "domain": (3.0, 1.0), "grid": (120, 40), "o2_t_final": 0.3}
# Sample points inside each settled region of the regular reflection: the
# incident shock meets the wall at x = 1/tan(29 deg) = 1.80 and the
# reflected shock leaves it at 23.3 deg, so (1.80, 0.5) lies between the
# shocks and (2.8, 0.1) lies 0.33 below the reflected shock.  At order 2
# only the corner region near the inflow has settled by t = 0.3;
# (0.35, 0.92) lies 0.11 above the incident shock.
REGION2_POINT = (1.0 / math.tan(math.radians(29.0)), 0.5)
REGION3_POINT = (2.8, 0.1)
INFLOW_POINT = (0.35, 0.92)
HALF_CYLINDER_MACH = 6.0


def _setup_2d(case, shape):
    def build():
        grid = case.grid_factory(*shape)
        fields = case.init(grid.xc, grid.yc)
        euler2d.prim_to_cons_fields(
            *(np.broadcast_to(np.asarray(q, dtype=float), grid.xc.shape)
              for q in fields), GAS.gamma)
    return build


def _cell(point, shape, domain):
    """Index of the Cartesian cell holding point."""
    return tuple(min(int(c / (d / n)), n - 1)
                 for c, n, d in zip(point, shape, domain))


def reflection_checks(U, t, t_final, order):
    """Steady stop and oblique-shock pressures of a reflection run."""
    r = REFLECTION
    p = oracles.pressure_2d(U)
    if not finite_positive(U[0], p):
        return ["non-finite or non-positive rho or p"]
    p2, p3 = oracles.regular_reflection_pressures(r["mach"], r["beta_deg"],
                                                  r["p1"])
    bad = []
    if order == 1:
        if not t < t_final:
            bad.append(f"reached t_final {t_final} without steady_drop")
        probes = ((REGION2_POINT, p2), (REGION3_POINT, p3))
    else:
        probes = ((INFLOW_POINT, p2),)
    for point, want in probes:
        got = float(p[_cell(point, r["grid"], r["domain"])])
        if not abs(got - want) <= 5e-3 * want:
            bad.append(f"p at {point} is {got:.5f}, oblique-shock theory "
                       f"{want:.5f}")
    return bad


def half_cylinder_checks(U):
    """Stagnation-line pressure: monotone behind the bow shock and close to
    the Rayleigh pitot value at the body."""
    p = oracles.pressure_2d(U)
    if not finite_positive(U[0], p):
        return ["non-finite or non-positive rho or p"]
    ni, nj = p.shape
    line = p[:, nj // 2]        # nj is odd: the middle row is on y = 0
    bad = []
    drop = float(np.min(np.diff(line)))
    if not drop >= -1e-9 * float(line.max()):
        bad.append(f"stagnation-line pressure falls by {-drop:.3e} "
                   f"toward the body")
    pitot = oracles.rayleigh_pitot(HALF_CYLINDER_MACH, 1.0)
    if not abs(line[-1] - pitot) <= 0.03 * pitot:
        bad.append(f"body stagnation pressure {line[-1]:.3f}, "
                   f"Rayleigh pitot {pitot:.3f}")
    return bad


class Steady2D:
    """Steady shock reflection, the M6 half cylinder, and a short
    second-order reflection run."""

    name = "steady2d"
    known_faults = {}

    def __init__(self, seed, out_dir):
        pass

    def ops(self):
        r = REFLECTION
        return [
            Op("reflection/o1",
               lambda: euler2d.run_case_2d(euler2d.shock_reflection_case(),
                                           GAS),
               _setup_2d(euler2d.shock_reflection_case(), r["grid"])),
            Op("half-cylinder/o1",
               lambda: euler2d.run_case_2d(
                   euler2d.half_cylinder_case(HALF_CYLINDER_MACH), GAS),
               _setup_2d(euler2d.half_cylinder_case(HALF_CYLINDER_MACH),
                         (45, 45))),
            Op("reflection/o2",
               lambda: euler2d.run_case_2d(euler2d.shock_reflection_case(),
                                           GAS, order=2,
                                           t_final=r["o2_t_final"]),
               _setup_2d(euler2d.shock_reflection_case(), r["grid"])),
        ]

    def check(self, results):
        bad = []
        for op_id, res in results.items():
            if res.error is not None:
                continue
            _, U, log = res.value
            if op_id == "half-cylinder/o1":
                msgs = half_cylinder_checks(U)
            else:
                order = int(op_id[-1])
                t_final = euler2d.shock_reflection_case().t_final \
                    if order == 1 else REFLECTION["o2_t_final"]
                msgs = reflection_checks(U, log.t, t_final, order)
            bad += [(op_id, m) for m in msgs]
        return bad


WORKLOADS = {w.name: w for w in (Sweep1D, Wedge2D, Steady2D)}
