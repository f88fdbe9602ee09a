"""End-to-end acceptance criteria for the solver library.

Each criterion emits exactly one PASS/FAIL line per clause (echoed in the
terminal summary) and then asserts.  Criteria 1 and 2 assert on the records
of `cpsfds.checks.algebra`, the ones `cpsfds verify algebra` prints.  The
heavy 2D runs live in criterion 9, whose 400x400 wedge run takes about a
minute, most of the file's time.
"""

import math

import numpy as np
import pytest

import conftest

from cpsfds import bench1d, checks, exact_riemann
from cpsfds.bench1d import (get_case, run_case, convergence_table,
                            fan_jump_ratio)
from cpsfds.euler2d import (Prim2D, BoundarySpec, Bc2DKind,
                            cartesian_grid, half_cylinder_grid,
                            prim_to_cons_fields, cons_to_prim_fields,
                            advance_2d, residual_2d, run_case_2d,
                            shock_reflection_case, wedge_case,
                            half_cylinder_case, stagnation_line_pressure)
from cpsfds.fds1d import SchemeKind
from cpsfds.solver1d import (Grid1D, ReconstructionConfig, SolverBlowUp,
                             TimeControls, _residual, compute_dt, initialize)
from cpsfds.state import GasModel, cons_to_prim_arrays

GAS = GasModel(1.4)
SCHEMES = list(SchemeKind)
SEED = 1234


def report(num, clause, ok, detail):
    line = (f"criterion {num}{clause}: "
            f"{'PASS' if ok else 'FAIL'} — {detail}")
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    return ok


# --------------------------------------------------------------------------
# 1 and 2. the records of the algebra suite, which `cpsfds verify` prints

JUMP = "steady-shock jump identity"


@pytest.fixture(scope="module")
def algebra():
    return checks.algebra(SEED)


def test_criterion_1_algebraic_suite(algebra):
    records = [c for c in algebra if c.name != JUMP]
    ok = all(c.ok for c in records)
    detail = ", ".join(f"{c.name} {c.worst:.1e}" for c in records)
    assert report(1, " (algebraic suite)", ok, detail)


def test_criterion_2_energy_jump_identity(algebra):
    jump, = (c for c in algebra if c.name == JUMP)
    wl, wr = bench1d.steady_shock_states(1000.0, GAS)
    ratio = wr.rho / wl.rho
    ok = jump.ok and abs(ratio - 6.0) <= 1e-2
    assert report(2, " (energy-jump identity)", ok,
                  f"max scaled residual {jump.worst:.1e} over M = "
                  f"{checks.SHOCK_MACHS[0]}..{checks.SHOCK_MACHS[-1]}, "
                  f"density ratio at M=1000 is {ratio:.4f}")


# --------------------------------------------------------------------------
# 3. smooth-advection convergence

SMOOTH_GRIDS = (40, 80, 160, 320, 640)
SMOOTH_EOC_TARGETS = (1.018, 0.9693, 0.9935)       # L1, L2, Linf
SMOOTH_L1_ANCHORS = {40: 0.004476, 640: 0.000308}  # published error levels


@pytest.fixture(scope="module")
def smooth_tables():
    case = get_case("smooth")
    return {scheme: convergence_table(case, scheme, SMOOTH_GRIDS)
            for scheme in SCHEMES}


def test_criterion_3_smooth_eoc(smooth_tables):
    ok = True
    details = []
    for scheme, rows in smooth_tables.items():
        orders = rows[-1][2]
        for got, want in zip(orders, SMOOTH_EOC_TARGETS):
            ok = ok and abs(got - want) <= 0.10
        details.append(f"{scheme.value}: "
                       + "/".join(f"{o:.4f}" for o in orders))
    assert report(3, "a (smooth EOC, finest pair)", ok, "; ".join(details))


def _scalar_upwind_l1(case, n_cells, gamma):
    """L1 density error of scalar first-order upwinding of the entropy wave.

    With u and p uniform both schemes' pressure strengths vanish and their
    convection dissipation is |u| dU, so the mass update is exactly
    rho_j <- rho_j - nu (rho_j - rho_upwind).  The step follows the solver's
    CFL rule on the current density, the last step clamped to t_final; the
    reference is the initial profile translated by u t_final.
    """
    length = case.x_max - case.x_min
    dx = length / n_cells
    x = case.x_min + (np.arange(n_cells) + 0.5) * dx
    rho, u, p = (np.broadcast_to(np.asarray(q, dtype=float), x.shape)
                 for q in case.initial_profile(x))
    u0, p0 = float(u[0]), float(p[0])
    assert np.all(u == u0) and np.all(p == p0), "oracle needs uniform u, p"
    shift = 1 if u0 > 0.0 else -1
    t = 0.0
    while t < case.t_final:
        dt = case.cfl * dx / float(np.max(abs(u0) + np.sqrt(gamma * p0 / rho)))
        dt = min(dt, case.t_final - t)
        rho = rho - abs(u0) * dt / dx * (rho - np.roll(rho, shift))
        t += dt
    exact, _, _ = case.initial_profile(
        case.x_min + np.mod(x - u0 * case.t_final - case.x_min, length))
    return float(np.sum(np.abs(rho - exact)) * dx)


def test_criterion_3_smooth_absolute_l1(smooth_tables):
    """Absolute first-order L1 errors on the smooth entropy wave.

    On this case du = dp = 0, the generalized eigenvectors make no direct
    contribution and the pressure waves carry no strength, so both schemes
    are exactly scalar first-order upwinding of rho.  The absolute error is
    therefore fixed by the method and is checked against an independent
    scalar-upwind oracle on every grid.

    The published anchors are only reported: the program gives 0.64x and
    0.59x of them at 40 and 640 cells.  The anchors refine by 14.5 over
    this range, while first-order upwinding of this profile refines by
    about 15.9 at every t_final in 0.1-4.0 and CFL in 0.2-1.0 tried, so no
    set-up of this discretization reproduces both anchors.
    """
    case = get_case("smooth")
    ok = True
    details = []
    for scheme, rows in smooth_tables.items():
        for (cells, err, _) in rows:
            want = _scalar_upwind_l1(case, cells, GAS.gamma)
            dev = abs(err.l1 - want) / want
            ok = ok and dev <= 1e-10
            detail = f"{scheme.value}@{cells}: L1={err.l1:.6f} (dev {dev:.0e}"
            if cells in SMOOTH_L1_ANCHORS:
                detail += f", {err.l1 / SMOOTH_L1_ANCHORS[cells]:.2f}x anchor"
            details.append(detail + ")")
    assert report(3, "b (smooth absolute L1 vs scalar upwind)", ok,
                  "; ".join(details))


# --------------------------------------------------------------------------
# 4. Riemann-problem error trends

RIEMANN_L1_ANCHORS = {
    ("sod", SchemeKind.ZBS_FDS): 0.101461,
    ("sod", SchemeKind.TVS_FDS): 0.114140,
    ("sonic", SchemeKind.ZBS_FDS): 0.008396,
    ("sonic", SchemeKind.TVS_FDS): 0.007822,
    ("strong-shock", SchemeKind.ZBS_FDS): 0.088449,
    ("strong-shock", SchemeKind.TVS_FDS): 0.092496,
}


def test_criterion_4_riemann_error_trends():
    ok = True
    details = []
    for name in ("sod", "sonic", "strong-shock"):
        case = get_case(name)
        for scheme in SCHEMES:
            rows = convergence_table(case, scheme, SMOOTH_GRIDS)
            l1 = [r[1].l1 for r in rows]
            l2 = [r[1].l2 for r in rows]
            decreasing = (all(a > b for a, b in zip(l1, l1[1:]))
                          and all(a > b for a, b in zip(l2, l2[1:])))
            ratio = l1[-1] / RIEMANN_L1_ANCHORS[(name, scheme)]
            ok = ok and decreasing and 0.5 <= ratio <= 2.0
            details.append(f"{name}/{scheme.value}: "
                           f"decreasing={decreasing}, "
                           f"L1@640={l1[-1]:.6f} ({ratio:.2f}x)")
    assert report(4, " (Riemann error trends)", ok, "; ".join(details))


# --------------------------------------------------------------------------
# 5. stationary contact

def test_criterion_5_stationary_contact():
    case = get_case("contact")
    ok = True
    details = []
    for scheme in SCHEMES:
        res = run_case(case, scheme)
        rho0, _, _ = case.initial_profile(res.x)
        dev = float(np.max(np.abs(res.rho - rho0)))
        ok = ok and res.steps >= 100 and dev <= 1e-12
        details.append(f"{scheme.value}: {res.steps} steps, "
                       f"max density deviation {dev:.1e}")
    assert report(5, " (stationary contact)", ok, "; ".join(details))


# --------------------------------------------------------------------------
# 6. sonic-point entropy behavior

def test_criterion_6_sonic_point_entropy():
    case = get_case("sonic")
    star = exact_riemann.solve_star(case.left, case.right, GAS)
    g = GAS.gamma
    aL = math.sqrt(g * case.left.p / case.left.rho)
    a_star = aL * (star.p_star / case.left.p) ** ((g - 1.0) / (2.0 * g))
    lo = case.x0 + (case.left.u - aL) * case.t_final
    hi = case.x0 + (star.u_star - a_star) * case.t_final
    dx = (case.x_max - case.x_min) / case.n_cells
    ok = True
    details = []
    for scheme in SCHEMES:
        res = run_case(case, scheme)
        ratio = fan_jump_ratio(res.rho, res.x, lo + 2 * dx, hi - 2 * dx)
        ok = ok and ratio <= 5.0
        details.append(f"{scheme.value}: fan jump ratio {ratio:.2f}")
    assert report(6, " (transonic fan, no entropy fix)", ok,
                  "; ".join(details))


# --------------------------------------------------------------------------
# 7. blast-wave robustness

def test_criterion_7_blast_zbs_completes():
    case = get_case("blast")
    res = run_case(case, SchemeKind.ZBS_FDS)
    ok = res.rho.min() > 0.0 and res.p.min() > 0.0
    assert report(7, "a (blast: first scheme completes)", ok,
                  f"{res.steps} steps, rho in "
                  f"[{res.rho.min():.3f}, {res.rho.max():.3f}]")


def test_criterion_7_blast_tvs_blows_up():
    """The asymmetric outcome: the second scheme is expected to terminate
    with a blow-up diagnostic on this case.

    Fails: the first-order TVS run completes at 400, 800 and 3000 cells and
    at CFL 0.5, 0.8, 0.9 and 1.0.  Its minimum pressure never drops below
    the initial 0.01 and its minimum density (about 0.15) matches ZBS.  The
    TVS kernel equals R_c|L_c|R_c^-1 dU + sum_i alpha_i |lambda_i| R_i
    assembled from the splitting eigensystems at the averaged state (see
    tests/test_fds1d.py), so the flux is the scheme its eigenstructure
    defines.  At second order both schemes stop at the same step and cell
    with a non-positive reconstructed pressure, a reconstruction defect
    shared by both schemes.  Without the paper's formulas and set-up a
    difference in either can be neither confirmed nor excluded, so the
    clause keeps its assertion.
    """
    case = get_case("blast")
    try:
        res = run_case(case, SchemeKind.TVS_FDS)
        ok = False
        detail = f"run completed ({res.steps} steps) instead of diverging"
    except SolverBlowUp as err:
        ok = True
        detail = f"blow-up as expected: {err}"
    assert report(7, "b (blast: second scheme diverges)", ok, detail)


# --------------------------------------------------------------------------
# 8. shock-entropy interaction, second order

@pytest.mark.slow
def test_criterion_8_shock_entropy_second_order():
    case = get_case("shock-entropy")
    ref = run_case(case, SchemeKind.ZBS_FDS, order=2, n_cells=6400)
    rho_ref = ref.rho.reshape(case.n_cells, -1).mean(axis=1)
    dx = (case.x_max - case.x_min) / case.n_cells
    d = {}
    for order in (1, 2):
        res = run_case(case, SchemeKind.ZBS_FDS, order=order)
        d[order] = float(np.sum(np.abs(res.rho - rho_ref)) * dx)
    ok = d[2] > 0.0 and d[1] >= 2.0 * d[2]
    assert report(8, " (shock-entropy, 2nd order)", ok,
                  f"L1 distance to fine reference: order1 {d[1]:.5f}, "
                  f"order2 {d[2]:.5f} ({d[1] / d[2]:.1f}x better)")


# --------------------------------------------------------------------------
# 9. two-dimensional substitute properties

def _free_stream_drift():
    grid = half_cylinder_grid(15, 21)
    free = Prim2D(1.4, 2.0, 0.3, 1.0)
    shape = grid.xc.shape
    U0 = prim_to_cons_fields(
        np.full(shape, free.rho), np.full(shape, free.u),
        np.full(shape, free.v), np.full(shape, free.p), GAS.gamma)
    bc = {k: BoundarySpec(Bc2DKind.SUPERSONIC_INFLOW, free)
          for k in ("imin", "imax", "jmin", "jmax")}
    U, _ = advance_2d(U0, grid, bc, ReconstructionConfig(1),
                      TimeControls(0.1, cfl=0.5), GAS)
    return float(np.max(np.abs(U - U0)) / np.max(np.abs(U0)))


def _embedding_drift():
    """1D scheme vs the 2D solver on an x-aligned strip, same dt sequence."""
    case = get_case("sod")
    g1 = Grid1D(case.x_min, case.x_max, 100)
    U1 = initialize(g1, case.initial_profile, GAS)
    recon = ReconstructionConfig(1)
    bc1 = case.bc

    g2 = cartesian_grid(case.x_min, case.x_max, 0.0, 0.8, 100, 4)
    rho, u, p = case.initial_profile(g2.xc)
    U2 = prim_to_cons_fields(np.broadcast_to(rho, g2.xc.shape),
                             np.broadcast_to(u, g2.xc.shape),
                             np.zeros_like(g2.xc),
                             np.broadcast_to(p, g2.xc.shape), GAS.gamma)
    out = BoundarySpec(Bc2DKind.SUPERSONIC_OUTFLOW)
    wall = BoundarySpec(Bc2DKind.SLIP_WALL)
    bc2 = {"imin": out, "imax": out, "jmin": wall, "jmax": wall}

    for _ in range(50):
        r, u, p = cons_to_prim_arrays(U1, GAS.gamma)
        dt = compute_dt(r, u, p, GAS, g1.dx, 0.5)
        U1 = U1 + dt * _residual(np.array([r, u, p]), SchemeKind.ZBS_FDS,
                                 bc1, recon, g1.dx, GAS)
        U2 = U2 + dt * residual_2d(cons_to_prim_fields(U2, GAS.gamma), g2,
                                   bc2, recon, GAS)
    diff = max(
        float(np.max(np.abs(U2[0] - U1[0][:, None]))),
        float(np.max(np.abs(U2[1] - U1[1][:, None]))),
        float(np.max(np.abs(U2[2]))),
        float(np.max(np.abs(U2[3] - U1[2][:, None]))))
    return diff / float(np.max(np.abs(U1)))


@pytest.mark.slow
def test_criterion_9_two_dimensional_properties():
    checks = []

    drift = _free_stream_drift()
    checks.append(("free-stream", drift <= 1e-12, f"{drift:.1e}"))

    emb = _embedding_drift()
    checks.append(("1D embedding", emb <= 1e-12, f"{emb:.1e}"))

    grid, U, _ = run_case_2d(shock_reflection_case(), GAS,
                             grid_shape=(240, 80))
    _, _, _, p = cons_to_prim_fields(U, GAS.gamma)
    worst_dev = 0.0
    for (x, y) in ((0.9, 0.8), (1.0, 0.7), (1.2, 0.8), (1.4, 0.85)):
        i = int(np.argmin(np.abs(grid.xc[:, 0] - x)))
        j = int(np.argmin(np.abs(grid.yc[0, :] - y)))
        worst_dev = max(worst_dev, abs(p[i, j] - 1.52819) / 1.52819)
    checks.append(("reflection pressure", worst_dev <= 0.02,
                   f"dev {worst_dev:.2%}"))

    _, U, log = run_case_2d(wedge_case(), GAS)
    rho_min = float(U[0].min())
    checks.append(("wedge", rho_min > 0.0,
                   f"{log.steps} steps, min rho {rho_min:.3f}"))

    for mach, shape in ((6.0, (45, 45)), (20.0, (20, 320))):
        grid, U, log = run_case_2d(half_cylinder_case(mach=mach), GAS,
                                   grid_shape=shape)
        rho_min = float(U[0].min())
        ps = stagnation_line_pressure(grid, U, GAS)
        shock = int(np.argmax(np.abs(np.diff(ps))))
        monotone = bool(np.all(np.diff(ps[shock + 1:])
                               >= -1e-8 * np.max(ps)))
        checks.append((f"cylinder M{mach:g}",
                       rho_min > 0.0 and monotone,
                       f"min rho {rho_min:.3f}, "
                       f"stagnation-line monotone={monotone}"))

    ok = all(c[1] for c in checks)
    detail = "; ".join(f"{name} {'ok' if good else 'BAD'} ({info})"
                       for name, good, info in checks)
    assert report(9, " (2D substitute properties)", ok, detail)
