"""2D structured-grid solver: geometry, eigenstructure at a face, fluxes,
boundary conditions and the benchmark case registry."""

import math

import numpy as np
import pytest

from cpsfds import euler2d
from cpsfds.euler2d import (Prim2D, prim_to_cons_2d, FaceGeometry,
                            face_geometry, StructuredGrid2D, cartesian_grid,
                            ramp_grid, half_cylinder_grid, split_flux_2d,
                            convection_jacobian_2d, pressure_jacobian_2d,
                            convection_eigensystem_2d, pressure_eigensystem_2d,
                            averages_2d, wave_strengths_2d, interface_flux_2d,
                            DegenerateWaveBasisError, cons_to_prim_fields,
                            prim_to_cons_fields, Bc2DKind, BoundarySpec,
                            Controls2D, advance_2d, residual_2d,
                            post_shock_state,
                            case_registry_2d, half_cylinder_case, run_case_2d,
                            stagnation_line_pressure)
from cpsfds.solver1d import SolverBlowUp
from cpsfds.splittings import jordan_matrix, verify_jordan, \
    JordanDecomposition


def random_state_2d(rng) -> Prim2D:
    return Prim2D(10.0 ** rng.uniform(-1.5, 1.5), rng.uniform(-20, 20),
                  rng.uniform(-20, 20), 10.0 ** rng.uniform(-1.5, 3))


def random_normal(rng) -> FaceGeometry:
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return FaceGeometry(math.cos(phi), math.sin(phi), 1.0)


def test_face_geometry_normal_points_right_of_traversal():
    g = face_geometry((0.0, 0.0), (0.0, 2.0))
    assert (g.n_x, g.n_y, g.ds) == pytest.approx((1.0, 0.0, 2.0))
    with pytest.raises(ValueError):
        face_geometry((1.0, 1.0), (1.0, 1.0))


def test_cartesian_grid_geometry():
    g = cartesian_grid(0.0, 2.0, 0.0, 1.0, 8, 4)
    assert (g.ni, g.nj) == (8, 4)
    np.testing.assert_allclose(g.area, 0.25 * 0.25)
    np.testing.assert_allclose(g.iface_nx, 1.0)
    np.testing.assert_allclose(g.iface_ny, 0.0, atol=1e-15)
    np.testing.assert_allclose(g.jface_nx, 0.0, atol=1e-15)
    np.testing.assert_allclose(g.jface_ny, 1.0)
    assert np.sum(g.area) == pytest.approx(2.0)


def test_grid_rejects_inverted_cells():
    x = np.array([[0.0, 0.0], [1.0, 1.0]])
    y = np.array([[0.0, 1.0], [0.0, 1.0]])
    StructuredGrid2D(x, y)                      # fine as given
    with pytest.raises(ValueError):
        StructuredGrid2D(x.T, y.T)              # reversed orientation


def test_ramp_and_cylinder_grids_are_valid():
    ramp = ramp_grid(0.0, 3.0, 1.0, 30, 10, 0.5, 15.0)
    assert (ramp.area > 0.0).all()
    # bottom boundary follows the wedge beyond the ramp start
    i = 25
    x = ramp.xv[i, 0]
    assert ramp.yv[i, 0] == pytest.approx(
        (x - 0.5) * math.tan(math.radians(15.0)))
    cyl = half_cylinder_grid(20, 24)
    assert (cyl.area > 0.0).all()
    # body side sits on the unit circle
    r = np.hypot(cyl.xv[-1, :], cyl.yv[-1, :])
    np.testing.assert_allclose(r, 1.0, rtol=1e-12)
    with pytest.raises(ValueError):
        ramp_grid(0.0, 10.0, 1.0, 30, 10, 0.5, 15.0)


def test_split_flux_2d_sums_to_normal_euler_flux(gas, rng):
    for _ in range(50):
        w = random_state_2d(rng)
        geom = random_normal(rng)
        sf = split_flux_2d(w, geom, gas)
        up = w.u * geom.n_x + w.v * geom.n_y
        rE = w.p / (gas.gamma - 1.0) + 0.5 * w.rho * (w.u ** 2 + w.v ** 2)
        F = np.array([w.rho * up, w.rho * w.u * up + w.p * geom.n_x,
                      w.rho * w.v * up + w.p * geom.n_y, (rE + w.p) * up])
        np.testing.assert_allclose(sf.total, F, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(F)))


@pytest.mark.parametrize("part", ["convection", "pressure"])
def test_2d_jacobians_match_finite_differences(part, gas, rng):
    for _ in range(10):
        w = random_state_2d(rng)
        geom = random_normal(rng)
        if part == "convection":
            A = convection_jacobian_2d(w, geom, gas)
            pick = lambda sf: sf.convection
        else:
            A = pressure_jacobian_2d(w, geom, gas)
            pick = lambda sf: sf.pressure
        U0 = prim_to_cons_2d(w, gas)

        def f(U):
            g = gas.gamma
            rho = U[0]
            u, v = U[1] / rho, U[2] / rho
            p = (g - 1.0) * (U[3] - 0.5 * (U[1] ** 2 + U[2] ** 2) / rho)
            return pick(split_flux_2d(Prim2D(rho, u, v, p), geom, gas))

        num = np.empty((4, 4))
        scale = np.maximum(np.abs(U0), 1.0)
        for j in range(4):
            h = 1e-6 * scale[j]
            Up, Um = U0.copy(), U0.copy()
            Up[j] += h
            Um[j] -= h
            num[:, j] = (f(Up) - f(Um)) / (2.0 * h)
        np.testing.assert_allclose(A, num, rtol=5e-5,
                                   atol=5e-5 * np.max(np.abs(A)))


def test_2d_convection_jordan_chain_and_free_parameters(gas, rng):
    for _ in range(30):
        w = random_state_2d(rng)
        geom = random_normal(rng)
        A = convection_jacobian_2d(w, geom, gas)
        es = convection_eigensystem_2d(w, geom, gas,
                                       x1=rng.uniform(-2, 2),
                                       xt=rng.uniform(-2, 2),
                                       x4=rng.uniform(-2, 2))
        scale = max(np.max(np.abs(A)), 1.0)
        J = jordan_matrix(es.eigenvalues, es.chain_links)
        resid = verify_jordan(A, JordanDecomposition(es.vectors, J))
        assert resid <= 1e-10 * scale


def test_2d_pressure_eigensystem_relations(gas, rng):
    for _ in range(30):
        w = random_state_2d(rng)
        geom = random_normal(rng)
        B = pressure_jacobian_2d(w, geom, gas)
        es = pressure_eigensystem_2d(w, geom, gas)
        scale = max(np.max(np.abs(B)), 1.0)
        resid = B @ es.vectors - es.vectors * es.eigenvalues[None, :]
        assert np.max(np.abs(resid)) <= 1e-10 * scale


def test_wave_strengths_reconstruct_the_conserved_jump(gas, rng):
    for _ in range(100):
        wL, wR = random_state_2d(rng), random_state_2d(rng)
        geom = random_normal(rng)
        avg = averages_2d(wL, wR, geom, gas)
        drho = wR.rho - wL.rho
        du, dv = wR.u - wL.u, wR.v - wL.v
        dup = du * geom.n_x + dv * geom.n_y
        dupar = -du * geom.n_y + dv * geom.n_x
        dp = wR.p - wL.p
        try:
            al = wave_strengths_2d(avg, drho, dup, dupar, dp, gas,
                                   regularize=False)
        except DegenerateWaveBasisError:
            continue
        w_avg = Prim2D(avg.rho_bar, avg.u_bar, avg.v_bar,
                       avg.rho_bar * avg.a2_bar / gas.gamma)
        R = pressure_eigensystem_2d(w_avg, geom, gas).vectors
        dU = np.array([
            drho,
            avg.rho_bar * du + avg.u_bar * drho,
            avg.rho_bar * dv + avg.v_bar * drho,
            dp / (gas.gamma - 1.0) + avg.theta2 * drho
            + avg.rho_bar * (avg.u_bar * du + avg.v_bar * dv)])
        scale = max(np.max(np.abs(dU)),
                    float(np.sum(np.abs(al) * np.max(np.abs(R), axis=0))),
                    1.0)
        assert np.max(np.abs(R @ al - dU)) <= 1e-9 * scale


def test_wave_strengths_stagnant_state_regularization(gas):
    geom = FaceGeometry(1.0, 0.0, 1.0)
    wL = Prim2D(1.0, 0.0, 0.0, 1.0)
    wR = Prim2D(0.5, 0.0, 0.0, 1.0)
    avg = averages_2d(wL, wR, geom, gas)
    with pytest.raises(DegenerateWaveBasisError):
        wave_strengths_2d(avg, -0.5, 0.0, 0.0, 0.0, gas, regularize=False)
    al = wave_strengths_2d(avg, -0.5, 0.0, 0.0, 0.0, gas)
    np.testing.assert_allclose(al, [0.0, 0.0, -0.5, 0.0], atol=1e-14)


@pytest.mark.parametrize("x1,xt,x4", [(-3.0, 0.5, 2.0), (0.7, -1.3, -0.4)])
def test_flux_kernel_matches_the_eigenstructure(x1, xt, x4, gas, rng):
    """The kernel is 0.5 (F_L + F_R) - 0.5 (R_c|L_c|R_c^-1 dU + sum_i
    alpha_i |lambda_i| R_i), assembled from the face eigensystems at the
    averaged state, times the face length.  The free constants of the
    generalized eigenvector must leave no trace."""
    for _ in range(200):
        wL, wR = random_state_2d(rng), random_state_2d(rng)
        geom = random_normal(rng)
        ds = rng.uniform(0.1, 10.0)
        avg = averages_2d(wL, wR, geom, gas)
        du, dv = wR.u - wL.u, wR.v - wL.v
        try:
            alpha = wave_strengths_2d(
                avg, wR.rho - wL.rho, du * geom.n_x + dv * geom.n_y,
                -du * geom.n_y + dv * geom.n_x, wR.p - wL.p, gas,
                regularize=False)
        except DegenerateWaveBasisError:
            continue
        w_avg = Prim2D(avg.rho_bar, avg.u_bar, avg.v_bar,
                       avg.rho_bar * avg.a2_bar / gas.gamma)
        dU = prim_to_cons_2d(wR, gas) - prim_to_cons_2d(wL, gas)
        conv = convection_eigensystem_2d(w_avg, geom, gas, x1=x1, xt=xt,
                                         x4=x4)
        beta = np.linalg.solve(conv.vectors, dU)
        press = pressure_eigensystem_2d(w_avg, geom, gas)
        dissipation = conv.vectors @ (np.abs(conv.eigenvalues) * beta) \
            + press.vectors @ (np.abs(press.eigenvalues) * alpha)
        FL = split_flux_2d(wL, geom, gas).total
        FR = split_flux_2d(wR, geom, gas).total
        want = ds * (0.5 * (FL + FR) - 0.5 * dissipation)
        got = euler2d._flux_2d_kernel(
            *(np.array([q]) for q in (wL.rho, wL.u, wL.v, wL.p,
                                      wR.rho, wR.u, wR.v, wR.p)),
            geom.n_x, geom.n_y, gas.gamma, np.array([ds]))[:, 0]
        speed = abs(avg.u_perp) + avg.a_bar
        scale = ds * max(
            np.max(np.abs(FL)), np.max(np.abs(FR)),
            np.max(np.abs(conv.vectors) @ np.abs(avg.u_perp * beta)),
            np.max(np.abs(press.vectors) @ np.abs(speed * alpha)))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)


def test_interface_flux_2d_consistency_and_rotation(gas, rng):
    for _ in range(50):
        w = random_state_2d(rng)
        geom = random_normal(rng)
        F = interface_flux_2d(w, w, geom, gas)
        np.testing.assert_allclose(F, split_flux_2d(w, geom, gas).total,
                                   rtol=1e-12,
                                   atol=1e-12 * max(np.max(np.abs(F)), 1.0))


def test_interface_flux_reduces_to_1d_along_the_x_axis(gas, rng):
    from cpsfds.fds1d import SchemeKind, interface_flux
    from cpsfds.state import PrimitiveState
    geom = FaceGeometry(1.0, 0.0, 1.0)
    for _ in range(50):
        rL, uL, pL = 10.0 ** rng.uniform(-1, 1), rng.uniform(-5, 5), \
            10.0 ** rng.uniform(-1, 1)
        rR, uR, pR = 10.0 ** rng.uniform(-1, 1), rng.uniform(-5, 5), \
            10.0 ** rng.uniform(-1, 1)
        F2 = interface_flux_2d(Prim2D(rL, uL, 0.0, pL),
                               Prim2D(rR, uR, 0.0, pR), geom, gas)
        F1 = interface_flux(SchemeKind.ZBS_FDS, PrimitiveState(rL, uL, pL),
                            PrimitiveState(rR, uR, pR), gas)
        np.testing.assert_allclose(F2[[0, 1, 3]], F1, rtol=1e-12,
                                   atol=1e-12 * max(np.max(np.abs(F1)), 1.0))
        assert F2[2] == pytest.approx(0.0, abs=1e-12)


def test_free_stream_is_preserved_on_a_curvilinear_grid(gas):
    grid = half_cylinder_grid(12, 16)
    free = Prim2D(1.4, 2.0, 0.3, 1.0)
    shape = grid.xc.shape
    U0 = prim_to_cons_fields(np.full(shape, free.rho), np.full(shape, free.u),
                             np.full(shape, free.v), np.full(shape, free.p),
                             gas.gamma)
    bc = {k: BoundarySpec(Bc2DKind.SUPERSONIC_INFLOW, free)
          for k in ("imin", "imax", "jmin", "jmax")}
    U, log = advance_2d(U0, grid, bc, Controls2D(t_final=0.05, cfl=0.5), gas)
    assert log.steps >= 3
    assert np.max(np.abs(U - U0)) <= 1e-12 * np.max(np.abs(U0))


def test_residual_does_not_depend_on_the_flux_block_size(gas, monkeypatch):
    grid = half_cylinder_grid(12, 16)
    rng = np.random.default_rng(5)
    shape = grid.xc.shape
    U = prim_to_cons_fields(1.4 + 0.2 * rng.uniform(size=shape),
                            2.0 + 0.5 * rng.uniform(-1, 1, shape),
                            0.5 * rng.uniform(-1, 1, shape),
                            1.0 + 0.2 * rng.uniform(size=shape), gas.gamma)
    case = half_cylinder_case(mach=2.0)
    ctrl = Controls2D(t_final=1.0, order=2)
    W = cons_to_prim_fields(U, gas.gamma)
    ref = residual_2d(W, grid, case.bc, ctrl, gas)
    for faces in (1, 40, 10 ** 6):     # one face row, a few rows, one block
        monkeypatch.setattr(euler2d, "_BLOCK_FACES", faces)
        assert np.array_equal(residual_2d(W, grid, case.bc, ctrl, gas), ref)


def test_rotational_objectivity_quarter_turn(gas):
    n = 32
    gx = cartesian_grid(0.0, 1.0, 0.0, 0.125, n, 4)
    gy = cartesian_grid(0.0, 0.125, 0.0, 1.0, 4, n)
    zeros = np.zeros((n, 4))
    rho = np.where(gx.xc < 0.5, 1.0, 0.125)
    p = np.where(gx.xc < 0.5, 1.0, 0.1)
    Ux = prim_to_cons_fields(rho, zeros, zeros, p, gas.gamma)
    rho = np.where(gy.yc < 0.5, 1.0, 0.125)
    p = np.where(gy.yc < 0.5, 1.0, 0.1)
    Uy = prim_to_cons_fields(rho, zeros.T, zeros.T, p, gas.gamma)
    out = BoundarySpec(Bc2DKind.SUPERSONIC_OUTFLOW)
    wall = BoundarySpec(Bc2DKind.SLIP_WALL)
    bcx = {"imin": out, "imax": out, "jmin": wall, "jmax": wall}
    bcy = {"imin": wall, "imax": wall, "jmin": out, "jmax": out}
    ctrl = Controls2D(t_final=0.1, cfl=0.5)
    Uxf, _ = advance_2d(Ux, gx, bcx, ctrl, gas)
    Uyf, _ = advance_2d(Uy, gy, bcy, ctrl, gas)
    rotated = np.stack([Uyf[0].T, Uyf[2].T, Uyf[1].T, Uyf[3].T])
    assert np.max(np.abs(Uxf - rotated)) <= 1e-12 * np.max(np.abs(Uxf))


def test_slip_walled_box_conserves_mass_and_energy(gas):
    grid = cartesian_grid(0.0, 1.0, 0.0, 1.0, 24, 24)
    rho = 1.0 + 0.2 * np.exp(-60.0 * ((grid.xc - 0.4) ** 2
                                      + (grid.yc - 0.55) ** 2))
    u = 0.3 * np.sin(np.pi * grid.xc) * np.cos(np.pi * grid.yc)
    v = -0.2 * np.cos(np.pi * grid.xc) * np.sin(np.pi * grid.yc)
    p = np.full_like(rho, 1.0)
    U0 = prim_to_cons_fields(rho, u, v, p, gas.gamma)
    bc = {k: BoundarySpec(Bc2DKind.SLIP_WALL)
          for k in ("imin", "imax", "jmin", "jmax")}
    U, _ = advance_2d(U0, grid, bc, Controls2D(t_final=0.2, cfl=0.5), gas)
    for comp in (0, 3):
        tot0 = float(np.sum(U0[comp] * grid.area))
        tot = float(np.sum(U[comp] * grid.area))
        assert abs(tot - tot0) <= 1e-12 * abs(tot0)


def test_post_shock_state_satisfies_jump_conditions(gas):
    pre = Prim2D(1.4, 0.0, 0.0, 1.0)
    ms = 5.5
    post = post_shock_state(ms, pre, gas, direction=(1.0, 0.0))
    g = gas.gamma
    a1 = math.sqrt(g * pre.p / pre.rho)
    s = ms * a1            # shock speed into quiescent gas
    # jump conditions in the shock frame
    m1 = pre.rho * s
    m2 = post.rho * (s - post.u)
    assert m2 == pytest.approx(m1, rel=1e-12)
    assert post.p + post.rho * (s - post.u) ** 2 == pytest.approx(
        pre.p + pre.rho * s ** 2, rel=1e-12)


def test_2d_case_registry_contents():
    names = {c.name for c in case_registry_2d()}
    assert names == {"shock-reflection", "ramp", "wedge", "half-cylinder"}


def test_half_cylinder_coarse_run_is_physical(gas):
    case = half_cylinder_case(mach=6.0)
    grid, U, log = run_case_2d(case, gas, grid_shape=(15, 15), t_final=0.5)
    rho, _, _, p = cons_to_prim_fields(U, gas.gamma)
    assert rho.min() > 0.0
    assert p.min() > 0.0
    ps = stagnation_line_pressure(grid, U, gas)
    assert ps.shape == (15,)


def test_second_order_half_cylinder_blows_up_at_the_wall_outflow_corner(gas):
    """Pins a known defect (ROADMAP item 4): at order 2 the default half
    cylinder (M6, 45x45) loses positivity in cell (44, 0), where the body
    slip wall meets the j-outflow boundary.  The diagnostic names the cell
    with plain integers.  A remedy for that item changes this test."""
    with pytest.raises(SolverBlowUp) as err:
        run_case_2d(half_cylinder_case(), gas, order=2)
    assert (err.value.step, err.value.cell) == (104, (44, 0))
    assert "cell (44, 0)" in str(err.value)
