"""2D structured-grid solver: geometry, eigenstructure at a face, fluxes,
boundary conditions and the benchmark case registry."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cpsfds import euler2d
from cpsfds.euler2d import (StructuredGrid2D, cartesian_grid, ramp_grid,
                            half_cylinder_grid, interface_flux_2d,
                            cons_to_prim_fields, prim_to_cons_fields,
                            Bc2DKind, BoundarySpec, advance_2d,
                            residual_2d, compute_dt_2d, post_shock_state,
                            case_registry_2d, half_cylinder_case, ramp_case,
                            run_case_2d, shock_reflection_case,
                            stagnation_line_pressure, wedge_case)
from cpsfds.solver1d import SolverBlowUp, TimeControls, muscl_reconstruct
from cpsfds.state import GasModel, NonPhysicalStateError, Prim2D, \
    PrimitiveState, check_faces, prim_to_cons_arrays
from cpsfds.splittings import (FaceGeometry, face_geometry, split_flux_2d,
                               convection_jacobian_2d, pressure_jacobian_2d,
                               convection_eigensystem_2d,
                               pressure_eigensystem_2d, verify_jordan)

from conftest import random_normal, random_state_2d, reference_march


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
    np.testing.assert_allclose(g.iface_half_ds, 0.5 * 0.25)
    np.testing.assert_allclose(g.jface_half_ds, 0.5 * 0.25)
    assert np.sum(g.area) == pytest.approx(2.0)


def test_grid_rejects_inverted_cells():
    x = np.array([[0.0, 0.0], [1.0, 1.0]])
    y = np.array([[0.0, 1.0], [0.0, 1.0]])
    StructuredGrid2D(x, y)                      # fine as given
    with pytest.raises(ValueError):
        StructuredGrid2D(x.T, y.T)              # reversed orientation


@pytest.mark.parametrize("ni,nj", [(0, 5), (5, 0)])
def test_grid_rejects_a_vertex_array_with_no_cells(ni, nj):
    """Raised before any geometry: an empty area array once gave h = nan
    and numpy's "Mean of empty slice" warning."""
    with pytest.raises(ValueError, match="at least one cell"):
        cartesian_grid(0.0, 1.0, 0.0, 1.0, ni, nj)


@pytest.mark.parametrize("xv,yv,message", [
    # vertices (1, 0) and (1, 1) coincide: j face (0, 1) has length 0
    ([[0.0, 1.0], [1.0, 1.0]], [[0.0, 1.0], [0.0, 1.0]],
     r"zero-length j face \(0, 1\)"),
    # vertices (0, 0) and (0, 1) coincide: i face (0, 0) has length 0
    ([[0.0, 0.0], [1.0, 1.0]], [[0.0, 0.0], [0.0, 1.0]],
     r"zero-length i face \(0, 0\)"),
    ([[0.0, 0.0], [1.0, np.nan]], [[0.0, 1.0], [0.0, 1.0]],
     "vertices must be finite"),
    ([[0.0, 0.0], [1.0, 1.0]], [[0.0, 1.0], [0.0, np.inf]],
     "vertices must be finite"),
])
def test_grid_rejects_degenerate_faces_and_non_finite_vertices(xv, yv,
                                                               message):
    """Each of the two cells with a zero-length face has area 0.5, so only
    the face check catches it; without it the face normal is nan."""
    with pytest.raises(ValueError, match=message):
        StructuredGrid2D(np.array(xv), np.array(yv))


def test_every_registered_grid_builds_with_unit_face_normals():
    for case in case_registry_2d():
        grid = case.grid_factory(*case.default_grid)
        for nx, ny in ((grid.iface_nx, grid.iface_ny),
                       (grid.jface_nx, grid.jface_ny)):
            np.testing.assert_allclose(np.hypot(nx, ny), 1.0, rtol=1e-14)


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


@pytest.mark.parametrize("build", [
    lambda n: ramp_grid(0.0, 3.0, 1.0, n, n, 0.5, 15.0),
    lambda n: half_cylinder_grid(n, n),
    lambda n: cartesian_grid(0.0, 1.0, 0.0, 1.0, n, n)],
    ids=["ramp", "half-cylinder", "cartesian"])
def test_grid_keeps_no_cell_centres(build):
    """A built grid holds fewer than 14.5 arrays of ni nj floats (16 with
    stored centres), and its centres are the vertex means, bit for bit."""
    import tracemalloc
    n = 200
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        grid = build(n)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (kept - before) / np.empty((n, n)).nbytes < 14.5
    for centre, v in ((grid.xc, grid.xv), (grid.yc, grid.yv)):
        assert np.array_equal(
            centre, 0.25 * (v[:-1, :-1] + v[1:, :-1] + v[1:, 1:] + v[:-1, 1:]))


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
        U0 = prim_to_cons_arrays(w, gas.gamma)

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


def test_2d_convection_basis_is_a_jordan_chain_for_any_free_parameters(
        gas, rng):
    for _ in range(30):
        w = random_state_2d(rng)
        geom = random_normal(rng)
        A = convection_jacobian_2d(w, geom, gas)
        es = convection_eigensystem_2d(w, geom, gas,
                                       x1=rng.uniform(-2, 2),
                                       xt=rng.uniform(-2, 2),
                                       x4=rng.uniform(-2, 2))
        scale = max(np.max(np.abs(A)), 1.0)
        resid = verify_jordan(A, es)
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


def test_interface_flux_2d_consistency_and_rotation(gas, rng):
    for _ in range(50):
        w = random_state_2d(rng)
        geom = random_normal(rng)
        F = interface_flux_2d(w, w, geom, gas)
        np.testing.assert_allclose(F, split_flux_2d(w, geom, gas).total,
                                   rtol=1e-12,
                                   atol=1e-12 * max(np.max(np.abs(F)), 1.0))


def test_interface_flux_2d_of_a_stack_equals_its_one_state_results(gas,
                                                                  rng):
    """Member by member, bit for bit, through faces of random normal and
    length: the flux is through the face, so one state's flux is ds times
    its flux through a face of unit length (halving ds is exact)."""
    wL, wR = random_state_2d(rng, (3, 4)), random_state_2d(rng, (3, 4))
    unit = random_normal(rng, (3, 4))
    geom = FaceGeometry(unit.n_x, unit.n_y, rng.uniform(0.1, 10.0, (3, 4)))
    F = interface_flux_2d(wL, wR, geom, gas)
    assert F.shape == (4, 3, 4)
    for k in np.ndindex(3, 4):
        pair = [Prim2D(*(q[k] for q in w)) for w in (wL, wR)]
        one = interface_flux_2d(*pair, FaceGeometry(*(q[k] for q in (
            geom.n_x, geom.n_y, geom.ds))), gas)
        assert np.array_equal(F[(slice(None), *k)], one)
        per_length = interface_flux_2d(*pair, FaceGeometry(
            geom.n_x[k], geom.n_y[k], 1.0), gas)
        assert np.array_equal(one, geom.ds[k] * per_length)


positive = st.floats(min_value=1e-2, max_value=1e2,
                     allow_nan=False, allow_infinity=False)
velocity = st.floats(min_value=-20.0, max_value=20.0,
                     allow_nan=False, allow_infinity=False)
angle = st.floats(min_value=0.0, max_value=2.0 * math.pi,
                  allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@example(left=(5.0, 0.0, 18.25, 1.0), right=(1.0, 0.0, 0.0, 1.0), phi=0.0,
         theta=1.0)          # no normal flux, large tangential energy
@given(left=st.tuples(positive, velocity, velocity, positive),
       right=st.tuples(positive, velocity, velocity, positive),
       phi=angle, theta=angle)
def test_interface_flux_2d_is_rotationally_invariant(left, right, phi, theta):
    """Turning both velocities and the normal by theta leaves the mass and
    energy fluxes alone and turns the momentum flux by theta."""
    gas = GasModel(1.4)
    c, s = math.cos(theta), math.sin(theta)

    def turn(x, y):
        return c * x - s * y, s * x + c * y

    def state(w, rotate):
        rho, u, v, p = w
        return Prim2D(rho, *(turn(u, v) if rotate else (u, v)), p)

    geom = FaceGeometry(math.cos(phi), math.sin(phi), 1.0)
    turned = FaceGeometry(*turn(geom.n_x, geom.n_y), 1.0)
    F = interface_flux_2d(state(left, False), state(right, False), geom, gas)
    G = interface_flux_2d(state(left, True), state(right, True), turned, gas)
    want = np.array([F[0], *turn(F[1], F[2]), F[3]])
    # rounding in u . n scales with the full speed, not with u_perp
    scale = max(np.max(np.abs(prim_to_cons_arrays(state(w, False),
                                                  gas.gamma)))
                * (math.hypot(w[1], w[2]) + math.sqrt(gas.gamma * w[3] / w[0]))
                + w[3] for w in (left, right))
    np.testing.assert_allclose(G, want, rtol=0, atol=1e-12 * scale)


def _cell_faces(grid, i, j):
    """The faces of cell (i, j), as vertex pairs, grouped by direction in
    the grid's orientation: its i faces (i, j) and (i + 1, j), then its j
    faces (i, j) and (i, j + 1)."""
    def vertex(a, b):
        return grid.xv[a, b], grid.yv[a, b]
    return (((vertex(i, j), vertex(i, j + 1)),
             (vertex(i + 1, j), vertex(i + 1, j + 1))),
            ((vertex(i + 1, j), vertex(i, j)),
             (vertex(i + 1, j + 1), vertex(i, j + 1))))


def _random_fields(rng, shape):
    return (10.0 ** rng.uniform(-1.0, 1.0, shape),
            rng.uniform(-5.0, 5.0, shape), rng.uniform(-5.0, 5.0, shape),
            10.0 ** rng.uniform(-1.0, 1.0, shape))


@pytest.mark.parametrize("grid", [half_cylinder_grid(9, 13),
                                  ramp_grid(0.0, 3.0, 1.0, 10, 7, 0.5, 15.0)],
                         ids=["half-cylinder", "ramp"])
def test_time_step_matches_a_face_by_face_reference(grid, gas, rng):
    """dt = cfl min over cells of area / (L_i + L_j), L = |u . S| + a |S|
    for the averaged face vector S of a direction: half the sum of n ds
    over the cell's two faces of it, with n and ds taken from the vertices
    of each face."""
    shape = (grid.ni, grid.nj)
    rho, u, v, p = _random_fields(rng, shape)
    cfl = 0.5
    want = math.inf
    for i in range(grid.ni):
        for j in range(grid.nj):
            a = math.sqrt(gas.gamma * p[i, j] / rho[i, j])
            lam = 0.0
            for faces in _cell_faces(grid, i, j):
                sx = sy = 0.0
                for v0, v1 in faces:
                    f = face_geometry(v0, v1)
                    sx += 0.5 * f.n_x * f.ds
                    sy += 0.5 * f.n_y * f.ds
                lam += (abs(u[i, j] * sx + v[i, j] * sy)
                        + a * math.hypot(sx, sy))
            corners = [(grid.xv[a, b], grid.yv[a, b]) for a, b in
                       ((i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1))]
            area = sum(0.5 * (x0 * y1 - x1 * y0) for (x0, y0), (x1, y1)
                       in zip(corners, corners[1:] + corners[:1]))
            want = min(want, cfl * area / lam)
    got = compute_dt_2d(rho, u, v, p, grid, gas, cfl)
    assert got == pytest.approx(want, rel=1e-14, abs=0.0)


def test_time_step_on_a_cartesian_grid_is_the_standard_unsplit_bound(gas,
                                                                     rng):
    """On rectangular cells dt = cfl min over cells of
    1 / ((|u| + a)/dx + (|v| + a)/dy), the 2D analogue of 1D compute_dt."""
    grid = cartesian_grid(-0.5, 1.0, 0.2, 0.6, 11, 7)
    shape = (grid.ni, grid.nj)
    rho = 10.0 ** rng.uniform(-1.0, 1.0, shape)
    u, v = rng.uniform(-5.0, 5.0, shape), rng.uniform(-5.0, 5.0, shape)
    p = 10.0 ** rng.uniform(-1.0, 1.0, shape)
    a = np.sqrt(gas.gamma * p / rho)
    dx = np.diff(grid.xv[:, 0])[:, None]
    dy = np.diff(grid.yv[0, :])[None, :]
    cfl = 0.5
    want = cfl * np.min(1.0 / ((np.abs(u) + a) / dx + (np.abs(v) + a) / dy))
    got = compute_dt_2d(rho, u, v, p, grid, gas, cfl)
    assert got == pytest.approx(want, rel=1e-14, abs=0.0)


def _unit_square_vertices(ni, nj):
    return np.meshgrid(np.linspace(0.0, 1.0, ni + 1),
                       np.linspace(0.0, 1.0, nj + 1), indexing="ij")


def _sheared_grid(ni, nj):
    """The unit square under a shear: every cell a parallelogram."""
    x, y = _unit_square_vertices(ni, nj)
    return StructuredGrid2D(x + 0.4 * y, 0.2 * x + 0.7 * y)


def _random_vertex_grid(ni, nj):
    """The unit square with each interior vertex moved at random by up to
    a third of a cell width: cells of four unrelated face directions."""
    x, y = _unit_square_vertices(ni, nj)
    move = np.random.default_rng(5).uniform(-1.0, 1.0, (2, ni - 1, nj - 1))
    x[1:-1, 1:-1] += move[0] / (3 * ni)
    y[1:-1, 1:-1] += move[1] / (3 * nj)
    return StructuredGrid2D(x, y)


@pytest.mark.parametrize("grid,parallelograms", [
    (half_cylinder_grid(9, 13), False),
    (ramp_grid(0.0, 3.0, 1.0, 10, 7, 0.5, 15.0), False),
    (_random_vertex_grid(8, 6), False),
    (cartesian_grid(-0.5, 1.0, 0.2, 0.6, 11, 7), True),
    (_sheared_grid(8, 6), True)],
    ids=["half-cylinder", "ramp", "random-vertex", "cartesian", "sheared"])
def test_time_step_is_never_below_the_face_by_face_bound(grid, parallelograms,
                                                         gas, rng):
    """Each cell's L_i + L_j in compute_dt_2d, read as cfl area / dt with
    every other cell at rest and of sound speed 1e-30, against half the sum
    over its four faces of (|u . n| + a) ds: no larger on any cell, since
    |u . (s1 + s2)| <= |u . s1| + |u . s2|, and equal where opposite faces
    are parallel and of equal length."""
    shape = (grid.ni, grid.nj)
    rho, u, v, p = _random_fields(rng, shape)
    cfl = 0.5
    lam, ref = np.empty(shape), np.empty(shape)
    for i in range(grid.ni):
        for j in range(grid.nj):
            a = math.sqrt(gas.gamma * p[i, j] / rho[i, j])
            ref[i, j] = 0.5 * sum(
                (abs(u[i, j] * f.n_x + v[i, j] * f.n_y) + a) * f.ds
                for faces in _cell_faces(grid, i, j)
                for f in (face_geometry(*ends) for ends in faces))
            one = [np.full(shape, rest)
                   for rest in (1.0, 0.0, 0.0, 1e-60 / gas.gamma)]
            for q, mine in zip(one, (rho, u, v, p)):
                q[i, j] = mine[i, j]
            dt = compute_dt_2d(*one, grid, gas, cfl)
            lam[i, j] = cfl * grid.area[i, j] / dt
    if parallelograms:
        np.testing.assert_allclose(lam, ref, rtol=1e-14, atol=0.0)
    else:
        assert (lam <= ref * (1.0 + 1e-14)).all()
        assert (lam < ref * (1.0 - 1e-6)).any()


@pytest.mark.parametrize("case", case_registry_2d(), ids=lambda c: c.name)
def test_time_step_over_row_blocks_is_the_whole_field_value(case, gas, rng,
                                                            monkeypatch):
    """compute_dt_2d forms its temporaries one flux block of cell rows at
    a time; the smallest block minimum is the minimum over the field, so
    dt is exactly the whole-field expression, whatever the block size.
    The second field puts the smallest dt in the last cell row."""
    grid = case.grid_factory(30, 20)
    rho, u, v, p = _random_fields(rng, grid.xc.shape)
    for fast in (False, True):
        if fast:
            u[-1, -1] = 50.0
        a = np.sqrt(gas.gamma * p / rho)
        lam = (a * grid.s_len + np.abs(u * grid.si_x + v * grid.si_y)
               + np.abs(u * grid.sj_x + v * grid.sj_y))
        want = 0.5 * float(np.min(grid.area / lam))
        # one row, 7 rows (the last block 2), 15 rows, one block
        for faces in (1, 7 * 21, 15 * 21, 10 ** 6):
            monkeypatch.setattr(euler2d, "_BLOCK_FACES", faces)
            assert compute_dt_2d(rho, u, v, p, grid, gas, 0.5) == want
    assert euler2d._block_rows(grid) == grid.ni


def test_interface_flux_reduces_to_1d_along_the_x_axis(gas, rng):
    from cpsfds.fds1d import SchemeKind, interface_flux
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
    U, log = advance_2d(U0, grid, bc, TimeControls(0.05, cfl=0.5), gas)
    assert log.steps >= 3
    assert np.max(np.abs(U - U0)) <= 1e-12 * np.max(np.abs(U0))


@pytest.mark.parametrize("order", [1, 2])
def test_residual_does_not_depend_on_the_flux_block_size(order, gas,
                                                        monkeypatch):
    """Blocks of cell rows evaluate the i faces that bound their cells,
    so two adjacent blocks both evaluate the face row between them, then
    the j faces of their cells.  At order 1 a block reads the face sides
    of its cells and one extended row on either side, at order 2 the
    reconstructed face states.  A side, face or flux row off by one at a
    block edge changes the residual.

    The half cylinder, the shock reflection and a ramp_grid together put
    every Bc2DKind on a block edge.  Each block reads its i and j face
    geometry from the grid's face rows and writes only the workspace's
    shared buffers, so a workspace reused for a second residual, as in a
    march, gives the same answer."""
    rng = np.random.default_rng(5)
    default = euler2d._BLOCK_FACES
    for case in (half_cylinder_case(mach=2.0), shock_reflection_case(),
                 ramp_case()):
        grid = case.grid_factory(12, 16)
        shape = grid.xc.shape
        U = prim_to_cons_fields(1.4 + 0.2 * rng.uniform(size=shape),
                                2.0 + 0.5 * rng.uniform(-1, 1, shape),
                                0.5 * rng.uniform(-1, 1, shape),
                                1.0 + 0.2 * rng.uniform(size=shape),
                                gas.gamma)
        W = cons_to_prim_fields(U, gas.gamma)
        results = []
        # one block, one cell row, two rows, blocks of 5, 5 and 2 rows
        for faces in (default, 1, 40, 5 * 17, 10 ** 6):
            monkeypatch.setattr(euler2d, "_BLOCK_FACES", faces)
            results.append(residual_2d(W, grid, case.bc, order, gas))
            ws = euler2d._workspace(grid, order)
            for _ in range(2):
                results.append(residual_2d(W, grid, case.bc, order, gas,
                                           ws=ws))
        assert len(euler2d._workspace(grid, order).plans) == 1
        for got in results[1:]:
            assert np.array_equal(got, results[0])


@pytest.mark.parametrize("order", [1, 2])
def test_march_with_reused_buffers_matches_a_fresh_array_reference(
        order, gas, monkeypatch):
    """advance_2d writes every stage's primitives and residual into one
    buffer, updates U in place and, at order 2, U1 in a buffer of its own;
    the result equals, bit for bit, the march on fresh arrays with a
    residual_2d that makes its own workspace and output.  The shock
    reflection puts a slip wall and two fixed states on a grid of six flux
    blocks."""
    monkeypatch.setattr(euler2d, "_BLOCK_FACES", 40)
    case = shock_reflection_case()
    grid = case.grid_factory(24, 8)
    assert len(euler2d._workspace(grid, order).plans) == 6
    rng = np.random.default_rng(8)
    shape = grid.xc.shape
    U0 = prim_to_cons_fields(1.0 + 0.2 * rng.uniform(size=shape),
                             2.9 + 0.3 * rng.uniform(-1, 1, shape),
                             0.3 * rng.uniform(-1, 1, shape),
                             0.7 + 0.1 * rng.uniform(size=shape), gas.gamma)
    t_final = 0.1
    U, log = advance_2d(U0, grid, case.bc,
                        TimeControls(t_final, case.cfl, order=order), gas)
    want, steps = reference_march(
        U0, lambda U: cons_to_prim_fields(U, gas.gamma),
        lambda W: compute_dt_2d(*W, grid, gas, case.cfl),
        lambda W: residual_2d(W, grid, case.bc, order, gas), t_final, order)
    assert log.steps == steps >= 3
    assert np.array_equal(U, want)


def ghost_state(spec, cell, nx, ny):
    """One ghost state of the boundary spec, from the interior cell that
    it mirrors or copies and the boundary face normal (nx, ny)."""
    if spec.kind is Bc2DKind.SLIP_WALL:
        rho, u, v, p = cell
        un = u * nx + v * ny
        return [rho, u - 2.0 * un * nx, v - 2.0 * un * ny, p]
    if spec.kind is Bc2DKind.SUPERSONIC_OUTFLOW:
        return list(cell)
    return list(spec.state)


@pytest.mark.parametrize("ng", [1, 2])
@pytest.mark.parametrize("turn", range(4))
def test_extend_matches_a_layer_by_layer_construction(turn, ng):
    """Each boundary in turn takes each Bc2DKind.  Layer k of a boundary
    (k = 0 next to it) sits k + 1 places beyond the last cell; it mirrors
    interior layer k across the boundary face at a slip wall, copies the
    boundary layer at an outflow and holds the fixed state otherwise.
    The fields are taken as an array or as a tuple of four fields, and
    the ng x ng corners are left as they were."""
    grid = half_cylinder_grid(5, 7)
    ni, nj = grid.ni, grid.nj
    rng = np.random.default_rng(turn)
    W = np.stack([1.0 + rng.uniform(size=(ni, nj)),
                  rng.uniform(-2.0, 2.0, (ni, nj)),
                  rng.uniform(-2.0, 2.0, (ni, nj)),
                  1.0 + rng.uniform(size=(ni, nj))])
    kinds = list(Bc2DKind)
    bc = {}
    for k, side in enumerate(("imin", "imax", "jmin", "jmax")):
        kind = kinds[(k + turn) % 4]
        fixed = kind in (Bc2DKind.SUPERSONIC_INFLOW,
                         Bc2DKind.POST_SHOCK_DIRICHLET)
        bc[side] = BoundarySpec(kind, Prim2D(1.0 + k, 0.5 - k, 0.25 * k,
                                             2.0 + k) if fixed else None)

    def depth(side, k):
        """The interior layer, counted from the boundary, that its ghost
        layer k reads."""
        return k if bc[side].kind is Bc2DKind.SLIP_WALL else 0

    want = np.full((4, ni + 2 * ng, nj + 2 * ng), np.nan)
    want[:, ng:-ng, ng:-ng] = W
    for k in range(ng):
        for j in range(nj):
            for side, row, src, n in (
                    ("imin", ng - 1 - k, depth("imin", k), 0),
                    ("imax", ng + ni + k, ni - 1 - depth("imax", k), ni)):
                want[:, row, ng + j] = ghost_state(
                    bc[side], W[:, src, j], grid.iface_nx[n, j],
                    grid.iface_ny[n, j])
        for i in range(ni):
            for side, col, src, n in (
                    ("jmin", ng - 1 - k, depth("jmin", k), 0),
                    ("jmax", ng + nj + k, nj - 1 - depth("jmax", k), nj)):
                want[:, ng + i, col] = ghost_state(
                    bc[side], W[:, i, src], grid.jface_nx[i, n],
                    grid.jface_ny[i, n])
    for fields in (W, tuple(W)):
        out = np.full(want.shape, np.nan)
        assert euler2d._extend(fields, grid, bc, ng, out) is out
        np.testing.assert_array_equal(out, want)


def test_first_order_face_sides_are_computed_once_per_cell(gas, monkeypatch):
    """With one block, one first-order residual passes each cell and each
    ghost (the corners included) to _face_sides once: (ni + 2) (nj + 2)
    cells, where a separate sweep per direction passes
    (ni + 2) nj + (nj + 2) ni."""
    grid = half_cylinder_grid(12, 16)
    face_sides, sizes = euler2d._face_sides, []

    def counted(rho, *args):
        sizes.append(rho.size)
        return face_sides(rho, *args)

    monkeypatch.setattr(euler2d, "_face_sides", counted)
    shape = grid.xc.shape
    W = (np.full(shape, 1.4), np.full(shape, 2.0), np.zeros(shape),
         np.ones(shape))
    residual_2d(W, grid, half_cylinder_case(mach=2.0).bc, 1, gas)
    assert sum(sizes) == (grid.ni + 2) * (grid.nj + 2)


@pytest.mark.parametrize("faces", [40, 8192])
@pytest.mark.parametrize("order", [1, 2])
def test_residual_matches_a_face_by_face_reference(order, faces, gas,
                                                   monkeypatch):
    """On cells at least two away from every boundary, the residual is
    -(1/A) times the sum of interface_flux_2d, the flux through a face of
    its length, over the cell's four faces, each face taken from its
    vertices.  At order 2 the face states are the MUSCL values of the two
    cells on either side.
    A face side, flux buffer or direction that reads another's storage
    changes the residual."""
    monkeypatch.setattr(euler2d, "_BLOCK_FACES", faces)
    grid = half_cylinder_grid(9, 11)
    rng = np.random.default_rng(11)
    shape = grid.xc.shape
    W = (1.0 + rng.uniform(size=shape), rng.uniform(-2.0, 2.0, shape),
         rng.uniform(-2.0, 2.0, shape), 1.0 + rng.uniform(size=shape))
    got = residual_2d(W, grid, half_cylinder_case(mach=2.0).bc, order, gas)

    def state(i, j):
        return [q[i, j] for q in W]

    def face_states(cells):
        """Left and right states of the face between the middle two of
        the four cells, given along the sweep direction."""
        if order == 1:
            return state(*cells[1]), state(*cells[2])
        q = np.array([state(*c) for c in cells]).T     # (4 fields, 4 cells)
        left = [muscl_reconstruct(f[:3], grid.h)[1][0] for f in q]
        right = [muscl_reconstruct(f[1:], grid.h)[0][0] for f in q]
        return left, right

    def flux(cells, a, b):
        wL, wR = face_states(cells)
        geom = face_geometry((grid.xv[a], grid.yv[a]),
                             (grid.xv[b], grid.yv[b]))
        return interface_flux_2d(Prim2D(*wL), Prim2D(*wR), geom, gas)

    for i in range(2, grid.ni - 2):
        for j in range(2, grid.nj - 2):
            terms = []
            for k in (i, i + 1):               # i faces, normal along +i
                cells = [(k + d, j) for d in (-2, -1, 0, 1)]
                terms.append((flux(cells, (k, j), (k, j + 1)),
                              1.0 if k > i else -1.0))
            for k in (j, j + 1):               # j faces, normal along +j
                cells = [(i, k + d) for d in (-2, -1, 0, 1)]
                terms.append((flux(cells, (i + 1, k), (i, k)),
                              1.0 if k > j else -1.0))
            want = -sum(sign * f for f, sign in terms) / grid.area[i, j]
            scale = sum(np.abs(f) for f, _ in terms) / grid.area[i, j]
            np.testing.assert_allclose(got[:, i, j], want, rtol=0,
                                       atol=1e-12 * float(np.max(scale)))


def test_flux_kernel_allocates_nothing_block_sized(gas):
    """With its sides, temporaries and output given, one 8192-face block
    of the kernel allocates less than one block-sized array."""
    import tracemalloc
    rng = np.random.default_rng(2)
    shape = (64, 128)
    ws = np.empty((23,) + shape)
    states = [[1.0 + rng.uniform(size=shape), rng.uniform(-2, 2, shape),
               rng.uniform(-2, 2, shape), 1.0 + rng.uniform(size=shape)]
              for _ in range(2)]
    nx, ny = np.cos(rng.uniform(0, 6, shape)), np.sin(rng.uniform(0, 6,
                                                                  shape))
    ds = rng.uniform(0.5, 1.0, shape)
    half_ds = 0.5 * ds

    def block():
        left = euler2d._face_sides(*states[0], gas.gamma, ws[:5])
        right = euler2d._face_sides(*states[1], gas.gamma, ws[5:10])
        euler2d._sides_flux(left, right, nx, ny, gas.gamma, half_ds,
                            ws[10:14], ws[14:])

    block()                                    # warm
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        block()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < np.empty(shape).nbytes
    assert np.array_equal(
        ws[10:14],
        interface_flux_2d(Prim2D(*states[0]), Prim2D(*states[1]),
                          FaceGeometry(nx, ny, ds), gas))


def test_first_order_residual_allocates_nothing_block_sized(gas,
                                                            monkeypatch):
    """With its march workspace, one first-order residual on a grid of
    three flux blocks allocates less than one block-sized array beyond
    the net it returns: the block plans and their views are built once
    per march, not once per residual, and every block reads its face
    geometry from the grid's face rows as it is, with no copy.  A ufunc
    over strided views takes numpy's iterator buffers, np.getbufsize()
    values per operand whatever the block size, so the blocks here are
    eight times the default size to stand clear of them."""
    import tracemalloc
    monkeypatch.setattr(euler2d, "_BLOCK_FACES", 8 * 8192)
    grid = half_cylinder_grid(600, 255)
    ws = euler2d._workspace(grid, 1)
    rows = euler2d._block_rows(grid)
    assert len(ws.plans) == 3
    rng = np.random.default_rng(4)
    shape = grid.xc.shape
    W = np.stack([1.4 + 0.2 * rng.uniform(size=shape),
                  2.0 + 0.5 * rng.uniform(-1, 1, shape),
                  0.5 * rng.uniform(-1, 1, shape),
                  1.0 + 0.2 * rng.uniform(size=shape)])
    bc = half_cylinder_case(mach=2.0).bc
    residual_2d(W, grid, bc, 1, gas, ws=ws)          # warm
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        net = residual_2d(W, grid, bc, 1, gas, ws=ws)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before - net.nbytes < np.empty((rows, grid.nj)).nbytes
    assert np.array_equal(net, residual_2d(W, grid, bc, 1, gas))


@pytest.mark.parametrize("order", [1, 2])
def test_march_allocates_no_field_per_step(order, gas, monkeypatch):
    """An advance_2d march of several steps on a grid of three flux blocks
    holds its copy of U, one stage buffer for every stage's primitives and
    residual, at order 2 one U1 buffer, and its workspace.  Beyond those
    its peak stays below one block of the conserved field, which covers
    compute_dt_2d's three block-sized temporaries, and at order 2 below
    that plus the peak of one face-state reconstruction, whose
    muscl_reconstruct temporaries span the extended cells of a direction.
    So no step allocates a primitive field, a residual, a U1 or a field of
    time-step temporaries.  The blocks are eight times the default size,
    as in test_first_order_residual_allocates_nothing_block_sized."""
    import tracemalloc
    monkeypatch.setattr(euler2d, "_BLOCK_FACES", 8 * 8192)
    grid = half_cylinder_grid(600, 255)
    assert len(euler2d._workspace(grid, order).plans) == 3
    rng = np.random.default_rng(4)
    shape = grid.xc.shape
    W = np.stack([1.4 + 0.2 * rng.uniform(size=shape),
                  2.0 + 0.5 * rng.uniform(-1, 1, shape),
                  0.5 * rng.uniform(-1, 1, shape),
                  1.0 + 0.2 * rng.uniform(size=shape)])
    U0 = prim_to_cons_fields(*W, gas.gamma)
    bc = half_cylinder_case(mach=2.0).bc
    dt = compute_dt_2d(*W, grid, gas, 0.5)
    warm = TimeControls(0.5 * dt, 0.5, order=order)
    advance_2d(U0, grid, bc, warm, gas)
    allowed = np.empty((4, euler2d._block_rows(grid), grid.nj)).nbytes
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        ws = euler2d._workspace(grid, order)
        workspace = tracemalloc.get_traced_memory()[0] - before
        if order == 2:
            fields = euler2d._extend(W, grid, bc, 2, ws.fields)
            tracemalloc.reset_peak()
            start, _ = tracemalloc.get_traced_memory()
            euler2d._face_states(fields, ws.states, grid.h)
            allowed += tracemalloc.get_traced_memory()[1] - start
            del fields
        del ws
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        _, log = advance_2d(U0, grid, bc,
                            TimeControls(3.5 * dt, 0.5, order=order), gas)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert log.steps >= 3
    held = (3 if order == 2 else 2) * U0.nbytes + workspace
    assert peak - before - held < allowed


FIELDS_2D = ("rho", "u", "v", "p")


@pytest.mark.parametrize("arrays,message,cell", [
    # a non-finite value anywhere comes before a non-positive rho or p
    ({"rho": [(0, 2, -1.0)], "p": [(1, 0, np.nan)]}, "non-finite", (1, 0)),
    ({"rho": [(0, 0, 0.0)], "p": [(1, 1, -np.inf)]}, "non-finite", (1, 1)),
    # and non-finite values are reported in the order rho, u, v, p
    ({"rho": [(2, 2, np.nan)], "u": [(0, 0, np.inf)]}, "non-finite", (2, 2)),
    ({"v": [(1, 2, -np.inf)], "p": [(0, 0, np.nan)]}, "non-finite", (1, 2)),
    ({"u": [(2, 0, np.nan)], "v": [(0, 1, np.nan)]}, "non-finite", (2, 0)),
    # non-positive rho before non-positive p; first cell in C order
    ({"rho": [(1, 2, 0.0), (2, 0, -1.0)], "p": [(0, 0, -1.0)]},
     "not positive", (1, 2)),
    ({"p": [(2, 1, 0.0)], "u": [(0, 0, -5.0)]}, "not positive", (2, 1)),
    # every fault of the left side before any of the right
    ({"p": [(2, 3, 0.0)], "right rho": [(0, 0, np.nan)]},
     "reconstructed p not positive", (2, 3)),
    ({"right u": [(1, 1, np.inf)], "right p": [(0, 0, -1.0)]},
     "reconstructed u non-finite", (1, 1)),
])
def test_face_scan_reports_in_a_fixed_precedence(arrays, message, cell):
    """Keys name a field of the left side, or of the right after "right",
    of one stacked (2, 4, 3, 4) array of face states."""
    faces = np.ones((2, len(FIELDS_2D), 3, 4))
    for key, entries in arrays.items():
        side, _, name = key.rpartition(" ")
        for i, j, val in entries:
            faces[int(side == "right"), FIELDS_2D.index(name), i, j] = val
    with pytest.raises(NonPhysicalStateError) as err:
        check_faces(faces)
    assert message in str(err.value)
    assert err.value.cell == cell
    check_faces(np.ones_like(faces))


@pytest.mark.parametrize("axis,dip", [(0, (2, 5)), (0, (2, 0)), (0, (2, 8)),
                                     (1, (2, 5))],
                         ids=["i-sweep", "i-sweep-first-j", "i-sweep-last-j",
                              "j-sweep"])
def test_face_scan_names_the_grid_face_in_either_sweep(axis, dip, gas):
    """A pressure dip at a cell of a 6x9 grid, with a far larger
    neighbour above it along one direction, drives the limited value at
    the dip's high face negative in that direction only.  Both
    directions report the face by its grid index (i, j), the neighbour's.
    The i faces at j = 0 and j = nj - 1 sit next to the two dummy slots
    of each row of i face states, which a scan window off by one would
    take for grid faces."""
    grid = cartesian_grid(0.0, 1.0, 0.0, 1.5, 6, 9)
    p = np.ones((6, 9))
    p[dip] = 0.1
    face = (dip[0] + 1, dip[1]) if axis == 0 else (dip[0], dip[1] + 1)
    p[face] = 100.0
    W = (np.ones_like(p), np.zeros_like(p), np.zeros_like(p), p)
    bc = dict.fromkeys(("imin", "imax", "jmin", "jmax"),
                       BoundarySpec(Bc2DKind.SUPERSONIC_OUTFLOW))
    with pytest.raises(NonPhysicalStateError) as err:
        residual_2d(W, grid, bc, 2, gas)
    assert str(err.value) == f"reconstructed p not positive, cell={face}"


def test_face_scan_reports_an_i_face_before_a_j_face_across_blocks(
        gas, monkeypatch):
    """On a 12x9 grid of six flux blocks, a dip that faults i face
    (11, 4) in the last block is reported before one that faults j face
    (1, 6) in the first; the j dip alone is reported as that j face."""
    monkeypatch.setattr(euler2d, "_BLOCK_FACES", 20)
    grid = cartesian_grid(0.0, 1.0, 0.0, 0.75, 12, 9)
    assert len(euler2d._workspace(grid, 2).plans) == 6
    bc = dict.fromkeys(("imin", "imax", "jmin", "jmax"),
                       BoundarySpec(Bc2DKind.SUPERSONIC_OUTFLOW))
    for dips, face in (([(10, 4), (11, 4), (1, 5), (1, 6)], (11, 4)),
                       ([(1, 5), (1, 6)], (1, 6))):
        p = np.ones((12, 9))
        for k, cell in enumerate(dips):
            p[cell] = 100.0 if k % 2 else 0.1
        W = (np.ones_like(p), np.zeros_like(p), np.zeros_like(p), p)
        with pytest.raises(NonPhysicalStateError) as err:
            residual_2d(W, grid, bc, 2, gas)
        assert str(err.value) == \
            f"reconstructed p not positive, cell={face}"


@pytest.mark.parametrize("state", [(1.0, 0.0, 0.0, -1.0),
                                   (0.0, 0.0, 0.0, 1.0),
                                   (1.0, math.nan, 0.0, 1.0)])
def test_boundary_spec_rejects_a_non_physical_fixed_state(state):
    """Before, the march only failed later, at a cell the state never
    held, or with a non-finite flux.  Such a state cannot be made, so no
    boundary can hold one."""
    for kind in (Bc2DKind.POST_SHOCK_DIRICHLET, Bc2DKind.SUPERSONIC_INFLOW):
        with pytest.raises(NonPhysicalStateError,
                           match="non-physical primitive state"):
            BoundarySpec(kind, Prim2D(*state))


def test_boundary_spec_rejects_a_1d_fixed_state(gas):
    """A 1D PrimitiveState used to zip its three fields into the four
    ghost fields: p landed in v and the ghost p was never written.  On a
    4x4 box at rest with a supersonic inflow at imin, PrimitiveState(2,
    0.5, 3) gave cell (0, 0) the residual (2.59, 2.34, 9.51, 18.39) without
    an error; Prim2D(2, 0.5, 0, 3) gives the one below."""
    for kind in (Bc2DKind.POST_SHOCK_DIRICHLET, Bc2DKind.SUPERSONIC_INFLOW):
        with pytest.raises(TypeError) as err:
            BoundarySpec(kind, PrimitiveState(2.0, 0.5, 3.0))
        assert str(err.value) == \
            f"{kind.value} needs a Prim2D state, got PrimitiveState"
    grid = cartesian_grid(0.0, 1.0, 0.0, 1.0, 4, 4)
    bc = {k: BoundarySpec(Bc2DKind.SLIP_WALL) for k in ("imax", "jmin",
                                                         "jmax")}
    bc["imin"] = BoundarySpec(Bc2DKind.SUPERSONIC_INFLOW,
                              Prim2D(2.0, 0.5, 0.0, 3.0))
    W = np.stack([np.ones((4, 4)), np.zeros((4, 4)), np.zeros((4, 4)),
                  np.ones((4, 4))])
    R = residual_2d(W, grid, bc, 1, gas)
    np.testing.assert_allclose(R[:, 0, 0], [2.58579, 6.60280, 0.0, 21.3146],
                               rtol=1e-5, atol=1e-14)


@pytest.mark.parametrize("kind", [Bc2DKind.SLIP_WALL,
                                  Bc2DKind.SUPERSONIC_OUTFLOW])
def test_boundary_spec_rejects_a_state_its_kind_reads_not(kind):
    """These kinds take their ghosts from the interior, so a state given to
    them would be ignored."""
    with pytest.raises(ValueError) as err:
        BoundarySpec(kind, Prim2D(1.0, 0.0, 0.0, 1.0))
    assert str(err.value) == f"{kind.value} reads no state"
    assert BoundarySpec(kind).state is None


def test_march_stops_on_the_steady_state_test(gas):
    """A coarse shock reflection settles long before t = 6: with
    steady_drop the march stops there, without it the march runs to
    t_final."""
    case = shock_reflection_case()
    grid = case.grid_factory(24, 8)
    U0 = prim_to_cons_fields(*case.init(grid.xc, grid.yc), gas.gamma)
    t_final = 6.0
    _, steady = advance_2d(U0, grid, case.bc,
                           TimeControls(t_final, case.cfl, steady_drop=1e4),
                           gas)
    _, full = advance_2d(U0, grid, case.bc, TimeControls(t_final, case.cfl),
                         gas)
    assert steady.t < t_final <= full.t
    assert steady.steps < full.steps


@pytest.mark.parametrize("shape,order", [((1, 1), 2), ((1, 5), 1)])
def test_march_rejects_a_grid_below_two_cells_per_direction(shape, order,
                                                            gas):
    with pytest.raises(ValueError) as err:
        run_case_2d(half_cylinder_case(), gas, grid_shape=shape, order=order)
    ni, nj = shape
    assert str(err.value) == f"grid must be at least 2x2, got {ni}x{nj}"


def test_empty_grid_shape_is_not_the_default_grid(gas):
    """Only None selects the case's default grid: () ran 45x45."""
    with pytest.raises(ValueError, match="not enough values to unpack"):
        run_case_2d(half_cylinder_case(), gas, grid_shape=())


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
    ctrl = TimeControls(0.1, cfl=0.5)
    Uxf, _ = advance_2d(Ux, gx, bcx, ctrl, gas)
    Uyf, _ = advance_2d(Uy, gy, bcy, ctrl, gas)
    rotated = np.stack([Uyf[0].T, Uyf[2].T, Uyf[1].T, Uyf[3].T])
    assert np.max(np.abs(Uxf - rotated)) <= 1e-12 * np.max(np.abs(Uxf))


SLIP_BOX = {k: BoundarySpec(Bc2DKind.SLIP_WALL)
            for k in ("imin", "imax", "jmin", "jmax")}
BOX_GRIDS = {
    "cartesian": lambda: cartesian_grid(0.0, 1.0, 0.0, 1.0, 24, 24),
    "ramp": lambda: ramp_grid(0.0, 1.0, 1.0, 24, 24, 0.3, 15.0),
    "half-cylinder": lambda: half_cylinder_grid(24, 24),
}


def slip_box_fields(grid):
    """A density bump in a smooth swirl at rest pressure: primitive fields
    (rho, u, v, p) at the cell centres of grid."""
    x, y = grid.xc, grid.yc
    rho = 1.0 + 0.2 * np.exp(-60.0 * ((x - 0.4) ** 2 + (y - 0.55) ** 2))
    u = 0.3 * np.sin(np.pi * x) * np.cos(np.pi * y)
    v = -0.2 * np.cos(np.pi * x) * np.sin(np.pi * y)
    return np.stack([rho, u, v, np.full_like(rho, 1.0)])


def slip_box_drift(grid, order, gas):
    """Relative change of total mass and energy over a march of the slip
    box to t = 0.2 at CFL 0.5, and the number of steps."""
    U0 = prim_to_cons_fields(*slip_box_fields(grid), gas.gamma)
    U, log = advance_2d(U0, grid, SLIP_BOX,
                        TimeControls(0.2, cfl=0.5, order=order), gas)
    drift = [float(np.sum((U[c] - U0[c]) * grid.area))
             / float(np.sum(U0[c] * grid.area)) for c in (0, 3)]
    return drift, log.steps


def test_slip_walled_box_conserves_mass_and_energy(gas):
    """Four slip walls: order 1 on all three grids, and order 2 on the
    Cartesian one, keep total mass and energy to round-off.  Order 2 on
    the curvilinear grids does not (the test below)."""
    for name, order in [("cartesian", 1), ("ramp", 1), ("half-cylinder", 1),
                        ("cartesian", 2)]:
        drift, _ = slip_box_drift(BOX_GRIDS[name](), order, gas)
        assert max(map(abs, drift)) <= 1e-12, (name, order, drift)


@settings(max_examples=200, deadline=None)
@given(ni=st.integers(2, 30), nj=st.integers(2, 30),
       ramp=st.none() | st.tuples(st.floats(0.0, 0.9), st.floats(0.0, 30.0)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_order_1_slip_walls_conserve_on_curvilinear_grids(ni, nj, ramp,
                                                          seed):
    """On a ramp grid (ramp start, angle) or a half cylinder (ramp None)
    with four slip walls, one order-1 residual of random fields moves no
    mass or energy: the area-weighted residual sums to round-off of its
    terms.  Order 2 leaks on these grids (the test below)."""
    grid = (half_cylinder_grid(ni, nj) if ramp is None
            else ramp_grid(0.0, 1.0, 1.0, ni, nj, *ramp))
    rng = np.random.default_rng(seed)
    shape = (ni, nj)
    W = np.stack([10.0 ** rng.uniform(-1.0, 1.0, shape),
                  rng.uniform(-2.0, 2.0, shape), rng.uniform(-2.0, 2.0, shape),
                  10.0 ** rng.uniform(-1.0, 1.0, shape)])
    R = residual_2d(W, grid, SLIP_BOX, 1, GasModel(1.4))
    for c in (0, 3):
        terms = R[c] * grid.area
        assert abs(terms.sum()) <= 1e-13 * np.abs(terms).sum(), c


@pytest.mark.parametrize("name,steps,mass,energy,flux", [
    ("ramp", 28, 7.5390e-5, 1.07948e-4, 2.7466e-5),
    ("half-cylinder", 10, -4.6401e-5, -6.5300e-5, 1.17665e-3),
], ids=["ramp", "half-cylinder"])
def test_second_order_slip_walls_leak_on_curvilinear_grids(
        name, steps, mass, energy, flux, gas):
    """A pinned defect: at order 2, four slip walls that are not all
    axis-aligned let mass and energy through.  Measured over the march of
    the box (relative drift of the totals): the 15-degree ramp leaks 7.5e-5
    of its mass and 1.1e-4 of its energy in 28 steps, the half cylinder
    -4.6e-5 and -6.5e-5 in 10 steps.  A single order-2 residual_2d of the
    initial field already has a net mass flux (sum of area * R_rho) of
    2.7e-5 on the ramp and 1.2e-3 on the half cylinder; at order 1 both
    are below 1e-16, and on the same ramp grid at 0 degrees order 2 gives
    2e-19.  The likely cause: the wall ghosts reflect (u, v) about a normal
    that is not axis-aligned, and the componentwise limiter does not
    commute with that reflection.  A remedy changes this test."""
    grid = BOX_GRIDS[name]()
    drift, n = slip_box_drift(grid, 2, gas)
    assert n == steps
    np.testing.assert_allclose(drift, [mass, energy], rtol=1e-3)
    R = residual_2d(slip_box_fields(grid), grid, SLIP_BOX, 2, gas)
    assert float(np.sum(R[0] * grid.area)) == pytest.approx(flux, rel=1e-3)


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
    """Pins a known defect (ROADMAP item 3): at order 2 the default half
    cylinder (M6, 45x45) loses positivity in cell (44, 0), where the body
    slip wall meets the j-outflow boundary.  The diagnostic names the cell
    with plain integers.  A remedy for that item changes this test."""
    with pytest.raises(SolverBlowUp) as err:
        run_case_2d(half_cylinder_case(), gas, order=2)
    assert (err.value.step, err.value.cell) == (52, (44, 0))
    assert "cell (44, 0)" in str(err.value)


@pytest.mark.slow
def test_second_order_wedge_blows_up_off_the_ramp_wall(gas):
    """Pins a known defect (ROADMAP item 16): at order 2 the wedge
    completes on the n x n grids from 100 to 108 and blows up on
    109 x 109, three cells off the ramp's slip wall and downstream of
    its corner, where the face scan finds a non-positive reconstructed
    pressure at i face (97, 3).  The grid's two flux blocks share an i
    face row, so the run also crosses a block edge at order 2.  A remedy
    for that item changes this test."""
    case = wedge_case()
    grid = case.grid_factory(109, 109)
    assert len(euler2d._workspace(grid, 2).plans) == 2
    with pytest.raises(SolverBlowUp) as err:
        run_case_2d(case, gas, grid_shape=(109, 109), order=2)
    assert (err.value.step, err.value.cell) == (452, (97, 3))
    assert str(err.value) == ("zbs-2d blew up at step 452, cell (97, 3): "
                              "reconstructed p not positive, cell=(97, 3)")


@pytest.mark.slow
@pytest.mark.parametrize("case,kw,steps", [
    (shock_reflection_case(), {}, 1291),
    (half_cylinder_case(mach=6.0), {}, 711),
    (half_cylinder_case(mach=20.0), {}, 669),
    (shock_reflection_case(), dict(order=2, t_final=0.3), 135)],
    ids=["reflection-o1", "half-cylinder-M6", "half-cylinder-M20",
         "reflection-o2"])
def test_registered_2d_runs_keep_their_step_counts(case, kw, steps, gas):
    """Pins the step counts of four registered runs at their default
    grids, which a change to the time step or the residual would move."""
    _, _, log = run_case_2d(case, gas, **kw)
    assert log.steps == steps
