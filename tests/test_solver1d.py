"""1D finite-volume driver: grid/controls validation, reconstruction,
boundary conditions, conservation and blow-up reporting."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from cpsfds import euler2d, solver1d
from cpsfds.bench1d import get_case, run_case
from cpsfds.fds1d import SchemeKind
from cpsfds.solver1d import (Grid1D, BoundaryCondition, TimeControls,
                             ReconstructionConfig, SolverBlowUp, compute_dt,
                             muscl_reconstruct, advance, initialize, _extend)
from cpsfds.state import NonPhysicalStateError, check_faces, \
    cons_to_prim_arrays

from conftest import reference_march

SCHEMES = list(SchemeKind)
PERIODIC = (BoundaryCondition.PERIODIC,) * 2
REFLECTIVE = (BoundaryCondition.REFLECTIVE,) * 2
TRANSMISSIVE = (BoundaryCondition.TRANSMISSIVE,) * 2


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid1D(0.0, 1.0, 3)
    with pytest.raises(ValueError):
        Grid1D(1.0, 0.0, 10)
    for x_min, x_max in ((0.0, math.inf), (-math.inf, 0.0),
                         (math.nan, 1.0), (0.0, math.nan)):
        with pytest.raises(ValueError, match="must be finite"):
            Grid1D(x_min, x_max, 10)
    g = Grid1D(0.0, 2.0, 8)
    assert g.dx == pytest.approx(0.25)
    np.testing.assert_allclose(g.centers(),
                               0.125 + 0.25 * np.arange(8))


def test_controls_validation():
    with pytest.raises(ValueError):
        TimeControls(1.0, cfl=0.0)
    with pytest.raises(ValueError):
        TimeControls(1.0, cfl=1.5)


@pytest.mark.parametrize("limiter_k", [0.0, -0.1, float("nan"),
                                       float("inf")])
def test_reconstruction_rejects_a_non_positive_limiter_constant_at_order_2(
        limiter_k):
    """Order 1 does not use the constant, so it accepts any."""
    with pytest.raises(ValueError) as err:
        ReconstructionConfig(order=2, limiter_k=limiter_k)
    assert str(err.value) == "limiter constant must be positive"
    with pytest.raises(ValueError) as err:
        ReconstructionConfig(order=3, limiter_k=limiter_k)
    assert str(err.value) == "order must be 1 or 2"
    ReconstructionConfig(order=1, limiter_k=limiter_k)


@pytest.mark.parametrize("t_final", [np.nan, -1.0, 0.0])
def test_a_t_final_that_is_not_positive_is_rejected(t_final, gas):
    """Before, such a run marched zero steps and reported the initial
    state as its result."""
    for make in (lambda: TimeControls(t_final),
                 lambda: run_case(get_case("sod"), SchemeKind.ZBS_FDS,
                                  t_final=t_final),
                 lambda: euler2d.run_case_2d(
                     euler2d.half_cylinder_case(), gas, grid_shape=(4, 4),
                     t_final=t_final)):
        with pytest.raises(ValueError, match="t-final must be positive"):
            make()
    # no end time: the march stops on MAX_STEPS or its steady-state test
    TimeControls(np.inf)


@pytest.mark.parametrize("steady_drop", [0.0, 0.5, 1.0, -1.0, np.nan, np.inf])
def test_a_steady_drop_that_is_not_a_finite_factor_above_1_is_rejected(
        steady_drop, gas):
    """Before, 0.0 ended the march in ZeroDivisionError after one step,
    0.5 called the march steady after two steps, and nan or inf never
    stopped it.  Now the controls refuse them before any step."""
    case = dataclasses.replace(euler2d.half_cylinder_case(),
                               steady_drop=steady_drop)
    for make in (lambda: TimeControls(1.0, steady_drop=steady_drop),
                 lambda: euler2d.run_case_2d(case, gas, grid_shape=(4, 4))):
        with pytest.raises(ValueError, match="steady-drop must be"):
            make()
    TimeControls(1.0, steady_drop=1e4)


def test_compute_dt_formula(gas):
    rho = np.array([1.0, 4.0])
    u = np.array([2.0, -1.0])
    p = np.array([1.4, 1.4])
    # fastest signal: cell 0 with |u| + a = 2 + sqrt(1.96)
    dt = compute_dt(rho, u, p, gas, dx=0.1, cfl=0.5)
    assert dt == pytest.approx(0.5 * 0.1 / (2.0 + np.sqrt(1.96)))


def test_limited_reconstruction_reproduces_linear_data():
    x = np.linspace(0.0, 1.0, 12)
    q = 3.0 + 2.0 * x
    lo, hi = muscl_reconstruct(q, x[1] - x[0], k=0.1)
    dx = x[1] - x[0]
    np.testing.assert_allclose(lo, q[1:-1] - dx, rtol=1e-12)
    np.testing.assert_allclose(hi, q[1:-1] + dx, rtol=1e-12)


def test_limited_reconstruction_shrinks_at_extrema():
    q = np.array([0.0, 1.0, 0.0])
    lo, hi = muscl_reconstruct(q, 0.1, k=0.1)
    # at a symmetric extremum the limited slope nearly vanishes
    assert abs(hi[0] - lo[0]) < 1e-3


def test_face_count_and_uniform_preservation(gas):
    grid = Grid1D(0.0, 1.0, 32)
    U0 = initialize(grid, lambda x: (1.0, 0.5, 2.0), gas)
    for order in (1, 2):
        for scheme in SCHEMES:
            U, log = advance(U0, grid, scheme, ReconstructionConfig(order),
                             PERIODIC, TimeControls(0.05), gas)
            assert log.steps > 0
            np.testing.assert_allclose(U, U0, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_periodic_conservation(order, scheme, gas):
    grid = Grid1D(0.0, 2.0, 50)

    def init(x):
        return (1.0 + 0.2 * np.sin(np.pi * x), np.full_like(x, 0.3),
                np.full_like(x, 1.0))

    U0 = initialize(grid, init, gas)
    U, _ = advance(U0, grid, scheme, ReconstructionConfig(order),
                   PERIODIC, TimeControls(0.3), gas)
    tot0 = U0.sum(axis=1) * grid.dx
    tot = U.sum(axis=1) * grid.dx
    scale = np.abs(U0).sum(axis=1) * grid.dx
    assert np.all(np.abs(tot - tot0) <= 1e-12 * scale)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_reflective_walls_conserve_mass_and_energy(scheme, gas):
    grid = Grid1D(0.0, 1.0, 60)

    def init(x):
        return (1.0 + 0.3 * np.exp(-80.0 * (x - 0.4) ** 2),
                np.zeros_like(x), np.full_like(x, 1.0))

    U0 = initialize(grid, init, gas)
    U, _ = advance(U0, grid, scheme, ReconstructionConfig(1),
                   REFLECTIVE, TimeControls(0.4), gas)
    for comp in (0, 2):   # mass and energy; momentum is exchanged with walls
        tot0 = U0[comp].sum() * grid.dx
        tot = U[comp].sum() * grid.dx
        assert abs(tot - tot0) <= 1e-12 * abs(tot0)


def test_reflective_wall_symmetry(gas):
    """A symmetric initial state on reflective walls stays symmetric."""
    grid = Grid1D(-1.0, 1.0, 64)

    def init(x):
        return (1.0 + 0.3 * np.exp(-20.0 * x ** 2), np.zeros_like(x),
                np.full_like(x, 1.0))

    U0 = initialize(grid, init, gas)
    U, _ = advance(U0, grid, SchemeKind.ZBS_FDS, ReconstructionConfig(1),
                   REFLECTIVE, TimeControls(0.3), gas)
    rho, u, p = cons_to_prim_arrays(U, gas.gamma)
    np.testing.assert_allclose(rho, rho[::-1], rtol=1e-12)
    np.testing.assert_allclose(u, -u[::-1], atol=1e-12)


def test_transmissive_boundaries_pass_a_wave_out(gas):
    """A right-running acoustic pulse leaves the domain without reflecting."""
    grid = Grid1D(0.0, 1.0, 100)
    a0 = np.sqrt(1.4)

    def init(x):
        bump = 0.01 * np.exp(-300.0 * (x - 0.7) ** 2)
        return 1.0 + bump, a0 * bump, 1.0 + 1.4 * bump

    U0 = initialize(grid, init, gas)
    U, _ = advance(U0, grid, SchemeKind.ZBS_FDS, ReconstructionConfig(1),
                   TRANSMISSIVE, TimeControls(0.6), gas)
    rho, _, _ = cons_to_prim_arrays(U, gas.gamma)
    # the small entropy residue (quadratic in the pulse amplitude) and the
    # first-order boundary footprint are all that may remain
    assert np.max(np.abs(rho - 1.0)) < 5e-4


def test_blow_up_carries_step_and_cell_diagnostics(gas):
    """Colliding rarefactions strong enough to open a vacuum must terminate
    with the blow-up error, not silently clipped states."""
    grid = Grid1D(0.0, 1.0, 50)

    def init(x):
        u = np.where(x < 0.5, -8.0, 8.0)
        return np.ones_like(x), u, np.full_like(x, 0.01)

    U0 = initialize(grid, init, gas)
    with pytest.raises(SolverBlowUp) as err:
        advance(U0, grid, SchemeKind.ZBS_FDS, ReconstructionConfig(1),
                TRANSMISSIVE, TimeControls(0.5), gas)
    assert err.value.step >= 0
    assert err.value.cell is not None
    assert "blew up" in str(err.value)


def test_time_marching_hits_t_final_exactly(gas):
    grid = Grid1D(0.0, 1.0, 20)
    U0 = initialize(grid, lambda x: (1.0, 0.0, 1.0), gas)
    _, log = advance(U0, grid, SchemeKind.TVS_FDS, ReconstructionConfig(1),
                     TRANSMISSIVE, TimeControls(0.123), gas)
    assert log.t == pytest.approx(0.123, abs=1e-14)


def _ghost_columns(W, ng, bc, side):
    """The ng ghost columns of one side, built one column at a time, nearest
    the boundary first."""
    n = W.shape[1]
    left = side == "left"
    cols = []
    for g in range(ng):
        if bc is BoundaryCondition.PERIODIC:
            col = W[:, n - 1 - g] if left else W[:, g]
        elif bc is BoundaryCondition.REFLECTIVE:
            rho, u, p = W[:, g] if left else W[:, n - 1 - g]
            col = np.array([rho, -u, p])
        else:
            col = W[:, 0] if left else W[:, n - 1]
        cols.append(col)
    return cols


@pytest.mark.parametrize("ng", [1, 2])
@pytest.mark.parametrize("bc", list(itertools.product(BoundaryCondition,
                                                       repeat=2)))
def test_extend_matches_a_column_by_column_construction(bc, ng, rng):
    n = 7
    W = np.array([rng.uniform(0.5, 2.0, n), rng.uniform(-1.0, 1.0, n),
                  rng.uniform(0.5, 2.0, n)])
    out = _extend(W, ng, bc)
    assert out.shape == (3, n + 2 * ng)
    np.testing.assert_array_equal(out[:, ng:ng + n], W)
    for g, col in enumerate(_ghost_columns(W, ng, bc[0], "left")):
        np.testing.assert_array_equal(out[:, ng - 1 - g], col)
    for g, col in enumerate(_ghost_columns(W, ng, bc[1], "right")):
        np.testing.assert_array_equal(out[:, ng + n + g], col)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_primitives_are_recovered_once_per_stage(order, scheme, gas,
                                                 monkeypatch):
    """One primitive recovery per stage serves dt and the residual; order 2
    reconstructs all three variables in one MUSCL call per stage."""
    calls = {"prim": 0, "muscl": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(solver1d, "cons_to_prim_arrays",
                        counting("prim", solver1d.cons_to_prim_arrays))
    monkeypatch.setattr(solver1d, "muscl_reconstruct",
                        counting("muscl", solver1d.muscl_reconstruct))
    case = get_case("sod")
    grid = Grid1D(case.x_min, case.x_max, 50)
    U0 = initialize(grid, case.initial_profile, gas)
    _, log = advance(U0, grid, scheme, ReconstructionConfig(order), case.bc,
                     TimeControls(case.t_final, case.cfl), gas)
    assert log.steps > 0
    assert calls["prim"] == order * log.steps
    assert calls["muscl"] == (2 * log.steps if order == 2 else 0)


@pytest.mark.parametrize("order", [1, 2])
def test_2d_primitives_are_recovered_once_per_stage(order, gas, monkeypatch):
    """The 2D solver shares the marcher: one primitive recovery per stage,
    the first stage's serving both dt and the residual."""
    calls = [0]
    convert = euler2d.cons_to_prim_fields

    def counting(*args, **kwargs):
        calls[0] += 1
        return convert(*args, **kwargs)

    monkeypatch.setattr(euler2d, "cons_to_prim_fields", counting)
    _, _, log = euler2d.run_case_2d(euler2d.shock_reflection_case(), gas,
                                    grid_shape=(24, 8), order=order,
                                    t_final=0.2)
    assert log.steps > 0
    assert calls[0] == order * log.steps


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_march_in_place_matches_a_fresh_array_reference(order, scheme, gas):
    """advance updates U in place and, at order 2, U1 in one buffer of the
    march; the result equals, bit for bit, the march on fresh arrays."""
    case = get_case("sod")
    grid = Grid1D(case.x_min, case.x_max, 50)
    U0 = initialize(grid, case.initial_profile, gas)
    recon = ReconstructionConfig(order)
    U, log = advance(U0, grid, scheme, recon, case.bc,
                     TimeControls(case.t_final, case.cfl), gas)
    want, steps = reference_march(
        U0, lambda U: cons_to_prim_arrays(U, gas.gamma),
        lambda W: compute_dt(*W, gas, grid.dx, case.cfl),
        lambda W: solver1d._residual(W, scheme, case.bc, recon, grid.dx,
                                     gas),
        case.t_final, order)
    assert log.steps == steps > 0
    assert np.array_equal(U, want)


@pytest.mark.slow
@pytest.mark.parametrize("scheme", SCHEMES)
def test_second_order_blast_blows_up_in_reconstruction(scheme, gas):
    """Pins a known defect (ROADMAP item 4): at order 2 the limited MUSCL
    face pressure on the blast case turns non-positive while the cells are
    still physical, at the same step and cell for both schemes.  A remedy
    for that item changes this test."""
    with pytest.raises(SolverBlowUp) as err:
        run_case(get_case("blast"), scheme, order=2, gas=gas)
    assert (err.value.step, err.value.cell) == (7291, 2079)
    assert "reconstructed p not positive" in str(err.value)


def test_face_scan_of_the_1d_sides_names_the_field_and_face(gas):
    """The 1D residual scans its stacked (3, n) face sides with the 2D rule.
    A pressure dip at cell 3 with a far larger neighbour at cell 4 drives
    the limited value at face 4, the dip's high face, negative while every
    cell is physical.  A non-finite u, which no cell can hold, is caught by
    the same scan of the stacked sides."""
    grid = Grid1D(0.0, 1.0, 8)
    p = np.ones(8)
    p[3], p[4] = 0.1, 100.0
    U0 = initialize(grid, lambda x: (1.0, 0.0, p), gas)
    with pytest.raises(SolverBlowUp) as err:
        advance(U0, grid, SchemeKind.TVS_FDS, ReconstructionConfig(2),
                TRANSMISSIVE, TimeControls(1.0), gas)
    assert (err.value.step, err.value.cell) == (0, 4)
    assert str(err.value.__cause__) == \
        "reconstructed p not positive, cell=4"
    faces = np.ones((2, 3, 8))
    faces[1, 1, 5] = np.nan                  # right u
    faces[1, 2, 2] = -1.0                    # right p, after any non-finite
    with pytest.raises(NonPhysicalStateError) as err:
        check_faces(faces)
    assert str(err.value) == "reconstructed u non-finite, cell=5"
