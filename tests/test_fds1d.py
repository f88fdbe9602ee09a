"""Interface fluxes of the two flux-difference-splitting schemes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_pair, wave_scale

from cpsfds import euler2d
from cpsfds.fds1d import SchemeKind, interface_flux, interface_flux_batch
from cpsfds.splittings import (SplittingKind, split_flux, face_average,
                               convection_eigensystem, pressure_eigensystem,
                               upwind_dissipation)
from cpsfds.state import GasModel, Prim2D, PrimitiveState, \
    cons_to_prim_arrays, physical_flux, prim_to_cons_arrays

SCHEMES = list(SchemeKind)

positive = st.floats(min_value=1e-3, max_value=1e3,
                     allow_nan=False, allow_infinity=False)
velocity = st.floats(min_value=-100.0, max_value=100.0,
                     allow_nan=False, allow_infinity=False)


def test_face_average_reduces_to_the_state_itself():
    for w in (PrimitiveState(2.0, -1.5, 3.0), Prim2D(2.0, -1.5, 0.7, 3.0)):
        avg = face_average(w, w)
        assert type(avg) is type(w)
        np.testing.assert_allclose(tuple(avg), tuple(w), rtol=1e-14)


@settings(max_examples=200, deadline=None)
@given(rho=positive, u=velocity, p=positive)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_flux_consistency_with_equal_states(scheme, rho, u, p):
    gas = GasModel(1.4)
    w = PrimitiveState(rho, u, p)
    F = interface_flux(scheme, w, w, gas)
    np.testing.assert_allclose(F, physical_flux(w, gas), rtol=1e-12,
                               atol=1e-12 * max(p, rho * u * u))


@pytest.mark.parametrize("kind", [SplittingKind.ZHA_BILGEN,
                                  SplittingKind.TORO_VAZQUEZ],
                         ids=["zbs", "tvs"])
def test_pressure_part_u_property(kind, gas, rng):
    """R Lambda R^-1 dU at the face state reproduces the pressure-flux jump.

    The identity is exact in exact arithmetic; in floats the slow acoustic
    speed (u_bar - beta_bar)/2 loses digits by cancellation when
    u_bar^2 >> a_bar^2, so the tolerance is scaled by the full wave-speed
    magnitude rather than by the (possibly tiny) eigenvalue itself.
    """
    for _ in range(200):
        wL, wR = random_pair(rng)
        wb = face_average(wL, wR)
        es = pressure_eigensystem(kind, wb, gas)
        R = es.vectors
        al = np.linalg.solve(R, prim_to_cons_arrays(wR, gas.gamma)
                             - prim_to_cons_arrays(wL, gas.gamma))
        jump = split_flux(kind, wR, gas).pressure \
            - split_flux(kind, wL, gas).pressure
        resid = np.max(np.abs(R @ (al * es.eigenvalues) - jump))
        a2 = gas.gamma * wb.p / wb.rho
        speed = abs(wb.u) + np.sqrt(wb.u ** 2 + 4.0 * a2)
        scale = float(np.sum(np.abs(al) * speed * np.max(np.abs(R), axis=0)))
        assert resid <= 1e-12 * max(scale, 1.0)


def test_stationary_contact_has_zero_dissipation(gas):
    """Equal u = 0 and p across the face: the flux is the common (0, p, 0)."""
    wL = PrimitiveState(1.4, 0.0, 2.5)
    wR = PrimitiveState(0.3, 0.0, 2.5)
    for scheme in SCHEMES:
        F = interface_flux(scheme, wL, wR, gas)
        np.testing.assert_allclose(F, [0.0, 2.5, 0.0], atol=1e-14)


def test_moving_contact_is_upwinded_exactly(gas):
    """Equal u > 0 and p: the interface flux equals the upwind-side flux."""
    wL = PrimitiveState(2.0, 3.0, 1.0)
    wR = PrimitiveState(0.5, 3.0, 1.0)
    for scheme in SCHEMES:
        F = interface_flux(scheme, wL, wR, gas)
        np.testing.assert_allclose(F, physical_flux(wL, gas), rtol=1e-12,
                                   atol=1e-12)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_mirror_symmetry(scheme, gas, rng):
    """Reflecting both states flips mass/energy flux and keeps momentum."""
    for _ in range(100):
        wL, wR = random_pair(rng)
        F = interface_flux(scheme, wL, wR, gas)
        mL = PrimitiveState(wR.rho, -wR.u, wR.p)
        mR = PrimitiveState(wL.rho, -wL.u, wL.p)
        Fm = interface_flux(scheme, mL, mR, gas)
        scale = max(np.max(np.abs(F)), 1.0)
        np.testing.assert_allclose(Fm, [-F[0], F[1], -F[2]],
                                   atol=1e-11 * scale)


@pytest.mark.parametrize("scheme,kind", [
    (SchemeKind.ZBS_FDS, SplittingKind.ZHA_BILGEN),
    (SchemeKind.TVS_FDS, SplittingKind.TORO_VAZQUEZ),
], ids=["zbs", "tvs"])
@pytest.mark.parametrize("x1", [-3.0, 0.7])
def test_batch_kernel_matches_the_eigenstructure(scheme, kind, x1, gas, rng):
    """The kernel is 0.5 (F_L + F_R) - 0.5 (R_c|L_c|R_c^-1 dU +
    R_p|L_p|R_p^-1 dU), assembled by upwind_dissipation from the splitting
    eigensystems at the face state of face_average.  The free constants
    x1, x3 of the generalized eigenvectors must leave no trace."""
    for _ in range(200):
        wL, wR = random_pair(rng)
        wb = face_average(wL, wR)
        dU = (prim_to_cons_arrays(wR, gas.gamma)
              - prim_to_cons_arrays(wL, gas.gamma))
        conv = convection_eigensystem(kind, wb, gas, x1=x1, x3=2.0 * x1)
        press = pressure_eigensystem(kind, wb, gas)
        dissipation = upwind_dissipation(conv, dU) \
            + upwind_dissipation(press, dU)
        FL, FR = physical_flux(wL, gas), physical_flux(wR, gas)
        want = 0.5 * (FL + FR) - 0.5 * dissipation
        got = interface_flux_batch(
            scheme, *(np.array([v]) for v in (wL.rho, wL.u, wL.p,
                                              wR.rho, wR.u, wR.p)),
            gas.gamma)[:, 0]
        # scale by the full wave speed: the slow TVS acoustic speed loses
        # digits by cancellation when u_bar^2 >> a_bar^2
        a2 = gas.gamma * wb.p / wb.rho
        speed = abs(wb.u) + np.sqrt(wb.u ** 2 + 4.0 * a2)
        scale = max(np.max(np.abs(FL)), np.max(np.abs(FR)),
                    wave_scale(conv, dU, abs(wb.u)),
                    wave_scale(press, dU, speed))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)


def amplification_radius(scheme, u0, cfl, gamma=1.4):
    """Largest spectral radius, over wavenumbers k in [0, pi], of one
    first-order forward-Euler step linearized about the uniform state
    (rho, u, p) = (1, u0, 1), with dt/dx = cfl / (|u0| + a) as compute_dt
    sets it.  The face Jacobians A_L, A_R are central differences of
    interface_flux_batch in conserved variables, and the step's symbol is
    G(k) = I - nu (A_L + A_R e^ik - A_L e^-ik - A_R)."""
    U0 = prim_to_cons_arrays((1.0, u0, 1.0), gamma)
    h = 1e-6
    base = np.repeat(U0[:, None], 6, axis=1)
    bumped = base + np.hstack([h * np.eye(3), -h * np.eye(3)])

    def face_jacobian(UL, UR):
        F = interface_flux_batch(scheme, *cons_to_prim_arrays(UL, gamma),
                                 *cons_to_prim_arrays(UR, gamma), gamma)
        return (F[:, :3] - F[:, 3:]) / (2.0 * h)

    A_L, A_R = face_jacobian(bumped, base), face_jacobian(base, bumped)
    nu = cfl / (abs(u0) + np.sqrt(gamma))
    z = np.exp(1j * np.linspace(0.0, np.pi, 721))[:, None, None]
    G = np.eye(3) - nu * (A_L + A_R * z - A_L / z - A_R)
    return float(np.max(np.abs(np.linalg.eigvals(G))))


def test_zbs_linear_stability_limit_at_rest_is_sqrt_of_gm1_over_gamma():
    """ZBS dissipates acoustic waves at lam = sqrt((g - 1)/g) a, below the
    sound speed a that sets dt, so at u0 = 0 the first-order step is stable
    up to CFL sqrt((g - 1)/g) = 0.5345 and no further.  Measured: radius
    <= 1 at 0.99 times that CFL and 1 + 2.0e-5 at 1.01 times it."""
    limit = np.sqrt(0.4 / 1.4)
    assert amplification_radius(SchemeKind.ZBS_FDS, 0.0,
                                0.99 * limit) <= 1.0 + 1e-9
    assert amplification_radius(SchemeKind.ZBS_FDS, 0.0,
                                1.01 * limit) > 1.0 + 1e-5


@pytest.mark.parametrize("u0", [0.0, 0.3, 1.0])
def test_zbs_is_linearly_unstable_at_the_default_cfl_and_tvs_is_not(u0):
    """At the default 1D CFL of 0.8 the ZBS step amplifies some
    wavenumber: measured radius 1 + 0.048, 1 + 0.024 and 1 + 0.0031 at
    u0 = 0, 0.3 and 1.  TVS, whose pressure eigenvalues reduce to +-a at
    rest, is stable at all three.  compute_dt does not yet honour the
    ZBS limit."""
    assert amplification_radius(SchemeKind.ZBS_FDS, u0, 0.8) > 1.0 + 1e-3
    assert amplification_radius(SchemeKind.TVS_FDS, u0, 0.8) <= 1.0 + 1e-9


def amplification_radius_2d(w, cfl, gamma=1.4):
    """Largest spectral radius, over a 96 x 96 grid of wavenumbers
    (kx, ky) in [0, 2 pi)^2, of one first-order forward-Euler step of the
    2D scheme on unit square cells, linearized about the uniform state
    w = (rho, u, v, p), with dt from compute_dt_2d at cfl.  The face
    Jacobians A_L, A_R of the x and the y faces are central differences of
    euler2d._flux_2d_kernel in conserved variables, and the step's symbol
    is G = I - dt (S_x(kx) + S_y(ky)), S(k) = A_L + A_R e^ik - A_L e^-ik
    - A_R."""
    U0 = prim_to_cons_arrays(w, gamma)
    h = 1e-6
    base = np.repeat(U0[:, None], 8, axis=1)
    bumped = base + np.hstack([h * np.eye(4), -h * np.eye(4)])

    def face_jacobian(UL, UR, nx, ny):
        F = euler2d._flux_2d_kernel(*cons_to_prim_arrays(UL, gamma),
                                    *cons_to_prim_arrays(UR, gamma),
                                    nx, ny, gamma)
        return (F[:, :4] - F[:, 4:]) / (2.0 * h)

    def symbol(nx, ny, k):
        A_L = face_jacobian(bumped, base, nx, ny)
        A_R = face_jacobian(base, bumped, nx, ny)
        z = np.exp(1j * k)[..., None, None]
        return A_L + A_R * z - A_L / z - A_R

    grid = euler2d.cartesian_grid(0.0, 2.0, 0.0, 2.0, 2, 2)
    fields = [np.full((2, 2), q) for q in w]
    dt = euler2d.compute_dt_2d(*fields, grid, GasModel(gamma), cfl)
    k = np.linspace(0.0, 2.0 * np.pi, 96, endpoint=False)
    kx, ky = np.meshgrid(k, k, indexing="ij")
    G = np.eye(4) - dt * (symbol(1.0, 0.0, kx) + symbol(0.0, 1.0, ky))
    return float(np.max(np.abs(np.linalg.eigvals(G))))


@pytest.mark.parametrize("w", [(1.0, 0.0, 0.0, 1.0), (1.0, 0.3, 0.0, 1.0),
                               (1.0, 0.21, 0.21, 1.0), (1.4, 6.0, 0.0, 1.0),
                               (1.0, 2.9, 0.0, 1.0 / 1.4)])
def test_2d_step_is_linearly_stable_at_the_case_cfl(w):
    """Every 2D case runs at CFL 0.5 of the standard unsplit bound
    (compute_dt_2d), where the first-order step amplifies no wavenumber:
    at rest, in subsonic, diagonal and Mach-6 flow, and at Mach 2.9."""
    assert amplification_radius_2d(w, 0.5) <= 1.0 + 1e-9


def test_2d_zbs_linear_stability_limit_at_rest():
    """At rest the first-order 2D step is stable up to a standard CFL of
    0.80: measured radius 1 + 2.1e-5 at 0.81 and 1 + 2.7e-4 at 0.83.  So
    the case CFL of 0.5 keeps a 1.6-fold margin."""
    rest = (1.0, 0.0, 0.0, 1.0)
    assert amplification_radius_2d(rest, 0.80) <= 1.0 + 1e-9
    assert amplification_radius_2d(rest, 0.83) > 1.0 + 1e-5
