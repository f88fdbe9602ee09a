"""Interface fluxes of the two flux-difference-splitting schemes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_pair, wave_scale

from cpsfds.fds1d import (SchemeKind, interface_averages,
                          zbs_pressure_strengths, tvs_pressure_strengths,
                          interface_flux, interface_flux_batch)
from cpsfds.splittings import (SplittingKind, split_flux,
                               convection_eigensystem, pressure_eigensystem,
                               upwind_dissipation)
from cpsfds.state import GasModel, PrimitiveState, physical_flux, prim_to_cons

SCHEMES = list(SchemeKind)

positive = st.floats(min_value=1e-3, max_value=1e3,
                     allow_nan=False, allow_infinity=False)
velocity = st.floats(min_value=-100.0, max_value=100.0,
                     allow_nan=False, allow_infinity=False)


def test_interface_averages_reduce_to_the_state_itself(gas):
    w = PrimitiveState(2.0, -1.5, 3.0)
    avg = interface_averages(w, w, gas)
    assert avg.rho_bar == pytest.approx(w.rho, rel=1e-14)
    assert avg.u_bar == pytest.approx(w.u, rel=1e-14)
    assert avg.a2_bar == pytest.approx(gas.gamma * w.p / w.rho, rel=1e-14)


@settings(max_examples=200, deadline=None)
@given(rho=positive, u=velocity, p=positive)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_flux_consistency_with_equal_states(scheme, rho, u, p):
    gas = GasModel(1.4)
    w = PrimitiveState(rho, u, p)
    F = interface_flux(scheme, w, w, gas)
    np.testing.assert_allclose(F, physical_flux(w, gas), rtol=1e-12,
                               atol=1e-12 * max(p, rho * u * u))


@pytest.mark.parametrize("scheme,kind,strengths,lam_of", [
    (SchemeKind.ZBS_FDS, SplittingKind.ZHA_BILGEN, zbs_pressure_strengths,
     lambda avg, g: np.array([-np.sqrt((g - 1.0) / g) * avg.a_bar, 0.0,
                              np.sqrt((g - 1.0) / g) * avg.a_bar])),
    (SchemeKind.TVS_FDS, SplittingKind.TORO_VAZQUEZ, tvs_pressure_strengths,
     lambda avg, g: np.array([0.5 * (avg.u_bar - avg.beta_bar), 0.0,
                              0.5 * (avg.u_bar + avg.beta_bar)])),
])
def test_pressure_part_u_property(scheme, kind, strengths, lam_of, gas, rng):
    """sum_i alpha_i lambda_i R_i(avg) reproduces the pressure-flux jump.

    The identity is exact in exact arithmetic; in floats the slow acoustic
    speed (u_bar - beta_bar)/2 loses digits by cancellation when
    u_bar^2 >> a_bar^2, so the tolerance is scaled by the full wave-speed
    magnitude rather than by the (possibly tiny) eigenvalue itself.
    """
    for _ in range(200):
        wL, wR = random_pair(rng)
        avg = interface_averages(wL, wR, gas)
        al = strengths(avg, wR.rho - wL.rho, wR.u - wL.u, wR.p - wL.p, gas)
        lam = lam_of(avg, gas.gamma)
        w_avg = PrimitiveState(avg.rho_bar, avg.u_bar,
                               avg.rho_bar * avg.a2_bar / gas.gamma)
        R = pressure_eigensystem(kind, w_avg, gas).vectors
        jump = split_flux(kind, wR, gas).pressure \
            - split_flux(kind, wL, gas).pressure
        resid = np.max(np.abs(R @ (al * lam) - jump))
        speed = abs(avg.u_bar) + np.sqrt(avg.u_bar ** 2 + 4.0 * avg.a2_bar)
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


@pytest.mark.parametrize("scheme,kind,strengths", [
    (SchemeKind.ZBS_FDS, SplittingKind.ZHA_BILGEN, zbs_pressure_strengths),
    (SchemeKind.TVS_FDS, SplittingKind.TORO_VAZQUEZ, tvs_pressure_strengths),
], ids=["zbs", "tvs"])
@pytest.mark.parametrize("x1", [-3.0, 0.7])
def test_batch_kernel_matches_the_eigenstructure(scheme, kind, strengths, x1,
                                                 gas, rng):
    """The kernel's dissipation is R_c|L_c|R_c^-1 dU + sum_i alpha_i
    |lambda_i| R_i, assembled from the splitting eigensystems at the averaged
    state, the first term by upwind_dissipation, with the paper's closed-form
    alpha_i.  The free constants x1, x3 of the generalized eigenvectors must
    leave no trace."""
    for _ in range(200):
        wL, wR = random_pair(rng)
        avg = interface_averages(wL, wR, gas)
        w_avg = PrimitiveState(avg.rho_bar, avg.u_bar,
                               avg.rho_bar * avg.a2_bar / gas.gamma)
        dU = prim_to_cons(wR, gas) - prim_to_cons(wL, gas)
        conv = convection_eigensystem(kind, w_avg, gas, x1=x1, x3=2.0 * x1)
        press = pressure_eigensystem(kind, w_avg, gas)
        alpha = strengths(avg, wR.rho - wL.rho, wR.u - wL.u, wR.p - wL.p, gas)
        dissipation = upwind_dissipation(conv, dU) \
            + press.vectors @ (np.abs(press.eigenvalues) * alpha)
        FL, FR = physical_flux(wL, gas), physical_flux(wR, gas)
        want = 0.5 * (FL + FR) - 0.5 * dissipation
        got = interface_flux_batch(
            scheme, *(np.array([v]) for v in (wL.rho, wL.u, wL.p,
                                              wR.rho, wR.u, wR.p)),
            gas.gamma)[:, 0]
        # scale by the full wave speed: the slow TVS acoustic speed loses
        # digits by cancellation when u_bar^2 >> a_bar^2
        speed = abs(avg.u_bar) + avg.beta_bar
        scale = max(np.max(np.abs(FL)), np.max(np.abs(FR)),
                    wave_scale(conv, dU, abs(avg.u_bar)),
                    np.max(np.abs(press.vectors) @ np.abs(speed * alpha)))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)


def test_wave_strengths_decompose_the_conserved_jump(gas, rng):
    """alpha over the averaged eigenvector basis reconstructs dU minus the
    part carried by the convection dissipation identity."""
    for _ in range(100):
        wL, wR = random_pair(rng)
        avg = interface_averages(wL, wR, gas)
        drho, du, dp = wR.rho - wL.rho, wR.u - wL.u, wR.p - wL.p
        a1, a2, a3 = zbs_pressure_strengths(avg, drho, du, dp, gas)
        # mass row: alpha_2 alone carries drho
        assert a2 == pytest.approx(drho, rel=1e-13, abs=1e-13)
        # momentum row: alpha_1 + alpha_2 u + alpha_3 closes the jump
        mom = a1 + a2 * avg.u_bar + a3
        target = avg.rho_bar * du + avg.u_bar * drho
        assert mom == pytest.approx(target, rel=1e-11, abs=1e-11)
