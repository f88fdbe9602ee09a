"""Exact Riemann solver: star-state values against an independent bisection
oracle, sampling consistency, and failure modes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cpsfds.exact_riemann import (VacuumError, solve_star, sample,
                                  sample_profile, pressure_function)
from cpsfds.state import GasModel, PrimitiveState, sound_speed

GAMMA = 1.4


def _bisect_star_pressure(wL, wR, gamma, lo=1e-10, hi=1e8, iters=200):
    """Independent star-pressure solver: bisection on the standard pressure
    function written out from the shock/rarefaction jump relations."""

    def side(p, w):
        a = math.sqrt(gamma * w.p / w.rho)
        if p > w.p:
            A = 2.0 / ((gamma + 1.0) * w.rho)
            B = (gamma - 1.0) / (gamma + 1.0) * w.p
            return (p - w.p) * math.sqrt(A / (p + B))
        return 2.0 * a / (gamma - 1.0) * (
            (p / w.p) ** ((gamma - 1.0) / (2.0 * gamma)) - 1.0)

    def f(p):
        return side(p, wL) + side(p, wR) + (wR.u - wL.u)

    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# Star pressures recomputed by the bisection oracle above (frozen here);
# the classic 4-to-5-digit literature values are p* = 0.30313 (first case)
# and 0.0018938 (third case).
ORACLE_CASES = [
    (PrimitiveState(1.0, 0.0, 1.0), PrimitiveState(0.125, 0.0, 0.1)),
    (PrimitiveState(0.445, 0.698, 3.528), PrimitiveState(0.5, 0.0, 0.571)),
    (PrimitiveState(1.0, -2.0, 0.4), PrimitiveState(1.0, 2.0, 0.4)),
    (PrimitiveState(1.0, 0.0, 1000.0), PrimitiveState(1.0, 0.0, 0.01)),
    (PrimitiveState(1.0, 0.75, 1.0), PrimitiveState(0.125, 0.0, 0.1)),
]


@pytest.mark.parametrize("wL,wR", ORACLE_CASES)
def test_star_pressure_matches_bisection_oracle(wL, wR):
    gas = GasModel(GAMMA)
    star = solve_star(wL, wR, gas)
    p_ref = _bisect_star_pressure(wL, wR, GAMMA)
    assert star.p_star == pytest.approx(p_ref, rel=1e-10)


def test_classic_shock_tube_star_values():
    gas = GasModel(GAMMA)
    star = solve_star(PrimitiveState(1.0, 0.0, 1.0),
                      PrimitiveState(0.125, 0.0, 0.1), gas)
    assert star.p_star == pytest.approx(0.30313, rel=1e-4)
    assert star.u_star == pytest.approx(0.92745, rel=1e-4)


def test_star_state_zeroes_the_pressure_function(rng):
    gas = GasModel(GAMMA)
    for _ in range(100):
        wL = PrimitiveState(10.0 ** rng.uniform(-1, 1), rng.uniform(-3, 3),
                            10.0 ** rng.uniform(-1, 2))
        wR = PrimitiveState(10.0 ** rng.uniform(-1, 1), rng.uniform(-3, 3),
                            10.0 ** rng.uniform(-1, 2))
        try:
            star = solve_star(wL, wR, gas)
        except VacuumError:
            continue
        resid = pressure_function(star.p_star, wL, wR, gas)
        assert abs(resid) <= 1e-10 * max(wL.p, wR.p)


def test_vacuum_formation_raises():
    gas = GasModel(GAMMA)
    with pytest.raises(VacuumError):
        solve_star(PrimitiveState(1.0, -50.0, 1.0),
                   PrimitiveState(1.0, 50.0, 1.0), gas)


def test_sampling_is_continuous_in_u_and_p_across_the_contact():
    gas = GasModel(GAMMA)
    wL = PrimitiveState(1.0, 0.0, 1.0)
    wR = PrimitiveState(0.125, 0.0, 0.1)
    star = solve_star(wL, wR, gas)
    eps = 1e-9
    left = sample(star, wL, wR, gas, star.u_star - eps)
    right = sample(star, wL, wR, gas, star.u_star + eps)
    assert left.u == pytest.approx(right.u, abs=1e-6)
    assert left.p == pytest.approx(right.p, abs=1e-6)
    assert left.rho == pytest.approx(star.rho_star_L, rel=1e-6)
    assert right.rho == pytest.approx(star.rho_star_R, rel=1e-6)


def test_sampling_recovers_the_unperturbed_states_outside_the_waves():
    gas = GasModel(GAMMA)
    wL = PrimitiveState(1.0, 0.0, 1.0)
    wR = PrimitiveState(0.125, 0.0, 0.1)
    star = solve_star(wL, wR, gas)
    far_left = sample(star, wL, wR, gas, -100.0)
    far_right = sample(star, wL, wR, gas, 100.0)
    assert far_left == wL
    assert far_right == wR


def test_rarefaction_fan_is_isentropic():
    gas = GasModel(GAMMA)
    wL = PrimitiveState(1.0, 0.0, 1.0)
    wR = PrimitiveState(0.125, 0.0, 0.1)
    star = solve_star(wL, wR, gas)
    aL = sound_speed(wL, gas)
    head = wL.u - aL
    sL = wL.p / wL.rho ** GAMMA
    for xi in np.linspace(head + 1e-6, star.u_star - 1e-6, 20):
        w = sample(star, wL, wR, gas, float(xi))
        assert w.p / w.rho ** GAMMA == pytest.approx(sL, rel=1e-10)


def test_sample_profile_shapes_and_symmetry():
    gas = GasModel(GAMMA)
    wL = PrimitiveState(1.0, -2.0, 0.4)
    wR = PrimitiveState(1.0, 2.0, 0.4)
    x = np.linspace(-0.5, 0.5, 41)
    rho, u, p = sample_profile(wL, wR, gas, x, 0.1)
    assert rho.shape == u.shape == p.shape == x.shape
    # symmetric double rarefaction: rho even, u odd about x = 0
    np.testing.assert_allclose(rho, rho[::-1], rtol=1e-12)
    np.testing.assert_allclose(u, -u[::-1], atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    rhoL=st.floats(0.05, 20.0), pL=st.floats(0.05, 100.0),
    rhoR=st.floats(0.05, 20.0), pR=st.floats(0.05, 100.0),
    uL=st.floats(-5.0, 5.0), uR=st.floats(-5.0, 5.0))
def test_star_state_is_physical_for_random_inputs(rhoL, pL, rhoR, pR, uL, uR):
    gas = GasModel(GAMMA)
    wL = PrimitiveState(rhoL, uL, pL)
    wR = PrimitiveState(rhoR, uR, pR)
    try:
        star = solve_star(wL, wR, gas)
    except VacuumError:
        return
    assert star.p_star > 0.0
    assert star.rho_star_L > 0.0
    assert star.rho_star_R > 0.0
