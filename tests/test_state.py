"""State representations, EOS conversions and the unsplit flux."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from cpsfds.state import (GasModel, PrimitiveState, ConservedState,
                          NonPhysicalStateError, prim_to_cons, cons_to_prim,
                          sound_speed, physical_flux, total_energy,
                          prim_to_cons_arrays, cons_to_prim_arrays)

positive = st.floats(min_value=1e-6, max_value=1e6,
                     allow_nan=False, allow_infinity=False)
velocity = st.floats(min_value=-1e3, max_value=1e3,
                     allow_nan=False, allow_infinity=False)


def test_gas_model_rejects_gamma_at_most_one():
    with pytest.raises(ValueError):
        GasModel(1.0)
    with pytest.raises(ValueError):
        GasModel(0.9)


def test_total_energy_formula():
    gas = GasModel(1.4)
    w = PrimitiveState(2.0, 3.0, 5.0)
    assert total_energy(w, gas) == pytest.approx(5.0 / (2.0 * 0.4) + 4.5)


def test_sound_speed_formula():
    gas = GasModel(1.4)
    w = PrimitiveState(1.0, 0.0, 1.0)
    assert sound_speed(w, gas) == pytest.approx(math.sqrt(1.4))


@given(rho=positive, u=velocity, p=positive)
def test_prim_cons_round_trip(rho, u, p):
    gas = GasModel(1.4)
    # recovering p subtracts the kinetic energy; if that dominates by more
    # than the double-precision mantissa the inversion is ill-posed
    assume(p > 1e-12 * 0.5 * rho * u * u * (gas.gamma - 1.0))
    w = PrimitiveState(rho, u, p)
    back = cons_to_prim(prim_to_cons(w, gas), gas)
    assert back.rho == pytest.approx(rho, rel=1e-12)
    assert back.u == pytest.approx(u, rel=1e-9, abs=1e-9)
    kinetic = 0.5 * rho * u * u * (gas.gamma - 1.0)
    assert back.p == pytest.approx(p, rel=1e-9, abs=1e-12 * kinetic)


def test_physical_flux_components():
    gas = GasModel(1.4)
    w = PrimitiveState(2.0, 3.0, 5.0)
    E = total_energy(w, gas)
    F = physical_flux(w, gas)
    np.testing.assert_allclose(
        F, [6.0, 5.0 + 18.0, 15.0 + 6.0 * E], rtol=1e-14)


def test_nonphysical_states_raise_with_diagnostics():
    gas = GasModel(1.4)
    with pytest.raises(NonPhysicalStateError):
        PrimitiveState(-1.0, 0.0, 1.0).require_physical()
    with pytest.raises(NonPhysicalStateError):
        PrimitiveState(1.0, 0.0, 0.0).require_physical()
    with pytest.raises(NonPhysicalStateError) as err:
        cons_to_prim(ConservedState(1.0, 10.0, 1.0), gas, cell=7, step=3)
    assert err.value.cell == 7
    assert err.value.step == 3


def test_cons_to_prim_rejects_nan_density():
    gas = GasModel(1.4)
    with pytest.raises(NonPhysicalStateError):
        cons_to_prim(ConservedState(float("nan"), 0.0, 1.0), gas)


def test_array_kernels_match_scalar_api(rng):
    gas = GasModel(1.4)
    rho = 10.0 ** rng.uniform(-2, 2, size=50)
    u = rng.uniform(-50, 50, size=50)
    p = 10.0 ** rng.uniform(-2, 3, size=50)
    U = prim_to_cons_arrays(rho, u, p, gas.gamma)
    for i in range(rho.size):
        w = PrimitiveState(rho[i], u[i], p[i])
        np.testing.assert_allclose(
            U[:, i], prim_to_cons(w, gas).as_array(), rtol=1e-14)
    r2, u2, p2 = cons_to_prim_arrays(U, gas.gamma)
    np.testing.assert_allclose(r2, rho, rtol=1e-14)
    np.testing.assert_allclose(u2, u, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(p2, p, rtol=1e-11,
                               atol=1e-12 * float(np.max(rho * u * u)))


def test_cons_to_prim_arrays_reports_offending_cell():
    gas = GasModel(1.4)
    U = prim_to_cons_arrays(np.ones(5), np.zeros(5), np.ones(5), gas.gamma)
    U[2, 3] = 0.0   # kills the pressure in cell 3
    with pytest.raises(NonPhysicalStateError) as err:
        cons_to_prim_arrays(U, gas.gamma, step=11)
    assert err.value.cell == 3
    assert err.value.step == 11
