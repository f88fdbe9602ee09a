"""State representations, EOS conversions and the unsplit flux."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cpsfds.state import (GasModel, PrimitiveState, Prim2D,
                          NonPhysicalStateError, sound_speed,
                          physical_flux, total_energy, prim_to_cons_arrays,
                          cons_to_prim_arrays)

positive = st.floats(min_value=1e-6, max_value=1e6,
                     allow_nan=False, allow_infinity=False)
velocity = st.floats(min_value=-1e3, max_value=1e3,
                     allow_nan=False, allow_infinity=False)


def test_gas_model_rejects_gamma_at_most_one():
    """Nor a gamma that is not finite: an infinite one was accepted, and a
    run then stopped at step 0 on a pressure of nan."""
    for gamma in (1.0, 0.9, math.nan, math.inf):
        with pytest.raises(ValueError) as err:
            GasModel(gamma)
        assert str(err.value) == f"gamma must exceed 1, got {gamma}"


def test_total_energy_formula():
    gas = GasModel(1.4)
    w = PrimitiveState(2.0, 3.0, 5.0)
    assert total_energy(w, gas) == pytest.approx(5.0 / (2.0 * 0.4) + 4.5)


def test_sound_speed_formula():
    gas = GasModel(1.4)
    w = PrimitiveState(1.0, 0.0, 1.0)
    assert sound_speed(w, gas) == pytest.approx(math.sqrt(1.4))


def _kinetic(rho, vel, gamma):
    """(gamma - 1) rho |u|^2 / 2, the size of what recovering p cancels."""
    return 0.5 * rho * sum(q * q for q in vel) * (gamma - 1.0)


@st.composite
def _cells(draw):
    """Primitive rows (rho, velocities..., p) of a (3, n) or (4, ni, nj)
    array.  Recovering p subtracts the kinetic energy; where that dominates
    p by more than the double-precision mantissa the inversion is
    ill-posed, so each cell keeps p above that."""
    shape = draw(st.sampled_from([(7,), (3, 4)]))
    n = math.prod(shape)
    rows = [draw(st.lists(positive, min_size=n, max_size=n))]
    rows += [draw(st.lists(velocity, min_size=n, max_size=n))
             for _ in shape]
    p = draw(st.lists(positive, min_size=n, max_size=n))
    W = np.array(rows + [p]).reshape((len(shape) + 2,) + shape)
    floor = 1e-12 * _kinetic(W[0], W[1:-1], 1.4)
    W[-1] = np.maximum(W[-1], 2.0 * floor)
    return W


@settings(max_examples=200, deadline=None)
@given(W=_cells(), data=st.data())
def test_prim_cons_round_trip(W, data):
    """One generic pair for 1D rows, 2D fields and single states: the
    round trip recovers the primitives, a single state converts exactly as
    its column does, and a bad cell is named by an int in 1D and by the
    grid (i, j) in 2D."""
    gas = GasModel(1.4)
    U = prim_to_cons_arrays(W, gas.gamma)
    back = cons_to_prim_arrays(U, gas.gamma)
    assert back.shape == W.shape
    np.testing.assert_allclose(back[0], W[0], rtol=1e-12)
    np.testing.assert_allclose(back[1:-1], W[1:-1], rtol=1e-9, atol=1e-9)
    kinetic = _kinetic(W[0], W[1:-1], gas.gamma)
    assert (np.abs(back[-1] - W[-1])
            <= 1e-9 * W[-1] + 1e-12 * kinetic).all()

    shape = W.shape[1:]
    k = data.draw(st.integers(0, math.prod(shape) - 1))
    cell = np.unravel_index(k, shape)
    state = (PrimitiveState if len(W) == 3 else Prim2D)(*W[(...,) + cell])
    column = U[(...,) + cell]
    assert np.array_equal(prim_to_cons_arrays(state, gas.gamma), column)
    assert np.array_equal(cons_to_prim_arrays(column, gas.gamma),
                          back[(...,) + cell])

    want = int(cell[0]) if len(shape) == 1 else tuple(map(int, cell))
    for row, value, what in ((0, data.draw(st.sampled_from(
            [0.0, -1.0, float("nan"), float("inf")])), "density"),
                             (-1, 0.0, "pressure")):
        bad = U.copy()
        bad[(row,) + cell] = value
        with pytest.raises(NonPhysicalStateError, match=what) as err:
            cons_to_prim_arrays(bad, gas.gamma)
        assert err.value.cell == want


def test_physical_flux_components():
    gas = GasModel(1.4)
    w = PrimitiveState(2.0, 3.0, 5.0)
    E = total_energy(w, gas)
    F = physical_flux(w, gas)
    np.testing.assert_allclose(
        F, [6.0, 5.0 + 18.0, 15.0 + 6.0 * E], rtol=1e-14)


def test_nonphysical_states_raise_with_diagnostics():
    gas = GasModel(1.4)
    for cls, w in ((PrimitiveState, (-1.0, 0.0, 1.0)),
                   (PrimitiveState, (1.0, 0.0, 0.0)),
                   (Prim2D, (1.0, 0.0, 0.0, -1.0)),
                   (Prim2D, (1.0, math.inf, 0.0, 1.0))):
        with pytest.raises(NonPhysicalStateError,
                           match="non-physical primitive state"):
            cls(*w)
    with pytest.raises(NonPhysicalStateError) as err:
        cons_to_prim_arrays(np.array([1.0, 10.0, 1.0]), gas.gamma)
    assert err.value.cell == ()


@pytest.mark.parametrize("cls", [PrimitiveState, Prim2D])
def test_states_are_physical_by_construction(cls):
    """A field that is not finite, or a rho or p that is not positive: no
    state is made, and the error carries rho and p.  In a stack of states
    it also names the member."""
    good = (2.0, 0.5, 3.0) if cls is PrimitiveState else (2.0, 0.5, -0.5, 3.0)
    assert tuple(cls(*good)) == good
    cls(*(np.full((2, 3), q) for q in good))
    bad = [(k, q) for k in range(len(good))
           for q in (math.nan, math.inf, -math.inf)]
    bad += [(k, q) for k in (0, len(good) - 1) for q in (0.0, -1.0)]
    for k, q in bad:
        w = list(good)
        w[k] = q
        with pytest.raises(NonPhysicalStateError,
                           match="non-physical primitive state") as err:
            cls(*w)
        np.testing.assert_equal((err.value.rho, err.value.p), (w[0], w[-1]))
        stack = [np.full((2, 3), x) for x in good]
        stack[k][1, 2] = q
        with pytest.raises(NonPhysicalStateError, match=r"cell=\(1, 2\)"):
            cls(*stack)


def test_cons_to_prim_rejects_nan_density():
    gas = GasModel(1.4)
    for U, cell in ((np.array([math.nan, 0.0, 1.0]), ()),
                    (np.array([[1.0, math.nan], [0.0, 0.0], [1.0, 1.0]]), 1),
                    (np.ones((4, 2, 3)), (1, 2))):
        U[(0,) + ((cell,) if isinstance(cell, int) else cell)] = math.nan
        with pytest.raises(NonPhysicalStateError,
                           match="non-physical density in solution") as err:
            cons_to_prim_arrays(U, gas.gamma)
        assert err.value.cell == cell


def test_array_kernels_match_scalar_api(rng):
    gas = GasModel(1.4)
    rho = 10.0 ** rng.uniform(-2, 2, size=50)
    u = rng.uniform(-50, 50, size=50)
    p = 10.0 ** rng.uniform(-2, 3, size=50)
    U = prim_to_cons_arrays((rho, u, p), gas.gamma)
    for i in range(rho.size):
        w = PrimitiveState(rho[i], u[i], p[i])
        np.testing.assert_allclose(U[:, i], prim_to_cons_arrays(w, gas.gamma),
                                   rtol=1e-14)
    r2, u2, p2 = cons_to_prim_arrays(U, gas.gamma)
    np.testing.assert_allclose(r2, rho, rtol=1e-14)
    np.testing.assert_allclose(u2, u, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(p2, p, rtol=1e-11,
                               atol=1e-12 * float(np.max(rho * u * u)))


def test_cons_to_prim_arrays_reports_offending_cell():
    gas = GasModel(1.4)
    U = prim_to_cons_arrays((np.ones(5), np.zeros(5), np.ones(5)), gas.gamma)
    U[2, 3] = 0.0   # kills the pressure in cell 3
    with pytest.raises(NonPhysicalStateError) as err:
        cons_to_prim_arrays(U, gas.gamma)
    assert err.value.cell == 3
