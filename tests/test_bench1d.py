"""1D benchmark registry, error norms, convergence orders and the
steady-shock jump diagnostic."""

import math

import numpy as np
import pytest

from conftest import random_pair

from cpsfds import bench1d
from cpsfds.bench1d import (case_registry, get_case, run_case,
                            error_norms, eoc, convergence_table,
                            reference_profile, steady_shock_states, error3,
                            fan_jump_ratio)
from cpsfds.fds1d import SchemeKind
from cpsfds.state import GasModel

EXPECTED_1D_CASES = {"smooth", "sod", "lax", "sonic", "strong-shock",
                     "contact", "slow-contact", "slow-shock", "mach3",
                     "blast", "shock-entropy"}


def test_registry_contents():
    names = {c.name for c in case_registry()}
    assert names == EXPECTED_1D_CASES


def test_get_case_unknown_name_raises():
    with pytest.raises(KeyError):
        get_case("no-such-case")


def test_case_parameters_are_physical():
    for case in case_registry():
        assert case.t_final > 0.0
        assert case.x_max > case.x_min
        rho, u, p = case.initial_profile(
            np.linspace(case.x_min, case.x_max, 64))
        assert np.all(np.asarray(rho) > 0.0)
        assert np.all(np.asarray(p) > 0.0)


def test_error_norms_hand_values():
    rep = error_norms([1.0, 2.0, 4.0], [1.0, 1.0, 1.0], dx=0.5)
    assert rep.l1 == pytest.approx(0.5 * (0.0 + 1.0 + 3.0))
    assert rep.l2 == pytest.approx(math.sqrt(0.5 * (1.0 + 9.0)))
    assert rep.linf == pytest.approx(3.0)


def test_eoc_recovers_a_known_slope():
    # e = C h^2 exactly
    assert eoc(4.0e-2, 1.0e-2, 0.2, 0.1) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        eoc(0.0, 1.0, 0.2, 0.1)


def test_reference_profile_types():
    gas = GasModel(1.4)
    smooth = get_case("smooth")
    x = np.linspace(0.0, 2.0, 33)
    rho, u, p = reference_profile(smooth, x, 0.25, gas)
    np.testing.assert_allclose(
        rho, 1.0 + 0.2 * np.sin(np.pi * (x - 0.025)), rtol=1e-12)
    with pytest.raises(ValueError):
        reference_profile(get_case("blast"), x, 0.01, gas)


def test_steady_shock_states_satisfy_rankine_hugoniot():
    gas = GasModel(1.4)
    g = gas.gamma
    for mach in (1.5, 2.0, 5.0, 10.0, 100.0):
        wl, wr = steady_shock_states(mach, gas)
        # stationary shock: mass, momentum and total-enthalpy fluxes match
        ml = wl.rho * wl.u
        mr = wr.rho * wr.u
        assert mr == pytest.approx(ml, rel=1e-12)
        assert wr.p + wr.rho * wr.u ** 2 == pytest.approx(
            wl.p + wl.rho * wl.u ** 2, rel=1e-12)
        hl = g / (g - 1.0) * wl.p / wl.rho + 0.5 * wl.u ** 2
        hr = g / (g - 1.0) * wr.p / wr.rho + 0.5 * wr.u ** 2
        assert hr == pytest.approx(hl, rel=1e-12)
        # upstream Mach number is as requested
        assert wl.u / math.sqrt(g * wl.p / wl.rho) == pytest.approx(mach)


def test_energy_jump_identity_holds_for_arbitrary_state_pairs(gas, rng):
    """The averaged-jump identity underlying error3 is algebraic, not tied
    to shocks: it must vanish for any pair of physical states."""
    for _ in range(300):
        wL, wR = random_pair(rng)
        scale = max(abs(wL.p), abs(wR.p)) / (gas.gamma - 1.0) \
            + max(wL.rho, wR.rho) * max(wL.u ** 2, wR.u ** 2)
        assert abs(error3(wL, wR, gas)) <= 1e-12 * scale


def test_error3_sweep_shape_and_density_ratio_limit():
    machs = np.array([1.5, 2.0, 1000.0])
    wl, wr = steady_shock_states(machs)
    ratios = wr.rho / wl.rho
    assert error3(wl, wr).shape == ratios.shape == machs.shape
    # strong-shock limit of the density ratio is (gamma+1)/(gamma-1) = 6
    assert ratios[-1] == pytest.approx(6.0, abs=1e-2)


def test_steady_shock_states_of_an_array_equal_its_scalar_calls():
    """Every field of the states for an array of Mach numbers, and their
    error3 residual, equals the call on that one Mach number bit for bit,
    and one Mach number at or below 1 in the array is refused."""
    machs = np.array([[1.5, 2.0, 5.0], [10.0, 100.0, 1000.0]])
    wl, wr = steady_shock_states(machs)
    residual = error3(wl, wr)
    for k in np.ndindex(machs.shape):
        one = steady_shock_states(float(machs[k]))
        for stack, w in zip((wl, wr), one):
            assert [np.shape(q) for q in stack] == [machs.shape] * 3
            assert all(np.array_equal(q[k], r) for q, r in zip(stack, w))
        assert np.array_equal(residual[k], error3(*one))
    with pytest.raises(ValueError, match="must exceed 1"):
        steady_shock_states(np.array([2.0, 1.0]))


def test_fan_jump_ratio_flags_an_isolated_jump():
    x = np.linspace(0.0, 1.0, 50)
    smooth = np.linspace(1.0, 2.0, 50)
    assert fan_jump_ratio(smooth, x, 0.1, 0.9) == pytest.approx(1.0, abs=1e-9)
    with_jump = smooth.copy()
    with_jump[25:] += 0.5
    assert fan_jump_ratio(with_jump, x, 0.1, 0.9) > 10.0
    with pytest.raises(ValueError):
        fan_jump_ratio(smooth, x, 0.49, 0.51)


def test_fan_jump_ratio_equals_its_per_jump_loop(rng):
    """The ratio over an array is the per-jump loop's bit for bit, flat
    stretches (jumps with no neighbouring jump) included."""
    x = np.linspace(0.0, 1.0, 60)
    window = np.where((x > 0.1) & (x < 0.9))[0]
    for _ in range(50):
        rho = 1.0 + np.cumsum(rng.uniform(size=60)
                              * (rng.uniform(size=60) > 0.4))
        jumps = np.abs(np.diff(rho[window[0]:window[-1] + 1]))
        worst = 0.0
        for k in range(1, jumps.size - 1):
            neighbors = 0.5 * (jumps[k - 1] + jumps[k + 1])
            if neighbors > 0.0:
                worst = max(worst, jumps[k] / neighbors)
        assert fan_jump_ratio(rho, x, 0.1, 0.9) == worst


@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_run_case_produces_errors_against_the_oracle(scheme):
    res = run_case(get_case("sod"), scheme, n_cells=50)
    assert res.errors is not None
    assert res.errors.l1 > 0.0
    assert res.x.shape == res.rho.shape == (50,)
    assert res.steps > 0


def test_zero_cells_is_not_the_default_grid():
    """Only None selects the case's default cell count: 0 ran 100 cells."""
    with pytest.raises(ValueError, match="need at least 4 cells"):
        run_case(get_case("sod"), SchemeKind.ZBS_FDS, n_cells=0)


def test_smooth_case_error_shrinks_under_refinement():
    rows = convergence_table(get_case("smooth"), SchemeKind.ZBS_FDS,
                             [40, 80])
    (n1, e1, o1), (n2, e2, o2) = rows
    assert o1 is None
    assert e2.l1 < e1.l1
    assert 0.5 < o2[0] < 1.5     # first order scheme


@pytest.mark.parametrize("cells", [(40,), (40, 80)])
def test_convergence_table_without_a_reference_raises_before_solving(
        cells, monkeypatch):
    def solve(*args, **kwargs):
        raise AssertionError("solved a case without a reference")

    monkeypatch.setattr(bench1d, "run_case", solve)
    with pytest.raises(ValueError, match="no reference solution"):
        convergence_table(get_case("shock-entropy"), SchemeKind.ZBS_FDS,
                          cells)
