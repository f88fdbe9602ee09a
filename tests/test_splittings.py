"""Flux splittings, Jacobians and the (generalized) eigenstructure."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import random_primitive, random_state_2d, wave_scale

from cpsfds.splittings import (SplittingKind, EigenSystem, FaceGeometry,
                               split_flux, convection_jacobian,
                               pressure_jacobian, convection_eigensystem,
                               pressure_eigensystem, convection_eigensystem_2d,
                               pressure_eigensystem_2d, jordan_block_signature,
                               jordan_matrix, verify_jordan,
                               upwind_dissipation, face_average)
from cpsfds.state import PrimitiveState, physical_flux, prim_to_cons_arrays, \
    total_energy

ALL_KINDS = list(SplittingKind)
LS = SplittingKind.LIOU_STEFFEN


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_split_flux_sums_to_physical_flux(kind, gas, rng):
    for _ in range(100):
        w = random_primitive(rng)
        sf = split_flux(kind, w, gas)
        F = physical_flux(w, gas)
        np.testing.assert_allclose(sf.total, F, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(F)))


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("part", ["convection", "pressure"])
def test_jacobians_match_finite_differences(kind, part, gas, rng):
    """Central finite differences of the split flux in conserved variables."""
    for _ in range(20):
        w = random_primitive(rng)
        U0 = prim_to_cons_arrays(w, gas.gamma)
        if part == "convection":
            A = convection_jacobian(kind, w, gas)
            pick = lambda sf: sf.convection
        else:
            A = pressure_jacobian(kind, w, gas)
            pick = lambda sf: sf.pressure

        def f(U):
            g = gas.gamma
            rho = U[0]
            u = U[1] / rho
            p = (g - 1.0) * (U[2] - 0.5 * U[1] ** 2 / rho)
            return pick(split_flux(kind, PrimitiveState(rho, u, p), gas))

        num = np.empty((3, 3))
        scale = np.maximum(np.abs(U0), 1.0)
        for j in range(3):
            h = 1e-6 * scale[j]
            Up, Um = U0.copy(), U0.copy()
            Up[j] += h
            Um[j] -= h
            num[:, j] = (f(Up) - f(Um)) / (2.0 * h)
        np.testing.assert_allclose(A, num, rtol=2e-5,
                                   atol=2e-5 * np.max(np.abs(A)))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_jacobians_sum_to_full_euler_jacobian(kind, gas, rng):
    for _ in range(20):
        w = random_primitive(rng)
        total = convection_jacobian(kind, w, gas) \
            + pressure_jacobian(kind, w, gas)
        base = convection_jacobian(SplittingKind.ZHA_BILGEN, w, gas) \
            + pressure_jacobian(SplittingKind.ZHA_BILGEN, w, gas)
        np.testing.assert_allclose(total, base, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(base)))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_convection_eigensystem_satisfies_chain_relations(kind, gas, rng):
    for _ in range(50):
        w = random_primitive(rng)
        A = convection_jacobian(kind, w, gas)
        es = convection_eigensystem(kind, w, gas,
                                    x1=rng.uniform(-2, 2),
                                    x3=rng.uniform(-2, 2))
        scale = max(np.max(np.abs(A)), 1.0)
        for k in range(3):
            r = es.vectors[:, k]
            resid = A @ r - es.eigenvalues[k] * r
            if k in es.chain_links:
                resid = resid - es.vectors[:, es.chain_links[k]]
            assert np.max(np.abs(resid)) <= 1e-11 * scale
        assert abs(np.linalg.det(es.vectors)) > 1e-12


@pytest.mark.parametrize("u,expected", [(2.0, [2, 0, 0]), (0.0, [2, 1, 0])],
                         ids=["moving", "at-rest"])
def test_liou_steffen_convection_blocks(u, expected, gas):
    """One order-two block for u, and at rest, where gamma u = u = 0, a
    second block of order one."""
    w = PrimitiveState(1.0, u, 3.0)
    np.testing.assert_array_equal(
        jordan_block_signature(convection_jacobian(LS, w, gas), u), expected)


def test_liou_steffen_basis_at_rest_is_a_jordan_basis(gas, rng):
    w = PrimitiveState(1.3, 0.0, 0.7)
    A = convection_jacobian(LS, w, gas)
    for x1 in (0.0, *rng.uniform(-5, 5, size=5)):
        es = convection_eigensystem(LS, w, gas, x1=x1)
        np.testing.assert_array_equal(es.eigenvalues, 0.0)
        assert verify_jordan(A, es) <= 1e-15 * np.max(np.abs(A))


def test_liou_steffen_dissipation_does_not_see_the_free_parameter(gas, rng):
    """Though R is ill conditioned near u = 0, R |Lambda| R^-1 dU at the
    face state is the same for every x1, to rounding of its wave terms."""
    for _ in range(200):
        wL, wR = random_primitive(rng), random_primitive(rng)
        wb = face_average(wL, wR)
        dU = prim_to_cons_arrays(wR, gas.gamma) \
            - prim_to_cons_arrays(wL, gas.gamma)
        es = [convection_eigensystem(LS, wb, gas, x1=x1) for x1 in (-3, 0.7)]
        scale = max(wave_scale(e, dU, abs(wb.u)) for e in es)
        np.testing.assert_allclose(upwind_dissipation(es[0], dU),
                                   upwind_dissipation(es[1], dU), rtol=0,
                                   atol=1e-14 * scale)


def test_liou_steffen_dissipation_jumps_at_rest(gas):
    """As u -> 0+- the convection dissipation R |Lambda| R^-1 tends to
    +-gamma E in its energy-from-momentum entry and the pressure one to
    -+(gamma - 1) in its momentum-from-energy entry; at u = 0 the
    convection term is 0."""
    g = gas.gamma

    def dissipation(es):
        # row j of the result is the dissipation of the jump e_j
        return upwind_dissipation(es, np.eye(3)).T

    for u in (1e-6, -1e-6):
        w = PrimitiveState(1.3, u, 0.7)
        side = np.sign(u)
        es = convection_eigensystem(LS, w, gas)
        # the generalized eigenvector grows like 1/((gamma - 1) u)
        assert es.vectors[2, 2] * (g - 1.0) * u == pytest.approx(
            -g * total_energy(w, gas), rel=1e-5)
        conv = dissipation(es)
        press = dissipation(pressure_eigensystem(LS, w, gas))
        assert conv[2, 1] == pytest.approx(side * g * total_energy(w, gas),
                                           rel=1e-5)
        assert press[1, 2] == pytest.approx(-side * (g - 1.0), rel=1e-5)
        # every other entry is O(u)
        conv[2, 1] = press[1, 2] = 0.0
        assert np.max(np.abs(conv)) < 10 * abs(u)
        assert np.max(np.abs(press)) < 10 * abs(u)
    np.testing.assert_array_equal(dissipation(convection_eigensystem(
        LS, PrimitiveState(1.3, 0.0, 0.7), gas)), 0.0)


def test_liou_steffen_pressure_basis_is_singular_at_rest(gas):
    """det R = -u, so upwind_dissipation cannot invert it at u = 0."""
    for u in (0.5, -2.0):
        es = pressure_eigensystem(LS, PrimitiveState(1.0, u, 1.0), gas)
        assert np.linalg.det(es.vectors) == pytest.approx(-u, rel=1e-14)
    es = pressure_eigensystem(LS, PrimitiveState(1.0, 0.0, 1.0), gas)
    with pytest.raises(np.linalg.LinAlgError):
        upwind_dissipation(es, np.array([0.0, 0.0, 1.0]))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_jordan_residual_independent_of_free_parameters(kind, gas, rng):
    w = PrimitiveState(1.3, -2.1, 0.7)
    A = convection_jacobian(kind, w, gas)
    scale = max(np.max(np.abs(A)), 1.0)
    for _ in range(25):
        es = convection_eigensystem(kind, w, gas, x1=rng.uniform(-5, 5),
                                    x3=rng.uniform(-5, 5))
        assert verify_jordan(A, es) <= 1e-10 * scale


@pytest.mark.parametrize("kind,expected", [
    (SplittingKind.ZHA_BILGEN, [2, 1, 0]),
    (SplittingKind.TORO_VAZQUEZ, [2, 0, 0]),
    (SplittingKind.LIOU_STEFFEN, [2, 0, 0]),
])
def test_block_signature_of_repeated_eigenvalue(kind, expected, gas):
    w = PrimitiveState(1.7, 1.9, 2.3)
    A = convection_jacobian(kind, w, gas)
    np.testing.assert_array_equal(jordan_block_signature(A, w.u), expected)


def test_block_signature_identity_matrix():
    np.testing.assert_array_equal(jordan_block_signature(np.eye(4), 1.0),
                                  [1, 1, 1, 1])


def test_block_signature_single_chain():
    J = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 2.0]])
    np.testing.assert_array_equal(jordan_block_signature(J, 2.0), [3, 0, 0])


def test_jordan_matrix_assembly():
    J = jordan_matrix([5.0, 5.0, 1.0], {1: 0})
    np.testing.assert_array_equal(
        J, [[5.0, 1.0, 0.0], [0.0, 5.0, 0.0], [0.0, 0.0, 1.0]])


def test_verify_jordan_rejects_singular_basis():
    with pytest.raises(np.linalg.LinAlgError):
        verify_jordan(np.eye(2), EigenSystem(np.ones(2), np.zeros((2, 2))))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_pressure_eigensystem_satisfies_eigen_relations(kind, gas, rng):
    for _ in range(50):
        w = random_primitive(rng)
        B = pressure_jacobian(kind, w, gas)
        es = pressure_eigensystem(kind, w, gas)
        scale = max(np.max(np.abs(B)), 1.0)
        resid = B @ es.vectors - es.vectors * es.eigenvalues[None, :]
        assert np.max(np.abs(resid)) <= 1e-10 * scale


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_pressure_eigenvectors_are_independent(kind, gas, rng):
    for _ in range(25):
        w = random_primitive(rng)
        es = pressure_eigensystem(kind, w, gas)
        assert abs(np.linalg.det(es.vectors)) > 0.0


def test_upwind_dissipation_of_a_chain_is_the_scaled_jump(gas, rng):
    """Every Zha-Bilgen convection eigenvalue is u, so with the Jordan
    coupling dropped R |Lambda| R^-1 dU is |u| dU for any free constants."""
    for _ in range(50):
        w = random_primitive(rng)
        dU = rng.normal(size=3)
        es = convection_eigensystem(SplittingKind.ZHA_BILGEN, w, gas,
                                    x1=rng.uniform(-2, 2),
                                    x3=rng.uniform(-2, 2))
        got = upwind_dissipation(es, dU)
        cond = np.linalg.cond(es.vectors)
        np.testing.assert_allclose(got, abs(w.u) * dU, rtol=0,
                                   atol=1e-13 * cond * abs(w.u)
                                   * np.max(np.abs(dU)))


def _bases(kind, w, gas):
    """A convection and a pressure basis of kind at w, a state or a stack;
    kind None is the 2D face split, at the normal of angle 0.4."""
    if kind is None:
        geom = FaceGeometry(math.cos(0.4), math.sin(0.4), 1.0)
        return (convection_eigensystem_2d(w, geom, gas, 0.7, -1.3, -0.4),
                pressure_eigensystem_2d(w, geom, gas))
    return (convection_eigensystem(kind, w, gas, x1=0.7, x3=1.4),
            pressure_eigensystem(kind, w, gas))


@pytest.mark.parametrize("kind", [*ALL_KINDS, None],
                         ids=[*(k.name for k in ALL_KINDS), "2D"])
def test_upwind_dissipation_of_a_stack_is_one_call_per_member(kind, gas,
                                                              rng):
    """A (k, n) stack of jumps through one basis, and a stack of bases
    with a jump each, give what k single calls give: each row of
    R^-1 dU is scaled by its eigenvalue."""
    w = (random_primitive if kind else random_state_2d)(rng, (4,))
    jumps = rng.normal(size=(4, len(tuple(w))))
    members = [_bases(kind, type(w)(*(q[i] for q in w)), gas)
               for i in range(4)]
    for k, stack in enumerate(_bases(kind, w, gas)):
        one = members[0][k]
        for got, want in (
                (upwind_dissipation(one, jumps),
                 [upwind_dissipation(one, dU) for dU in jumps]),
                (upwind_dissipation(stack, jumps),
                 [upwind_dissipation(m[k], dU)
                  for m, dU in zip(members, jumps)])):
            np.testing.assert_allclose(got, want, rtol=0,
                                       atol=1e-12 * np.max(np.abs(want)))


def test_splittings_does_not_load_the_2d_solver():
    """The analysis layer sits below the solvers: importing it in a fresh
    interpreter leaves cpsfds.euler2d unloaded."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=str(src) + (os.pathsep + path if path else ""))
    code = ("import sys, cpsfds.splittings; "
            "print('cpsfds.euler2d' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
