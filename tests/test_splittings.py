"""Flux splittings, Jacobians and the (generalized) eigenstructure."""

import numpy as np
import pytest

from conftest import random_primitive

from cpsfds.splittings import (SplittingKind, split_flux, convection_jacobian,
                               pressure_jacobian, convection_eigensystem,
                               pressure_eigensystem, convection_jordan,
                               jordan_block_signature, jordan_matrix,
                               verify_jordan, JordanDecomposition)
from cpsfds.state import PrimitiveState, physical_flux, prim_to_cons

ALL_KINDS = list(SplittingKind)
CHAINED_KINDS = [SplittingKind.ZHA_BILGEN, SplittingKind.TORO_VAZQUEZ]


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
        U0 = prim_to_cons(w, gas).as_array()
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


@pytest.mark.parametrize("kind", CHAINED_KINDS)
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


def test_liou_steffen_convection_part_is_marked_defective(gas):
    w = PrimitiveState(1.0, 2.0, 3.0)
    es = convection_eigensystem(SplittingKind.LIOU_STEFFEN, w, gas)
    assert es.defective
    assert es.vectors.shape[1] < 3
    with pytest.raises(ValueError):
        convection_jordan(SplittingKind.LIOU_STEFFEN, w, gas)


@pytest.mark.parametrize("kind", CHAINED_KINDS)
def test_jordan_residual_independent_of_free_parameters(kind, gas, rng):
    w = PrimitiveState(1.3, -2.1, 0.7)
    A = convection_jacobian(kind, w, gas)
    scale = max(np.max(np.abs(A)), 1.0)
    for _ in range(25):
        d = convection_jordan(kind, w, gas,
                              x1=rng.uniform(-5, 5), x3=rng.uniform(-5, 5))
        assert verify_jordan(A, d) <= 1e-10 * scale


@pytest.mark.parametrize("kind,expected", [
    (SplittingKind.ZHA_BILGEN, [2, 1]),
    (SplittingKind.TORO_VAZQUEZ, [2]),
])
def test_block_signature_of_repeated_eigenvalue(kind, expected, gas):
    w = PrimitiveState(1.7, 1.9, 2.3)
    A = convection_jacobian(kind, w, gas)
    assert jordan_block_signature(A, w.u) == expected


def test_block_signature_identity_matrix():
    assert jordan_block_signature(np.eye(4), 1.0) == [1, 1, 1, 1]


def test_block_signature_single_chain():
    J = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 2.0]])
    assert jordan_block_signature(J, 2.0) == [3]


def test_jordan_matrix_assembly():
    J = jordan_matrix([5.0, 5.0, 1.0], {1: 0})
    np.testing.assert_array_equal(
        J, [[5.0, 1.0, 0.0], [0.0, 5.0, 0.0], [0.0, 0.0, 1.0]])


def test_verify_jordan_rejects_singular_basis():
    with pytest.raises(np.linalg.LinAlgError):
        verify_jordan(np.eye(2),
                      JordanDecomposition(np.zeros((2, 2)), np.eye(2)))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_pressure_eigensystem_satisfies_eigen_relations(kind, gas, rng):
    for _ in range(50):
        w = random_primitive(rng)
        B = pressure_jacobian(kind, w, gas)
        es = pressure_eigensystem(kind, w, gas)
        scale = max(np.max(np.abs(B)), 1.0)
        resid = B @ es.vectors - es.vectors * es.eigenvalues[None, :]
        assert np.max(np.abs(resid)) <= 1e-10 * scale


@pytest.mark.parametrize("kind", CHAINED_KINDS)
def test_pressure_eigenvectors_are_independent(kind, gas, rng):
    for _ in range(25):
        w = random_primitive(rng)
        es = pressure_eigensystem(kind, w, gas)
        assert abs(np.linalg.det(es.vectors)) > 0.0
