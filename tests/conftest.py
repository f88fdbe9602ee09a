"""Shared fixtures and helpers for the test suite."""

import numpy as np
import pytest

# the samplers and scale of cpsfds.checks, shared by the tests
from cpsfds.checks import random_normal, random_primitive, \
    random_state_2d, wave_scale  # noqa: F401
from cpsfds.state import GasModel


@pytest.fixture
def gas():
    return GasModel(1.4)


def random_pair(rng):
    return random_primitive(rng), random_primitive(rng)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# One line per acceptance criterion, echoed at the end of the run so the
# pass/fail verdicts are visible regardless of output capturing.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def reference_march(U, to_prim, dt_fn, residual_fn, t_final, order):
    """The march as its docstring states it, on fresh arrays: U1 = U + dt R
    and, at order 2, U = 0.5 U + 0.5 (U1 + dt R1).  Returns (U, steps)."""
    t, steps = 0.0, 0
    while t < t_final:
        W = to_prim(U)
        dt = min(dt_fn(W), t_final - t)
        U1 = U + dt * residual_fn(W)
        U = U1 if order == 1 else \
            0.5 * U + 0.5 * (U1 + dt * residual_fn(to_prim(U1)))
        t += dt
        steps += 1
    return U, steps
