"""Shared fixtures and helpers for the test suite."""

import numpy as np
import pytest

from cpsfds.state import GasModel, PrimitiveState


@pytest.fixture
def gas():
    return GasModel(1.4)


def random_primitive(rng) -> PrimitiveState:
    """A physical state with wide dynamic range in rho, u, p."""
    rho = 10.0 ** rng.uniform(-2.0, 2.0)
    u = rng.uniform(-50.0, 50.0)
    p = 10.0 ** rng.uniform(-2.0, 4.0)
    return PrimitiveState(rho, u, p)


def random_pair(rng):
    return random_primitive(rng), random_primitive(rng)


def wave_scale(es, dU, speed):
    """Largest entry of |R| |speed R^-1 dU| for the basis R of es: the size
    of the wave terms of R |Lambda| R^-1 dU, which its rounding is relative
    to, with |Lambda| bounded by speed."""
    alpha = np.linalg.solve(es.vectors, dU)
    return float(np.max(np.abs(es.vectors) @ np.abs(speed * alpha)))


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
