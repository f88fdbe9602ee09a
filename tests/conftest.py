"""Shared fixtures and helpers for the test suite."""

import numpy as np
import pytest

# the sampler and scale of cpsfds.checks, shared by the tests
from cpsfds.checks import random_primitive, wave_scale  # noqa: F401
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
