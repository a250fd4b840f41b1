import numpy as np
import pytest

from acceptance_log import acceptance_lines
from framecat.corpus import pair_groupoid
from framecat.functors import c_object, omega_object


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def pair2():
    return pair_groupoid(2)


@pytest.fixture(scope="session")
def pair3():
    return pair_groupoid(3)


@pytest.fixture(scope="session")
def omega_pair2(pair2):
    return omega_object(pair2)


@pytest.fixture(scope="session")
def omega_pair3(pair3):
    return omega_object(pair3)


@pytest.fixture(scope="session")
def fc_pair2(omega_pair2):
    return c_object(omega_pair2.rqf)
