import re

import pytest

from lglab import PiecewiseConstantBoundary
from lglab.boundary_data import opposite_caps

_ACCEPTANCE = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    m = re.match(r"test_criterion_0*(\d+)", report.nodeid.split("::")[-1])
    if m:
        _ACCEPTANCE[int(m.group(1))] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # one machine-greppable line per acceptance criterion, capture-proof
    for n in sorted(_ACCEPTANCE):
        word = "PASS" if _ACCEPTANCE[n] == "passed" else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {n} {word}")


@pytest.fixture
def caps():
    """Two opposite caps: value 1 on [pi/4, 3pi/4] and [5pi/4, 7pi/4]."""
    return opposite_caps()


@pytest.fixture
def band(caps):
    return PiecewiseConstantBoundary(caps.breakpoints, [0.0, 1.0, 0.0, 1.0])
