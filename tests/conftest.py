"""Shared fixtures.

The scenario runs are session-scoped so that the functional tests and the
acceptance gate grade the same computation instead of repeating it.  The 3D
horn takes its medial branches from exact bisectors of its z = 0 trace, as
the plane germs take theirs.
"""

from __future__ import annotations

import pytest

from lnegerm import RunConfig, builtin, run_scenario


@pytest.fixture(scope="session")
def config() -> RunConfig:
    return RunConfig()


@pytest.fixture(scope="session")
def cusp_result(config):
    return run_scenario(builtin("cusp"), config)


@pytest.fixture(scope="session")
def abs_result(config):
    return run_scenario(builtin("abs_graph"), config)


@pytest.fixture(scope="session")
def three_result(config):
    return run_scenario(builtin("three_tangent"), config)


@pytest.fixture(scope="session")
def horn_result(config):
    return run_scenario(builtin("horn3d"), config)


@pytest.fixture(scope="session")
def results_2d(cusp_result, abs_result, three_result):
    return {
        "cusp": cusp_result,
        "abs_graph": abs_result,
        "three_tangent": three_result,
    }


@pytest.fixture(scope="session")
def all_results(results_2d, horn_result):
    out = dict(results_2d)
    out["horn3d"] = horn_result
    return out


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Replay the acceptance verdict lines after capture is torn down."""
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in sorted(RESULTS):
            terminalreporter.write_line(line)
