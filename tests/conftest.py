"""Shared fixtures.

The scenario runs are session-scoped so that the functional tests and the
acceptance gate grade the same computation instead of repeating it.  The 3D
horn takes its medial branches from exact bisectors of its z = 0 trace, as
the plane germs take theirs.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from lnegerm import RunConfig, builtin, run_scenario

ROOT = Path(__file__).resolve().parents[1]


def load_module(path: str, name: str | None = None):
    """The module of the file ``path`` under the repository root (a script
    under ``scripts/`` or a module of ``perfbench/``), executed afresh and
    registered in ``sys.modules`` as ``name``, the file's stem by default,
    so that its dataclasses can look their module up by name."""
    path = ROOT / path
    spec = importlib.util.spec_from_file_location(name or path.stem, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


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
