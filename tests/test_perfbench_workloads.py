"""The benchmark's germs still build, analyse and grade.

``perfbench/workloads.py`` builds each workload's germs from a seed through
the package's public API and grades each analysis against its exact
oracle.  A package change that breaks a workload's germs, or makes one of
them raise or fail its grade, would otherwise show first in a benchmark
run.  This loads the workloads by path, as ``test_perfbench_tracer.py``
loads the tracer, and runs every case at a few seeds.
"""

import pytest

from lnegerm import germs
from lnegerm.scenarios import run_scenario
from conftest import load_module

workloads = load_module("perfbench/workloads.py", "perfbench_workloads")


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("workload", ["plane_sweep", "arc_fan", "horn3d"])
def test_cases_build_and_grade(workload, seed):
    cases = workloads.build_cases(workload, seed)
    assert cases
    for case in cases:
        result = run_scenario(case.scenario, case.config)
        assert workloads.grade(case, result).failures == [], case.name


@pytest.mark.parametrize("seed", [0, 7])
def test_arc_fan_inverts_each_branch_once(monkeypatch, seed):
    # four branches, six pairs: one norm inversion per branch, not per pair
    calls = []
    original = germs.invert_norm_series

    def counted(q, m, n):
        calls.append(n)
        return original(q, m, n)

    monkeypatch.setattr(germs, "invert_norm_series", counted)
    (case,) = workloads.build_cases("arc_fan", seed)
    run_scenario(case.scenario, case.config)
    assert len(calls) == 4
