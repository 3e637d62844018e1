#!/usr/bin/env python3
"""Time the per-point kernels and the link sections on the arguments of
one analysis.

The kernels are ``medial._project_branch`` (the foot Newton),
``PuiseuxBranch._point`` (a branch point), ``PuiseuxBranch.param_at_radius``
(a radius solve), ``germs._miller_powers`` (Miller's recurrence in the
series oracle), ``germs._aligned_components`` (a branch aligned to the
distance for the oracle: its norm inversion and Horner pass) and
``links.link_section`` (one link section).  One analysis of the arc_fan
workload's timed germs at seed 0 (``perfbench/workloads.py``) records
the arguments of every call to each; ``link_section`` also records one
analysis of the horn3d builtin, so its calls are the arc_fan germ's curve
sections and horn3d's surface sections.
Every kernel is then timed on its own calls, the best of ``--repeats``
passes, and printed as one line ``kernel calls, microseconds per call``.
A ``_point`` call made inside a radius solve or a projection is recorded
as a call of its own.  A ``link_section`` call runs against the
``RadiusTable`` it was recorded with, which the analysis has filled, so
its time is the section's assembly, not its solves.

Run from the root of a checkout as ``PYTHONPATH=src python
scripts/kernels.py``; pointing PYTHONPATH at another checkout's ``src``
times that checkout's kernels on the same germs.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from workloads import build_cases  # noqa: E402

from lnegerm import RunConfig, builtin, germs, links, medial  # noqa: E402
from lnegerm.germs import PuiseuxBranch  # noqa: E402
from lnegerm.scenarios import run_scenario  # noqa: E402

#: name -> (owner, attribute) of each timed kernel
KERNELS = {
    "_project_branch": (medial, "_project_branch"),
    "_point": (PuiseuxBranch, "_point"),
    "param_at_radius": (PuiseuxBranch, "param_at_radius"),
    "_miller_powers": (germs, "_miller_powers"),
    "_aligned_components": (germs, "_aligned_components"),
    "link_section": (links, "link_section"),
}


def record(cases, names) -> dict:
    """kernel name -> the (args, kwargs) of its calls in one analysis of
    each (scenario, config) of ``cases``, for the kernels ``names``."""
    calls = {name: [] for name in names}
    originals = {name: getattr(*KERNELS[name]) for name in names}

    def recorder(name):
        original, log = originals[name], calls[name]

        def recorded(*args, **kwargs):
            log.append((args, kwargs))
            return original(*args, **kwargs)

        return recorded

    for name in names:
        setattr(*KERNELS[name], recorder(name))
    try:
        for scenario, config in cases:
            run_scenario(scenario, config)
    finally:
        for name in names:
            setattr(*KERNELS[name], originals[name])
    return calls


def best_seconds(fn, calls: list, repeats: int) -> float:
    """The least time, over ``repeats`` passes, of one pass over ``calls``."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for args, kwargs in calls:
            fn(*args, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return best


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")

    fan = [(case.scenario, case.config) for case in build_cases("arc_fan", 0) if case.timed]
    calls = record(fan, KERNELS)
    calls["link_section"] += record([(builtin("horn3d"), RunConfig())], ["link_section"])[
        "link_section"
    ]
    print(
        f"kernels of one arc_fan seed-0 analysis, link_section also of one horn3d, "
        f"best of {args.repeats}"
    )
    for name, (owner, attr) in KERNELS.items():
        made = calls[name]
        best = best_seconds(getattr(owner, attr), made, args.repeats)
        us = 1e6 * best / len(made) if made else 0.0
        print(f"{name:<19} {len(made):>5} calls  {us:8.2f} us/call")
    return 0


if __name__ == "__main__":
    sys.exit(main())
