#!/usr/bin/env python3
"""Print the sha256 of each benchmark germ's canonical JSON.

The germs are those of the benchmark workloads (``perfbench/workloads.py``):
by default plane_sweep and arc_fan at seeds 0-7 and horn3d at seed 0, 73
germs in all.  Each is analysed as ``lnegerm analyze`` analyses it and
printed as one line ``workload seed germ sha256``; a germ whose analysis
raises prints ``raised <type>`` in place of the digest.  Two checkouts that
print the same lines give the same bytes on every germ, so a change meant
to keep the output compares its lines with its parent's.

Run from the root of a checkout as ``PYTHONPATH=src python
scripts/digests.py``; ``--workloads`` and ``--seeds`` restrict the set.
"""

import argparse
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from workloads import build_cases  # noqa: E402

from lnegerm.report import canonical_json  # noqa: E402
from lnegerm.scenarios import run_scenario  # noqa: E402

#: (workload, seeds) of the default set
DEFAULT = (("plane_sweep", range(8)), ("arc_fan", range(8)), ("horn3d", range(1)))


def digest(case) -> str:
    try:
        result = run_scenario(case.scenario, case.config)
    except Exception as exc:  # a germ that raises is part of its record
        return f"raised {type(exc).__name__}"
    return hashlib.sha256(canonical_json(result.to_dict()).encode()).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", choices=[w for w, _ in DEFAULT])
    ap.add_argument("--seeds", nargs="+", type=int)
    args = ap.parse_args(argv)

    for workload, seeds in DEFAULT:
        if args.workloads and workload not in args.workloads:
            continue
        for seed in args.seeds if args.seeds is not None else seeds:
            for case in build_cases(workload, seed):
                print(f"{workload} {seed} {case.name} {digest(case)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
