#!/usr/bin/env python3
"""Print the sha256 of each benchmark germ's canonical JSON.

The germs are those of the benchmark workloads (``perfbench/workloads.py``):
by default plane_sweep and arc_fan at seeds 0-7 and horn3d at seed 0, 73
germs in all.  Each is analysed as ``lnegerm analyze`` analyses it and
printed as one line ``workload seed germ sha256``; a germ whose analysis
raises prints ``raised <type>`` in place of the digest.  Two checkouts that
print the same lines give the same bytes on every germ, so a change meant
to keep the output compares its lines with its parent's.

``--cli`` prints instead one line ``cli <arguments> exit <code> sha256``
per command line of ``CLI_RUNS``: the sha256 of what ``lnegerm`` writes to
stdout, run in this process.

``--links`` prints instead one line ``links <germ> <norm> <density>
sha256`` per germ, norm and density of the link criterion's surface
sections: the sha256 of the ``llne_test`` report on the default ladder.
The germs are horn3d, whose link is connected, and horn3d with its wall
|x| <= c y^2 for each c of ``LINK_WALLS``: narrower than the horns'
inner generators for c < 1/4 (three components), crossing them above.
Then come curves on a wall: horn3d's wall strip with the centre line
(0, t, 0) and a second line (0, t, 0) + d t^2 for each d of
``LINE_TERMS``, on a sample column of the strip, between two, and off it.

``--orders`` prints instead one line ``orders <germ> <b1>|<b2> <order>``
per pair of Puiseux branches of the default germs (the germ named
``workload:seed:germ``) and of the 210 germs of ``plane_family.py``: the
series oracle's ``tord_exact`` of the pair alone
(``symbolic_separation_order``), or ``INFINITE<cap`` when no lattice term
below the cap separates it.  The canonical JSON carries no exact order,
so only these lines show a change in the oracle.

``--pairs`` prints instead one line ``pairs workload seed germ sha256``
per default germ: the sha256 of the canonical JSON of its set and medial
pair reports (``TangencyReport.to_dict``).  The germ's canonical JSON
carries no pair report, so only these lines show a change in a pair's
``tord`` or ``tord_inn`` that moves no verdict and no L.

Run from the root of a checkout as ``PYTHONPATH=src python
scripts/digests.py``; ``--workloads`` and ``--seeds`` restrict the set.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from plane_family import COEFFS, EXPONENTS, family_germ  # noqa: E402
from workloads import build_cases  # noqa: E402

from lnegerm import (  # noqa: E402
    RunConfig,
    builtin,
    cli,
    germ_set,
    llne_test,
    make_norm,
    puiseux_branch,
    symbolic_separation_order,
)
from lnegerm.germs import PuiseuxBranch  # noqa: E402
from lnegerm.report import canonical_json  # noqa: E402
from lnegerm.scenarios import BUILTIN_LABELS, run_scenario  # noqa: E402
from lnegerm.surfaces import WallPiece  # noqa: E402

#: (workload, seeds) of the default set
DEFAULT = (("plane_sweep", range(8)), ("arc_fan", range(8)), ("horn3d", range(1)))
#: command lines of ``--cli``: analyze and medial in both formats and link as
#: CSV on every builtin, then the builtin table, a medial export on a ladder
#: set by flags, and horn3d's surface sections under a weighted max norm
CLI_FORMATS = (("analyze", ("json", "csv")), ("medial", ("json", "csv")), ("link", ("csv",)))
CLI_RUNS = tuple(
    (command, "--builtin", label, "--format", fmt)
    for label in BUILTIN_LABELS
    for command, fmts in CLI_FORMATS
    for fmt in fmts
) + (
    ("scenarios", "--format", "csv"),
    ("medial", "--builtin", "cusp", "--t-min", "0.00390625", "--levels", "5", "--format", "csv"),
    ("link", "--builtin", "horn3d", "--norm", "maxv", "--weights", "40,1,20", "--format", "csv"),
    ("analyze", "--builtin", "horn3d", "--norm", "maxv", "--format", "json"),
)

#: wall coefficients c of ``--links``' horn-plus-wall germs
LINK_WALLS = (0.1, 0.2, 0.26, 0.3, 0.4, 0.5, 1.0)
#: (name, offset d) of ``--links``' second lines (0, t, 0) + d t^2 on a wall
LINE_TERMS = (
    ("on_sample", (0.125, 0.0, 0.0)),
    ("between_samples", (0.075, 0.0, 0.0)),
    ("off_strip", (0.0, 0.0, 0.125)),
)
#: (name, kind, weights) of ``--links``' norms
LINK_NORMS = (
    ("euclid", "euclid", None),
    ("maxv", "maxv", None),
    ("maxv:40,1,20", "maxv", (40, 1, 20)),
)
LINK_DENSITIES = (8, 32, 64)


def link_germs() -> list:
    """horn3d, then horn3d with its wall replaced by |x| <= c y^2 per c."""
    horn3d = builtin("horn3d").germ()
    return [horn3d] + [
        germ_set(
            surfaces=(*horn3d.surfaces[:2], WallPiece(label="wall", half_width_coef=c)),
            label=f"horn_wall_{c}",
        )
        for c in LINK_WALLS
    ]


def line_germs() -> list:
    """horn3d's wall strip with the line (0, t, 0) and the line
    (0, t, 0) + d t^2, per d of ``LINE_TERMS``."""
    l1 = puiseux_branch([(1, (0.0, 1.0, 0.0))], t_max=1.0, label="l1")
    wall = WallPiece(label="wall", half_width_coef=0.25)
    return [
        germ_set(
            branches=(l1, puiseux_branch([(1, (0.0, 1.0, 0.0)), (2, d)], t_max=1.0, label="l2")),
            surfaces=(wall,),
            label=f"wall_lines_{name}",
        )
        for name, d in LINE_TERMS
    ]


def order_germs(workloads=None, seeds=None) -> list:
    """(name, germ) of the default germs, then of the plane family."""
    out = []
    for workload, default_seeds in DEFAULT:
        if workloads and workload not in workloads:
            continue
        for seed in seeds if seeds is not None else default_seeds:
            for case in build_cases(workload, seed):
                out.append((f"{workload}:{seed}:{case.name}", case.scenario.germ()))
    for e in map(Fraction, EXPONENTS):
        for c1, c2 in itertools.permutations(COEFFS, 2):
            germ = family_germ(e, c1, c2)
            out.append((germ.label, germ))
    return out


def order_pairs(germs) -> list:
    """(germ name, b1, b2) per pair of Puiseux branches of each germ."""
    return [
        (name, b1, b2)
        for name, germ in germs
        for b1, b2 in itertools.combinations(
            [b for b in germ.branches if isinstance(b, PuiseuxBranch)], 2
        )
    ]


def order_line(name, b1, b2) -> str:
    sep = symbolic_separation_order(b1, b2)
    shown = f"INFINITE<{sep.undecided_beyond}" if sep.infinite else str(sep.order)
    return f"orders {name} {b1.label}|{b2.label} {shown}"


def link_digest(germ, norm, density) -> str:
    try:
        report = llne_test(germ, RunConfig().scales(), norm, density)
    except Exception as exc:  # a germ that raises is part of its record
        return f"raised {type(exc).__name__}"
    return hashlib.sha256(canonical_json(report.to_dict()).encode()).hexdigest()


def digest(case, pairs: bool = False) -> str:
    """The sha256 of the germ's canonical JSON, or with ``pairs`` of its
    set and medial pair reports."""
    try:
        result = run_scenario(case.scenario, case.config)
    except Exception as exc:  # a germ that raises is part of its record
        return f"raised {type(exc).__name__}"
    data = result.to_dict()
    if pairs:
        data = {
            "set": [r.to_dict() for r in result.set_reports],
            "medial": [r.to_dict() for r in result.medial_reports],
        }
    return hashlib.sha256(canonical_json(data).encode()).hexdigest()


def cli_digest(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return f"exit {code} {hashlib.sha256(out.getvalue().encode()).hexdigest()}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", choices=[w for w, _ in DEFAULT])
    ap.add_argument("--seeds", nargs="+", type=int)
    ap.add_argument("--cli", action="store_true", help="digest lnegerm's stdout on CLI_RUNS")
    ap.add_argument(
        "--links", action="store_true", help="digest llne_test on the horn and wall-line germs"
    )
    ap.add_argument(
        "--orders", action="store_true", help="print the series oracle's order of each pair"
    )
    ap.add_argument(
        "--pairs", action="store_true", help="digest each germ's set and medial pair reports"
    )
    args = ap.parse_args(argv)

    if args.orders:
        for pair in order_pairs(order_germs(args.workloads, args.seeds)):
            print(order_line(*pair), flush=True)
        return 0

    if args.cli:
        for run in CLI_RUNS:
            print(f"cli {' '.join(run)} {cli_digest(run)}", flush=True)
        return 0
    if args.links:
        for germ in link_germs() + line_germs():
            for name, kind, weights in LINK_NORMS:
                norm = make_norm(kind, weights, germ.ambient_dim)
                for density in LINK_DENSITIES:
                    sha = link_digest(germ, norm, density)
                    print(f"links {germ.label} {name} {density} {sha}", flush=True)
        return 0
    for workload, seeds in DEFAULT:
        if args.workloads and workload not in args.workloads:
            continue
        for seed in args.seeds if args.seeds is not None else seeds:
            for case in build_cases(workload, seed):
                line = f"{workload} {seed} {case.name} {digest(case, args.pairs)}"
                print(f"pairs {line}" if args.pairs else line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
