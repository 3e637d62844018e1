#!/usr/bin/env python3
"""Sweep the two-branch plane family (t, c1 t^e), (t, c2 t^e) through the
scenario runner and count verdicts and defects per exponent.

The family takes every exponent e in {1, 3/2, 2, 5/2, 3} and every ordered
pair of distinct integers c1, c2 in [-3, 3]: 5 x 42 = 210 germs, each
analysed as ``lnegerm analyze`` analyses a germ file.  A germ counts as

* failed when a graded check fails or the analysis raises;
* ``medial_empty`` when no medial branch is selected;
* ``residual_gate`` when a set or medial pair is UNDECIDED by its fit;
* ``raised`` when the analysis raises (the exception type is counted).

Run as ``PYTHONPATH=src python scripts/plane_family.py``; ``--exponents``
and ``--coeffs`` restrict the sweep.
"""

import argparse
import collections
import itertools
import sys
import time
from fractions import Fraction

from lnegerm import LnegermError, RunConfig, Verdict, germ_set, puiseux_branch
from lnegerm.scenarios import run_scenario, scenario_for_germ

EXPONENTS = ("1", "3/2", "2", "5/2", "3")
COEFFS = tuple(range(-3, 4))


def family_germ(e: Fraction, c1: int, c2: int):
    """The germ (t, c1 t^e), (t, c2 t^e); a zero coefficient leaves the
    half-line (t, 0)."""
    branches = []
    for k, c in enumerate((c1, c2)):
        if e == 1:
            terms = [(1, (1.0, float(c)))]
        else:
            terms = [(1, (1.0, 0.0))] + ([(e, (0.0, float(c)))] if c else [])
        branches.append(puiseux_branch(terms, t_max=1.0, label=f"b{k}"))
    return germ_set(branches=branches, label=f"plane_e{e}_c{c1}_{c2}".replace("/", "_"))


def classify(result) -> list:
    """The defect names of one analysed germ."""
    out = []
    if any(c.passed is False for c in result.checks):
        out.append("failed")
    if result.medial_verdict is Verdict.UNDECIDED and not result.medial_reports:
        out.append("medial_empty")
    if any(
        r.verdict is Verdict.UNDECIDED
        for r in result.set_reports + result.medial_reports
    ):
        out.append("residual_gate")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--exponents", nargs="+", default=EXPONENTS)
    ap.add_argument("--coeffs", nargs="+", type=int, default=COEFFS)
    args = ap.parse_args(argv)

    config = RunConfig()
    start = time.perf_counter()
    for e in map(Fraction, args.exponents):
        verdicts = collections.Counter()
        defects = collections.Counter()
        n = 0
        for c1, c2 in itertools.permutations(args.coeffs, 2):
            n += 1
            germ = family_germ(e, c1, c2)
            try:
                result = run_scenario(scenario_for_germ(germ, config), config)
            except LnegermError as exc:
                defects["failed"] += 1
                defects[f"raised {type(exc).__name__}"] += 1
                continue
            verdicts[(result.set_verdict.value, result.medial_verdict.value)] += 1
            defects.update(classify(result))
        shown_verdicts = ", ".join(
            f"set {s}/medial {m}: {k}" for (s, m), k in sorted(verdicts.items())
        )
        shown_defects = ", ".join(f"{d}: {k}" for d, k in sorted(defects.items()))
        print(f"e = {e}: {n} germs; {shown_verdicts or 'no verdicts'}; "
              f"defects: {shown_defects or 'none'}")
    print(f"elapsed {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
