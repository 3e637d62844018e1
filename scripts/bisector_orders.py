#!/usr/bin/env python3
"""Fit bisector orders between parabola pairs from exact bisector solves.

For y = a x^2 vs y = b x^2 the bisector approaches y = ((a+b)/2) x^2, so
the solved points should fit order 2 with leading constant (a+b)/2.  The
points come from ``medial_branch_germs``, from which the scenario runner
builds every medial branch, so this checks the solve against the closed
form.
"""

import argparse
import sys

import numpy as np

from lnegerm import germ_set, medial_branch_germs, puiseux_branch


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--levels", type=int, default=9)
    args = ap.parse_args()

    scales = [2.0 ** -k for k in range(4, 4 + args.levels)]
    pairs = [(1.0, 2.0), (2.0, 3.0), (1.0, 3.0)]
    for a, b in pairs:
        b1 = puiseux_branch([(1, (1, 0)), (2, (0, a))], 1.0, "a")
        b2 = puiseux_branch([(1, (1, 0)), (2, (0, b))], 1.0, "b")
        axis, _ = medial_branch_germs(germ_set(branches=(b1, b2)), scales)
        if axis.failures:
            print(f"pair ({a}, {b}): trace failures {axis.failures}", file=sys.stderr)
            return 1
        coords = axis.coords()
        lx = np.log([p[0] for p in coords if p[0] > 0 and p[1] > 0])
        ly = np.log([p[1] for p in coords if p[0] > 0 and p[1] > 0])
        slope, intercept = np.polyfit(lx, ly, 1)
        resid = float(np.sqrt(np.mean((ly - (slope * lx + intercept)) ** 2)))
        print(f"y = {a} x^2 vs y = {b} x^2: bisector order {slope:.5f}, "
              f"constant {np.exp(intercept):.5f} (expect {0.5 * (a + b):.3f}), "
              f"residual {resid:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
