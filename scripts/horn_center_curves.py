#!/usr/bin/env python3
"""Follow the horn germ's medial center curves and watch x/y^2 tend to the
center abscissa of the horn tube.

For outer generator x = (y/a_o)^2 and inner generator x = (y/a_i)^2, with
the wall strip |x| <= (y/a_i)^2 joining the two horns, the tube's center
curve approaches x = +-(1/a_o^2 + 1/a_i^2)/2 y^2: (1 + 1/a_i^2)/2 for
a_o = 1, which is 5/8 for the registered horn3d germ (a_i = 2).  Each curve
is the exact bisector of the germ's z = 0 trace (``medial_branch_germs``).
The script prints the ratio per radius for a_i in {1.5, 2, 3}, then fits the
center pair's outer and inner orders with ``pair_reports``.
"""

import argparse
import sys

from lnegerm import RunConfig, builtin, germ_set, medial_branch_germs, pair_reports
from lnegerm.surfaces import HornPiece, WallPiece


def horn_germ(a_inner: float):
    """Two horns over x = +-y^2 and x = +-(y/a_inner)^2, joined by the wall."""
    horns = tuple(
        HornPiece(label=label, sign=sign, a_outer=1.0, a_inner=a_inner)
        for label, sign in (("horn_pos", 1.0), ("horn_neg", -1.0))
    )
    wall = WallPiece(label="wall", half_width_coef=1.0 / a_inner**2)
    return germ_set(surfaces=horns + (wall,), label=f"horn_a{a_inner:g}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.parse_args()

    radii = RunConfig().scales()
    for a_inner in (1.5, 2.0, 3.0):
        limit = 0.5 * (1.0 + 1.0 / a_inner**2)
        _, curves = medial_branch_germs(horn_germ(a_inner), radii)
        if len(curves) != 2:
            print(f"a_i = {a_inner:g}: {len(curves)} center curves, expected 2", file=sys.stderr)
            return 1
        print(f"a_i = {a_inner:g}: radius, x/y^2 per center curve (limit +-{limit:.6f})")
        for r in radii:
            ratios = [p[0] / p[1] ** 2 for p in (c.point_at_radius(r) for c in curves)]
            print(f"  {r:.6f}  " + "  ".join(f"{v:+.7f}" for v in ratios))

    _, curves = medial_branch_germs(builtin("horn3d").germ(), radii)
    (rep,) = pair_reports([curves], radii)
    print(f"horn3d center pair: outer order {rep.tord.slope:.5f} "
          f"(residual {rep.tord.residual:.4f}), inner order "
          f"{rep.tord_inn.slope:.6f} -> {rep.verdict.value}, "
          f"L = {rep.lojasiewicz_pair:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
