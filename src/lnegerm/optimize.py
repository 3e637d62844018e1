"""Tiny scalar minimization helper.

Foot-point polishing evaluates cheap closed-form distance functions many
thousands of times per extraction run, through a dependency-free
golden-section search.  Its overhead is not negligible: about 50 loop
steps per call in Python, which put it next to the horn distance function
it calls at the top of the self time in a profile of the horn3d grid.
"""

from __future__ import annotations

import math

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_min(f, lo: float, hi: float, iters: int = 48):
    """Golden-section minimum of f on [lo, hi]; returns (argmin, min).

    Assumes f is unimodal on the interval; on multimodal input it returns
    some local minimum, which is what local foot polishing wants anyway.

    A call evaluates f at most iters + 2 times.  The relative stopping test
    can end it sooner only on an interval narrower than about 2e-5 of its
    distance from 0, since the iters = 48 steps shrink the interval by
    0.618**48 ~ 1e-10.  Foot windows (8 cloud spacings on each side of the
    seed, ~0.16 wide on the horn3d grid) are far wider, so there the test
    never fires and every call makes exactly 50 evaluations.
    """
    a, b = float(lo), float(hi)
    if not b > a:
        return a, f(a)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
        if b - a <= 1e-15 * (abs(a) + abs(b) + 1e-9):
            break
    return (c, fc) if fc <= fd else (d, fd)
