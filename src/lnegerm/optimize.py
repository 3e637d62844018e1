"""Scalar root finding and minimization without scipy.

``brentq`` is a line-for-line port of scipy's ``brentq.c`` (Brent 1973,
*Algorithms for Minimization Without Derivatives*, ch. 4): for the same
function, bracket and tolerances it makes the same evaluations and returns
the same bits, and a call costs less than scipy's Python wrapper.  Keeping
it here means analysing a germ never imports ``scipy.optimize``.
``brentq_lanes`` runs the same iteration on many brackets at once, one
numpy lane per bracket, with every lane's bits those of ``brentq``.

``golden_min`` is a dependency-free golden-section search on a foot
window: where a branch's Newton foot stalls (``medial._project_branch``)
and in the surface pieces' ``project``.  A call makes about 50 loop steps
in Python.  No benchmark workload reaches it: the medial grid, whose feet
it polished by the thousand, runs in no analysis.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, InputError, ResolutionError

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

#: scipy's brentq defaults: absolute and relative (4 machine epsilon)
#: tolerances, iteration cap
XTOL = 2e-12
RTOL = 4 * 2.220446049250313e-16
MAXITER = 100


def brentq(f, a: float, b: float, xtol: float = XTOL, rtol: float = RTOL,
           maxiter: int = MAXITER, fa: float | None = None,
           fb: float | None = None) -> float:
    """A root of f in the bracket [a, b] by Brent's method.

    f(a) and f(b) must have opposite signs; the root is located to within
    xtol + rtol |x|.  Raises ``InputError`` on bad tolerances or when f(a)
    and f(b) have the same sign, ``DomainError`` when f returns NaN, and
    ``ResolutionError`` when ``maxiter`` iterations do not converge.

    A caller that has already evaluated f at a bracket end, to check the
    bracket, passes the value as ``fa`` or ``fb`` and f is not called there
    again: each root solve evaluates every point once.  The values are
    checked as computed ones are, and the iteration is the same, so the
    result has the same bits.

    At the top of the loop the root lies between xcur and xblk, xcur is the
    latest estimate, xpre the previous one, and |f(xcur)| <= |f(xblk)|.
    """
    if not xtol > 0:
        raise InputError(f"xtol too small ({xtol:g} <= 0)")
    if not rtol >= RTOL:
        raise InputError(f"rtol too small ({rtol:g} < {RTOL:g})")

    def value(x, fx=None):
        fx = float(f(x) if fx is None else fx)
        if math.isnan(fx):
            raise DomainError(f"the function value at x={x} is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    fpre = value(xpre, fa)
    fcur = value(xcur, fb)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise InputError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise ResolutionError(f"brentq did not converge in {maxiter} iterations (x={xcur})")


def _lane_values(f, x, lanes, given=None) -> np.ndarray:
    """f at the points x of ``lanes`` (or the values ``given``), checked
    for NaN as ``brentq`` checks each value."""
    fx = np.asarray(f(x, lanes) if given is None else given, dtype=float)
    nan = np.isnan(fx)
    if nan.any():
        raise DomainError(f"the function value at x={x[np.argmax(nan)]} is NaN")
    return fx


def brentq_lanes(f, a, b, xtol: float = XTOL, rtol: float = RTOL,
                 maxiter: int = MAXITER, fa=None, fb=None) -> np.ndarray:
    """Roots of many brackets [a[i], b[i]] at once by Brent's method.

    ``f(x, lanes)`` returns the values at the points x (a float array) of
    the brackets numbered ``lanes`` (an int array into a and b).  Each lane
    makes the comparisons and float operations that ``brentq`` makes on its
    bracket, in the same order, as masks over the arrays, so its root has
    ``brentq``'s bits; a lane that has converged is dropped from every
    later evaluation.  ``fa`` and ``fb`` are arrays of bracket-end values,
    as in ``brentq``.  The errors are ``brentq``'s, raised when any lane
    meets them: ``InputError`` for bad tolerances or a bracket without a
    sign change, ``DomainError`` for a NaN value, ``ResolutionError`` when
    a lane has not converged after ``maxiter`` iterations, and
    ``ZeroDivisionError`` where ``brentq``'s extrapolation divides by 0.
    """
    if not xtol > 0:
        raise InputError(f"xtol too small ({xtol:g} <= 0)")
    if not rtol >= RTOL:
        raise InputError(f"rtol too small ({rtol:g} < {RTOL:g})")
    xpre, xcur = np.array(a, dtype=float), np.array(b, dtype=float)
    roots = np.empty(len(xcur))
    lanes = np.arange(len(xcur))
    if not len(lanes):
        return roots
    fpre = _lane_values(f, xpre, lanes, fa)
    fcur = _lane_values(f, xcur, lanes, fb)
    at_a = fpre == 0
    at_b = ~at_a & (fcur == 0)
    roots[at_a], roots[at_b] = xpre[at_a], xcur[at_b]
    live = ~(at_a | at_b)
    if np.any((fpre < 0)[live] == (fcur < 0)[live]):
        raise InputError("f(a) and f(b) must have different signs")
    lanes, xpre, xcur, fpre, fcur = (v[live] for v in (lanes, xpre, xcur, fpre, fcur))
    if not len(lanes):
        return roots
    xblk, fblk, spre, scur = (np.zeros(len(lanes)) for _ in range(4))
    for _ in range(maxiter):
        flip = (fpre != 0) & (fcur != 0) & ((fpre < 0) != (fcur < 0))
        xblk, fblk = np.where(flip, xpre, xblk), np.where(flip, fpre, fblk)
        spre, scur = np.where(flip, xcur - xpre, spre), np.where(flip, xcur - xpre, scur)
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = (
            np.where(swap, xcur, xpre), np.where(swap, xblk, xcur), np.where(swap, xcur, xblk)
        )
        fpre, fcur, fblk = (
            np.where(swap, fcur, fpre), np.where(swap, fblk, fcur), np.where(swap, fcur, fblk)
        )

        delta = (xtol + rtol * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        done = (fcur == 0) | (np.abs(sbis) < delta)
        if done.any():
            roots[lanes[done]] = xcur[done]
            go = ~done
            lanes, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis = (
                v[go] for v in (lanes, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis)
            )
            if not len(lanes):
                return roots

        tried = (np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
        interp = xpre == xblk
        # every lane computes both steps; a lane reads only its own, and the
        # other's divisions may meet 0, hence the errstate
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            stry_interp = -fcur * (xcur - xpre) / (fcur - fpre)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            divisor = dblk * dpre * (fblk - fpre)
            stry_extrap = -fcur * (fblk * dblk - fpre * dpre) / divisor
        extrap = tried & ~interp
        if np.any(extrap & ((xpre == xcur) | (xblk == xcur) | (divisor == 0))):
            raise ZeroDivisionError("float division by zero")
        stry = np.where(interp, stry_interp, stry_extrap)
        # min(abs(spre), 3 * abs(sbis) - delta), Python's min: the first
        # argument unless the second is smaller
        cap = 3 * np.abs(sbis) - delta
        cap = np.where(cap < np.abs(spre), cap, np.abs(spre))
        short = tried & (2 * np.abs(stry) < cap)
        spre, scur = np.where(short, scur, sbis), np.where(short, stry, sbis)

        xpre, fpre = xcur, fcur
        xcur = np.where(
            np.abs(scur) > delta, xcur + scur, xcur + np.where(sbis > 0, delta, -delta)
        )
        fcur = _lane_values(f, xcur, lanes)
    raise ResolutionError(f"brentq did not converge in {maxiter} iterations (x={xcur[0]})")


def golden_min(f, lo: float, hi: float, iters: int = 48):
    """Golden-section minimum of f on [lo, hi]; returns (argmin, min).

    Assumes f is unimodal on the interval; on multimodal input it returns
    some local minimum, which is what local foot polishing wants anyway.

    A call evaluates f at most iters + 2 times.  The relative stopping test
    can end it sooner only on an interval narrower than about 2e-5 of its
    distance from 0, since the iters = 48 steps shrink the interval by
    0.618**48 ~ 1e-10.  Foot windows (8 cloud spacings on each side of the
    seed, ~0.16 wide on the horn3d grid) are far wider, so there the test
    never fires and every call makes exactly 50 evaluations.  a and b stay
    in [lo, hi], so the test cannot fire while b - a is above ``bound``
    (twice its own threshold at most), and is evaluated only below it.
    """
    a, b = float(lo), float(hi)
    if not b > a:
        return a, f(a)
    bound = 4e-15 * (max(abs(a), abs(b)) + 1e-9)
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
        if b - a < bound and b - a <= 1e-15 * (abs(a) + abs(b) + 1e-9):
            break
    return (c, fc) if fc <= fd else (d, fd)
