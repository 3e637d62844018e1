"""Truncated scalar Puiseux series with exact rational exponents.

Coefficients are floats, exponents are ``fractions.Fraction``.  Every series
carries a truncation exponent ``trunc``: terms with exponent >= trunc are
unknown.  ``trunc`` may be ``math.inf`` for exact finite sums (branch data).

Only what the separation-order oracle needs is implemented: ring operations,
rational powers of series with a positive leading coefficient, substitution
of one series into another, and inversion of a strictly increasing norm
series (the distance reparametrization, done symbolically).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InputError

# Relative floor below which a coefficient is treated as cancelled noise.
COEFF_TOL = 1e-9


def _binom(r: Fraction, k: int) -> float:
    out = 1.0
    for i in range(k):
        out *= float(r - i) / (i + 1)
    return out


class Series:
    """Finite sum  sum_e c_e * s**e  known modulo o(s**trunc)."""

    __slots__ = ("coeffs", "trunc")

    def __init__(self, coeffs: dict, trunc=math.inf):
        cs = {}
        for e, c in coeffs.items():
            if e < trunc and c != 0.0:
                cs[e] = cs.get(e, 0.0) + float(c)
        self.coeffs = cs
        self.trunc = trunc

    # -- constructors -------------------------------------------------

    @classmethod
    def monomial(cls, exponent: Fraction, coeff: float, trunc=math.inf) -> "Series":
        return cls({Fraction(exponent): float(coeff)}, trunc)

    @classmethod
    def zero(cls, trunc=math.inf) -> "Series":
        return cls({}, trunc)

    # -- inspection ---------------------------------------------------

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    def lead(self, ref_scale: float | None = None):
        """Smallest exponent with a non-negligible coefficient, or None.

        ``ref_scale`` sets the cancellation floor; defaults to the series'
        own largest coefficient magnitude.
        """
        if ref_scale is None:
            ref_scale = self.max_abs_coeff()
        floor = COEFF_TOL * max(ref_scale, 1e-300)
        live = [(e, c) for e, c in self.coeffs.items() if abs(c) > floor]
        if not live:
            return None
        return min(live, key=lambda ec: ec[0])

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "Series") -> "Series":
        cs = dict(self.coeffs)
        for e, c in other.coeffs.items():
            cs[e] = cs.get(e, 0.0) + c
        return Series(cs, min(self.trunc, other.trunc))

    def __sub__(self, other: "Series") -> "Series":
        cs = dict(self.coeffs)
        for e, c in other.coeffs.items():
            cs[e] = cs.get(e, 0.0) - c
        return Series(cs, min(self.trunc, other.trunc))

    def scaled(self, factor: float) -> "Series":
        return Series({e: c * factor for e, c in self.coeffs.items()}, self.trunc)

    def shifted(self, exponent: Fraction) -> "Series":
        """Multiply by the monomial s**exponent."""
        exponent = Fraction(exponent)
        return Series(
            {e + exponent: c for e, c in self.coeffs.items()},
            self.trunc + exponent if self.trunc is not math.inf else math.inf,
        )

    def __mul__(self, other: "Series") -> "Series":
        la = self.lead()
        lb = other.lead()
        ea = la[0] if la else math.inf
        eb = lb[0] if lb else math.inf
        trunc = min(
            self.trunc + eb if self.trunc is not math.inf else math.inf,
            other.trunc + ea if other.trunc is not math.inf else math.inf,
        )
        if not self.coeffs or not other.coeffs:
            return Series.zero(trunc)
        cs = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                if e < trunc:
                    cs[e] = cs.get(e, 0.0) + c1 * c2
        return Series(cs, trunc)

    # -- analytic-style operations ------------------------------------

    def pow_rational(self, r: Fraction) -> "Series":
        """self**r, requiring a strictly positive leading coefficient.

        Factors the leading monomial and expands (1+u)**r binomially up to
        the relative truncation of u.
        """
        r = Fraction(r)
        ld = self.lead()
        if ld is None:
            raise InputError("cannot raise a vanishing series to a power")
        alpha, c = ld
        if c <= 0:
            raise InputError("rational power needs a positive leading coefficient")
        # u = self / (c s^alpha) - 1, leading exponent > 0.  The division
        # can leave float-cancellation residue at exponent 0, which would
        # stall the binomial loop below; every true term of u has positive
        # exponent, so anything at exponent <= 0 is rounding noise.
        u = self.scaled(1.0 / c).shifted(-alpha) - Series.monomial(Fraction(0), 1.0)
        u = Series({e: v for e, v in u.coeffs.items() if e > 0}, u.trunc)
        rel_trunc = u.trunc
        lu = u.lead()
        if lu is not None and rel_trunc is math.inf:
            raise InputError("rational power needs a truncated series; cap it first")
        acc = Series.monomial(Fraction(0), 1.0, rel_trunc)
        if lu is not None:
            step = lu[0]
            upow = Series.monomial(Fraction(0), 1.0, rel_trunc)
            k = 1
            while k * step < rel_trunc:
                upow = upow * u
                acc = acc + upow.scaled(_binom(r, k))
                k += 1
        return acc.scaled(c ** float(r)).shifted(r * alpha)

    def substitute(self, inner: "Series") -> "Series":
        """self(inner(t)); inner must have positive leading exponent."""
        li = inner.lead()
        if li is None:
            raise InputError("cannot substitute a vanishing series")
        if li[0] <= 0:
            raise InputError("substitution needs a positive leading exponent")
        trunc_from_self = (
            self.trunc * li[0] if self.trunc is not math.inf else math.inf
        )
        out = Series.zero(trunc_from_self)
        for e, c in sorted(self.coeffs.items()):
            out = out + inner.pow_rational(e).scaled(c)
        return out


def invert_norm_series(norm: Series, iterations: int = 5) -> Series:
    """Solve norm(S(t)) = t for S as a Puiseux series in t.

    ``norm`` must have a positive leading coefficient and a positive leading
    exponent (the norm of a curve germ as a function of its parameter).
    """
    ld = norm.lead()
    if ld is None or ld[0] <= 0 or ld[1] <= 0:
        raise InputError("norm series must vanish at 0 with positive leading term")
    alpha, c = ld
    inv_alpha = Fraction(1, 1) / alpha
    # w(s) = norm(s) / (c s^alpha) - 1
    w = norm.scaled(1.0 / c).shifted(-alpha) - Series.monomial(Fraction(0), 1.0)
    base = Series.monomial(inv_alpha, c ** float(-inv_alpha))
    s = base
    for _ in range(iterations):
        if w.lead() is None:
            break
        corr = (Series.monomial(Fraction(0), 1.0, w.trunc) + w.substitute(s))
        s = base * corr.pow_rational(-inv_alpha)
    return s
