"""Tangency orders, the arc criterion for LNE, and pairwise Lojasiewicz exponents.

Outer orders come from Euclidean distances between distance-parametrized
curves.  Near 0 the curve pieces of a germ meet only at 0, so the inner
distance between their radius-t points is the sum of their arc lengths back
to 0, and inner orders come from those.  Orders are slopes of log-log fits
over a geometric scale grid, cross-checked against the exact series oracle
where one exists.  The pairwise Lojasiewicz exponent is the ratio
outer/inner order, so that a germ is LNE exactly when its exponent is 1.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InputError
from .germs import PuiseuxBranch, check_scale_ladder, symbolic_separation_order
# build_graph and inner_distance are no longer called here, but
# perfbench/tracer.py wraps tangency.build_graph and tangency.inner_distance
# by name, so the names stay importable from this module.
from .metrics import build_graph, inner_distance  # noqa: F401

#: log-log fits are trusted when the RMS residual is below this and the fit
#: spans at least MIN_SCALES scales.
RESIDUAL_GATE = 0.02
MIN_SCALES = 5
#: local-slope steps below this are rounding, not pre-asymptotic drift
ROUNDING_STEP = 1e-12
#: geometric decay shows as steady step ratios; ratios further apart than
#: this mean the slopes are still turning over, where Aitken overshoots
RATIO_AGREEMENT = 0.2


class Verdict(str, enum.Enum):
    LNE = "LNE"
    NOT_LNE = "NOT_LNE"
    UNDECIDED = "UNDECIDED"


@dataclass(frozen=True)
class OrderEstimate:
    """Power-law fit f(t) ~ a t^slope; intercept = log a."""

    slope: float
    intercept: float
    residual: float
    scales_used: tuple
    confident: bool

    @property
    def leading_constant(self) -> float:
        return math.exp(self.intercept)

    def to_dict(self) -> dict:
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "residual": self.residual,
            "scales_used": list(self.scales_used),
            "confident": self.confident,
        }


def estimate_order(samples) -> OrderEstimate:
    """Least-squares log-log fit of positive values over geometric scales."""
    samples = [(float(t), float(f)) for t, f in samples]
    scales = [t for t, _ in samples]
    if len(scales) < MIN_SCALES:
        raise InputError(f"need at least {MIN_SCALES} scales, got {len(scales)}")
    check_scale_ladder(scales)
    values = np.array([f for _, f in samples])
    if np.any(values <= 0):
        raise InputError("order undefined: nonpositive sample value")
    lt = np.log(np.asarray(scales))
    lf = np.log(values)
    slope, intercept = np.polyfit(lt, lf, 1)
    resid = float(np.sqrt(np.mean((lf - (slope * lt + intercept)) ** 2)))
    confident = resid <= RESIDUAL_GATE and len(scales) >= MIN_SCALES
    return OrderEstimate(float(slope), float(intercept), resid, tuple(scales), confident)


def extrapolate_order(fit: OrderEstimate, values) -> OrderEstimate:
    """``fit`` with its slope replaced by the Aitken limit of the local slopes.

    For exactly evaluated Puiseux series the local log-log slopes on a
    geometric grid converge geometrically to the order, while the plain fit
    averages in the pre-asymptotic coarse scales.  The finest local slope,
    step and step ratio give the limit.  The plain fit is kept when the
    steps are at rounding level, or when the two finest step ratios are not
    both in (0, 1) and within ``RATIO_AGREEMENT`` of each other: the steps
    then do not yet decay geometrically.  Residual and confidence stay those
    of the plain fit; the intercept is re-anchored at the finest scale.
    """
    lt = np.log(np.asarray(fit.scales_used))
    lf = np.log(np.asarray(values, dtype=float))
    local = np.diff(lf) / np.diff(lt)
    steps = np.diff(local)[-3:]
    if np.any(np.abs(steps[:-1]) < ROUNDING_STEP):
        return fit
    ratios = steps[1:] / steps[:-1]
    if not (
        np.all((ratios > 0) & (ratios < 1))
        and abs(ratios[1] - ratios[0]) <= RATIO_AGREEMENT
    ):
        return fit
    rho = ratios[1]
    slope = float(local[-1] + steps[-1] * rho / (1 - rho))
    intercept = float(lf[-1] - slope * lt[-1])
    return OrderEstimate(slope, intercept, fit.residual, fit.scales_used, fit.confident)


def outer_tangency_order(b1, b2, scales):
    """(fit, exact) outer order of tangency between two curve pieces.

    The exact rational value is attached when both pieces are Puiseux
    branches and the series oracle decides; ``exact`` is None otherwise.
    Between two Puiseux branches the distances are exact up to rounding, so
    the fitted slope is extrapolated to the limit (``extrapolate_order``);
    sampled pieces keep the plain fit.
    """
    scales = [float(t) for t in scales]
    p1 = np.array([b1.point_at_radius(t) for t in scales])
    p2 = np.array([b2.point_at_radius(t) for t in scales])
    d = np.linalg.norm(p1 - p2, axis=1)
    exact = None
    infinite = False
    series_pair = isinstance(b1, PuiseuxBranch) and isinstance(b2, PuiseuxBranch)
    if series_pair:
        sep = symbolic_separation_order(b1, b2)
        infinite = sep.infinite
        exact = sep.order
    if np.any(d <= 0) or (infinite and np.max(d) < 1e-12):
        raise InputError(
            f"pieces {b1.label!r} and {b2.label!r} are numerically indistinguishable"
        )
    fit = estimate_order(list(zip(scales, d)))
    if series_pair:
        fit = extrapolate_order(fit, d)
    return fit, exact


def inner_tangency_order(b1, b2, scales) -> OrderEstimate:
    """Inner order of tangency between two curve pieces meeting only at 0:
    the fit of l1(t) + l2(t), the arc lengths from 0 to their radius-t
    points (``arc_length``)."""
    return estimate_order(
        [(t, b1.arc_length(t) + b2.arc_length(t)) for t in scales]
    )


@dataclass(frozen=True)
class TangencyReport:
    pair: tuple
    tord: OrderEstimate
    tord_exact: Fraction | None
    tord_inn: OrderEstimate
    verdict: Verdict
    lojasiewicz_pair: float

    def to_dict(self) -> dict:
        return {
            "pair": list(self.pair),
            "tord": self.tord.to_dict(),
            "tord_exact": (
                [self.tord_exact.numerator, self.tord_exact.denominator]
                if self.tord_exact is not None
                else None
            ),
            "tord_inn": self.tord_inn.to_dict(),
            "verdict": self.verdict.value,
            "lojasiewicz_pair": self.lojasiewicz_pair,
        }


def pair_reports(pairs, scales, order_tolerance: float = 0.1) -> tuple:
    """Arc-criterion reports for pairs (b1, b2) of curve pieces: LNE iff
    outer and inner orders agree within the tolerance, with the
    outer/inner ratio as the pairwise Lojasiewicz exponent."""
    reports = []
    for b1, b2 in pairs:
        tord, exact = outer_tangency_order(b1, b2, scales)
        tord_inn = inner_tangency_order(b1, b2, scales)
        l_pair = tord.slope / tord_inn.slope
        if not (tord.confident and tord_inn.confident):
            verdict = Verdict.UNDECIDED
        elif abs(tord.slope - tord_inn.slope) <= order_tolerance:
            verdict = Verdict.LNE
        else:
            verdict = Verdict.NOT_LNE
        reports.append(
            TangencyReport((b1.label, b2.label), tord, exact, tord_inn, verdict, l_pair)
        )
    return tuple(reports)


def pair_verdict(b1, b2, scales, order_tolerance: float = 0.1) -> TangencyReport:
    """Arc-criterion verdict for one pair (see ``pair_reports``)."""
    return pair_reports([(b1, b2)], scales, order_tolerance)[0]
