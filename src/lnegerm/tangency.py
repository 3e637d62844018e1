"""Tangency orders, the arc criterion for LNE, and pairwise Lojasiewicz exponents.

Outer orders come from Euclidean distances between distance-parametrized
curves.  Near 0 the curve pieces of a germ meet only at 0, so the inner
distance between their radius-t points is the sum of their arc lengths back
to 0, and inner orders come from those.  Orders are slopes of log-log fits
over a geometric scale grid, cross-checked against the exact series oracle
where one exists.  The pairwise Lojasiewicz exponent is the ratio
outer/inner order, so that a germ is LNE exactly when its exponent is 1.

Every arc-criterion result takes one path, ``pair_reports``: it puts each
piece on the ladder once and fits the outer series of all its pairs in one
``estimate_orders`` call and their inner sums in another.
``pair_verdict``, ``outer_tangency_order`` and ``inner_tangency_order`` are
its one-pair calls.  Every fit takes one path too, ``estimate_orders``: the
columns of one ladder, checked (``germs.check_scale_ladder``, the one home
of the ladder rule) and logged once, each fitted by its own
``np.polyfit``; ``estimate_order`` is its one-column call.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InputError
from .germs import (
    MIN_SCALES,  # noqa: F401  (config and the tests import it from here)
    AlignedSeries,
    PuiseuxBranch,
    RadiusTable,
    check_scale_ladder,
    first_separation_cap,
    symbolic_separation_order,
)
# build_graph and inner_distance are no longer called here, but
# perfbench/tracer.py wraps tangency.build_graph and tangency.inner_distance
# by name, so the names stay importable from this module.
from .metrics import build_graph, inner_distance  # noqa: F401

#: log-log fits are trusted when the RMS residual is below this; every fit
#: spans at least MIN_SCALES scales (``check_scale_ladder``).
RESIDUAL_GATE = 0.02
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


def estimate_orders(scales, columns) -> tuple:
    """Least-squares log-log fits of columns of positive values over one
    geometric scale ladder: one ``OrderEstimate`` per column.

    The ladder is checked and its logs taken once; each column is fitted
    by its own ``np.polyfit``, and each residual reduces its column's
    values as one contiguous row, the sum the 1-D mean takes.  A scale or
    value that is not finite is an ``InputError``, as is a nonpositive
    value.
    """
    scales = check_scale_ladder(scales)
    values = np.array(columns, dtype=float)
    if values.ndim != 2 or values.shape[1] != len(scales):
        raise InputError("each column needs one value per scale")
    if np.any(values <= 0):
        raise InputError("order undefined: nonpositive sample value")
    if not np.all(np.isfinite(values)):
        raise InputError("order undefined: non-finite sample value")
    lt = np.log(np.asarray(scales))
    lf = np.log(values)
    slope, intercept = np.array([np.polyfit(lt, row, 1) for row in lf]).T
    resid = np.sqrt(np.mean((lf - (slope[:, None] * lt + intercept[:, None])) ** 2, axis=1))
    return tuple(
        OrderEstimate(a, b, r, tuple(scales), r <= RESIDUAL_GATE)
        for a, b, r in zip(slope.tolist(), intercept.tolist(), resid.tolist())
    )


def estimate_order(samples) -> OrderEstimate:
    """Least-squares log-log fit of positive (scale, value) samples over
    geometric scales: ``estimate_orders`` on one column."""
    samples = [(float(t), float(f)) for t, f in samples]
    return estimate_orders([t for t, _ in samples], [[f for _, f in samples]])[0]


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


def _on_ladder(piece, scales, table: RadiusTable) -> tuple:
    """(points, lengths): a curve piece's radius-t points on the ladder, as
    an array, and the arc lengths from 0 to them.  A Puiseux branch takes
    each radius's parameter from ``table`` for both, so a radius the link
    sections or the medial bisectors have solved is not solved again."""
    if isinstance(piece, PuiseuxBranch):
        params = [table.param(piece, t) for t in scales]
        return np.array([piece.eval(s) for s in params]), piece.arc_lengths_at(params)
    return np.array([piece.point_at_radius(t) for t in scales]), piece.arc_lengths(scales)


def _separation(b1, b2, p1, p2, aligned) -> tuple:
    """(d, exact, series_pair): the outer distances of two curve pieces
    from their ladder points ``p1`` and ``p2``, the series oracle's order
    (or None), and whether both are Puiseux branches.  Raises
    ``InputError`` when the pieces are numerically indistinguishable."""
    d = np.linalg.norm(p1 - p2, axis=1)
    exact = None
    infinite = False
    series_pair = isinstance(b1, PuiseuxBranch) and isinstance(b2, PuiseuxBranch)
    if series_pair:
        sep = symbolic_separation_order(b1, b2, aligned)
        infinite = sep.infinite
        exact = sep.order
    if np.any(d <= 0) or (infinite and np.max(d) < 1e-12):
        raise InputError(
            f"pieces {b1.label!r} and {b2.label!r} are numerically indistinguishable"
        )
    return d, exact, series_pair


def outer_tangency_order(b1, b2, scales):
    """(fit, exact) outer order of tangency between two curve pieces: the
    ``tord`` and ``tord_exact`` of ``pair_reports`` on the one pair.

    The exact rational value is attached when both pieces are Puiseux
    branches and the series oracle decides; ``exact`` is None otherwise.
    """
    report = pair_reports([(b1, b2)], scales)[0]
    return report.tord, report.tord_exact


def inner_tangency_order(b1, b2, scales) -> OrderEstimate:
    """Inner order of tangency between two curve pieces meeting only at 0:
    the ``tord_inn`` of ``pair_reports`` on the one pair."""
    return pair_reports([(b1, b2)], scales)[0].tord_inn


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


def pair_reports(
    pairs, scales, order_tolerance: float = 0.1, table: RadiusTable | None = None
) -> tuple:
    """Arc-criterion reports for pairs (b1, b2) of curve pieces: LNE iff
    outer and inner orders agree within the tolerance, with the
    outer/inner ratio as the pairwise Lojasiewicz exponent.

    The outer order is the fit of the pieces' distances at their radius-t
    points.  Between two Puiseux branches the distances are exact up to
    rounding, so its slope is extrapolated to the limit
    (``extrapolate_order``), and the series oracle's exact order is
    attached where it decides; sampled pieces keep the plain fit.  The
    inner order is the fit of l1(t) + l2(t), the arc lengths from 0 to
    those points, the inner distance of two pieces meeting only at 0.

    Each piece's work is done once, however many pairs it is in: it is put
    on the ladder once (``_on_ladder``), with its parameters from ``table``,
    and a Puiseux branch is aligned to the distance once (one norm
    inversion and one Horner pass), to the first cap of the series
    branches, their largest max exponent plus 1 (``first_separation_cap``,
    ``AlignedSeries``); each pair then slices its own length off it and
    runs the separation oracle with the same bits as alone.  Only a pair
    with no separating term below that cap has its branches aligned again,
    to its full cap 3 max_exp + 6.  Both stores are keyed by the piece
    itself (pieces hash by identity).  Every pair's distances, oracle and
    checks run first, in pair order, with the ladder checked after the
    first pair's; then the outer series of all pairs are fitted in one
    ``estimate_orders`` call and their inner sums in another.
    """
    pairs = list(pairs)
    if not pairs:
        return ()
    scales = [float(t) for t in scales]
    if table is None:
        table = RadiusTable(scales)
    series = {
        b for pair in pairs if all(isinstance(b, PuiseuxBranch) for b in pair) for b in pair
    }
    aligned = AlignedSeries(first_separation_cap(series)) if series else None
    ladders: dict = {}
    separations, lengths = [], []
    for b1, b2 in pairs:
        for b in (b1, b2):
            if b not in ladders:
                ladders[b] = _on_ladder(b, scales, table)
        (p1, l1), (p2, l2) = ladders[b1], ladders[b2]
        separations.append(_separation(b1, b2, p1, p2, aligned))
        if len(separations) == 1:
            check_scale_ladder(scales)
        lengths.append([a1 + a2 for a1, a2 in zip(l1, l2)])
    fits = estimate_orders(scales, [d for d, _, _ in separations])
    tord_inns = estimate_orders(scales, lengths)
    reports = []
    for (b1, b2), fit, (d, exact, series_pair), tord_inn in zip(
        pairs, fits, separations, tord_inns
    ):
        tord = extrapolate_order(fit, d) if series_pair else fit
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
