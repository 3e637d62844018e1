"""Tangency orders, the arc criterion for LNE, and pairwise Lojasiewicz exponents.

Outer orders come from Euclidean distances between distance-parametrized
curves.  Near 0 the curve pieces of a germ meet only at 0, so the inner
distance between their radius-t points is the sum of their arc lengths back
to 0, and inner orders come from those.  Orders are slopes of log-log fits
over a geometric scale grid, cross-checked against the exact series oracle
where one exists.  The pairwise Lojasiewicz exponent is the ratio
outer/inner order, so that a germ is LNE exactly when its exponent is 1.

Every fit takes one path, ``estimate_orders``: the columns of one ladder,
checked and logged once, each fitted by its own ``np.polyfit``.
``pair_reports`` fits the outer series of all its pairs in one call and
their inner sums in another; ``estimate_order``, ``outer_tangency_order``
and ``inner_tangency_order`` are its one-column and one-pair calls.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import InputError
from .germs import (
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


def _check_ladder(scales) -> list:
    """The scales as floats; ``InputError`` unless there are at least
    ``MIN_SCALES`` of them on a geometric ladder (``check_scale_ladder``)."""
    scales = [float(t) for t in scales]
    if len(scales) < MIN_SCALES:
        raise InputError(f"need at least {MIN_SCALES} scales, got {len(scales)}")
    check_scale_ladder(scales)
    return scales


def estimate_orders(scales, columns) -> tuple:
    """Least-squares log-log fits of columns of positive values over one
    geometric scale ladder: one ``OrderEstimate`` per column.

    The ladder is checked and its logs taken once; each column is fitted
    by its own ``np.polyfit``, and each residual reduces its column's
    values as one contiguous row, the sum the 1-D mean takes.  A scale or
    value that is not finite is an ``InputError``, as is a nonpositive
    value.
    """
    scales = _check_ladder(scales)
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


class _Ladder:
    """A curve piece on a scale ladder: its radius-t points and the arc
    lengths to them, each computed once.  A Puiseux branch takes each
    radius's parameter from ``table``, the analysis's one ``RadiusTable``
    (a fresh one without it), for both: a radius the link sections or the
    medial bisectors have solved is not solved again."""

    def __init__(self, piece, scales, table: RadiusTable | None = None):
        self.piece = piece
        self.scales = [float(t) for t in scales]
        self.table = RadiusTable(self.scales) if table is None else table

    @cached_property
    def params(self) -> list:
        return [self.table.param(self.piece, t) for t in self.scales]

    @cached_property
    def points(self) -> np.ndarray:
        if isinstance(self.piece, PuiseuxBranch):
            return np.array([self.piece.eval(s) for s in self.params])
        return np.array([self.piece.point_at_radius(t) for t in self.scales])

    @cached_property
    def lengths(self) -> list:
        if isinstance(self.piece, PuiseuxBranch):
            return self.piece.arc_lengths_at(self.params)
        return self.piece.arc_lengths(self.scales)


def _separation(b1, b2, ladders, aligned=None) -> tuple:
    """(d, exact, series_pair): the outer distances of two curve pieces on
    their ``_Ladder``s, the series oracle's order (or None), and whether
    both are Puiseux branches.  Raises ``InputError`` when the pieces are
    numerically indistinguishable."""
    l1, l2 = ladders
    d = np.linalg.norm(l1.points - l2.points, axis=1)
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


def _outer_fits(scales, separations) -> list:
    """The outer-order fits of ``_separation`` results, all in one
    ``estimate_orders`` call; a Puiseux pair's fit is extrapolated."""
    fits = estimate_orders(scales, [d for d, _, _ in separations])
    return [
        extrapolate_order(fit, d) if series_pair else fit
        for fit, (d, _, series_pair) in zip(fits, separations)
    ]


def _summed_lengths(ladders) -> list:
    """l1(t) + l2(t) on the ladder: the inner distance of two curve pieces
    meeting only at 0."""
    l1, l2 = ladders
    return [a1 + a2 for a1, a2 in zip(l1.lengths, l2.lengths)]


def outer_tangency_order(b1, b2, scales, ladders=None, aligned=None):
    """(fit, exact) outer order of tangency between two curve pieces.

    The exact rational value is attached when both pieces are Puiseux
    branches and the series oracle decides; ``exact`` is None otherwise.
    Between two Puiseux branches the distances are exact up to rounding, so
    the fitted slope is extrapolated to the limit (``extrapolate_order``);
    sampled pieces keep the plain fit.  ``ladders`` are the pieces'
    ``_Ladder`` on ``scales`` and ``aligned`` their ``AlignedSeries``,
    when the caller keeps them.  ``pair_reports`` takes the same path for
    all of its pairs at once.
    """
    scales = [float(t) for t in scales]
    ladders = ladders or (_Ladder(b1, scales), _Ladder(b2, scales))
    separation = _separation(b1, b2, ladders, aligned)
    return _outer_fits(scales, [separation])[0], separation[1]


def inner_tangency_order(b1, b2, scales, ladders=None) -> OrderEstimate:
    """Inner order of tangency between two curve pieces meeting only at 0:
    the fit of l1(t) + l2(t), the arc lengths from 0 to their radius-t
    points (``arc_length``).  ``ladders`` as in ``outer_tangency_order``."""
    ladders = ladders or (_Ladder(b1, scales), _Ladder(b2, scales))
    return estimate_orders(scales, [_summed_lengths(ladders)])[0]


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

    Each piece's work is done once, however many pairs it is in: it is put
    on the ladder once, with its parameters from ``table`` (see
    ``_Ladder``), and a Puiseux branch is aligned to the distance once
    (one norm inversion and one Horner pass), to the first cap of the
    series branches, their largest max exponent plus 1
    (``first_separation_cap``, ``AlignedSeries``); each pair then slices
    its own length off it and runs the separation oracle with the same
    bits as alone.  Only a pair with no separating term below that cap
    has its branches aligned again, to its full cap 3 max_exp + 6.
    Both stores are keyed by the piece itself (pieces hash by identity).
    Every pair's distances, oracle and checks run first, in pair order,
    with the ladder checked after the first pair's, where a one-pair call
    checks it; then the outer series of all pairs are fitted in one
    ``estimate_orders`` call and their inner sums in another.
    """
    pairs = list(pairs)
    if not pairs:
        return ()
    if table is None:
        table = RadiusTable(scales)
    series = {
        b for pair in pairs if all(isinstance(b, PuiseuxBranch) for b in pair) for b in pair
    }
    aligned = AlignedSeries(first_separation_cap(series)) if series else None
    ladders: dict = {}
    separations, lengths = [], []
    for b1, b2 in pairs:
        pair = tuple(ladders.setdefault(b, _Ladder(b, scales, table)) for b in (b1, b2))
        separations.append(_separation(b1, b2, pair, aligned))
        if len(separations) == 1:
            # where a one-pair call checks the ladder: after its separation
            _check_ladder(scales)
        lengths.append(_summed_lengths(pair))
    tords = _outer_fits(scales, separations)
    tord_inns = estimate_orders(scales, lengths)
    reports = []
    for (b1, b2), tord, (_, exact, _), tord_inn in zip(pairs, tords, separations, tord_inns):
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
