"""Curve and surface germs at the origin.

Curve germs are finite Puiseux sums with exact rational exponents and float
coefficient vectors.  Surface germs are procedural samplers (see
``surfaces``).  This module owns evaluation, distance reparametrization,
arc lengths (all of a branch's ladder parameters in one quadrature pass,
``PuiseuxBranch.arc_lengths_at``), the exact separation-order oracle (dense
power series on an integer lattice), the per-analysis table of radius
parameters and surface sections (``RadiusTable``), the germ JSON file
format, and sampling into point clouds: the reference clouds of the radius
graph and ``FootFinder``, whose coincident points across pieces
``sample_cloud`` merges with ``metrics.cluster_labels`` (a
``scipy.spatial`` k-d tree).

A branch evaluates an array of parameters with numpy and one float
parameter with a scalar path (``PuiseuxBranch._point``) that gives the same
bits for the per-radius root solves, which call it one float at a time.
The rule that keeps the bits: one ``np.power`` ufunc call per term, never
Python's ``**`` and never one vector ``np.power`` over all exponents.
numpy's SIMD ``pow`` rounds differently from libm's on some inputs, and its
vector loop differently again from its single-element calls.  Like every
per-point kernel (see ``norms``), the scalar path and the radius solve on
it make only the numpy calls whose bits they pin and run the rest on
Python floats, and skip a call whose value an identity fixes: a term of
exponent 1 is s itself and a term of exponent 2 is s * s, on the scalar
and the array path alike, since numpy's ``np.power(x, 1.0)`` is x and its
``np.power(x, 2.0)`` is x * x for every float x (libm's ``x ** 2.0`` is
not x * x on every input, so Python's ``**`` never stands in for it).
Miller's recurrence in the series oracle builds the factors that no step
changes once and keeps numpy only for each step's weights and row sums.

The series oracle aligns its branches first to a short cap (max_exp + 1,
``first_separation_cap``) and to its full cap only for a pair that does
not separate below the short one; the shorter alignment is bitwise a
prefix of the longer, so the order is the full computation's.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import DomainError, InputError, ReparametrizationError
from .metrics import PointCloud, cluster_labels
from .norms import EUCLID, WeightedMaxNorm
from .optimize import brentq

#: the fewest scales a ladder may have (``check_scale_ladder``): the log-log
#: fits and the link trend need at least this many
MIN_SCALES = 5


#: Gauss-Legendre nodes and weights on [-1, 1] for ``PuiseuxBranch.arc_lengths_at``
_ARC_NODES, _ARC_WEIGHTS = np.polynomial.legendre.leggauss(32)


@dataclass(frozen=True, eq=False)
class PuiseuxBranch:
    """gamma(s) = sum_i coeff_i * s**exp_i on [0, t_max].

    Exponents are strictly increasing positive rationals; coefficient
    vectors are nonzero.  The leading exponent being positive forces
    gamma(0) = 0.
    """

    terms: tuple  # ((Fraction, np.ndarray), ...)
    ambient_dim: int
    t_max: float
    label: str

    def __post_init__(self):
        if not self.terms:
            raise InputError(f"branch {self.label!r} has no terms")
        prev = Fraction(0)
        for exp, coeff in self.terms:
            if exp <= prev:
                raise InputError(
                    f"branch {self.label!r}: exponents must be strictly "
                    "increasing and positive"
                )
            prev = exp
            c = np.asarray(coeff, dtype=float)
            if c.shape != (self.ambient_dim,):
                raise InputError(f"branch {self.label!r}: coefficient dimension mismatch")
            if not np.all(np.isfinite(c)):
                raise InputError(f"branch {self.label!r}: coefficients must be finite")
            if not np.any(c):
                raise InputError(f"branch {self.label!r}: zero coefficient vector")
        if not (math.isfinite(self.t_max) and self.t_max > 0):
            raise InputError(f"branch {self.label!r}: t_max must be positive and finite")

    # -- evaluation ----------------------------------------------------

    def eval(self, t):
        """gamma(t) for scalar or array t in [0, t_max]."""
        if isinstance(t, float):
            return np.array(self._point(t))
        t = np.asarray(t, dtype=float)
        if np.any(t < 0) or np.any(t > self.t_max * (1 + 1e-12)):
            raise DomainError(f"branch {self.label!r}: parameter outside [0, {self.t_max}]")
        out = np.zeros(t.shape + (self.ambient_dim,))
        for exp, coeff in self.terms:
            e = float(exp)
            p = t if e == 1.0 else t * t if e == 2.0 else np.power(t, e)
            out += p[..., None] * np.asarray(coeff, dtype=float)
        return out

    def _point(self, s: float) -> list:
        """gamma(s) for one float s, as a list of floats: bitwise ``eval``'s
        point, in a fraction of its time.

        A per-point kernel: the only numpy call it makes is the one whose
        bits it pins, one ``np.power(s, e)`` ufunc call per term, as
        ``eval`` does.  Never Python's ``**`` (libm ``pow``) nor one vector
        ``np.power`` over all exponents: numpy's SIMD ``pow`` rounds
        differently from both on some inputs, so either would change bits
        of the output.  A term of exponent 1 takes s itself and a term of
        exponent 2 takes s * s, and neither makes a call, since
        ``np.power(s, 1.0)`` is s and ``np.power(s, 2.0)`` is s * s for
        every float s (a test holds both identities over every binade),
        as ``eval`` takes them too; every other exponent makes its call.
        The terms are summed on floats in ``eval``'s order from 0.0 (so the
        first term is 0.0 + p c, which turns a -0.0 product into 0.0 as
        ``eval``'s zeroed array does), unrolled for plane and space
        branches.
        """
        if s < 0 or s > self.t_max * (1 + 1e-12):
            raise DomainError(f"branch {self.label!r}: parameter outside [0, {self.t_max}]")
        dim = self.ambient_dim
        if dim == 2:
            x = y = 0.0
            for e, (cx, cy) in self.float_terms:
                p = s if e == 1.0 else s * s if e == 2.0 else float(np.power(s, e))
                x += p * cx
                y += p * cy
            return [x, y]
        if dim == 3:
            x = y = z = 0.0
            for e, (cx, cy, cz) in self.float_terms:
                p = s if e == 1.0 else s * s if e == 2.0 else float(np.power(s, e))
                x += p * cx
                y += p * cy
                z += p * cz
            return [x, y, z]
        out = [0.0] * dim
        for e, c in self.float_terms:
            p = s if e == 1.0 else s * s if e == 2.0 else float(np.power(s, e))
            out = [o + p * ck for o, ck in zip(out, c)]
        return out

    def eval_deriv(self, t):
        """gamma'(t) for t > 0 (fractional exponents blow up at 0)."""
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape + (self.ambient_dim,))
        for exp, coeff in self.terms:
            e = float(exp)
            out += e * np.power(t, e - 1.0)[..., None] * np.asarray(coeff, dtype=float)
        return out

    @cached_property
    def float_terms(self) -> tuple:
        """``terms`` as ((float exponent, float coefficient tuple), ...),
        for scalar Python loops."""
        return tuple((float(e), tuple(float(v) for v in c)) for e, c in self.terms)

    @cached_property
    def plane_terms(self) -> tuple:
        """``float_terms`` in the first coordinate plane, with the per-term
        constants of ``medial._project_branch``'s Newton step:
        (e, e - 1, e - 2, e (e - 1), cx, cy, e cx, e cy) per term.

        Raises ``InputError`` for a branch off that plane: every projection
        lies in it (plane germs, and 3D germs on their z = 0 trace).
        """
        if self.ambient_dim < 2 or any(any(c[2:]) for _, c in self.float_terms):
            raise InputError(
                f"branch {self.label!r}: projections need a branch in the first coordinate plane"
            )
        return tuple(
            (e, e - 1.0, e - 2.0, e * (e - 1.0), c[0], c[1], e * c[0], e * c[1])
            for e, c in self.float_terms
        )

    @cached_property
    def u_powers(self) -> tuple:
        """(N, powers): with s = u^N, N the lcm of the exponent denominators,
        the branch is the polynomial sum_i coeff_i u^powers_i."""
        n = math.lcm(*(e.denominator for e, _ in self.terms))
        return n, tuple(int(e * n) for e, _ in self.terms)

    @property
    def max_radius(self) -> float:
        return float(np.linalg.norm(self.eval(self.t_max)))

    def arc_lengths_at(self, params) -> list:
        """Length of the branch from 0 to gamma(s), for each s of ``params``.

        In u = s^{1/N} (see ``u_powers``) the speed N u^{N-1} |gamma'(u^N)|
        is the norm of a polynomial vector, smooth on [0, u_r]; a fixed
        Gauss-Legendre rule integrates it to rounding.  All parameters take
        one quadrature pass: one (len(params), 32) array of nodes, whose
        norms and weighted sums are taken row by row.  The stacked
        ``matmul`` of each row's weights and norms is one ``ddot`` per row,
        as each parameter's own dot product is.
        """
        n, powers = self.u_powers
        half = np.array([0.5 * s ** (1.0 / n) for s in params])[:, None]
        u = half * (_ARC_NODES + 1.0)
        velocity = sum(
            p * np.power(u, p - 1)[..., None] * np.asarray(c, dtype=float)
            for p, (_, c) in zip(powers, self.terms)
        )
        norms = np.linalg.norm(velocity, axis=-1)
        return np.matmul((half * _ARC_WEIGHTS)[:, None, :], norms[:, :, None]).ravel().tolist()

    def param_at_radius(self, r: float, norm=EUCLID) -> float:
        """Solve ||gamma(s)||_norm = r on the monotone initial range.

        A per-point kernel: each evaluation is ``norm.of(self._point(s))``,
        which has the bits of the norm's array call on ``eval``'s point
        without its dispatch, and ``brentq`` gets that function directly;
        the first bracket's lead norm is ``norm.of`` of the lead
        coefficient, for the same reason.  A max norm whose weight count
        is not the branch's dimension is an ``InputError`` naming both.
        """
        if isinstance(norm, WeightedMaxNorm) and len(norm.weights) != self.ambient_dim:
            raise InputError(
                f"branch {self.label!r} has ambient dimension {self.ambient_dim}, "
                f"max norm has {len(norm.weights)} weights"
            )
        if r < 0:
            raise DomainError("radius must be nonnegative")
        if r == 0:
            return 0.0
        exp0, c0 = self.float_terms[0]
        hi = min(self.t_max, (r / norm.of(c0)) ** (1.0 / exp0))
        point, of = self._point, norm.of
        at_hi = of(point(hi))
        while at_hi < r:
            if hi >= self.t_max:
                raise DomainError(
                    f"branch {self.label!r}: radius {r} not reached within t_max"
                )
            hi = min(hi * 1.5, self.t_max)
            at_hi = of(point(hi))
        return brentq(
            lambda s: of(point(s)) - r,
            0.0,
            hi,
            xtol=1e-14 * hi,
            rtol=8.9e-16,
            fb=at_hi - r,
        )

    def point_at_radius(self, r: float, norm=EUCLID) -> np.ndarray:
        return self.eval(self.param_at_radius(r, norm))

    def max_exponent(self) -> Fraction:
        return self.terms[-1][0]


class RadiusTable:
    """Radius-r parameters of Puiseux branches, and sphere sections of
    surface pieces, on one scale ladder, each solved once per analysis.

    ``param`` solves each (branch, ladder radius, norm) once
    (``param_at_radius``).  ``sections`` is its surface twin: the first ask
    for a germ's surface pieces under a (norm, density) on a ladder radius
    solves every piece's sections on the whole ladder in one lane pass
    (``surfaces._sphere_sections``) and keeps one per radius.

    One analysis builds one table and hands it to every stage that needs
    them: the link sections, which solve under the configured norm, and
    the set pairs and the medial bisectors, which solve under Euclid.  The
    norm is part of the key, by value.  A radius off the ladder is solved
    afresh on every query, so the table never outgrows the ladder.  It
    lives only as long as the analysis that built it, never on a branch or
    a piece: later analyses may share them.
    """

    def __init__(self, scales):
        self.ladder = frozenset(float(t) for t in scales)
        self._solved: dict = {}
        self._sections: dict = {}

    def param(self, branch: PuiseuxBranch, r: float, norm=EUCLID) -> float:
        if r not in self.ladder:
            return branch.param_at_radius(r, norm)
        key = (branch, r, norm)
        if key not in self._solved:
            self._solved[key] = branch.param_at_radius(r, norm)
        return self._solved[key]

    def sections(self, pieces: tuple, t: float, norm=EUCLID, density: int = 32) -> list:
        """One (points, params, edges) per surface piece of ``pieces``: its
        section at radius t, as arrays (``surfaces._sphere_sections``).

        Only the link sections of a germ with surface pieces ask for it; a
        germ of curves alone needs no arrays and takes its points from
        ``param``.  The pieces are solved together, one lane pass per
        (norm, density), since one pass costs far less than a pass per
        piece, so the key is the whole tuple: a germ asks for its
        ``surfaces`` at every radius of its link.
        """
        from .surfaces import _sphere_sections  # local import; surfaces builds on germs

        if t not in self.ladder:
            return _sphere_sections(pieces, (t,), norm, density)[0]
        key = (pieces, norm, density)
        if key not in self._sections:
            ladder = sorted(self.ladder, reverse=True)
            self._sections[key] = dict(zip(ladder, _sphere_sections(pieces, ladder, norm, density)))
        return self._sections[key][t]


def puiseux_branch(terms, t_max: float, label: str, ambient_dim: int | None = None) -> PuiseuxBranch:
    """Build a branch from (exponent, coefficient-vector) pairs.

    Exponents may be ints, Fractions, or (num, den) pairs; zero coefficient
    vectors are rejected, duplicate exponents are not merged.
    """
    norm_terms = []
    for exp, coeff in terms:
        if isinstance(exp, tuple):
            exp = Fraction(exp[0], exp[1])
        else:
            exp = Fraction(exp)
        c = np.asarray(coeff, dtype=float)
        norm_terms.append((exp, c))
    norm_terms.sort(key=lambda tc: tc[0])
    if ambient_dim is None:
        ambient_dim = len(norm_terms[0][1])
    return PuiseuxBranch(tuple(norm_terms), ambient_dim, float(t_max), label)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


#: a lattice coefficient below this fraction of the largest coefficient met
#: so far is cancellation noise
COEFF_TOL = 1e-9


@dataclass(frozen=True)
class SeparationOrder:
    """Exact order of ||g1~(t) - g2~(t)|| for distance-aligned branches.

    ``infinite`` means the truncated series coincide below
    ``undecided_beyond``; it flags truncation-level agreement, not equality
    of the underlying germs.
    """

    order: Fraction | None
    infinite: bool
    undecided_beyond: Fraction | None = None


def _miller_powers(a: np.ndarray, alphas: np.ndarray, n: int) -> np.ndarray:
    """Row i: the first n coefficients of a(u)**alphas[i], for a[0] > 0.

    Miller's recurrence  k a_0 b_k = sum_j ((alpha + 1) j - k) a_j b_{k-j}.
    The factors (alpha + 1) j and a_j, which no step changes, are built
    once before the loop; each step makes only the numpy calls whose bits
    it pins, its weights ((alpha + 1) j - k) a_j in the old order and their
    row sums against b_{k-1}, ..., b_{k-top}, read as a reversed view.
    Memory stays one step's weights, len(alphas) (len(a) - 1) floats.
    """
    b = np.zeros((len(alphas), n))
    b[:, 0] = a[0] ** alphas
    j = np.arange(1, min(n - 1, len(a) - 1) + 1)
    base = (alphas[:, None] + 1.0) * j
    aj = a[j]
    a0 = float(a[0])
    for k in range(1, n):
        top = min(k, len(a) - 1)
        back = b[:, k - top : k][:, ::-1]
        b[:, k] = ((base[:, :top] - k) * aj[:top] * back).sum(axis=1) / (k * a0)
    return b


def invert_norm_series(q: np.ndarray, m: int, n: int) -> np.ndarray:
    """First n coefficients of u = psi(tau) solving tau = u q(u)^{1/(2m)}.

    ``q`` is the squared norm of a branch u^m g(u) divided by u^{2m}, so
    tau = t^{1/m} at distance t.  Lagrange inversion gives
    [tau^k] psi = [u^{k-1}] q^{-k/(2m)} / k.
    """
    k = np.arange(1, n)
    powers = _miller_powers(q, -k / (2.0 * m), n - 1)
    psi = np.zeros(n)
    psi[1:] = powers[k - 1, k - 1] / k
    return psi


def separation_cap(branches) -> Fraction:
    """The truncation cap 3 max_exp + 6 of ``symbolic_separation_order``
    over pairs among ``branches``."""
    return 3 * max(b.max_exponent() for b in branches) + 6


def first_separation_cap(branches) -> Fraction:
    """The short cap max_exp + 1 to which ``symbolic_separation_order``
    first aligns pairs among ``branches``: tangent branches most often
    separate at an exponent of their own, so below it."""
    return max(b.max_exponent() for b in branches) + 1


def _aligned_components(b: PuiseuxBranch, cap: Fraction):
    """(m, A): b at distance t as power series in t^{1/m}; A[:, k] is the
    coefficient vector of t^{k/m}, for k/m < cap.

    With s = u^N (N the lcm of the exponent denominators) the branch is a
    polynomial u^m g(u), g(0) != 0; u = psi(t^{1/m}) inverts the norm
    (``invert_norm_series``).
    """
    _, powers = b.u_powers
    m = powers[0]
    poly = np.zeros((powers[-1] + 1, b.ambient_dim))
    for p, (_, c) in zip(powers, b.terms):
        poly[p] = c
    g = poly[m:]
    q = sum(np.convolve(g[:, j], g[:, j]) for j in range(b.ambient_dim))
    n = math.ceil(cap * m)
    psi = invert_norm_series(q, m, n)
    out = np.zeros((b.ambient_dim, n))
    for c in poly[::-1]:  # Horner: out = out * psi + c
        out = np.array([np.convolve(row, psi)[:n] for row in out])
        out[:, 0] += c
    return m, out


class AlignedSeries:
    """Each Puiseux branch's distance-aligned series (``_aligned_components``),
    computed once, to at least the length that ``cap`` asks of it.

    ``pair_reports`` builds one per call, at the first cap of its series
    branches (``first_separation_cap``), and ``symbolic_separation_order``
    slices each pair's first ceil(cap m) columns off it; a pair that asks
    for more than the store holds has its branches aligned again, at the
    longer cap.  The slice is bitwise the series aligned at that length:
    Miller's recurrence fills each coefficient of the norm inversion by
    itself, and each Horner step's truncated product fills coefficient k
    from coefficients 0..k of its factors alone.  Branches key the store
    by identity, and the store lives only as long as its ``pair_reports``
    call.
    """

    def __init__(self, cap: Fraction):
        self.cap = cap
        self._series: dict = {}

    def of(self, b: PuiseuxBranch, cap: Fraction) -> tuple:
        """(m, A) of ``_aligned_components(b, cap)``, sliced off the store."""
        hit = self._series.get(b)
        if hit is None or hit[1].shape[1] < math.ceil(cap * hit[0]):
            hit = self._series[b] = _aligned_components(b, max(cap, self.cap))
        m, a = hit
        return m, a[:, : math.ceil(cap * m)]


def _first_separating_term(b1, b2, aligned: AlignedSeries, cap: Fraction):
    """The first lattice exponent below ``cap`` at which the aligned series
    of b1 and b2 differ by more than the floor, or None."""
    (m1, a1), (m2, a2) = (aligned.of(b, cap) for b in (b1, b2))
    lcm = math.lcm(m1, m2)
    lattice = np.zeros((2, b1.ambient_dim, math.ceil(cap * lcm)))
    lattice[0][:, :: lcm // m1] = a1
    lattice[1][:, :: lcm // m2] = a2
    diff = np.abs(lattice[0] - lattice[1]).max(axis=0)
    floor = COEFF_TOL * np.maximum.accumulate(np.abs(lattice).max(axis=(0, 1)))
    hits = np.flatnonzero(diff > floor)
    return Fraction(int(hits[0]), lcm) if hits.size else None


def symbolic_separation_order(
    b1: PuiseuxBranch, b2: PuiseuxBranch, aligned: AlignedSeries | None = None
) -> SeparationOrder:
    """Exact rational separation order of two branches, or INFINITE.

    Both branches are aligned to the distance parametrization as power
    series on the common lattice t^{1/M}, up to the pair's own cap
    3 max_exp + 6 (``separation_cap``); the order is the first lattice
    exponent at which they differ by more than ``COEFF_TOL`` times the
    largest coefficient met so far.  The floor must follow the lattice: the
    aligned coefficients can grow geometrically (like c^{2k} in t for
    (t, c t^{3/2})), so a floor set by the largest coefficient of the whole
    truncation would hide the true order.

    The lattice is compared first up to a short cap, the store's cap or
    the pair's own if that is smaller, and up to the full cap only when
    no term below the short cap separates the pair.  Both passes give the
    full computation's order: a series aligned to a shorter cap is bitwise
    the prefix of the longer one (``AlignedSeries``), and the floor is a
    running maximum, so at lattice index k it reads indices up to k alone.
    INFINITE still means no separating term below 3 max_exp + 6.

    ``aligned`` shares each branch's aligned series across the pairs of one
    ``pair_reports`` call (one norm inversion and one Horner pass per
    branch, at the first cap of its branches); a lone call aligns its pair
    at ``first_separation_cap``.  The order is bitwise the same with or
    without it.
    """
    if b1.ambient_dim != b2.ambient_dim:
        raise InputError("branches must share an ambient dimension")
    cap = separation_cap((b1, b2))
    if aligned is None:
        aligned = AlignedSeries(first_separation_cap((b1, b2)))
    first = min(aligned.cap, cap)
    order = _first_separating_term(b1, b2, aligned, first)
    if order is None and first < cap:
        order = _first_separating_term(b1, b2, aligned, cap)
    if order is None:
        return SeparationOrder(None, True, undecided_beyond=cap)
    return SeparationOrder(order, False, None)


# ---------------------------------------------------------------------------
# Germ sets and sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GermSet:
    """Named union of curve pieces and procedural surface pieces at 0.

    ``branches`` may hold any objects with the curve-piece interface that
    ``germ_set``, the pair ladders (``tangency._on_ladder``) and the cloud
    sampler (``_sample_curve_piece``) read: ``label``, ``ambient_dim``,
    ``point_at_radius``, ``max_radius``, and, for a piece other than a
    Puiseux branch, ``arc_lengths``, the length from 0 to the radius-r
    point for each radius of a ladder.  Exact Puiseux branches
    additionally support the series-level oracles and the link sections.
    """

    branches: tuple
    surfaces: tuple
    ambient_dim: int
    label: str

    def __post_init__(self):
        labels = [p.label for p in self.branches] + [p.label for p in self.surfaces]
        if len(set(labels)) != len(labels):
            raise InputError(f"germ set {self.label!r}: piece labels must be unique")
        if not labels:
            raise InputError(f"germ set {self.label!r}: no pieces")

    @property
    def pieces(self):
        return self.branches + self.surfaces


def germ_set(branches=(), surfaces=(), label="germ", ambient_dim=None) -> GermSet:
    branches = tuple(branches)
    surfaces = tuple(surfaces)
    if ambient_dim is None:
        if branches:
            ambient_dim = branches[0].ambient_dim
        elif surfaces:
            ambient_dim = surfaces[0].ambient_dim
        else:
            raise InputError("empty germ set")
    for p in branches + surfaces:
        if p.ambient_dim != ambient_dim:
            raise InputError(f"piece {p.label!r} has inconsistent ambient dimension")
    return GermSet(branches, surfaces, ambient_dim, label)


def _sample_curve_piece(piece, scale: float, density: int, strict: bool = True):
    """Points of a curve piece at radii covering [0, scale].

    Returns (params, points); params are the piece's natural parameters
    (the Puiseux parameter for exact branches, the radius otherwise).
    With ``strict=False`` a piece shorter than the scale is sampled up to
    its own extent instead of raising.
    """
    top = scale
    if getattr(piece, "max_radius", math.inf) < scale * (1 - 1e-9):
        if strict:
            raise DomainError(f"piece {piece.label!r} does not reach radius {scale}")
        top = piece.max_radius
    m = max(int(math.ceil(1.25 * density)), 8)
    for _ in range(6):
        radii = np.linspace(0.0, top, m + 1)
        if isinstance(piece, PuiseuxBranch):
            params = [piece.param_at_radius(r) for r in radii]
            pts = piece.eval(np.asarray(params))
        else:
            params = list(radii)
            pts = np.array([piece.point_at_radius(r) for r in radii])
        chords = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        if np.max(chords) <= scale / density:
            return params, pts
        m *= 2
    raise ReparametrizationError(
        f"piece {piece.label!r}: could not meet the spacing bound at scale {scale}"
    )


def sample_cloud(
    set_: GermSet, scale: float, density: int, strict: bool = True
) -> PointCloud:
    """One point cloud covering {x in X : ||x|| <= scale}.

    Curve pieces are sampled by the distance parametrization (the radius-
    ``scale`` point is recorded in ``tip_index``); surface pieces by their
    samplers.  Coincident points across pieces are merged with the union of
    their labels — these shared points are the only junctions the
    neighborhood graph will see.
    """
    if density < 8:
        raise InputError("density must be at least 8")
    pts_list, labels, params = [], [], []
    tips = {}
    for piece in set_.branches:
        piece_params, pts = _sample_curve_piece(piece, scale, density, strict)
        for s, p in zip(piece_params, pts):
            pts_list.append(p)
            labels.append({piece.label})
            params.append({piece.label: s})
        if np.linalg.norm(pts[-1]) >= scale * (1 - 1e-9):
            tips[piece.label] = len(pts_list) - 1
    for piece in set_.surfaces:
        try:
            spts, sparams = piece.sample(scale, density)
        except Exception as exc:  # propagate with the piece label attached
            raise InputError(f"sampler for piece {piece.label!r} failed: {exc}") from exc
        for p, prm in zip(spts, sparams):
            pts_list.append(np.asarray(p, dtype=float))
            labels.append({piece.label})
            params.append({piece.label: prm})
    new_pts, new_labels, new_params, remap = merge_coincident(
        np.array(pts_list), labels, params, tol=1e-9 * scale
    )
    tip_index = {lab: remap[i] for lab, i in tips.items()}
    return PointCloud(
        points=new_pts,
        scale=scale * (1 + 1e-12),
        labels=new_labels,
        params=new_params,
        spacing=scale / density,
        tip_index=tip_index,
    )


def merge_coincident(pts: np.ndarray, labels, params, tol: float):
    """Union-merge points closer than ``tol``, unioning labels and params.

    Returns (points, labels, params, remap) with ``remap`` mapping old to
    new indices.  Shared seam/junction points across pieces become single
    multi-label points this way.
    """
    remap = cluster_labels(pts, tol)
    keep = np.unique(remap, return_index=True)[1]
    new_labels = [set() for _ in keep]
    new_params = [{} for _ in keep]
    for i, g in enumerate(remap):
        new_labels[g] |= labels[i]
        new_params[g].update(params[i])
    return (
        pts[keep],
        tuple(frozenset(l) for l in new_labels),
        tuple(new_params),
        remap,
    )


def check_scale_ladder(scales) -> list:
    """The scales as floats; ``InputError`` unless there are at least
    ``MIN_SCALES`` of them, positive and finite, decreasing strictly along a
    geometric sequence."""
    scales = [float(t) for t in scales]
    if len(scales) < MIN_SCALES:
        raise InputError(f"need at least {MIN_SCALES} scales, got {len(scales)}")
    t = np.asarray(scales)
    if not np.all(np.isfinite(t) & (t > 0)):
        raise InputError("scales must be positive and finite")
    ratios = t[1:] / t[:-1]
    if np.any(ratios >= 1):
        raise InputError("scales must be strictly decreasing")
    if np.max(ratios) - np.min(ratios) > 1e-6:
        raise InputError("scales must form a geometric sequence")
    return scales


# ---------------------------------------------------------------------------
# Germ JSON files
# ---------------------------------------------------------------------------


def germset_to_json(set_: GermSet) -> dict:
    branches = []
    for b in set_.branches:
        if not isinstance(b, PuiseuxBranch):
            raise InputError(f"curve piece {b.label!r}: only Puiseux branches can be serialized")
        branches.append(
            {
                "label": b.label,
                "t_max": b.t_max,
                "terms": [
                    {
                        "exp": [t.numerator, t.denominator],
                        "coeff": [float(c) for c in coeff],
                    }
                    for t, coeff in b.terms
                ],
            }
        )
    surfaces = [p.to_json() for p in set_.surfaces]
    return {
        "label": set_.label,
        "ambient_dim": set_.ambient_dim,
        "branches": branches,
        "surfaces": surfaces,
    }


def germset_from_json(data: dict) -> GermSet:
    from .surfaces import surface_from_json  # local import; surfaces builds on germs

    try:
        dim, label = data["ambient_dim"], data["label"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"germ file: missing or malformed field ({exc})") from exc
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise InputError(f"germ file: 'ambient_dim' must be an integer, got {dim!r}")
    if not isinstance(label, str):
        raise InputError(f"germ file: 'label' must be a string, got {label!r}")
    branch_data, surface_data = data.get("branches", []), data.get("surfaces", [])
    if not (isinstance(branch_data, list) and isinstance(surface_data, list)):
        raise InputError("germ file: fields 'branches' and 'surfaces' must be lists")
    branches = []
    for i, b in enumerate(branch_data):
        try:
            if not isinstance(b["label"], str):
                raise InputError(
                    f"germ file: branch {i}: 'label' must be a string, got {b['label']!r}"
                )
            terms = []
            for t in b["terms"]:
                exp = t["exp"]
                if (
                    not isinstance(exp, list)
                    or len(exp) != 2
                    or not all(isinstance(e, int) for e in exp)
                    or exp[1] == 0
                ):
                    raise InputError(
                        f"germ file: branch {i}: exponents must be exact [num, den] "
                        "integer pairs with den != 0"
                    )
                terms.append(((exp[0], exp[1]), t["coeff"]))
            branches.append(
                puiseux_branch(terms, b["t_max"], b["label"], ambient_dim=dim)
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"germ file: branch {i}: malformed field ({exc})") from exc
    surfaces = [surface_from_json(s, dim) for s in surface_data]
    return germ_set(branches, surfaces, label=label, ambient_dim=dim)


def load_germ_file(path) -> GermSet:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"germ file {path}: {exc}") from exc
    return germset_from_json(data)
