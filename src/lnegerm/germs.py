"""Curve and surface germs at the origin.

Curve germs are finite Puiseux sums with exact rational exponents and float
coefficient vectors.  Surface germs are procedural samplers (see
``surfaces``).  This module owns evaluation, distance reparametrization,
arc lengths, tangent half-lines, the exact separation-order oracle (dense
power series on an integer lattice), sampling into point clouds, and the
germ JSON file format.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np
from scipy.optimize import brentq

from .errors import DomainError, InputError, ReparametrizationError
from .metrics import PointCloud, cluster_labels
from .norms import EUCLID


@dataclass(frozen=True, eq=False)
class HalfLine:
    """Half-line R+ * direction, direction a unit vector."""

    direction: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.direction, dtype=float)
        n = np.linalg.norm(d)
        if not math.isclose(n, 1.0, rel_tol=1e-9):
            raise InputError("half-line direction must be a unit vector")


#: Gauss-Legendre nodes and weights on [-1, 1] for ``PuiseuxBranch.arc_length``
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
            if not np.any(c):
                raise InputError(f"branch {self.label!r}: zero coefficient vector")
        if self.t_max <= 0:
            raise InputError(f"branch {self.label!r}: t_max must be positive")

    # -- evaluation ----------------------------------------------------

    def eval(self, t):
        """gamma(t) for scalar or array t in [0, t_max]."""
        t = np.asarray(t, dtype=float)
        if np.any(t < 0) or np.any(t > self.t_max * (1 + 1e-12)):
            raise DomainError(f"branch {self.label!r}: parameter outside [0, {self.t_max}]")
        out = np.zeros(t.shape + (self.ambient_dim,))
        for exp, coeff in self.terms:
            out += np.power(t, float(exp))[..., None] * np.asarray(coeff, dtype=float)
        return out

    def norm_at(self, s, norm=EUCLID):
        return norm(self.eval(s))

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
    def u_powers(self) -> tuple:
        """(N, powers): with s = u^N, N the lcm of the exponent denominators,
        the branch is the polynomial sum_i coeff_i u^powers_i."""
        n = math.lcm(*(e.denominator for e, _ in self.terms))
        return n, tuple(int(e * n) for e, _ in self.terms)

    @property
    def max_radius(self) -> float:
        return float(np.linalg.norm(self.eval(self.t_max)))

    def arc_length(self, r: float) -> float:
        """Length of the branch from 0 to its radius-r point.

        In u = s^{1/N} (see ``u_powers``) the speed N u^{N-1} |gamma'(u^N)|
        is the norm of a polynomial vector, smooth on [0, u_r]; a fixed
        Gauss-Legendre rule integrates it to rounding.
        """
        n, powers = self.u_powers
        u_r = self.param_at_radius(r) ** (1.0 / n)
        u = 0.5 * u_r * (_ARC_NODES + 1.0)
        velocity = sum(
            p * np.power(u, p - 1)[:, None] * np.asarray(c, dtype=float)
            for p, (_, c) in zip(powers, self.terms)
        )
        return float(0.5 * u_r * _ARC_WEIGHTS @ np.linalg.norm(velocity, axis=1))

    def param_at_radius(self, r: float, norm=EUCLID) -> float:
        """Solve ||gamma(s)||_norm = r on the monotone initial range."""
        if r < 0:
            raise DomainError("radius must be nonnegative")
        if r == 0:
            return 0.0
        exp0, c0 = self.terms[0]
        lead = float(norm(np.asarray(c0, dtype=float)))
        hi = min(self.t_max, (r / lead) ** (1.0 / float(exp0)))
        while self.norm_at(hi, norm) < r:
            if hi >= self.t_max:
                raise DomainError(
                    f"branch {self.label!r}: radius {r} not reached within t_max"
                )
            hi = min(hi * 1.5, self.t_max)
        return float(
            brentq(
                lambda s: self.norm_at(s, norm) - r,
                0.0,
                hi,
                xtol=1e-14 * hi,
                rtol=8.9e-16,
            )
        )

    def point_at_radius(self, r: float, norm=EUCLID) -> np.ndarray:
        return self.eval(self.param_at_radius(r, norm))

    def max_exponent(self) -> Fraction:
        return self.terms[-1][0]


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
    """
    b = np.zeros((len(alphas), n))
    b[:, 0] = a[0] ** alphas
    for k in range(1, n):
        j = np.arange(1, min(k, len(a) - 1) + 1)
        weights = (alphas[:, None] + 1.0) * j - k
        b[:, k] = (weights * a[j] * b[:, k - j]).sum(axis=1) / (k * a[0])
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


def _aligned_components(b: PuiseuxBranch, cap: Fraction):
    """(m, A): b at distance t as power series in t^{1/m}; A[:, k] is the
    coefficient vector of t^{k/m}, for k/m < cap.

    With s = u^N (N the lcm of the exponent denominators) the branch is a
    polynomial u^m g(u), g(0) != 0; u = psi(t^{1/m}) inverts the norm.
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


def symbolic_separation_order(b1: PuiseuxBranch, b2: PuiseuxBranch) -> SeparationOrder:
    """Exact rational separation order of two branches, or INFINITE.

    Both branches are aligned to the distance parametrization as power
    series on the common lattice t^{1/M}, up to the cap 3 max_exp + 6; the
    order is the first lattice exponent at which they differ by more than
    ``COEFF_TOL`` times the largest coefficient met so far.  The floor must
    follow the lattice: the aligned coefficients can grow geometrically
    (like c^{2k} in t for (t, c t^{3/2})), so a floor set by the largest
    coefficient of the whole truncation would hide the true order.
    """
    if b1.ambient_dim != b2.ambient_dim:
        raise InputError("branches must share an ambient dimension")
    cap = 3 * max(b1.max_exponent(), b2.max_exponent()) + 6
    (m1, a1), (m2, a2) = (_aligned_components(b, cap) for b in (b1, b2))
    lcm = math.lcm(m1, m2)
    lattice = np.zeros((2, b1.ambient_dim, math.ceil(cap * lcm)))
    lattice[0][:, :: lcm // m1] = a1
    lattice[1][:, :: lcm // m2] = a2
    diff = np.abs(lattice[0] - lattice[1]).max(axis=0)
    floor = COEFF_TOL * np.maximum.accumulate(np.abs(lattice).max(axis=(0, 1)))
    hits = np.flatnonzero(diff > floor)
    if hits.size == 0:
        return SeparationOrder(None, True, undecided_beyond=cap)
    return SeparationOrder(Fraction(int(hits[0]), lcm), False, None)


# ---------------------------------------------------------------------------
# Germ sets and sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GermSet:
    """Named union of curve pieces and procedural surface pieces at 0.

    ``branches`` may hold any objects with the curve-piece interface
    (``label``, ``point_at_radius``, ``max_radius``, and ``arc_length``, the
    length from 0 to the radius-r point); exact Puiseux branches
    additionally support the series-level oracles.
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

    def branch(self, label: str):
        for b in self.branches:
            if b.label == label:
                return b
        raise InputError(f"no branch labelled {label!r} in germ set {self.label!r}")

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


def check_scale_ladder(scales) -> None:
    """Raise ``InputError`` unless the scales decrease strictly along a
    geometric sequence."""
    t = np.asarray(scales, dtype=float)
    if len(t) < 2:
        return
    ratios = t[1:] / t[:-1]
    if np.any(ratios >= 1):
        raise InputError("scales must be strictly decreasing")
    if np.max(ratios) - np.min(ratios) > 1e-6:
        raise InputError("scales must form a geometric sequence")


# ---------------------------------------------------------------------------
# Germ JSON files
# ---------------------------------------------------------------------------


def germset_to_json(set_: GermSet) -> dict:
    branches = []
    for b in set_.branches:
        if not isinstance(b, PuiseuxBranch):
            raise InputError("only exact Puiseux branches can be serialized")
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
        dim = int(data["ambient_dim"])
        label = str(data["label"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"germ file: missing or malformed field ({exc})") from exc
    branches = []
    for i, b in enumerate(data.get("branches", [])):
        try:
            terms = []
            for t in b["terms"]:
                exp = t["exp"]
                if (
                    not isinstance(exp, list)
                    or len(exp) != 2
                    or not all(isinstance(e, int) for e in exp)
                ):
                    raise InputError(
                        f"germ file: branch {i}: exponents must be exact [num, den] integer pairs"
                    )
                terms.append(((exp[0], exp[1]), t["coeff"]))
            branches.append(
                puiseux_branch(terms, b["t_max"], b["label"], ambient_dim=dim)
            )
        except (KeyError, TypeError) as exc:
            raise InputError(f"germ file: branch {i}: {exc}") from exc
    surfaces = [surface_from_json(s, dim) for s in data.get("surfaces", [])]
    return germ_set(branches, surfaces, label=label, ambient_dim=dim)


def load_germ_file(path) -> GermSet:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"germ file {path}: {exc}") from exc
    return germset_from_json(data)
