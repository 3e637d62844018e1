"""Scalar point kernels: bitwise equal to the array paths they stand in for.

A float parameter takes ``PuiseuxBranch._point`` and ``norm.of``; arrays
take ``eval`` and the norm's ``__call__``.  Each pair must give the same
bits, so every comparison here is on the float's hex or the array's bytes.
A surface piece's column kernel (``_columns``), which maps the heights of
many section rays to their points, is held the same way to ``eval_param``,
and ``norm.of_columns`` to the norm's array call.  The plane foot kernel
``medial._project_branch`` is held the same way to the any-dimension Newton
loop it replaced, kept here as a reference.

The per-point kernels that run on floats and make only the numpy calls
whose bits they pin (``PuiseuxBranch._point``, ``param_at_radius``,
``medial._project_branch``, ``medial._max_pair_angle`` and
``germs._miller_powers``) are each held to the body they replaced, kept
here as well.
"""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from lnegerm import (
    EUCLID,
    DomainError,
    InputError,
    LnegermError,
    RunConfig,
    WeightedMaxNorm,
    builtin,
    puiseux_branch,
    run_scenario,
)
from lnegerm import germs, medial, tangency
from lnegerm.germs import PuiseuxBranch
from lnegerm.norms import EuclideanNorm
from lnegerm.optimize import brentq, golden_min
from lnegerm.report import canonical_json
from lnegerm.surfaces import HornPiece, WallPiece


def _branches(seed):
    """Seeded 2D and 3D branches whose exponents have denominators 1-3."""
    rng = random.Random(seed)
    out = []
    for k in range(40):
        dim = 2 + k % 2
        dens = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
        exps = sorted({Fraction(rng.randint(1, 4 * d), d) for d in dens})
        terms = [(e, [rng.uniform(-3.0, 3.0) for _ in range(dim)]) for e in exps]
        out.append(puiseux_branch(terms, rng.uniform(0.05, 2.0), f"b{k}"))
    return out


def _params(b, rng):
    return [0.0, 1e-12, b.t_max] + [rng.uniform(0.0, b.t_max) for _ in range(50)]


def _norms(dim):
    return (EUCLID, WeightedMaxNorm(tuple(0.5 + 0.25 * k for k in range(dim))))


def test_branch_point_matches_array_eval():
    rng = random.Random(1)
    for b in _branches(0):
        for s in _params(b, rng):
            ref = b.eval(np.asarray(s))
            got = b.eval(s)
            assert got.dtype == ref.dtype and got.shape == ref.shape == (b.ambient_dim,)
            assert got.tobytes() == ref.tobytes(), (b.label, s)


def test_denominators_covered():
    dens = {e.denominator for b in _branches(0) for e, _ in b.terms}
    assert dens == {1, 2, 3}


def test_norm_at_matches_array_norm():
    # the norm at a float parameter on the scalar path, as the radius solve
    # takes it, against the array call on the array path
    rng = random.Random(2)
    for b in _branches(0):
        for norm in _norms(b.ambient_dim):
            for s in _params(b, rng):
                ref = norm(b.eval(np.asarray(s)))
                got = norm.of(b._point(s))
                assert type(got) is float
                assert got.hex() == float(ref).hex(), (b.label, norm, s)


def test_norm_of_matches_array_call():
    rng = np.random.default_rng(3)
    for dim in (2, 3):
        # magnitudes from 1e-13 to 1e13, so sums of squares mix exponents
        pts = rng.standard_normal((20000, dim)) * np.exp(rng.uniform(-30, 30, (20000, 1)))
        for norm in _norms(dim):
            ref = norm(pts)
            got = np.array([norm.of(p) for p in pts.tolist()])
            assert got.tobytes() == ref.tobytes()


def _reference_point(branch, s):
    """``PuiseuxBranch._point`` as it was before its unrolled sums."""
    if s < 0 or s > branch.t_max * (1 + 1e-12):
        raise DomainError(f"branch {branch.label!r}: parameter outside [0, {branch.t_max}]")
    out = [0.0] * branch.ambient_dim
    for e, c in branch.float_terms:
        p = float(np.power(s, e))
        out = [o + p * ck for o, ck in zip(out, c)]
    return out


def _hexes(values) -> list:
    return [float(v).hex() for v in values]


def test_branch_point_matches_its_old_body():
    # plane and space branches take the unrolled sums, any other dimension
    # the general loop; zero coefficients and s = 0 make -0.0 products,
    # which the first term's 0.0 + p c turns into 0.0 on every path.  A
    # term of exponent 1 takes s in place of np.power(s, 1.0): unit terms,
    # leading or not, meet s = 0, -0.0, subnormal s and t_max
    rng = random.Random(6)
    branches = _branches(0) + [
        puiseux_branch([(1, (-1.0,)), ((5, 2), (2.0,))], 1.0, "line1"),
        puiseux_branch([(1, (1.0, -0.0, 0.0, -2.0)), ((4, 3), (0.0, 1.0, -1.0, 0.5))], 1.0, "b4"),
        puiseux_branch([(1, (-1.0, 0.0)), (2, (0.0, -3.0))], 1.0, "signed"),
        puiseux_branch([(1, (0.0, -1.0, 0.0)), ((3, 2), (0.0, 0.0, -2.0))], 1.0, "signed3"),
        puiseux_branch([(1, (-0.0, 2.0))], 0.5, "line2"),
        puiseux_branch([((1, 2), (1.0, -0.0)), (1, (-0.0, -1.0)), (2, (3.0, 0.0))], 1.0, "mid2"),
        puiseux_branch([((2, 3), (0.0, 1.0, -0.0)), (1, (-2.0, -0.0, 1.0))], 1.0, "mid3"),
    ]
    assert {b.ambient_dim for b in branches} == {1, 2, 3, 4}
    assert sum(any(e == 1 for e, _ in b.terms) for b in branches) >= 10
    for b in branches:
        for s in _params(b, rng) + [-0.0, 5e-324, 1e-310, 1e-308]:
            got = b._point(s)
            assert type(got) is list and all(type(v) is float for v in got)
            assert _hexes(got) == _hexes(_reference_point(b, s)), (b.label, s)
    assert _hexes(branches[-1]._point(0.0)) == _hexes([0.0, 0.0, 0.0])


def _every_binade(seed) -> list:
    """Eight random finite floats of each sign and biased exponent (0: the
    subnormals), and a few edge values."""
    rng = np.random.default_rng(seed)
    biased = np.repeat(np.arange(2047, dtype=np.uint64), 8)
    mantissa = rng.integers(0, 2**52, size=biased.size, dtype=np.uint64)
    sign = rng.integers(0, 2, size=biased.size, dtype=np.uint64)
    xs = ((sign << np.uint64(63)) | (biased << np.uint64(52)) | mantissa).view(np.float64)
    return xs.tolist() + [0.0, -0.0, 5e-324, 2.0**-1022, 1.0, np.finfo(float).max]


def test_unit_power_is_the_identity_on_every_binade():
    # _point and the array eval take s for np.power(s, 1.0), and the foot
    # Newton takes s for libm's s**1.0 and 1.0 for s**0.0; should an
    # identity fail on some platform, this fails rather than the bits
    # changing silently
    xs = _every_binade(29)
    for x in xs:
        assert (x**1.0).hex() == x.hex()
        assert float(np.power(x, 1.0)).hex() == x.hex()
        assert x**0.0 == 1.0
    arr = np.array(xs)
    assert np.power(arr, 1.0).tobytes() == arr.tobytes()


def test_square_power_is_the_product_on_every_binade():
    # _point and the array eval take s * s for np.power(s, 2.0): numpy's
    # power loop squares exactly.  pyproject admits numpy >= 1.23; on a
    # numpy whose power lacks the exact square this fails rather than the
    # bits changing silently.  libm's s**2.0 is not held to it, and the foot
    # Newton keeps its s**e
    xs = _every_binade(30)
    arr = np.array(xs)
    with np.errstate(over="ignore"):
        for x in xs:
            assert float(np.power(x, 2.0)).hex() == (x * x).hex(), x
        assert np.power(arr, 2.0).tobytes() == (arr * arr).tobytes()
        assert np.power(arr[:7], 2.0).tobytes() == (arr[:7] * arr[:7]).tobytes()


def _square_and_cube_branches():
    """Branches with terms of exponent 2 and 3, leading or not, after a
    unit term or a fractional lead (whose unit term follows), with signed
    zero coefficients, in dimensions 1 to 4; all but the last two lie in
    the first coordinate plane."""
    return [
        puiseux_branch([(2, (1.0, -0.5))], 1.0, "square"),
        puiseux_branch([(1, (1.0, 0.0)), (2, (0.3, -1.2))], 1.5, "line_square"),
        puiseux_branch([(1, (1.0, -0.0)), (3, (-0.0, 0.7))], 1.0, "line_cube"),
        puiseux_branch(
            [((1, 2), (0.0, 1.0)), (1, (1.0, 0.0)), (2, (-0.0, 2.0)), (3, (0.5, -0.0))],
            0.8,
            "half_to_cube",
        ),
        puiseux_branch(
            [(2, (1.0, 0.0, 0.0)), ((5, 2), (0.0, 1.0, -0.0)), (3, (0.2, 0.0, 0.0))], 2.0, "trace"
        ),
        puiseux_branch([(2, (1.0,)), (3, (-1.0,))], 0.5, "one"),
        puiseux_branch([(2, (1.0, -0.0, 0.0, -2.0)), ((7, 3), (0.0, 1.0, -1.0, 0.5))], 1.0, "four"),
    ]


def test_square_and_cube_terms_match_the_power_call():
    # a term of exponent 2 takes s * s on the scalar and the array path,
    # one of exponent 3 keeps its np.power call; 4000 parameters a branch
    # meet the inputs on which libm's s**2.0, or s * s * s for the cube,
    # rounds differently
    rng = random.Random(31)
    for b in _square_and_cube_branches():
        params = _params(b, rng) + [rng.uniform(0.0, b.t_max) for _ in range(4000)]
        params += [-0.0, 5e-324, 1e-160, 1e-310]
        want = [_reference_point(b, s) for s in params]
        for s, ref in zip(params, want):
            assert _hexes(b._point(s)) == _hexes(ref), (b.label, s)
        assert b.eval(np.array(params)).tobytes() == np.array(want).tobytes(), b.label


def test_branch_domain_errors_on_both_paths():
    for b in _branches(0)[:8]:
        for s in (-1e-300, -0.5, math.nextafter(b.t_max * (1 + 1e-12), math.inf), 2 * b.t_max):
            with pytest.raises(DomainError):
                b.eval(s)
            with pytest.raises(DomainError):
                b.eval(np.asarray(s))
            with pytest.raises(DomainError):
                b._point(s)
        # the tolerance above t_max holds on both paths alike
        edge = b.t_max * (1 + 1e-12)
        assert b.eval(edge).tobytes() == b.eval(np.asarray(edge)).tobytes()


def _reference_param_at_radius(branch, r, norm=EUCLID):
    """``PuiseuxBranch.param_at_radius``'s body written out as a reference:
    the bracket widening and the ``brentq`` solve, each evaluation
    ``norm.of(branch._point(s))``."""
    if r < 0:
        raise DomainError("radius must be nonnegative")
    if r == 0:
        return 0.0
    exp0, c0 = branch.terms[0]
    lead = float(norm(np.asarray(c0, dtype=float)))
    hi = min(branch.t_max, (r / lead) ** (1.0 / float(exp0)))
    at_hi = norm.of(branch._point(hi))
    while at_hi < r:
        if hi >= branch.t_max:
            raise DomainError(f"branch {branch.label!r}: radius {r} not reached within t_max")
        hi = min(hi * 1.5, branch.t_max)
        at_hi = norm.of(branch._point(hi))
    return brentq(
        lambda s: norm.of(branch._point(s)) - r,
        0.0,
        hi,
        xtol=1e-14 * hi,
        rtol=8.9e-16,
        fb=at_hi - r,
    )


def _outcome(fn, *args):
    """('ok', float hex) or (exception type, message) of one call."""
    try:
        return "ok", fn(*args).hex()
    except LnegermError as exc:
        return type(exc).__name__, str(exc)


def test_param_at_radius_matches_its_old_body():
    # the 40 seeded branches under both norms, on the benchmark ladder and
    # off it; radii up to 1.3 times a branch's reach run into the t_max
    # check, a first guess short of the radius widens the bracket, and a
    # negative radius is refused
    rng = random.Random(7)
    ladder = list(RunConfig().scales())
    widened = beyond = solved = 0
    for b in _branches(0):
        for norm in _norms(b.ambient_dim):
            reach = norm.of(b._point(b.t_max))
            radii = [-1e-300, 0.0] + ladder + [reach * rng.uniform(0.0, 1.3) for _ in range(12)]
            for r in radii:
                want = _outcome(_reference_param_at_radius, b, r, norm)
                assert _outcome(b.param_at_radius, r, norm) == want, (b.label, norm, r)
                solved += want[0] == "ok"
                beyond += "not reached within t_max" in want[1]
                if 0.0 < r:
                    exp0, c0 = b.terms[0]
                    lead = float(norm(np.asarray(c0, dtype=float)))
                    hi = min(b.t_max, (r / lead) ** (1.0 / float(exp0)))
                    widened += hi < b.t_max and norm.of(b._point(hi)) < r
    assert solved > 500 and beyond > 50 and widened > 50


# ---------------------------------------------------------------------------
# Miller's recurrence: the prebuilt factors against the per-step weights
# ---------------------------------------------------------------------------


def _reference_miller_powers(a, alphas, n):
    """``germs._miller_powers`` as it was before it built the factors
    (alpha + 1) j and a_j once: each step builds them itself and indexes
    b_{k-j} with an index array."""
    b = np.zeros((len(alphas), n))
    b[:, 0] = a[0] ** alphas
    for k in range(1, n):
        j = np.arange(1, min(k, len(a) - 1) + 1)
        weights = (alphas[:, None] + 1.0) * j - k
        b[:, k] = (weights * a[j] * b[:, k - j]).sum(axis=1) / (k * a[0])
    return b


def test_miller_powers_match_their_old_body():
    rng = np.random.default_rng(8)
    shapes = [(1, 1, 1), (1, 4, 3), (5, 1, 2), (3, 2, 1), (30, 9, 29), (12, 40, 7)]
    shapes += [
        (int(rng.integers(1, 25)), int(rng.integers(1, 12)), int(rng.integers(1, 8)))
        for _ in range(60)
    ]
    for n, size, count in shapes:
        a = rng.standard_normal(size) * np.exp(rng.uniform(-3, 3, size))
        a[0] = abs(a[0]) + 1e-3
        alphas = rng.uniform(-4.0, 4.0, count)
        got = germs._miller_powers(a, alphas, n)
        want = _reference_miller_powers(a, alphas, n)
        assert got.shape == want.shape == (count, n)
        assert got.tobytes() == want.tobytes(), (n, size, count)


def test_norm_inversion_feeds_the_recurrence_as_before(monkeypatch):
    # the series oracle's own calls: every aligned series of the plane
    # builtins and an arc_fan germ has the bits of the old recurrence
    def aligned(branches):
        cap = germs.separation_cap(branches)
        return [germs._aligned_components(b, cap)[1].tobytes() for b in branches]

    fan = [
        puiseux_branch([(1, (1.0, a)), (e, (0.0, c))], 1.0, f"fan{k}")
        for k, (a, e, c) in enumerate(
            [(-1.0, Fraction(5, 2), 0.7), (0.0, Fraction(3, 2), 0.3), (1.0, Fraction(3), 0.9)]
        )
    ]
    germs_ = [builtin(label).germ().branches for label in ("cusp", "abs_graph", "three_tangent")]
    for branches in germs_ + [fan]:
        fast = aligned(branches)
        monkeypatch.setattr(germs, "_miller_powers", _reference_miller_powers)
        slow = aligned(branches)
        monkeypatch.undo()
        assert fast == slow


def test_norm_inversion_of_large_denominators_keeps_one_step_of_weights():
    # exponent denominators of lcm 60 give 630 coefficients and 629 powers:
    # the same bits as the old recurrence, and no more memory than the
    # powers themselves need, where weights for every step at once would
    # take 629 * 629 * 60 floats (190 MB)
    branch = puiseux_branch(
        [
            (1, (1.0, 0.0)),
            (Fraction(6, 5), (0.0, 0.4)),
            (Fraction(5, 4), (0.0, -0.3)),
            (Fraction(4, 3), (0.0, 0.5)),
            (Fraction(3, 2), (0.0, 0.2)),
        ],
        1.0,
        "lcm60",
    )
    m = branch.u_powers[1][0]
    assert m == 60
    g = np.zeros((branch.u_powers[1][-1] + 1 - m, 2))
    for p, (_, c) in zip(branch.u_powers[1], branch.terms):
        g[p - m] = c
    q = np.convolve(g[:, 0], g[:, 0]) + np.convolve(g[:, 1], g[:, 1])
    n = math.ceil(germs.separation_cap([branch]) * m)
    assert n == 630
    k = np.arange(1, n)
    want = _reference_miller_powers(q, -k / (2.0 * m), n - 1)
    tracemalloc.start()
    try:
        got = germs._miller_powers(q, -k / (2.0 * m), n - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == want.tobytes()
    assert peak < 2 * got.nbytes
    psi = germs.invert_norm_series(q, m, n)
    assert psi[1:].tobytes() == (want[k - 1, k - 1] / k).tobytes()


# ---------------------------------------------------------------------------
# Surface sections: each piece's column kernel against the array point
# ---------------------------------------------------------------------------


def _ref_horn_point(self, prm):
    y, theta = prm
    if y < 0 or y > self.y_max * (1 + 1e-12):
        raise DomainError("height")
    cx, r = self._cx_r(y)
    return np.array([self.sign * (cx + r * math.cos(theta)), y, r * math.sin(theta)])


def _ref_wall_point(self, prm):
    u, y = prm
    if y < 0 or y > self.y_max * (1 + 1e-12):
        raise DomainError("height")
    if abs(u) > 1 + 1e-12:
        raise DomainError("u")
    return np.array([u * self.half_width_coef * y * y, y, 0.0])


_SURFACES = [
    (HornPiece(label="pos"), _ref_horn_point, 1),
    (HornPiece(label="neg", sign=-1.0, a_outer=0.7, a_inner=1.9, y_max=0.8), _ref_horn_point, 1),
    (WallPiece(label="wall"), _ref_wall_point, 0),
    (WallPiece(label="wide", half_width_coef=3.0, y_max=0.6), _ref_wall_point, 0),
]
_IDS = [piece.label for piece, _, _ in _SURFACES]


@pytest.mark.parametrize("piece, ref_point, fixed", _SURFACES, ids=_IDS)
@pytest.mark.parametrize("t", [0.003, 0.07, 0.5])
def test_section_ray_functions_match_array_point(piece, ref_point, fixed, t):
    # the section solver's ray function, norm.of_columns(columns(y)) - t,
    # evaluates every lane through the piece's column kernel: each point,
    # and each value, must have the bits of the point's own eval_param and
    # the norm's array call
    # (libm's square and x*x differ on about 1 in 1200 heights: 200 heights
    # per ray make a mismatch of the kind show up on every horn case)
    rng = random.Random(4)
    rays = piece._rays(t, 32)
    y_hi = min(piece.y_max, 1.5 * t)
    lanes = np.repeat(np.arange(len(rays)), 202)
    ys = np.array(
        [y for _ in rays for y in [0.0, y_hi] + [rng.uniform(0.0, y_hi) for _ in range(200)]]
    )
    columns = piece._columns(rays)
    got = np.column_stack(columns(ys, lanes))
    want = []
    for k, y in zip(lanes.tolist(), ys.tolist()):
        at = (y, rays[k]) if fixed else (rays[k], y)
        want.append(piece.eval_param(at))
        assert want[-1].tobytes() == ref_point(piece, at).tobytes()
    want = np.array(want)
    assert got.tobytes() == want.tobytes(), (piece.label, t)
    for norm in _norms(3):
        got = norm.of_columns(columns(ys, lanes)) - t
        assert got.tobytes() == (norm(want) - t).tobytes(), (piece.label, t, norm)
    for y in (-1e-9, piece.y_max * 1.01):
        with pytest.raises(DomainError):
            columns(np.array([0.5 * y_hi, y]), np.array([0, 1]))


@pytest.mark.parametrize("piece, ref_point, fixed", _SURFACES, ids=_IDS)
def test_surface_domain_errors_on_both_paths(piece, ref_point, fixed):
    for y in (-1e-12, piece.y_max * (1 + 1e-9)):
        prm = (y, 0.3) if fixed else (0.3, y)
        with pytest.raises(DomainError):
            piece.eval_param(prm)
        with pytest.raises(DomainError):
            piece._columns([0.3])(np.array([y]), np.array([0]))
        with pytest.raises(DomainError):
            ref_point(piece, prm)


# ---------------------------------------------------------------------------
# End to end: the scalar paths routed back through the array paths
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("label", ["cusp", "abs_graph", "three_tangent", "horn3d"])
def test_builtin_bytes_without_scalar_paths(monkeypatch, label):
    config = RunConfig()
    fast = canonical_json(run_scenario(builtin(label), config).to_dict())

    calls = {"point": 0, "of": 0}

    def array_point(self, s):
        calls["point"] += 1
        return self.eval(np.asarray(s)).tolist()

    def array_of(self, xs):
        calls["of"] += 1
        return float(self(np.array(xs)))

    monkeypatch.setattr(PuiseuxBranch, "_point", array_point)
    for kind in (EuclideanNorm, WeightedMaxNorm):
        monkeypatch.setattr(kind, "of", array_of)
    slow = canonical_json(run_scenario(builtin(label), config).to_dict())
    assert calls["point"] > 0 and calls["of"] > 0
    assert slow == fast


# ---------------------------------------------------------------------------
# Foot projection: the plane Newton kernel against the any-dimension loop
# ---------------------------------------------------------------------------


def _reference_project_branch(branch, x, seed, window, clamps=None):
    """``medial._project_branch`` as it was before the plane kernel: the
    Newton loop over every coordinate of the ambient space, with Python's
    ``min`` and ``max`` for its clamps.  ``clamps`` collects "lo" or "hi"
    for each Newton step the window clamps."""
    terms = branch.float_terms
    xt = tuple(float(v) for v in np.asarray(x, dtype=float))
    dim = branch.ambient_dim
    seed = float(seed)
    lo = max(0.0, seed - window)
    hi = min(branch.t_max, seed + window)

    def dist_at(s):
        acc = 0.0
        for k in range(dim):
            g = 0.0
            for e, c in terms:
                g += c[k] * s**e
            acc += (g - xt[k]) ** 2
        return math.sqrt(acc)

    s = min(max(seed, lo), hi)
    converged = False
    for _ in range(30):
        if s == 0.0 and terms[0][0] < 1.0:
            break
        g = [0.0] * dim
        g1 = [0.0] * dim
        for e, c in terms:
            pe = s**e
            pe1 = s ** (e - 1.0)
            for k in range(dim):
                g[k] += c[k] * pe
                g1[k] += e * c[k] * pe1
        psi = sum((g[k] - xt[k]) * g1[k] for k in range(dim))
        dpsi = sum(v * v for v in g1)
        if s > 0.0:
            for e, c in terms:
                pe2 = e * (e - 1.0) * s ** (e - 2.0)
                for k in range(dim):
                    dpsi += (g[k] - xt[k]) * c[k] * pe2
        if dpsi <= 0.0:
            break
        step = s - psi / dpsi
        if clamps is not None and (step < lo or step > hi):
            clamps.append("lo" if step < lo else "hi")
        s_new = min(max(step, lo), hi)
        if abs(s_new - s) <= 1e-14 * max(abs(s_new), seed, 1e-9):
            s = s_new
            converged = True
            break
        s = s_new
    if not converged:
        s, _ = golden_min(dist_at, lo, hi)
    p = branch.eval(float(s))
    d = p - np.asarray(x, dtype=float)
    return math.sqrt(d.dot(d)), p, float(s)


def _plane_branches(seed):
    """Seeded plane branches, the same branches' z = 0 traces in 3D, and
    the generators of the horn3d surfaces (the traces the medial solve
    projects onto)."""
    out = []
    for b in _branches(seed):
        plane = [(e, c[:2]) for e, c in b.terms]
        out.append(puiseux_branch(plane, b.t_max, b.label))
        out.append(puiseux_branch([(e, (*c, 0.0)) for e, c in plane], b.t_max, b.label + "z"))
    out += [g for piece in builtin("horn3d").germ().surfaces for g in piece.trace()]
    return out


def _queries(b, rng):
    """(query, seed, window) near and far from the branch."""
    out = []
    for _ in range(6):
        s0 = rng.uniform(0.0, b.t_max)
        p = b.eval(np.asarray(s0))
        r = float(np.linalg.norm(p)) or 1e-3
        direction = rng.standard_normal(2)
        for offset in (1e-4 * r, 0.3 * r, 2.0 * r):
            q = p.copy()
            q[:2] += offset * direction / np.linalg.norm(direction)
            seed = min(b.t_max, s0 * (1.0 + rng.uniform(-0.2, 0.2)))
            out.append((q, seed, rng.uniform(0.05, 1.0) * b.t_max))
    return out


def _same_projection(b, q, seed, window, clamps=None):
    # the kernel's foot point is a list of floats; as an array it has the
    # bytes of the reference's eval point
    ref = _reference_project_branch(b, q, seed, window, clamps)
    got = medial._project_branch(b, *medial._plane_query(b, q), seed, window)
    assert type(got[1]) is list
    assert (got[0].hex(), np.array(got[1]).tobytes(), got[2].hex()) == (
        ref[0].hex(),
        ref[1].tobytes(),
        ref[2].hex(),
    ), (b.label, q.tolist(), seed, window)


def test_project_branch_matches_any_dimension_loop(monkeypatch):
    searches = []
    monkeypatch.setattr(
        medial, "golden_min", lambda *a, **k: searches.append(1) or golden_min(*a, **k)
    )
    rng = np.random.default_rng(5)
    branches = _plane_branches(0)
    assert {b.ambient_dim for b in branches} == {2, 3}
    cases = 0
    for b in branches:
        for q, seed, window in _queries(b, rng):
            _same_projection(b, q, seed, window)
            cases += 1
    # both ways out of the kernel are covered: Newton and the golden search
    assert 0 < len(searches) < cases


def test_project_branch_square_and_cube_terms():
    # the Newton step's powers of exponent 1 and 0 are s and 1.0: a term of
    # exponent 2 skips its derivative and curvature powers, one of
    # exponent 3 its curvature power, and a unit term after a fractional
    # lead its derivative power; each point power s**e stays libm's: on
    # the last two queries (found by a seeded search) s * s in place of
    # libm's s**2.0 moves the foot's last bits
    rng = np.random.default_rng(32)
    branches = [b for b in _square_and_cube_branches() if b.label not in ("one", "four")]
    for b in branches:
        for _ in range(20):
            for q, seed, window in _queries(b, rng):
                _same_projection(b, q, seed, window)
        for seed in (0.0, 0.5 * b.t_max):
            _same_projection(b, np.zeros(b.ambient_dim), seed, b.t_max)
    square = branches[0]
    for case in [
        "0x1.695aaf984aff6p-5 -0x1.e4598c99f5bd2p-8 0x1.784e6f123eafep-3 0x1.9637f7654c162p-3",
        "0x1.afa1273257b21p-3 -0x1.afbbc0a9e0f6ep-4 0x1.19e3ee3acf6fap-1 0x1.77a3dada91e50p-3",
    ]:
        x0, x1, seed, window = (float.fromhex(v) for v in case.split())
        _same_projection(square, np.array([x0, x1]), seed, window)


def test_project_branch_feet_at_zero():
    # abs_graph: the query on one branch has its foot at s = 0 on the
    # perpendicular branch; a leading exponent below 1 stops Newton at s = 0
    germ = builtin("abs_graph").germ()
    plus, minus = germ.branches
    assert (plus.label, minus.label) == ("abs_plus", "abs_minus")
    for r in RunConfig().scales():
        q = plus.point_at_radius(r)
        s = minus.param_at_radius(r)
        _same_projection(minus, q, s, s + r)
    half = puiseux_branch([((1, 2), (1.0, 0.0)), (1, (0.0, 1.0))], 1.0, "half")
    for q in ([-0.01, 0.0], [0.0, 0.2], [0.04, -0.1]):
        _same_projection(half, np.array(q), 0.0, 0.5)


def test_project_branch_unit_lead_term():
    # a linear lead term costs the Newton step no power (point term c s,
    # derivative term c, no curvature term): seeds at +-0, at subnormals
    # whose reciprocal is finite, inside and at t_max, with -0.0
    # coefficients, in the plane and on a 3D trace.  A seed of -0.0 with
    # the query at the origin keeps the sign of its foot parameter only
    # while the point and derivative terms start from 0.0 as the loop did
    branches = [
        puiseux_branch([(1, (1.0, -0.0)), ((3, 2), (-0.0, 2.0))], 0.5, "u2"),
        puiseux_branch([(1, (-0.0, -1.0)), (2, (0.5, -0.0))], 1.0, "u2b"),
        puiseux_branch([(1, (1.0, 0.5)), ((7, 3), (0.0, -1.0))], 1.0, "u2c"),
        puiseux_branch([(1, (-0.0, 1.0, 0.0)), ((5, 2), (1.0, -0.0, -0.0))], 1.0, "u3"),
        puiseux_branch([(1, (1.0, -0.0))], 1.0, "line"),
        puiseux_branch([(1, (0.6, 0.8))], 1.0, "diagonal"),
    ]
    tiny = (1e-308, math.nextafter(2.0**-1024, 1.0))
    for b in branches:
        assert b.plane_terms[0][0] == 1.0
        t = b.t_max
        pad = [0.0] * (b.ambient_dim - 2)
        foot = b.eval(np.asarray(0.4 * t))
        near = foot.copy()
        near[:2] += 0.05 * t
        queries = [foot, near, np.array([-0.01, 0.02, *pad]), np.zeros(b.ambient_dim)]
        for seed in (0.0, -0.0, *tiny, 0.3 * t, t):
            for window in (1e-3 * t, 0.5 * t, 2.0 * t):
                for q in queries:
                    _same_projection(b, q, seed, window)
    # at 0 < s <= 2**-1024, where s**-1.0 overflows, the old loop's
    # curvature power raised; the kernel skips it and solves on
    b = branches[0]
    q = b.eval(np.asarray(0.25))
    with pytest.raises(OverflowError):
        _reference_project_branch(b, q, 2.0**-1024, 0.5)
    dist, _, s = medial._project_branch(b, *medial._plane_query(b, q), 2.0**-1024, 0.5)
    assert dist < 1e-9 and s == pytest.approx(0.25, rel=1e-6)


def test_project_branch_lead_below_one_near_zero():
    # (s^{1/2}, s) from seeds near 0: a seed of 1e-210 overflowed the
    # curvature power s**(e - 2), and from 1e-200 the steps, tiny next to
    # 1e-9, read as converged at s = 3e-200.  Both find the window's foot
    half = puiseux_branch([((1, 2), (1.0, 0.0)), (1, (0.0, 1.0))], 1.0, "half")
    s = np.linspace(0.0, 1e-3, 100001)
    scan = np.hypot(np.sqrt(s) - 0.01, s - 0.02)
    for seed in (1e-210, 1e-200):
        dist, point, foot = medial._project_branch(half, 0.01, 0.02, seed, 1e-3)
        assert dist == pytest.approx(scan.min(), abs=1e-12)
        assert foot == pytest.approx(s[np.argmin(scan)], abs=1e-8)
        assert point == half._point(foot)


def test_project_branch_clamps_and_zero_seeds():
    # a narrow window around a seed on the wrong side of the foot clamps
    # the Newton step at hi (foot above the seed) or at lo (below it); a
    # seed of 0 puts lo at 0, where a query behind the origin clamps
    clamps = []
    branches = _plane_branches(0)
    for b in branches:
        t = b.t_max
        pad = [0.0] * (b.ambient_dim - 2)
        foot = b.eval(np.asarray(0.6 * t))
        for seed, window in ((0.5 * t, 0.02 * t), (0.7 * t, 0.02 * t), (0.0, 0.3 * t)):
            _same_projection(b, foot, seed, window, clamps)
        start = b.eval(np.asarray(1e-3 * t))
        for q in (-start[:2], 0.5 * foot[:2], [0.0, 0.0]):
            _same_projection(b, np.array([*q, *pad]), 0.0, 0.5 * t, clamps)
    assert clamps.count("lo") > 20 and clamps.count("hi") > 20


def test_project_branch_rejects_points_off_the_plane():
    off = puiseux_branch([(1, (1.0, 0.0, 0.5))], 1.0, "off")
    with pytest.raises(InputError, match="coordinate plane"):
        medial._project_branch(off, 0.0, 0.0, 0.1, 0.1)
    flat = puiseux_branch([(1, (1.0, 0.0, 0.0))], 1.0, "flat")
    with pytest.raises(InputError, match="coordinate plane"):
        medial._plane_query(flat, np.array([0.1, 0.0, 1e-3]))


def test_ladder_points_match_each_float_eval():
    # tangency._on_ladder evaluates a branch's ladder parameters in one
    # array eval: bitwise the per-radius eval(float) of each
    branches = [b for seed in (0, 1) for b in _branches(seed)] + _square_and_cube_branches()
    branches += [b for label in ("three_tangent", "cusp") for b in builtin(label).germ().branches]
    branches += [g for piece in builtin("horn3d").germ().surfaces for g in piece.trace()]
    for b in branches:
        reach = EUCLID.of(b._point(b.t_max))
        scales = [reach * 2.0**-k for k in range(1, 8)]
        table = germs.RadiusTable(scales)
        points, _ = tangency._on_ladder(b, scales, table)
        want = np.array([b.eval(table.param(b, t)) for t in scales])
        assert points.tobytes() == want.tobytes(), b.label


# ---------------------------------------------------------------------------
# Pair angles: float norms against np.linalg.norm
# ---------------------------------------------------------------------------


def _reference_max_pair_angle(x, points):
    """``medial._max_pair_angle`` as it was before its norms were
    ``sqrt(v.dot(v))``."""
    x = np.asarray(x, dtype=float)
    units = []
    for p in points:
        v = np.asarray(p, dtype=float) - x
        n = np.linalg.norm(v)
        if n > 1e-300:
            units.append(v / n)
    best = 0.0
    for a, b in itertools.combinations(units, 2):
        c = min(1.0, max(-1.0, float(np.dot(a, b))))
        best = max(best, math.acos(c))
    return best


def test_max_pair_angle_matches_its_old_body():
    # points as lists and arrays, from 0 to 4 of them, at magnitudes from
    # 1e-12 to 1e2; one point in five sits on x itself (a foot at zero
    # distance, which has no direction), and some repeat an earlier point
    rng = np.random.default_rng(9)
    zero = 0
    for case in range(3000):
        dim = 2 + case % 2
        scale = math.exp(rng.uniform(-28.0, 5.0))
        x = rng.standard_normal(dim) * scale
        points = []
        for _ in range(int(rng.integers(0, 5))):
            pick = rng.uniform()
            if pick < 0.2:
                p = x.copy()
                zero += 1
            elif pick < 0.3 and points:
                p = np.array(points[-1], dtype=float)
            else:
                p = x + rng.standard_normal(dim) * scale * math.exp(rng.uniform(-10.0, 2.0))
            points.append(p.tolist() if rng.uniform() < 0.5 else p)
        got = medial._max_pair_angle(x, points)
        want = _reference_max_pair_angle(x, points)
        assert type(got) is float and got.hex() == want.hex(), (x.tolist(), points)
    assert zero > 100
    assert medial._max_pair_angle([0.0, 0.0], [[0.0, 0.0], [1.0, 0.0]]) == 0.0
