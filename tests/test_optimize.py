"""Scalar root finding and minimization: ``optimize.brentq`` against
scipy's ``brentq`` bit for bit, its typed errors, ``brentq_lanes`` against
``brentq`` lane by lane, and ``golden_min`` against its stopping rule
evaluated on every step."""

import math
import random

import numpy as np
import pytest
from scipy import optimize as sp

from lnegerm import DomainError, InputError, ResolutionError
from lnegerm import optimize

#: (xtol, rtol) of the package's brentq calls: germs.param_at_radius (xtol
#: scales with the bracket), medial._bisector_point,
#: medial.refine_equidistant (xtol scales with the foot distance), and the
#: surface sections' brentq_lanes (default xtol).  All but
#: refine_equidistant pass the bracket-end values they computed to check the
#: bracket (``fa``/``fb``):
#: _bisector_point both, param_at_radius and the sections ``fb``.
CALL_SITE_TOLS = (
    lambda hi: dict(xtol=1e-14 * hi, rtol=8.9e-16),
    lambda hi: dict(xtol=1e-15),
    lambda hi: dict(xtol=1e-13 * max(abs(hi), 1e-6)),
    lambda hi: dict(rtol=8.9e-16),
    lambda hi: {},
)


def _family(kind, r, k):
    """A function with a simple or multiple root at r, of one of six
    shapes (k a shape parameter)."""
    return [
        lambda x: (x - r) * (1.0 + k * x * x),
        lambda x: math.exp(k * x) - math.exp(k * r),
        lambda x: (x - r) ** 3 + 1e-3 * k * (x - r),
        lambda x: math.tanh(k * (x - r)),
        lambda x: math.sin(x - r) * (2.0 + math.cos(k * x)),
        lambda x: math.hypot(x, k) - math.hypot(r, k) if r > 0 else x - r,
    ][kind]


def _problems(n, seed=20240614):
    rng = random.Random(seed)
    for _ in range(n):
        r = rng.uniform(-2.0, 2.0) * 10 ** rng.uniform(-6, 1)
        f = _family(rng.randrange(6), r, rng.uniform(0.1, 5.0))
        a = r - rng.uniform(0.0, 3.0) * 10 ** rng.uniform(-8, 1)
        b = r + rng.uniform(0.0, 3.0) * 10 ** rng.uniform(-8, 1)
        if rng.random() < 0.5:
            a, b = b, a
        yield f, a, b, rng.choice(CALL_SITE_TOLS)(b)


def test_brentq_matches_scipy_bit_for_bit():
    # each problem also runs with the caller supplying f(a), f(b) or both,
    # as the package's bracket checks do: the same bits, the same errors
    compared = 0
    for f, a, b, tols in _problems(3000):
        supplied = ({}, dict(fa=f(a)), dict(fb=f(b)), dict(fa=f(a), fb=f(b)))
        try:
            want = sp.brentq(f, a, b, **tols)
        except ValueError:  # f(a), f(b) of one sign: see the error tests
            for ends in supplied:
                with pytest.raises(InputError):
                    optimize.brentq(f, a, b, **tols, **ends)
            continue
        for ends in supplied:
            got = optimize.brentq(f, a, b, **tols, **ends)
            assert got == want and type(got) is float, (a, b, tols, ends)
        compared += 1
    assert compared >= 1000


def test_brentq_skips_the_supplied_ends():
    calls = []

    def f(x):
        calls.append(x)
        return x - 0.3

    root = optimize.brentq(f, 0.0, 1.0, fa=-0.3, fb=0.7)
    assert root == optimize.brentq(lambda x: x - 0.3, 0.0, 1.0)
    assert 0.0 not in calls and 1.0 not in calls
    with pytest.raises(DomainError):
        optimize.brentq(f, 0.0, 1.0, fb=math.nan)


def test_brentq_default_tolerances_are_scipys():
    assert optimize.XTOL == 2e-12
    assert optimize.RTOL == 4 * 2.220446049250313e-16
    assert optimize.MAXITER == 100


def test_brentq_same_sign_is_input_error():
    with pytest.raises(ValueError):
        sp.brentq(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(InputError):
        optimize.brentq(lambda x: x * x + 1.0, -1.0, 1.0)


def test_brentq_nan_is_domain_error():
    def f(x):
        return math.nan if x > 0.5 else x - 0.75

    with pytest.raises(ValueError):
        sp.brentq(f, 0.0, 1.0)
    with pytest.raises(DomainError):
        optimize.brentq(f, 0.0, 1.0)


def test_brentq_no_convergence_is_resolution_error():
    def f(x):
        return math.atan(x - 1.0 / 3.0)

    with pytest.raises(RuntimeError):
        sp.brentq(f, -1e6, 1e6, maxiter=5)
    with pytest.raises(ResolutionError):
        optimize.brentq(f, -1e6, 1e6, maxiter=5)
    assert optimize.brentq(f, -1e6, 1e6) == sp.brentq(f, -1e6, 1e6)


def test_brentq_root_at_an_end():
    assert optimize.brentq(lambda x: x - 2.0, 2.0, 5.0) == 2.0
    assert optimize.brentq(lambda x: x - 5.0, 2.0, 5.0) == 5.0


def _recorded_lanes(fs):
    """(f, calls): f evaluates lane i with the scalar function fs[i] and
    appends each of its points to calls[i]."""
    calls = [[] for _ in fs]

    def f(x, lanes):
        out = []
        for i, v in zip(lanes.tolist(), x.tolist()):
            calls[i].append(v)
            out.append(fs[i](v))
        return np.array(out)

    return f, calls


#: lanes that end before the loop: one done at the first bracket end, one
#: with f(b) = 0
_END_LANES = [(lambda x: x - 2.0, 2.0, 5.0), (lambda x: x - 5.0, 2.0, 5.0)]


@pytest.mark.parametrize("tols", [{}, dict(rtol=8.9e-16), dict(xtol=1e-15)])
def test_brentq_lanes_match_brentq_lane_by_lane(tols):
    # each lane evaluates the points brentq evaluates, in its order and no
    # more, and ends on its bits, with and without the supplied f(b)
    problems = []
    for f, a, b, _ in _problems(400, seed=len(tols)):
        try:
            optimize.brentq(f, a, b, **tols)
        except (InputError, ResolutionError):
            continue
        problems.append((f, a, b))
    problems[100:100] = _END_LANES
    fs = [f for f, _, _ in problems]
    a = np.array([a for _, a, _ in problems])
    b = np.array([b for _, _, b in problems])
    wants, want_calls = [], []
    for fi, ai, bi in problems:
        g, calls = _recording(fi)
        wants.append(optimize.brentq(g, ai, bi, **tols))
        want_calls.append(calls)
    for ends in ({}, dict(fb=np.array([fi(bi) for fi, _, bi in problems]))):
        f, calls = _recorded_lanes(fs)
        got = optimize.brentq_lanes(f, a, b, **tols, **ends)
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in wants]
        skipped = [c[:1] + c[2:] if ends else c for c in want_calls]  # f(b) is the second
        assert calls == skipped
    assert len(problems) > 300


def test_brentq_lanes_without_lanes():
    def f(x, lanes):
        raise AssertionError("no lane to evaluate")

    got = optimize.brentq_lanes(f, [], [], fb=[])
    assert got.shape == (0,)


def test_brentq_lanes_errors():
    fs = [lambda x: x - 0.3, lambda x: math.nan if x > 0.5 else x - 0.75]
    with pytest.raises(DomainError):
        optimize.brentq_lanes(_recorded_lanes(fs)[0], [0.0, 0.0], [1.0, 1.0])
    fs = [lambda x: x - 0.3, lambda x: x * x + 1.0]
    with pytest.raises(InputError):
        optimize.brentq_lanes(_recorded_lanes(fs)[0], [0.0, -1.0], [1.0, 1.0])
    # one lane converges at once, the other overruns maxiter = 5 as brentq does
    fs = [lambda x: x - 0.5, lambda x: math.atan(x - 1.0 / 3.0)]
    with pytest.raises(ResolutionError):
        optimize.brentq(fs[1], -1e6, 1e6, maxiter=5)
    with pytest.raises(ResolutionError):
        optimize.brentq_lanes(_recorded_lanes(fs)[0], [0.0, -1e6], [1.0, 1e6], maxiter=5)
    with pytest.raises(InputError):
        optimize.brentq_lanes(_recorded_lanes(fs)[0], [0.0], [1.0], rtol=1e-16)


def _golden_min_every_step(f, lo, hi, iters=48):
    """golden_min with its relative stopping test evaluated on every step."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    if not b > a:
        return a, f(a)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
        if b - a <= 1e-15 * (abs(a) + abs(b) + 1e-9):
            break
    return (c, fc) if fc <= fd else (d, fd)


def _recording(f):
    """(g, calls): g evaluates f and appends each argument to calls."""
    calls = []

    def g(x):
        calls.append(x)
        return f(x)

    return g, calls


def test_golden_min_stops_where_the_test_on_every_step_stops():
    rng = random.Random(7)
    early = 0
    for _ in range(600):
        center = rng.uniform(-1.0, 1.0) * 10 ** rng.uniform(-12, 3)
        # widths from far below the stopping threshold to far above it
        width = abs(center) * 10 ** rng.uniform(-16, -3) + 10 ** rng.uniform(-26, -10)
        lo = center - width * rng.random()
        hi = lo + width
        x0 = rng.uniform(lo, hi)
        g_got, calls_got = _recording(lambda x: (x - x0) ** 2)
        g_want, calls_want = _recording(lambda x: (x - x0) ** 2)
        got = optimize.golden_min(g_got, lo, hi)
        assert got == _golden_min_every_step(g_want, lo, hi), (lo, hi)
        assert calls_got == calls_want, (lo, hi)
        early += len(calls_got) < 50
    assert 100 <= early <= 500  # both the early stop and the full run occur
