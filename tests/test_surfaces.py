"""Surface foot kernels: bitwise equal to the plain scalar reference, and
each foot a minimum over its height window."""

import math
import sys

import numpy as np
import pytest

from lnegerm import InputError, optimize, surfaces
from lnegerm.optimize import golden_min
from lnegerm.surfaces import HornPiece, WallPiece

# ---------------------------------------------------------------------------
# Reference kernels: the straightforward scalar bodies the fused kernels
# replace.  Any change of rounding in the fused code shows up as a mismatch.
# ---------------------------------------------------------------------------


def _ref_horn_project(self, x, seed_param, window=None, pinned=False):
    x = np.asarray(x, dtype=float)
    wx, wy, wz = self.sign * x[0], x[1], x[2]
    theta0 = float(seed_param[1])

    def circle_theta(y):
        cx, r = self._cx_r(y)
        phi = math.atan2(wz, wx - cx)
        delta = math.remainder(phi - theta0, 2 * math.pi)
        if abs(delta) > 0.25 * math.pi:
            return theta0 + math.copysign(0.25 * math.pi, delta)
        return phi

    def dist_at(y):
        cx, r = self._cx_r(y)
        th = circle_theta(y)
        dx = wx - cx - r * math.cos(th)
        dz = wz - r * math.sin(th)
        return math.sqrt(dx * dx + dz * dz + (wy - y) ** 2)

    def dist_free(y):
        cx, r = self._cx_r(y)
        w = math.hypot(wx - cx, wz)
        return math.hypot(wy - y, w - r if w > 0 else r)

    y0 = float(seed_param[0])
    if window is None:
        window = 0.35 * max(y0, abs(wy)) + 1e-9
    lo = max(0.0, y0 - window)
    hi = min(self.y_max, y0 + window)
    y, _ = golden_min(dist_at, lo, hi)
    theta = circle_theta(y)
    cx, _ = self._cx_r(y)
    phi = math.atan2(wz, wx - cx)
    if not pinned and abs(math.remainder(phi - theta, 2 * math.pi)) > 1e-9:
        y, _ = golden_min(dist_free, lo, hi)
        cx, _ = self._cx_r(y)
        w = math.hypot(wx - cx, wz)
        theta = math.atan2(wz, wx - cx) if w > 1e-300 else theta0
    prm = (y, theta % (2 * math.pi))
    p = self.eval_param(prm)
    return float(np.linalg.norm(p - x)), p, prm


def _ref_wall_project(self, x, seed_param, window=None, pinned=False):
    x = np.asarray(x, dtype=float)
    c = self.half_width_coef

    def dist_at(y):
        half = c * y * y
        dx = x[0] - min(max(x[0], -half), half)
        return math.sqrt(dx * dx + (x[1] - y) ** 2 + x[2] * x[2])

    y0 = float(seed_param[1])
    if window is None:
        window = 0.35 * max(y0, abs(x[1])) + 1e-9
    lo = max(0.0, y0 - window)
    hi = min(self.y_max, y0 + window)
    y, _ = golden_min(dist_at, lo, hi)
    half = c * y * y
    u = min(max(x[0] / half, -1.0), 1.0) if half > 0 else 0.0
    p = self.eval_param((u, y))
    return float(np.linalg.norm(p - x)), p, (u, y)


def _bits(result):
    dist, point, prm = result
    return (
        float(dist).hex(),
        np.asarray(point, dtype=float).tobytes(),
        tuple(float(v).hex() for v in prm),
    )


def _recording_golden_min(trace):
    """golden_min that appends every (height, value) it evaluates to trace,
    so two kernels compare bitwise at every evaluation, not only at the
    foot they return."""

    def minimize(f, lo, hi, iters=48):
        def g(y):
            v = f(y)
            trace.append((float(y).hex(), float(v).hex()))
            return v

        return optimize.golden_min(g, lo, hi, iters)

    return minimize


def _compare_to_reference(monkeypatch, kind, reference, cases):
    """Assert bitwise equal results and evaluation traces; return results."""
    got_trace, ref_trace, results = [], [], []
    monkeypatch.setattr(surfaces, "golden_min", _recording_golden_min(got_trace))
    monkeypatch.setattr(sys.modules[__name__], "golden_min", _recording_golden_min(ref_trace))
    for piece, x, prm, window, pinned in cases:
        got = kind.project(piece, x, prm, window=window, pinned=pinned)
        ref = reference(piece, x, prm, window=window, pinned=pinned)
        assert _bits(got) == _bits(ref), (x, prm, window, pinned)
        assert got_trace == ref_trace, (x, prm, window, pinned)
        got_trace.clear()
        ref_trace.clear()
        results.append(got)
    return results


def _window(window, y0, wy, y_max):
    if window is None:
        window = 0.35 * max(y0, abs(wy)) + 1e-9
    return max(0.0, y0 - window), min(y_max, y0 + window)


def _grid_min(f, lo, hi):
    """Minimum of a vectorized f on [lo, hi]: dense grid, then a finer grid
    around the best node."""
    ys = np.linspace(lo, hi, 4001)
    k = int(np.argmin(f(ys)))
    fine = np.linspace(ys[max(k - 1, 0)], ys[min(k + 1, len(ys) - 1)], 4001)
    return float(np.min(f(fine)))


def _is_window_minimum(f, lo, hi, y, dist) -> bool:
    """Whether dist is the brute-force minimum of f near y within [lo, hi]
    (golden section returns some local minimum), and the minimum over the
    whole window when f is unimodal there."""
    delta = 0.01 * (hi - lo)
    if abs(dist - _grid_min(f, max(lo, y - delta), min(hi, y + delta))) > 1e-9:
        return False
    slopes = np.sign(np.diff(f(np.linspace(lo, hi, 4001))))
    if np.any(np.diff(slopes) < 0):
        return True  # an interior maximum: any local minimum will do
    return abs(dist - _grid_min(f, lo, hi)) <= 1e-9


def _horn_curves(horn, x):
    """Vectorized clamped-arc and free distances over heights."""
    wx, wy, wz = horn.sign * x[0], x[1], x[2]

    def cx_r(ys):
        x_out = (ys / horn.a_outer) ** 2
        x_in = (ys / horn.a_inner) ** 2
        return 0.5 * (x_out + x_in), 0.5 * (x_out - x_in)

    def at(ys, theta0):
        cx, r = cx_r(ys)
        phi = np.arctan2(wz, wx - cx)
        delta = np.remainder(phi - theta0 + math.pi, 2 * math.pi) - math.pi
        th = np.where(
            np.abs(delta) > 0.25 * math.pi, theta0 + np.copysign(0.25 * math.pi, delta), phi
        )
        return np.sqrt(
            (wx - cx - r * np.cos(th)) ** 2 + (wz - r * np.sin(th)) ** 2 + (wy - ys) ** 2
        )

    def free(ys):
        cx, r = cx_r(ys)
        return np.hypot(wy - ys, np.hypot(wx - cx, wz) - r)

    return at, free


def _height(rng):
    """A height near 0, in the middle, or near y_max = 1."""
    draws = [rng.uniform(0.0, 0.08), rng.uniform(0.08, 0.9), rng.uniform(0.9, 1.0)]
    return float(rng.choice(draws))


def _horn_cases(seed):
    """(piece, x, seed_param, window, pinned) covering both tube sides, the
    arc clamp, and windows cut at y = 0 and at y_max."""
    rng = np.random.default_rng(seed)
    pieces = [
        HornPiece(label="pos", sign=1.0, a_outer=1.0, a_inner=2.0, y_max=1.0),
        HornPiece(label="neg", sign=-1.0, a_outer=1.0, a_inner=2.0, y_max=1.0),
    ]
    cases = []
    for _ in range(160):
        horn = pieces[int(rng.integers(2))]
        y = _height(rng)
        theta = float(rng.uniform(0.0, 2 * math.pi))
        cx, r = horn._cx_r(y)
        # inside the tube, outside it, or near its axis
        rho = float(rng.choice([0.3, 0.9, 1.4, 0.02])) * r + float(rng.uniform(0.0, 0.02))
        x = np.array([horn.sign * (cx + rho * math.cos(theta)), y, rho * math.sin(theta)])
        x[1] += float(rng.uniform(-0.02, 0.02))
        for side in (0.0, math.pi, 0.5 * math.pi):
            th0 = (theta + side + float(rng.uniform(-0.1, 0.1))) % (2 * math.pi)
            y0 = min(max(y + float(rng.uniform(-0.03, 0.03)), 0.0), 1.0)
            window = [None, 0.08, 0.5][int(rng.integers(3))]
            for pinned in (False, True):
                cases.append((horn, x, (y0, th0), window, pinned))
    return cases


def _wall_cases(seed):
    rng = np.random.default_rng(seed)
    wall = WallPiece(label="wall", half_width_coef=0.25, y_max=1.0)
    cases = []
    for _ in range(200):
        y = _height(rng)
        half = 0.25 * y * y
        # inside the strip, beyond its edge, or on its edge
        xs = float(rng.choice([rng.uniform(-1, 1), rng.uniform(1, 3), -1.0])) * half
        x = np.array([xs, y + float(rng.uniform(-0.02, 0.02)), float(rng.uniform(-0.05, 0.05))])
        y0 = min(max(y + float(rng.uniform(-0.03, 0.03)), 0.0), 1.0)
        window = [None, 0.08, 0.5][int(rng.integers(3))]
        cases.append((wall, x, (float(rng.uniform(-1, 1)), y0), window, bool(rng.integers(2))))
    return cases


@pytest.mark.parametrize("seed", [0, 1])
def test_horn_project_matches_reference_bitwise(seed, monkeypatch):
    cases = _horn_cases(seed)
    results = _compare_to_reference(monkeypatch, HornPiece, _ref_horn_project, cases)
    clamped_arc = lo_cut = hi_cut = 0
    for (horn, x, prm, window, pinned), (_, _, (_, theta)) in zip(cases, results):
        lo, hi = _window(window, prm[0], x[1], horn.y_max)
        lo_cut += lo == 0.0
        hi_cut += hi == horn.y_max
        off = math.remainder(theta - prm[1], 2 * math.pi)
        clamped_arc += pinned and abs(abs(off) - 0.25 * math.pi) < 1e-12
    # the seeded set exercises every branch of the kernel
    assert min(clamped_arc, lo_cut, hi_cut) >= 10


@pytest.mark.parametrize("seed", [0, 1])
def test_wall_project_matches_reference_bitwise(seed, monkeypatch):
    cases = _wall_cases(seed)
    results = _compare_to_reference(monkeypatch, WallPiece, _ref_wall_project, cases)
    inside = outside = lo_cut = hi_cut = 0
    for (wall, x, prm, window, _), (_, _, (u, _)) in zip(cases, results):
        lo, hi = _window(window, prm[1], x[1], wall.y_max)
        lo_cut += lo == 0.0
        hi_cut += hi == wall.y_max
        inside += abs(u) < 1.0
        outside += abs(u) == 1.0
    assert min(inside, outside, lo_cut, hi_cut) >= 10


def test_horn_feet_are_window_minima():
    for horn, x, prm, window, pinned in _horn_cases(2):
        dist, point, (y, theta) = horn.project(x, prm, window=window, pinned=pinned)
        assert abs(dist - np.linalg.norm(point - x)) <= 1e-15
        lo, hi = _window(window, prm[0], x[1], horn.y_max)
        assert lo - 1e-15 <= y <= hi + 1e-15
        at, free = _horn_curves(horn, x)
        confined = _is_window_minimum(lambda ys: at(ys, prm[1]), lo, hi, y, dist)
        # unpinned, a foot on the arc boundary gives way to the free foot
        assert confined or (not pinned and _is_window_minimum(free, lo, hi, y, dist)), (
            x,
            prm,
            window,
            pinned,
        )


def test_wall_feet_are_window_minima():
    for wall, x, prm, window, pinned in _wall_cases(2):
        dist, point, (u, y) = wall.project(x, prm, window=window, pinned=pinned)
        lo, hi = _window(window, prm[1], x[1], wall.y_max)
        assert lo - 1e-15 <= y <= hi + 1e-15

        def strip(ys):
            half = wall.half_width_coef * ys * ys
            return np.sqrt((x[0] - np.clip(x[0], -half, half)) ** 2 + (x[1] - ys) ** 2 + x[2] ** 2)

        assert _is_window_minimum(strip, lo, hi, y, dist), (x, prm, window)


def test_wall_rejects_negative_half_width():
    # the strip |x| <= c y^2 needs c >= 0; the kernel's clamp assumes it
    with pytest.raises(InputError):
        WallPiece(label="wall", half_width_coef=-0.25)
