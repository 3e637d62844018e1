"""Surface kernels: feet, sphere sections and height samples bitwise equal
to plain per-piece references, and each foot a minimum over its height
window."""

import dataclasses
import math
import sys

import numpy as np
import pytest

from lnegerm import InputError, RadiusTable, RunConfig, builtin, optimize, surfaces
from lnegerm.norms import EUCLID, make_norm
from lnegerm.optimize import brentq, golden_min
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


@pytest.mark.parametrize("a_outer, a_inner", [(0.0, 2.0), (-3.0, 2.0), (2.0, 2.0)])
def test_horn_rejects_generators_out_of_order(a_outer, a_inner):
    # the outer generator x = (y/a_outer)^2 needs 0 < a_outer < a_inner
    with pytest.raises(InputError, match="0 < a_outer < a_inner"):
        HornPiece(label="horn", a_outer=a_outer, a_inner=a_inner)


def test_wall_rejects_negative_half_width():
    # the strip |x| <= c y^2 needs c >= 0; the kernel's clamp assumes it
    with pytest.raises(InputError):
        WallPiece(label="wall", half_width_coef=-0.25)


@pytest.mark.parametrize(
    "make",
    [
        lambda: HornPiece(label="horn", a_outer=math.nan),
        lambda: HornPiece(label="horn", y_max=math.inf),
        lambda: WallPiece(label="wall", half_width_coef=math.inf),
        lambda: WallPiece(label="wall", y_max=math.nan),
    ],
    ids=["horn_a_outer_nan", "horn_y_max_inf", "wall_half_width_inf", "wall_y_max_nan"],
)
def test_surface_rejects_non_finite_parameters(make):
    with pytest.raises(InputError, match="finite"):
        make()


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: HornPiece(label="horn", a_outer="1"), "a_outer"),
        (lambda: HornPiece(label="horn", sign=True), "sign"),
        (lambda: HornPiece(label="horn", y_max=None), "y_max"),
        (lambda: HornPiece(label=7), "label"),
        (lambda: WallPiece(label="wall", half_width_coef="0.25"), "half_width_coef"),
        (lambda: WallPiece(label="wall", y_max=False), "y_max"),
        (lambda: WallPiece(label=["wall"]), "label"),
        (lambda: WallPiece(label="wall", ambient_dim=3.0), "ambient_dim"),
    ],
    ids=[
        "horn_a_outer_str",
        "horn_sign_true",
        "horn_y_max_none",
        "horn_label_int",
        "wall_half_width_str",
        "wall_y_max_false",
        "wall_label_list",
        "wall_ambient_dim_float",
    ],
)
def test_surface_rejects_wrongly_typed_parameters(make, field):
    # the one type check of the configs: bool is not a number, a label is a str
    with pytest.raises(InputError, match=f"^surface .*: {field} must be "):
        make()


# ---------------------------------------------------------------------------
# Sphere sections and height samples: the shared solver and sampler against
# one plain loop per piece, written out in full.
# ---------------------------------------------------------------------------


def _ref_horn_section(self, t, norm, density):
    _, r_t = self._cx_r(min(t, self.y_max))
    n_theta = max(32, 2 * int(math.ceil(math.pi * r_t * density / max(t, 1e-300))))
    pts, params, index_of_ray = [], [], {}
    y_hi = min(self.y_max, t * 1.5)
    for k in range(n_theta):
        theta = 2 * math.pi * k / n_theta

        def g(y):
            return norm.of(self.eval_param((y, theta))) - t

        g_hi = g(y_hi)
        if g_hi < 0:
            continue
        y = brentq(g, 0.0, y_hi, rtol=8.9e-16, fb=g_hi)
        index_of_ray[k] = len(pts)
        pts.append(self.eval_param((y, theta)))
        params.append((y, theta))
    edges = [
        (i, index_of_ray[(k + 1) % n_theta])
        for k, i in index_of_ray.items()
        if (k + 1) % n_theta in index_of_ray
    ]
    return pts, params, edges


def _ref_wall_section(self, t, norm, density):
    pts, params, edges = [], [], []
    y_hi = min(self.y_max, t * 1.5)
    prev = None
    for j, u in enumerate(np.linspace(-1.0, 1.0, max(8, density // 2) + 1).tolist()):

        def g(y):
            return norm.of(self.eval_param((u, y))) - t

        g_hi = g(y_hi)
        if g_hi < 0:
            continue
        y = brentq(g, 0.0, y_hi, rtol=8.9e-16, fb=g_hi)
        if prev == j - 1:
            edges.append((len(pts) - 1, len(pts)))
        prev = j
        pts.append(self.eval_param((u, y)))
        params.append((u, y))
    return pts, params, edges


def _ref_horn_sample(self, scale, density):
    pts, params = [], []
    spacing = scale / density
    for y in np.linspace(0.0, min(scale, self.y_max), int(math.ceil(1.25 * density)) + 1):
        cx, r = self._cx_r(y)
        if y == 0.0:
            pts.append(np.zeros(3))
            params.append((0.0, 0.0))
            continue
        n_theta = max(16, 2 * int(math.ceil(math.pi * r / spacing)))
        for k in range(n_theta):
            theta = 2 * math.pi * k / n_theta
            p = self.eval_param((y, theta))
            if np.linalg.norm(p) <= scale * (1 + 1e-12):
                pts.append(p)
                params.append((y, theta))
    return pts, params


def _ref_wall_sample(self, scale, density):
    pts, params = [], []
    spacing = scale / density
    for y in np.linspace(0.0, min(scale, self.y_max), int(math.ceil(1.25 * density)) + 1):
        if y == 0.0:
            pts.append(np.zeros(3))
            params.append((0.0, 0.0))
            continue
        half = self.half_width_coef * y * y
        n_u = max(2, int(math.ceil(2 * half / spacing)))
        for u in np.linspace(-1.0, 1.0, n_u + 1):
            p = self.eval_param((u, y))
            if np.linalg.norm(p) <= scale * (1 + 1e-12):
                pts.append(p)
                params.append((u, y))
    return pts, params


def _param_bits(params):
    return [tuple((type(v), float(v).hex()) for v in prm) for prm in params]


def _points_bits(pts):
    return [np.asarray(p).dtype.str + np.asarray(p).tobytes().hex() for p in pts]


_NORMS = {"euclid": EUCLID, "maxv": make_norm("maxv", (40.0, 1.0, 20.0), 3)}


def _reach(piece, norm, density):
    """The largest norm of the piece's top points on its section rays."""
    slot = piece._HEIGHT
    prms = [(piece.y_max, c) if slot == 0 else (c, piece.y_max) for c in piece._rays(1.0, density)]
    return max(norm.of(piece.eval_param(prm)) for prm in prms)


def _assert_same_section(got, want, where):
    # the points, the params as floats and the edges as index pairs, bytes
    # compared: the arrays of the one pass against the per-piece loop's lists
    assert _points_bits(got[0]) == _points_bits(want[0]), where
    assert got[1].dtype == np.float64 and got[1].shape == (len(want[1]), 2), where
    assert _param_bits(got[1].tolist()) == _param_bits(want[1]), where
    assert got[2].dtype == np.intp and got[2].shape == (len(want[2]), 2), where
    assert got[2].tolist() == [list(e) for e in want[2]], where


def _ref_section(piece, t, norm, density):
    ref = _ref_horn_section if isinstance(piece, HornPiece) else _ref_wall_section
    return ref(piece, t, norm, density)


@pytest.mark.parametrize("norm", list(_NORMS))
def test_section_matches_per_piece_loops_bitwise(norm):
    # each ladder's sections of a tuple of pieces come from one lane pass
    # through the analysis's RadiusTable; an off-ladder radius is solved
    # alone; every piece's section is its own loop's, whatever pieces share
    # the pass
    norm = _NORMS[norm]
    rng = np.random.default_rng(3)
    pieces = builtin("horn3d").germ().surfaces
    ladders = [RunConfig().scales(), [2.0**-3, 2.0**-20]]
    for _ in range(3):
        t_max, q = 2.0 ** -rng.uniform(2, 6), rng.uniform(0.3, 0.8)
        ladders.append([float(t_max * q**k) for k in range(rng.integers(5, 10))])
    skipped = empty = 0
    for ladder in ladders:
        t_mid = float(np.median(ladder))
        t_off = math.sqrt(ladder[0] * ladder[1])
        for density in (8, 32, 64):
            cropped = []
            for piece in pieces:
                # cropped at the median solved height at the ladder's median
                # radius (below the cap 1.5 t), so the rays whose roots lie
                # above it miss the sphere there and at larger radii
                _, params, _ = _ref_section(piece, t_mid, norm, density)
                y_mid = float(np.median([prm[piece._HEIGHT] for prm in params]))
                cropped.append(dataclasses.replace(piece, y_max=y_mid))
            cropped = tuple(cropped)
            reach = max(_reach(piece, norm, density) for piece in cropped)
            above = [8 * reach, 4 * reach, 2 * reach]
            mixed = (cropped[0], pieces[1], cropped[2])
            cases = [(pieces, ladder), (cropped, ladder), (cropped, above), (mixed, ladder)]
            cases += [((piece,), ladder) for piece in pieces]
            for case, ts in cases:
                table = RadiusTable(ts)
                for t in rng.permutation(ts).tolist():
                    got = table.sections(case, t, norm, density)
                    assert len(got) == len(case)
                    for piece, section in zip(case, got):
                        want = _ref_section(piece, t, norm, density)
                        _assert_same_section(section, want, (piece, t, density))
                        skipped += len(piece._rays(t, density)) - len(section[1])
                        empty += not len(section[0])
                got = table.sections(case, t_off, norm, density)
                for piece, section in zip(case, got):
                    want = _ref_section(piece, t_off, norm, density)
                    _assert_same_section(section, want, (piece, t_off))
                assert set(table._sections[case, norm, density]) == set(ts)
    assert skipped > 0 and empty >= 3 * len(ladders) * len(pieces) * 3


def test_sample_matches_per_piece_loops_bitwise():
    rng = np.random.default_rng(4)
    pieces = builtin("horn3d").germ().surfaces
    for scale in [2.0**-2, 2.0**-10, *(2.0 ** -rng.uniform(2, 12, 2))]:
        scale = float(scale)
        for density in (8, 32, 64):
            for piece in pieces:
                ref = _ref_horn_sample if isinstance(piece, HornPiece) else _ref_wall_sample
                # a piece lower than the ball samples only up to its own top
                for case in (piece, dataclasses.replace(piece, y_max=0.6 * scale)):
                    got = case.sample(scale, density)
                    want = ref(case, scale, density)
                    assert _points_bits(got[0]) == _points_bits(want[0]), (case, scale)
                    assert _param_bits(got[1]) == _param_bits(want[1]), (case, scale)
