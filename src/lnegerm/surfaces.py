"""Procedural surface pieces for 3D germ sets.

Two builtin samplers are provided: a horn (cross-sections are circles in
planes y = const whose diameter joins two generator curves x = ±(y/a)^2)
and a plane wall strip {|x| <= c y^2, z = 0}.  Both emit seam points on a
canonical height grid so that coinciding boundary samples merge across
pieces when a cloud is assembled.  Each piece also gives its exact z = 0
slice (``trace`` and ``covers``), on which the medial branches of a germ
symmetric under z -> -z are solved.

A piece's params hold its height y in slot ``_HEIGHT``.  One height sampler
(``_sample``) and one sphere-section solver (``_sphere_sections``) serve
both pieces; each piece lists only its rings of params, its rays, and the
column kernel that maps the heights of many rays to their points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import _check_types, _is_int, _is_number
from .errors import DomainError, InputError, RegistryError
from .germs import puiseux_branch
from .optimize import brentq_lanes, golden_min


def _generator(label: str, x_coef: float, y_max: float):
    """The curve (x_coef y^2, y, 0), y in [0, y_max], as a Puiseux branch;
    the line x = z = 0 when x_coef is 0."""
    terms = [(1, (0.0, 1.0, 0.0))] + ([(2, (x_coef, 0.0, 0.0))] if x_coef else [])
    return puiseux_branch(terms, y_max, label)


def _check_params(piece, names) -> None:
    """Raise ``InputError`` naming the piece and its first wrongly typed
    field (a ``str`` label, numbers for the named parameters, never a
    bool), unless each named parameter is finite and the piece has positive
    height."""
    kinds = {
        "label": ("a string", lambda v: isinstance(v, str)),
        **{name: ("a number", _is_number) for name in names},
        "ambient_dim": ("an integer", _is_int),
    }
    try:
        _check_types(piece, kinds)
    except InputError as exc:
        raise InputError(f"surface {piece.label!r}: {exc}") from None
    for name in names:
        if not math.isfinite(getattr(piece, name)):
            raise InputError(
                f"surface {piece.label!r}: {name} must be finite, got {getattr(piece, name)}"
            )
    if not piece.y_max > 0:
        raise InputError(f"surface {piece.label!r}: y_max must be positive, got {piece.y_max}")


def _sample(piece, scale: float, density: int, ring):
    """(points, params) of a piece in the ball of radius ``scale``: the
    origin once, then the params ``ring(y, spacing)`` at each height y > 0
    of the canonical grid.  Every piece samples the same heights, so seam
    samples of neighbouring pieces coincide."""
    pts, params = [], []
    spacing = scale / density
    m = int(math.ceil(1.25 * density))
    for y in np.linspace(0.0, min(scale, piece.y_max), m + 1):
        if y == 0.0:
            pts.append(np.zeros(3))
            params.append((0.0, 0.0))
            continue
        for prm in ring(y, spacing):
            p = piece.eval_param(prm)
            if np.linalg.norm(p) <= scale * (1 + 1e-12):
                pts.append(p)
                params.append(prm)
    return pts, params


def _check_heights(piece, y) -> None:
    """Raise ``DomainError`` unless every height in the array y lies in
    [0, y_max], the range ``eval_param`` accepts."""
    if np.any((y < 0) | (y > piece.y_max * (1 + 1e-12))):
        raise DomainError(f"surface {piece.label!r}: height outside [0, {piece.y_max}]")


def _sphere_sections(pieces, ts, norm, density: int) -> list:
    """Points on {x in piece : ||x||_norm = t} for each piece of ``pieces``
    and each radius t of ``ts``, at most one per ray, solved in one Brent
    pass (``brentq_lanes``) over the (piece, radius, ray) lanes of them all.

    A ray is the fixed coordinate of a param pair whose height slot is free
    (``piece._rays(t, density)``).  On each ray the height solves
    ||x|| = t below the cap min(y_max, 1.5 t); a ray still inside the
    sphere at the cap is skipped.  The lanes run piece by piece, and
    ``brentq_lanes`` keeps its live lanes ascending, so each evaluation
    hands each piece's run of them to that piece's column kernel
    (``piece._columns``) and the joined columns to ``norm.of_columns``.
    Every value is elementwise bitwise ``norm.of(piece.eval_param(prm))``,
    so every root has the bits of a scalar ``brentq`` on its ray, whichever
    pieces share the pass.

    Returns one list per radius of ``ts``, holding one (points, params,
    edges) per piece: the (k, 3) points and (k, 2) params of its hit rays,
    slices of the pass's arrays, and the (e, 2) index array joining
    neighbouring rays' points in ray order, then the last ray and the first
    if the piece's rays close (``piece._CLOSED``) and both were hit.  The
    link sections of a germ with surface pieces (``RadiusTable.sections``)
    are its one caller and assemble straight from these arrays, with no
    per-point Python: a section holds tens to hundreds of points.
    """
    ts = [float(t) for t in ts]
    rays = [[piece._rays(t, density) for t in ts] for piece in pieces]
    fixed = [[c for r in at for c in r] for at in rays]
    kernels = [piece._columns(cs) for piece, cs in zip(pieces, fixed)]
    piece_starts = np.cumsum([0, *map(len, fixed)])
    # a block is one piece's rays at one radius, numbered piece by piece
    counts = [len(r) for at in rays for r in at]
    block_starts = np.cumsum([0, *counts])
    radius = np.repeat(ts * len(pieces), counts)
    y_hi = np.repeat([min(piece.y_max, t * 1.5) for piece in pieces for t in ts], counts)

    def columns(y, lanes):
        cut = np.searchsorted(lanes, piece_starts).tolist()
        parts = [
            kernel(y[lo:hi], lanes[lo:hi] - start)
            for kernel, start, lo, hi in zip(kernels, piece_starts.tolist(), cut, cut[1:])
            if hi > lo
        ]
        return parts[0] if len(parts) == 1 else [np.concatenate(c) for c in zip(*parts)]

    def g(y, lanes):
        return norm.of_columns(columns(y, lanes)) - radius[lanes]

    g_hi = g(y_hi, np.arange(len(radius)))
    is_hit = ~(g_hi < 0)
    hit = np.flatnonzero(is_hit)
    roots = brentq_lanes(
        lambda y, k: g(y, hit[k]), np.zeros(len(hit)), y_hi[hit], rtol=8.9e-16, fb=g_hi[hit]
    )
    points = np.column_stack(columns(roots, hit)) if len(hit) else np.zeros((0, 3))
    rows = np.searchsorted(hit, block_starts)
    params = np.empty((len(hit), 2))
    at_ray = np.array([c for cs in fixed for c in cs])[hit]
    for p, piece in enumerate(pieces):
        lo, hi = rows[p * len(ts)], rows[(p + 1) * len(ts)]
        params[lo:hi, piece._HEIGHT] = roots[lo:hi]
        params[lo:hi, 1 - piece._HEIGHT] = at_ray[lo:hi]
    # each hit ray has at most one edge: to the next ray of its block when
    # that was hit, or from a closed block's last ray back to its first when
    # both were hit; sources ascend, so each block's edges are in ray order
    block_of = np.repeat(np.arange(len(counts)), np.diff(rows))
    step = np.flatnonzero((np.diff(hit) == 1) & (np.diff(block_of) == 0))
    closed = np.repeat(np.array([piece._CLOSED for piece in pieces], dtype=bool), len(ts))
    ring = np.flatnonzero(closed & is_hit[block_starts[:-1]] & is_hit[block_starts[1:] - 1])
    nxt = np.full(len(hit), -1)
    nxt[step] = step + 1
    nxt[rows[1:][ring] - 1] = rows[:-1][ring]
    src = np.flatnonzero(nxt >= 0)
    edges = np.column_stack([src, nxt[src]])
    rows = rows.tolist()
    cuts = np.searchsorted(edges[:, 0], rows).tolist()
    out = [[] for _ in ts]
    for b, (lo, hi, e_lo, e_hi) in enumerate(zip(rows, rows[1:], cuts, cuts[1:])):
        out[b % len(ts)].append((points[lo:hi], params[lo:hi], edges[e_lo:e_hi] - lo))
    return out


@dataclass(frozen=True, eq=False)
class HornPiece:
    """Horn over the generators x = sign*(y/a_outer)^2 and sign*(y/a_inner)^2.

    Parametrized by (y, theta): the cross-section at height y is the circle
    centered at (sign*cx(y), y, 0) of radius r(y) in the (x, z) directions,
    where cx and r are the midpoint and half-gap of the generator abscissae.
    """

    label: str
    sign: float = 1.0
    a_outer: float = 1.0
    a_inner: float = 2.0
    y_max: float = 1.0
    ambient_dim: int = 3
    _HEIGHT = 0
    _CLOSED = True

    def __post_init__(self):
        _check_params(self, ("sign", "a_outer", "a_inner", "y_max"))
        if self.sign not in (1.0, -1.0):
            raise InputError(f"horn {self.label!r}: sign must be 1 or -1, got {self.sign}")
        if not 0 < self.a_outer < self.a_inner:
            raise InputError("horn needs 0 < a_outer < a_inner (inner generator steeper)")

    def _cx_r(self, y):
        x_out = (y / self.a_outer) ** 2
        x_in = (y / self.a_inner) ** 2
        return 0.5 * (x_out + x_in), 0.5 * (x_out - x_in)

    def eval_param(self, prm) -> np.ndarray:
        """The point at (y, theta)."""
        y, theta = prm
        if y < 0 or y > self.y_max * (1 + 1e-12):
            raise DomainError(f"horn {self.label!r}: height outside [0, {self.y_max}]")
        cx, r = self._cx_r(y)
        return np.array([self.sign * (cx + r * math.cos(theta)), y, r * math.sin(theta)])

    def _columns(self, thetas):
        """The column kernel of the rays at angles ``thetas``: (y, lanes)
        to the x, y, z arrays of the points at heights y on rays ``lanes``,
        each bitwise ``eval_param``'s.  cos and sin are taken once per ray,
        with ``math``; the squares are libm ``**``, one per element, since
        numpy's square is x*x and rounds differently on some inputs."""
        cos = np.array([math.cos(th) for th in thetas])
        sin = np.array([math.sin(th) for th in thetas])

        def columns(y, lanes):
            _check_heights(self, y)
            x_out = np.array([v**2 for v in (y / self.a_outer).tolist()])
            x_in = np.array([v**2 for v in (y / self.a_inner).tolist()])
            cx, r = 0.5 * (x_out + x_in), 0.5 * (x_out - x_in)
            return self.sign * (cx + r * cos[lanes]), y, r * sin[lanes]

        return columns

    def _ring(self, y, spacing: float) -> list:
        """The circle at height y, at most ``spacing`` apart, and 16 at least."""
        _, r = self._cx_r(y)
        n_theta = max(16, 2 * int(math.ceil(math.pi * r / spacing)))
        return [(y, 2 * math.pi * k / n_theta) for k in range(n_theta)]

    def sample(self, scale: float, density: int):
        return _sample(self, scale, density, self._ring)

    def project(self, x, seed_param, window: float | None = None, pinned: bool = False):
        """Locally nearest horn point to x, seeded at (y, theta).

        For fixed height the nearest circle point is closed-form, so the
        problem reduces to a bounded 1D minimization over the height within
        a window around the seed.  The circle angle is confined to the
        quarter-circle arc around the seed angle: a point between the
        generators has distinct local feet on the near and far sides of the
        tube, and an unconstrained sweep over heights would collapse a
        far-side seed onto the near-side foot.

        When the minimizer sits on the arc boundary the seed direction owns
        no genuine foot.  With ``pinned`` the boundary point is returned
        anyway (a continuous extension of the seeded side, which
        equidistance root solves need); otherwise the unconstrained local
        foot is reported, which coincides with another seed group's foot
        and dedupes away.
        """
        x = np.asarray(x, dtype=float)
        # Python floats throughout: scalar ops on np.float64 cost several
        # float ops each, and every evaluation below runs ~50 times per call
        x0, wy, wz = x.tolist()
        wx = self.sign * x0
        theta0 = float(seed_param[1])
        a_out, a_in = self.a_outer, self.a_inner
        quarter, full = 0.25 * math.pi, 2 * math.pi

        def dist_at(y):
            # ``** 2`` is libm pow, as in ``_cx_r``; x*x would round differently
            x_out = (y / a_out) ** 2
            x_in = (y / a_in) ** 2
            cx = 0.5 * (x_out + x_in)
            r = 0.5 * (x_out - x_in)
            ex = wx - cx
            th = math.atan2(wz, ex)
            delta = math.remainder(th - theta0, full)
            if abs(delta) > quarter:
                th = theta0 + math.copysign(quarter, delta)
            dx = ex - r * math.cos(th)
            dz = wz - r * math.sin(th)
            return math.sqrt(dx * dx + dz * dz + (wy - y) ** 2)

        def dist_free(y):
            x_out = (y / a_out) ** 2
            x_in = (y / a_in) ** 2
            r = 0.5 * (x_out - x_in)
            w = math.hypot(wx - 0.5 * (x_out + x_in), wz)
            return math.hypot(wy - y, w - r if w > 0 else r)

        y0 = float(seed_param[0])
        if window is None:
            window = 0.35 * max(y0, abs(wy)) + 1e-9
        lo = max(0.0, y0 - window)
        hi = min(self.y_max, y0 + window)
        y, _ = golden_min(dist_at, lo, hi)
        cx, _ = self._cx_r(y)
        phi = math.atan2(wz, wx - cx)
        delta = math.remainder(phi - theta0, full)
        theta = theta0 + math.copysign(quarter, delta) if abs(delta) > quarter else phi
        if not pinned and abs(math.remainder(phi - theta, full)) > 1e-9:
            y, _ = golden_min(dist_free, lo, hi)
            cx, _ = self._cx_r(y)
            w = math.hypot(wx - cx, wz)
            theta = math.atan2(wz, wx - cx) if w > 1e-300 else theta0
        prm = (y, theta % full)
        p = self.eval_param(prm)
        d = p - x
        return math.sqrt(d.dot(d)), p, prm  # exactly np.linalg.norm of a vector

    def trace(self) -> list:
        """The horn's z = 0 slice: its generators x = sign (y/a)^2, as
        Puiseux branches with z component 0.

        The slice is exact for points q of z = 0: their distance to the horn
        is their distance to the generators.  At each height the circle is
        centered in z = 0 and q's offset from the center lies in z = 0, so a
        nearest circle point to q is a generator point.
        """
        return [
            _generator(f"{self.label}_{side}", self.sign / a**2, self.y_max)
            for side, a in (("outer", self.a_outer), ("inner", self.a_inner))
        ]

    def covers(self, q) -> bool:
        """Whether the point q of z = 0 lies inside the horn's z = 0 slice:
        never, the slice is just the two generators (``trace``)."""
        return False

    def _rays(self, t: float, density: int) -> list:
        """The theta rays of the section at radius t, at most
        t / density apart on the circle of height t, and 32 at least."""
        _, r_t = self._cx_r(min(t, self.y_max))
        n_theta = max(32, 2 * int(math.ceil(math.pi * r_t * density / max(t, 1e-300))))
        return [2 * math.pi * k / n_theta for k in range(n_theta)]

    def to_json(self) -> dict:
        return {
            "kind": "horn",
            "label": self.label,
            "params": {
                "sign": self.sign,
                "a_outer": self.a_outer,
                "a_inner": self.a_inner,
                "y_max": self.y_max,
            },
        }


@dataclass(frozen=True, eq=False)
class WallPiece:
    """Plane strip {(x, y, 0) : 0 <= y, |x| <= half_width_coef * y^2}.

    Parametrized by (u, y) with x = u * half_width_coef * y^2, u in [-1, 1];
    the u = ±1 boundaries are the inner horn generators.
    """

    label: str
    half_width_coef: float = 0.25
    y_max: float = 1.0
    ambient_dim: int = 3
    _HEIGHT = 1
    _CLOSED = False

    def __post_init__(self):
        _check_params(self, ("half_width_coef", "y_max"))
        if not self.half_width_coef >= 0:
            raise InputError("wall needs half_width_coef >= 0")

    def eval_param(self, prm) -> np.ndarray:
        """The point at (u, y)."""
        u, y = prm
        if y < 0 or y > self.y_max * (1 + 1e-12):
            raise DomainError(f"wall {self.label!r}: height outside [0, {self.y_max}]")
        if abs(u) > 1 + 1e-12:
            raise DomainError(f"wall {self.label!r}: u outside [-1, 1]")
        return np.array([u * self.half_width_coef * y * y, y, 0.0])

    def _columns(self, us):
        """The column kernel of the rays at abscissae ``us``: (y, lanes) to
        the x, y, z arrays of the points at heights y on rays ``lanes``,
        each bitwise ``eval_param``'s."""
        us = np.asarray(us, dtype=float)
        if np.any(np.abs(us) > 1 + 1e-12):
            raise DomainError(f"wall {self.label!r}: u outside [-1, 1]")

        def columns(y, lanes):
            _check_heights(self, y)
            return us[lanes] * self.half_width_coef * y * y, y, np.zeros(len(y))

        return columns

    def _ring(self, y, spacing: float) -> list:
        """The strip's width at height y, at most ``spacing`` apart, 3 at least."""
        half = self.half_width_coef * y * y
        n_u = max(2, int(math.ceil(2 * half / spacing)))
        return [(u, y) for u in np.linspace(-1.0, 1.0, n_u + 1)]

    def sample(self, scale: float, density: int):
        return _sample(self, scale, density, self._ring)

    def project(self, x, seed_param, window: float | None = None, pinned: bool = False):
        """Locally nearest strip point; closed-form clamp in x, 1D over y.

        The foot depends on (x, seed height, window) alone: neither the seed
        abscissa u nor ``pinned`` is read.
        """
        x = np.asarray(x, dtype=float)
        x0, x1, x2 = x.tolist()
        zz = x2 * x2
        c = self.half_width_coef

        def dist_at(y):
            half = c * y * y
            # x0 minus its clamp to [-half, half]
            dx = x0 - half if x0 > half else (x0 + half if x0 < -half else 0.0)
            return math.sqrt(dx * dx + (x1 - y) ** 2 + zz)

        y0 = float(seed_param[1])
        if window is None:
            window = 0.35 * max(y0, abs(x1)) + 1e-9
        lo = max(0.0, y0 - window)
        hi = min(self.y_max, y0 + window)
        y, _ = golden_min(dist_at, lo, hi)
        half = c * y * y
        u = min(max(x0 / half, -1.0), 1.0) if half > 0 else 0.0
        p = self.eval_param((u, y))
        d = p - x
        return math.sqrt(d.dot(d)), p, (u, y)

    def trace(self) -> list:
        """The strip's edges x = +-c y^2, as Puiseux branches with z
        component 0.

        With ``covers`` the slice is exact for points q of z = 0: the strip
        is planar, in z = 0, so q is on it when it covers q, and otherwise
        its nearest strip point is an edge point.
        """
        c = self.half_width_coef
        return [
            _generator(f"{self.label}_plus", c, self.y_max),
            _generator(f"{self.label}_minus", -c, self.y_max),
        ]

    def covers(self, q) -> bool:
        """Whether the point q of z = 0 lies inside the strip, |x| <= c y^2
        with 0 <= y <= y_max."""
        x, y = float(q[0]), float(q[1])
        return 0.0 <= y <= self.y_max and abs(x) <= self.half_width_coef * y * y

    def _rays(self, t: float, density: int) -> list:
        """The u rays of every section: density / 2 + 1 across the strip,
        9 at least."""
        return np.linspace(-1.0, 1.0, max(8, density // 2) + 1).tolist()

    def to_json(self) -> dict:
        return {
            "kind": "wall",
            "label": self.label,
            "params": {
                "half_width_coef": self.half_width_coef,
                "y_max": self.y_max,
            },
        }


_KINDS = {"horn": HornPiece, "wall": WallPiece}


def surface_from_json(data: dict, ambient_dim: int):
    try:
        kind = data["kind"]
        label = data["label"]
        params = data.get("params", {})
    except (KeyError, TypeError) as exc:
        raise InputError(f"germ file: malformed surface entry ({exc})") from exc
    if not isinstance(kind, str) or kind not in _KINDS:
        raise RegistryError(f"unknown builtin sampler {kind!r}")
    if ambient_dim != 3:
        raise InputError("builtin surface samplers are 3D only")
    try:
        return _KINDS[kind](label=label, **params)
    except (TypeError, ValueError) as exc:
        raise InputError(f"germ file: surface {label!r}: malformed params ({exc})") from exc
