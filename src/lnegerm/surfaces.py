"""Procedural surface pieces for 3D germ sets.

Two builtin samplers are provided: a horn (cross-sections are circles in
planes y = const whose diameter joins two generator curves x = ±(y/a)^2)
and a plane wall strip {|x| <= c y^2, z = 0}.  Both emit seam points on a
canonical height grid so that coinciding boundary samples merge across
pieces when a cloud is assembled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import DomainError, InputError, RegistryError
from .germs import puiseux_branch
from .norms import EUCLID
from .optimize import golden_min


def _generator(label: str, x_coef: float, y_max: float):
    """The plane curve (x_coef y^2, y), y in [0, y_max], as a Puiseux branch;
    the line x = 0 when x_coef is 0."""
    terms = [(1, (0.0, 1.0))] + ([(2, (x_coef, 0.0))] if x_coef else [])
    return puiseux_branch(terms, y_max, label)


def _canonical_heights(scale: float, density: int) -> np.ndarray:
    m = int(math.ceil(1.25 * density))
    return np.linspace(0.0, scale, m + 1)


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

    def __post_init__(self):
        if self.a_inner <= self.a_outer:
            raise InputError("horn needs a_inner > a_outer (inner generator steeper)")

    def _cx_r(self, y):
        x_out = (y / self.a_outer) ** 2
        x_in = (y / self.a_inner) ** 2
        return 0.5 * (x_out + x_in), 0.5 * (x_out - x_in)

    def eval_param(self, prm) -> np.ndarray:
        y, theta = prm
        if y < 0 or y > self.y_max * (1 + 1e-12):
            raise DomainError(f"horn {self.label!r}: height outside [0, {self.y_max}]")
        cx, r = self._cx_r(y)
        return np.array(
            [self.sign * (cx + r * math.cos(theta)), y, r * math.sin(theta)]
        )

    def sample(self, scale: float, density: int):
        pts, params = [], []
        spacing = scale / density
        for y in _canonical_heights(min(scale, self.y_max), density):
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

    def project(
        self,
        x,
        seed_param,
        window: float | None = None,
        pinned: bool = False,
        shared: dict | None = None,
    ):
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

        ``shared`` is a dict the unpinned calls for one query ``x`` may pass
        to reuse each other's work; results are bitwise those without it.
        Its entries are keyed on (label, seed height, window), which fix
        the golden search interval, and reused as follows:

        * If no evaluation of the clamped search met the arc clamp, the
          call did not depend on the seed angle, and its result is stored
          with the angle atan2 of every evaluation.  A later seed whose arc
          holds every stored angle evaluates the same values along the
          same path, so it would end at the same foot: it takes the stored
          one.  Any other seed meets the clamp and runs its own search.
        * The fallback search for the unconstrained foot does not read the
          seed angle, so its height is stored and shared; the angle is
          recomputed per seed.

        Pinned calls neither read nor write ``shared``.
        """
        x = np.asarray(x, dtype=float)
        # Python floats throughout: scalar ops on np.float64 cost several
        # float ops each, and every evaluation below runs ~50 times per call
        x0, wy, wz = x.tolist()
        wx = self.sign * x0
        theta0 = float(seed_param[1])
        a_out, a_in = self.a_outer, self.a_inner
        quarter, full = 0.25 * math.pi, 2 * math.pi
        seen = []  # the unclamped angle of every dist_at evaluation
        clamped = False

        def dist_at(y):
            nonlocal clamped
            # ``** 2`` is libm pow, as in ``_cx_r``; x*x would round differently
            x_out = (y / a_out) ** 2
            x_in = (y / a_in) ** 2
            cx = 0.5 * (x_out + x_in)
            r = 0.5 * (x_out - x_in)
            ex = wx - cx
            th = math.atan2(wz, ex)
            seen.append(th)
            delta = math.remainder(th - theta0, full)
            if abs(delta) > quarter:
                th = theta0 + math.copysign(quarter, delta)
                clamped = True
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
        # slot: [(free result, its evaluation angles), fallback height]
        slot = None
        if shared is not None and not pinned:
            slot = shared.setdefault((self.label, y0, window), [None, None])
            if slot[0] is not None:
                (dist, p, prm), angles = slot[0]
                if all(abs(math.remainder(th - theta0, full)) <= quarter for th in angles):
                    return dist, p.copy(), prm
        y, _ = golden_min(dist_at, lo, hi)
        cx, _ = self._cx_r(y)
        phi = math.atan2(wz, wx - cx)
        delta = math.remainder(phi - theta0, full)
        theta = theta0 + math.copysign(quarter, delta) if abs(delta) > quarter else phi
        if not pinned and abs(math.remainder(phi - theta, full)) > 1e-9:
            if slot is None or slot[1] is None:
                y, _ = golden_min(dist_free, lo, hi)
                if slot is not None:
                    slot[1] = y
            else:
                y = slot[1]
            cx, _ = self._cx_r(y)
            w = math.hypot(wx - cx, wz)
            theta = math.atan2(wz, wx - cx) if w > 1e-300 else theta0
        prm = (y, theta % full)
        p = self.eval_param(prm)
        dist = float(np.linalg.norm(p - x))
        if slot is not None and not clamped:
            slot[0] = (dist, p.copy(), prm), seen
        return dist, p, prm

    def trace(self) -> list:
        """The horn's z = 0 generators x = sign (y/a)^2, as plane branches."""
        return [
            _generator(f"{self.label}_{side}", self.sign / a**2, self.y_max)
            for side, a in (("outer", self.a_outer), ("inner", self.a_inner))
        ]

    def section(self, t: float, norm=EUCLID, density: int = 32):
        """Points on {x in piece : ||x||_norm = t}, one per theta ray.

        Returns (points, params, edges); ``edges`` joins the points of
        neighbouring rays, so the section is a closed cycle exactly when no
        ray misses the sphere below the height cap.
        """
        _, r_t = self._cx_r(min(t, self.y_max))
        n_theta = max(32, 2 * int(math.ceil(math.pi * r_t * density / max(t, 1e-300))))
        pts, params, index_of_ray = [], [], {}
        y_hi = min(self.y_max, t * 1.5)
        for k in range(n_theta):
            theta = 2 * math.pi * k / n_theta

            def g(y):
                return float(norm(self.eval_param((y, theta)))) - t

            if g(y_hi) < 0:
                continue
            y = brentq(g, 0.0, y_hi, rtol=8.9e-16)
            index_of_ray[k] = len(pts)
            pts.append(self.eval_param((y, theta)))
            params.append((y, theta))
        edges = [
            (i, index_of_ray[(k + 1) % n_theta])
            for k, i in index_of_ray.items()
            if (k + 1) % n_theta in index_of_ray
        ]
        return pts, params, edges

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

    def __post_init__(self):
        if not self.half_width_coef >= 0:
            raise InputError("wall needs half_width_coef >= 0")

    def eval_param(self, prm) -> np.ndarray:
        u, y = prm
        if y < 0 or y > self.y_max * (1 + 1e-12):
            raise DomainError(f"wall {self.label!r}: height outside [0, {self.y_max}]")
        if abs(u) > 1 + 1e-12:
            raise DomainError(f"wall {self.label!r}: u outside [-1, 1]")
        return np.array([u * self.half_width_coef * y * y, y, 0.0])

    def sample(self, scale: float, density: int):
        pts, params = [], []
        spacing = scale / density
        for y in _canonical_heights(min(scale, self.y_max), density):
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

    def project(
        self,
        x,
        seed_param,
        window: float | None = None,
        pinned: bool = False,
        shared: dict | None = None,
    ):
        """Locally nearest strip point; closed-form clamp in x, 1D over y.

        The foot depends on (x, seed height, window) alone: neither the seed
        abscissa u nor ``pinned`` is read.  So ``shared``, a dict the
        unpinned calls for one query ``x`` may pass, keeps the first result
        per (label, seed height, window) and hands later seeds at that
        height a copy, bitwise what their own search would return.  Pinned
        calls neither read nor write it.
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
        key = (self.label, y0, window)
        if shared is not None and not pinned and key in shared:
            dist, p, prm = shared[key]
            return dist, p.copy(), prm
        lo = max(0.0, y0 - window)
        hi = min(self.y_max, y0 + window)
        y, _ = golden_min(dist_at, lo, hi)
        half = c * y * y
        u = min(max(x0 / half, -1.0), 1.0) if half > 0 else 0.0
        p = self.eval_param((u, y))
        dist = float(np.linalg.norm(p - x))
        if shared is not None and not pinned:
            shared[key] = (dist, p.copy(), (u, y))
        return dist, p, (u, y)

    def trace(self) -> list:
        """The strip's edges x = +-c y^2, as plane branches; the strip lies
        in z = 0 and its interior is on the set, so only the edges bound
        the medial axis there."""
        c = self.half_width_coef
        return [
            _generator(f"{self.label}_plus", c, self.y_max),
            _generator(f"{self.label}_minus", -c, self.y_max),
        ]

    def section(self, t: float, norm=EUCLID, density: int = 32):
        """Points on {x in piece : ||x||_norm = t}, one per u sample.

        Returns (points, params, edges); ``edges`` joins the points of
        consecutive u samples that both reach the sphere.
        """
        pts, params, edges = [], [], []
        y_hi = min(self.y_max, t * 1.5)
        prev = None
        for j, u in enumerate(np.linspace(-1.0, 1.0, max(8, density // 2) + 1)):

            def g(y):
                return float(norm(self.eval_param((u, y)))) - t

            if g(y_hi) < 0:
                continue
            y = brentq(g, 0.0, y_hi, rtol=8.9e-16)
            if prev == j - 1:
                edges.append((len(pts) - 1, len(pts)))
            prev = j
            pts.append(self.eval_param((u, y)))
            params.append((u, y))
        return pts, params, edges

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
    if kind not in _KINDS:
        raise RegistryError(f"unknown builtin sampler {kind!r}")
    if ambient_dim != 3:
        raise InputError("builtin surface samplers are 3D only")
    return _KINDS[kind](label=label, **params)
