"""Medial branches from exact bisectors, and the grid medial-axis export.

``medial_branch_germs`` is the one source of medial branches.  Near 0 the
medial axis of a plane germ of Puiseux branches is the union of the
bisectors of the cyclically adjacent half-branch pairs whose sector is
narrower than pi, and each is solved on every circle |q| = r as a 1D root in
the angle of q, against the branches' own parametrizations.  A 3D germ
symmetric under z -> -z is solved in place on its z = 0 slice: the same
solve runs on the pieces' z = 0 traces, and a bisector point inside a
surface's slice (``covers``) is rejected.  Each branch is a
``SampledCurve`` whose ``point_at_radius`` is the same exact solve.

``lnegerm medial`` exports the grid medial axis, built in three layers:

* ``FootFinder`` turns the cloud sample of a germ into polished local
  nearest points ("feet"): cloud candidates are grouped by direction from
  the query, then each group is refined against the exact parametrization
  of its piece (Newton on the foot-point equation for Puiseux branches,
  bounded 1D minimization for procedural surfaces).
* ``refine_equidistant`` moves a point onto the equidistance locus of its
  nearest feet by repeatedly equalizing the nearest opposing foot pair
  along the difference of their directions (a monotone 1D root solve).
* Grid extraction screens nodes with a vectorized distance/angular-spread
  prefilter and polishes the survivors.

Polished feet are essential: near a tangency the interesting distances
shrink like radius**2 while any affordable cloud spacing is of order
radius, so raw sample distances cannot separate competing pieces.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq
from scipy.spatial import cKDTree

from .errors import DomainError, InputError, ResolutionError, TraceError
from .germs import GermSet, HalfLine, PuiseuxBranch, sample_cloud
from .metrics import cluster_labels
from .optimize import golden_min

# candidate directions more than the default theta_min apart seed new groups
_COS_FOOT_SPLIT = math.cos(0.2)
# BLAS roundings of one cosine differ by a few ulp; decisions this close to
# the split or to a tie are recomputed exactly
_COS_MARGIN = 1e-12
# passes per refine; accepted refines on the plane builtins use at most 3
_REFINE_PASSES = 16
# traced bisector residuals on the builtin pairs stay below 1e-15 * t
_BISECTOR_RESIDUAL = 1e-10
# grid nodes per prefilter block: the horn3d window's k-nearest arrays stay
# near 2 MB each (the whole window in one block peaks at ~56 MB of them)
_GRID_BLOCK = 2048


# ---------------------------------------------------------------------------
# Foot-point polishing
# ---------------------------------------------------------------------------


def _project_branch(branch: PuiseuxBranch, x, seed: float, window: float):
    """Locally nearest branch point to x near parameter ``seed``.

    Newton iteration on psi(s) = <gamma(s) - x, gamma'(s)>, clamped to the
    parameter window; falls back to golden-section on the distance when the
    iteration stalls or hits a concave stretch.
    """
    terms = branch.float_terms
    xt = tuple(float(v) for v in np.asarray(x, dtype=float))
    dim = branch.ambient_dim
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

    s = min(max(float(seed), lo), hi)
    converged = False
    for _ in range(30):
        if s == 0.0 and terms[0][0] < 1.0:
            break  # gamma' is unbounded at 0
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
        s_new = min(max(s - psi / dpsi, lo), hi)
        if abs(s_new - s) <= 1e-14 * max(abs(s_new), 1e-9):
            s = s_new
            converged = True
            break
        s = s_new
    if not converged:
        s, _ = golden_min(dist_at, lo, hi)
    p = branch.eval(s)
    return float(np.linalg.norm(p - np.asarray(x, dtype=float))), p, float(s)


def _direction_groups(vecs: np.ndarray, dists: np.ndarray):
    """Direction group of each candidate; returns (group per candidate, count).

    ``vecs`` are the candidate offsets from the query, in candidate order,
    and ``dists`` their norms.  The rule is sequential: a candidate joins the
    earlier seed direction of largest cosine when that cosine reaches
    ``_COS_FOOT_SPLIT``, else it seeds a new group; a candidate within 1e-14
    of the query has no direction and seeds a group whose direction is 0.

    The cosines come from one row ``U @ u_seed`` per seed, kept groups x n
    (an n x n Gram matrix costs memory for nothing).  BLAS rounds that
    product differently from the rule's ``seeds @ u``, so every decision
    within ``_COS_MARGIN`` of the split or of a tie between seeds is made
    again with ``seeds @ u``, exactly as the sequential loop made it.
    """
    n = len(dists)
    if n == 0:
        return np.zeros(0, dtype=int), 0
    dead = dists <= 1e-14
    units = np.zeros_like(vecs)
    units[~dead] = vecs[~dead] / dists[~dead, None]
    seeds = [0]

    def exact(j, n_earlier):
        return units[seeds[:n_earlier]] @ units[j]

    cos = np.empty((min(n, 64), n))  # row k: cosines to seed k, -inf up to it
    best = np.full(n, -np.inf)  # running max over the seeds so far
    s = 0
    while True:
        k = len(seeds) - 1
        if k == len(cos):
            cos = np.concatenate([cos, np.empty_like(cos)])
        np.matmul(units, units[s], out=cos[k])
        np.maximum(best, cos[k], out=best)
        cos[k, : s + 1] = -np.inf
        if s + 1 == n:
            break
        # the next seed is the first later candidate that misses every seed;
        # a best cosine within the margin of the split is decided exactly
        below = best[s + 1 :] <= _COS_FOOT_SPLIT + _COS_MARGIN
        below |= dead[s + 1 :]
        nxt = n
        for j in (s + 1 + np.flatnonzero(below)).tolist():
            if (
                dead[j]
                or best[j] < _COS_FOOT_SPLIT - _COS_MARGIN
                or exact(j, len(seeds)).max() < _COS_FOOT_SPLIT
            ):
                nxt = j
                break
        if nxt == n:
            break
        seeds.append(nxt)
        s = nxt
    cos = cos[: len(seeds)]
    seed_idx = np.array(seeds)
    group_of = cos.argmax(axis=0)
    group_of[seed_idx] = np.arange(len(seeds))
    if len(seeds) > 1:
        members = np.ones(n, dtype=bool)
        members[seed_idx] = False
        rows = np.flatnonzero(members)
        top = cos[group_of[rows], rows]
        cos[group_of[rows], rows] = -np.inf
        tied = rows[top - cos[:, rows].max(axis=0) <= _COS_MARGIN]
        for j in tied.tolist():
            n_earlier = int(np.searchsorted(seed_idx, j))
            group_of[j] = int(np.argmax(exact(j, n_earlier)))
    return group_of, len(seeds)


@dataclass(frozen=True, eq=False)
class Foot:
    """One locally nearest point of the set, with its host piece."""

    point: np.ndarray
    dist: float
    label: str
    param: object


def _drop_repeats(feet: list, tol: float) -> list:
    """The feet, in order, without each one within tol of an earlier kept one.

    Most feet of a ring repeat a kept one exactly, and few are kept, so the
    norm test runs only where the largest coordinate gap g leaves it open:
    g > tol means farther than tol, and sqrt(dim) g <= tol means nearer; a
    relative margin of 1e-9 absorbs the norm's rounding.
    """
    far = tol * (1 + 1e-9)
    close = tol * (1 - 1e-9) / math.sqrt(len(feet[0].point)) if feet else 0.0
    kept, kept_coords = [], []
    for f in feet:
        p = f.point.tolist()
        for g, q in zip(kept, kept_coords):
            gap = max(map(abs, map(operator.sub, p, q)))
            if gap <= far and (gap <= close or np.linalg.norm(f.point - g.point) <= tol):
                break
        else:
            kept.append(f)
            kept_coords.append(p)
    return kept


class FootFinder:
    """Polished local nearest points of a germ, backed by one cloud sample."""

    def __init__(self, set_: GermSet, scale: float, density: int):
        for b in set_.branches:
            if not isinstance(b, PuiseuxBranch):
                raise InputError(f"curve piece {b.label!r}: feet need a Puiseux branch")
        self.cloud = sample_cloud(set_, scale, density, strict=False)
        self.tree = cKDTree(self.cloud.points)
        self.spacing = self.cloud.spacing
        self._pieces = {p.label: p for p in set_.pieces}
        # candidates visit their pieces in label order; a cloud has a handful
        # of distinct label sets, so each is sorted once
        in_order = {labels: tuple(sorted(labels)) for labels in set(self.cloud.labels)}
        self._sorted_labels = [in_order[labels] for labels in self.cloud.labels]

    def polish(
        self, label: str, seed_param, x, pinned: bool = False, shared: dict | None = None
    ):
        """(dist, point, param) of the local foot on one piece near a seed:
        surfaces project themselves, Puiseux branches go to ``_project_branch``.

        ``pinned`` keeps surface projections on the seeded side of the piece
        even where that side's foot degenerates (continuous extension for
        equidistance root solves).  ``shared`` is the per-query dict of the
        surface kernels (see ``HornPiece.project``); branches ignore it.
        """
        piece = self._pieces[label]
        if hasattr(piece, "project"):
            return piece.project(
                x, seed_param, window=8.0 * self.spacing, pinned=pinned, shared=shared
            )
        speed = float(np.linalg.norm(piece.eval_deriv(max(float(seed_param), 1e-12))))
        window = min(8.0 * self.spacing / max(speed, 1e-9), piece.t_max)
        return _project_branch(piece, x, float(seed_param), window)

    def feet(self, x, slack: float | None = None):
        """All polished feet near the query, sorted by distance.

        ``slack`` widens the candidate gathering band beyond the nearest
        sample distance; the default covers competitors up to 35% farther.
        Selection by distance band is the caller's job — raw sample
        distances are too coarse for that near tangencies.
        """
        x = np.asarray(x, dtype=float)
        d0 = float(self.tree.query(x)[0])
        if slack is None:
            slack = 0.35 * d0
        # a sample within spacing/2 of a true foot overshoots its distance
        # by at most spacing^2/(8 d), so a thin margin suffices
        gather = d0 + slack + 0.5 * self.spacing
        idx = np.array(sorted(self.tree.query_ball_point(x, gather)), dtype=int)
        vecs = self.cloud.points[idx] - x
        dists = np.linalg.norm(vecs, axis=1)
        order = np.argsort(dists, kind="stable")
        # group candidates by direction from the query; keep one seed per
        # piece per direction group (a ring of feet stays a ring, repeated
        # samples along one piece collapse)
        idx, dists = idx[order], dists[order]
        group_of, n_groups = _direction_groups(vecs[order], dists)
        groups: list = [{} for _ in range(n_groups)]  # {label: (cand dist, cloud index)}
        for gi, i, d in zip(group_of.tolist(), idx.tolist(), dists.tolist()):
            for lab in self._sorted_labels[i]:
                groups[gi].setdefault(lab, (d, i))
        # polish in order of candidate distance, culling groups that cannot
        # reach the selection band around the best polished distance
        tasks = sorted(
            (d, lab, i)
            for members in groups
            for lab, (d, i) in members.items()
        )
        feet = []
        best = math.inf
        shared: dict = {}  # surface work reused across this query's seeds
        for d, lab, i in tasks:
            if d - 0.5 * self.spacing > best + slack:
                break
            dist, point, prm = self.polish(lab, self.cloud.params[i][lab], x, shared=shared)
            best = min(best, dist)
            feet.append(Foot(point=point, dist=dist, label=lab, param=prm))
        feet.sort(key=lambda f: f.dist)
        return _drop_repeats(feet, 1e-6 * self.cloud.scale)


# ---------------------------------------------------------------------------
# Nearest-point clusters
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class NearestPointCluster:
    """m(x) as seen at finite resolution: clustered nearest points of X."""

    distance: float
    representatives: tuple  # of Foot
    max_pair_angle: float

    @property
    def cluster_count(self) -> int:
        return len(self.representatives)


def _max_pair_angle(x, points) -> float:
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


def _merge_feet(feet, tol: float):
    """Single-linkage merge of feet closer than tol; keep the nearest of
    each group, return sorted by distance."""
    if len(feet) <= 1:
        return list(feet)
    best: dict = {}
    for g, f in zip(cluster_labels(np.array([f.point for f in feet]), tol), feet):
        if g not in best or f.dist < best[g].dist:
            best[g] = f
    return sorted(best.values(), key=lambda f: f.dist)


def _cluster(x, feet, dmin: float, spacing: float, tau: float) -> NearestPointCluster:
    """The feet within the (1+tau) band above dmin, merged spatially below
    min(2 spacing, 0.3 dmin), with their largest pairwise angle at x."""
    reps = [f for f in feet if f.dist <= dmin * (1.0 + tau)]
    reps = _merge_feet(reps, min(2.0 * spacing, 0.3 * dmin))
    ang = _max_pair_angle(x, [f.point for f in reps])
    return NearestPointCluster(dmin, tuple(reps), ang)


# ---------------------------------------------------------------------------
# Equidistance refinement
# ---------------------------------------------------------------------------


def refine_equidistant(
    x,
    finder: FootFinder,
    det_slack: float,
    tau: float = 1e-3,
    theta_min: float = 0.2,
):
    """Polish x onto the medial locus of its nearest feet.

    ``det_slack`` is the absolute distance band selecting competing feet.
    Each pass equalizes the nearest opposing foot pair (the nearest foot
    against the nearest foot at an admissible angle from it) by a monotone
    1D root solve along the difference of the two foot directions.  Returns
    (point, NearestPointCluster) or None if no valid medial point emerges.
    """
    p = np.asarray(x, dtype=float).copy()
    band = det_slack
    for _ in range(_REFINE_PASSES):
        feet = finder.feet(p, slack=band + finder.spacing)
        if not feet:
            return None
        dmin = feet[0].dist
        if dmin <= 1e-12:
            return None
        # equalize the nearest opposing pair: the nearest foot against the
        # nearest foot at an admissible angle from it.  Chasing the worst
        # pair instead stalls when a continuum arc of feet sits in the band
        # (a near-circular cross-section), as it drags p toward far feet.
        f_lo = feet[0]
        u_lo = (p - f_lo.point) / f_lo.dist
        f_hi = None
        for f in feet[1:]:
            if f.dist > dmin + band:
                break
            u = (p - f.point) / f.dist
            c = min(1.0, max(-1.0, float(np.dot(u_lo, u))))
            if math.acos(c) >= theta_min:
                f_hi = f
                break
        if f_hi is None:
            return None
        spread = f_hi.dist - dmin
        if spread <= max(0.5 * tau * dmin, 1e-13):
            cluster = _cluster(p, feet, dmin, finder.spacing, tau)
            if cluster.cluster_count < 2 or cluster.max_pair_angle < theta_min:
                return None
            return p, cluster
        e = u_lo - (p - f_hi.point) / f_hi.dist
        ne = float(np.linalg.norm(e))
        if ne < 1e-9:
            return None
        e = e / ne

        def gap(alpha):
            q = p + alpha * e
            dl = finder.polish(f_lo.label, f_lo.param, q, pinned=True)[0]
            dh = finder.polish(f_hi.label, f_hi.param, q, pinned=True)[0]
            return dl - dh

        # gap is nondecreasing along e with gap(0) ~ -spread; polishing
        # noise can flip the sign at 0, so bracket on whichever side works
        lim = 4.0 * (band + spread) + 4.0 * finder.spacing
        g0 = gap(0.0)
        if g0 == 0.0:
            alpha = 0.0
        else:
            end = spread if g0 < 0.0 else -spread
            while gap(end) * g0 > 0.0:
                end *= 2.0
                if abs(end) > lim:
                    return None
            lo_a, hi_a = (0.0, end) if end > 0 else (end, 0.0)
            alpha = brentq(gap, lo_a, hi_a, xtol=1e-13 * max(dmin, 1e-6))
        p = p + alpha * e
        band = max(2.0 * tau * dmin, min(band, 1.2 * spread))
    return None


# ---------------------------------------------------------------------------
# Medial axis samples
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MedialAxisSample:
    """Accepted medial points with their nearest-point clusters."""

    points: tuple  # of (point, NearestPointCluster)
    resolution: float
    failures: tuple = ()

    def coords(self) -> np.ndarray:
        if not self.points:
            return np.zeros((0, 0))
        return np.array([p for p, _ in self.points])


class _SpatialHash:
    """Deterministic incremental radius-exclusion test."""

    def __init__(self, tol: float, dim: int):
        self.tol = tol
        self.cells: dict = {}
        self._offsets = list(itertools.product((-1, 0, 1), repeat=dim))

    def try_add(self, p) -> bool:
        p = np.asarray(p, dtype=float)
        key = tuple(int(math.floor(v / self.tol)) for v in p)
        for off in self._offsets:
            cell = tuple(map(operator.add, key, off))
            for q in self.cells.get(cell, ()):
                if np.linalg.norm(p - q) < self.tol:
                    return False
        self.cells.setdefault(key, []).append(p)
        return True


def _thin(points: np.ndarray, tol: float) -> np.ndarray:
    sh = _SpatialHash(tol, points.shape[1])
    kept = [p for p in points if sh.try_add(p)]
    return np.array(kept) if kept else np.zeros((0, points.shape[1]))


def _grid_candidates(finder: FootFinder, nodes: np.ndarray, h: float, theta_min: float):
    """The nodes, in order, farther than 1.2 h from the cloud whose samples
    within 2.6 h of the nearest one spread by more than 0.6 theta_min in
    direction.

    Nodes go through in blocks of ``_GRID_BLOCK``: the k-nearest arrays of
    a block take about k * dim * 8 bytes per surviving node, tens of MB for
    a whole 3D grid.  Each node's test reads only its own rows, so the
    result does not depend on the block size.
    """
    k = min(len(finder.cloud.points), 48)
    cos_gate = math.cos(0.6 * theta_min)
    block = _GRID_BLOCK
    cand_blocks = [np.zeros((0, nodes.shape[1]))]
    for start in range(0, len(nodes), block):
        chunk = nodes[start : start + block]
        d1 = finder.tree.query(chunk)[0]
        m = d1 > 1.2 * h
        if not m.any():
            continue
        sub = chunk[m]
        dsub = d1[m]
        dd, ii = finder.tree.query(sub, k=k)
        if k == 1:
            dd, ii = dd[:, None], ii[:, None]
        inband = dd <= dsub[:, None] + 2.6 * h
        dirs = (finder.cloud.points[ii] - sub[:, None, :]) / np.maximum(
            dd[..., None], 1e-300
        )
        cos = np.einsum("ijk,ik->ij", dirs, dirs[:, 0, :])
        cos = np.where(inband, cos, 1.0)
        cand_blocks.append(sub[cos.min(axis=1) <= cos_gate])
    return np.concatenate(cand_blocks)


def extract_medial_axis_grid(
    set_: GermSet,
    window,
    h: float,
    tau: float = 1e-3,
    theta_min: float = 0.2,
) -> MedialAxisSample:
    """Grid-seeded medial axis inside an axis-aligned window.

    Nodes pass a vectorized prefilter (distance above the grid step and
    angular spread of the near-band samples), are thinned, and each
    survivor is polished by ``refine_equidistant``; accepted points are
    equidistant within tau, farther than h from the set, and within two
    grid steps of their seed node.
    """
    window = tuple((float(a), float(b)) for a, b in window)
    if len(window) != set_.ambient_dim:
        raise InputError("window dimension does not match the germ")
    h = float(h)
    extent = max(b - a for a, b in window)
    if extent <= 0:
        raise InputError("window must have positive extent")
    if h > extent / 64 * (1 + 1e-9):
        raise InputError("grid resolution too coarse: need h <= window size / 64")
    axes = [np.arange(a, b + 0.5 * h, h) for a, b in window]
    mesh = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([m.ravel() for m in mesh], axis=1)
    corners = np.array(list(itertools.product(*window)))
    scale = float(np.max(np.linalg.norm(corners, axis=1))) + 2.0 * h
    finder = FootFinder(set_, scale, max(16, int(math.ceil(scale / h))))
    cands = _grid_candidates(finder, nodes, h, theta_min)
    if not len(cands):
        return MedialAxisSample((), h)
    # refinement dominates the cost; thin more aggressively in 3D where
    # medial sheets produce thick candidate slabs
    thin_radius = 1.5 * h if set_.ambient_dim == 2 else 2.2 * h
    cands = _thin(cands, thin_radius)
    accepted = []
    dedupe = _SpatialHash(0.5 * h, set_.ambient_dim)
    for node in cands:
        res = refine_equidistant(
            node, finder, det_slack=2.4 * h, tau=tau, theta_min=theta_min
        )
        if res is None:
            continue
        p, cluster = res
        if cluster.distance <= h:
            continue
        if np.linalg.norm(p - node) > 2.2 * h:
            continue
        if not dedupe.try_add(p):
            continue
        accepted.append((p, cluster))
    return MedialAxisSample(tuple(accepted), h)


# ---------------------------------------------------------------------------
# Medial branches from exact bisectors
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class SampledCurve:
    """Distance-parametrized curve known through exact anchor points.

    ``point_at_radius`` returns the anchor at the requested radius, or else
    the point ``refiner`` solves for it, cached as a new anchor.  ``ladder``
    holds the radii the curve was first anchored at.
    """

    label: str
    ambient_dim: int
    refiner: object  # callable(radius) -> point | None
    flags: list = field(default_factory=list)
    ladder: tuple = ()
    _radii: list = field(default_factory=list)
    _points: dict = field(default_factory=dict)

    def _anchor_near(self, r: float, rtol: float):
        """Radius of an anchor within rtol * r of r, or None."""
        i = bisect.bisect_left(self._radii, r)
        for j in (i - 1, i):
            if 0 <= j < len(self._radii) and abs(self._radii[j] - r) <= rtol * r:
                return self._radii[j]
        return None

    def add_anchor(self, point) -> None:
        p = np.asarray(point, dtype=float)
        r = float(np.linalg.norm(p))
        if r == 0.0 or self._anchor_near(r, 1e-12) is not None:
            return
        bisect.insort(self._radii, r)
        self._points[r] = p

    @property
    def max_radius(self) -> float:
        if not self._radii:
            raise InputError(f"curve {self.label!r} has no anchors")
        return self._radii[-1]

    @property
    def min_anchor_radius(self) -> float:
        if not self._radii:
            raise InputError(f"curve {self.label!r} has no anchors")
        return self._radii[0]

    def tangent(self) -> HalfLine:
        p = self._points[self.min_anchor_radius]
        return HalfLine(p / np.linalg.norm(p))

    def point_at_radius(self, r: float) -> np.ndarray:
        r = float(r)
        if r < 0:
            raise DomainError("radius must be nonnegative")
        if r == 0.0:
            return np.zeros(self.ambient_dim)
        if r > self.max_radius * (1 + 1e-9):
            raise DomainError(
                f"curve {self.label!r}: radius {r} beyond the tracked range"
            )
        hit = self._anchor_near(r, 1e-9)
        if hit is not None:
            return self._points[hit].copy()
        q = self.refiner(r)
        if q is None:
            raise ResolutionError(f"curve {self.label!r}: refinement failed at radius {r}")
        p = np.asarray(q, dtype=float)
        self.add_anchor(p)
        return p.copy()

    def arc_length(self, r: float) -> float:
        """Length of the chord path from 0 through the points at the
        ``ladder`` radii below r to the radius-r point.

        Only ladder points are used, so the result does not depend on the
        anchors earlier queries added; at a ladder radius it needs no new
        solve.
        """
        r = float(r)
        below = sorted(t for t in self.ladder if t < r * (1 - 1e-9))
        path = [np.zeros(self.ambient_dim)] + [self.point_at_radius(t) for t in below]
        path.append(self.point_at_radius(r))
        return float(np.linalg.norm(np.diff(path, axis=0), axis=1).sum())


def reaches_origin(curve: SampledCurve, radius: float) -> bool:
    """Whether the branch can be continued down to the given radius."""
    try:
        curve.point_at_radius(float(radius))
        return True
    except (ResolutionError, DomainError):
        return False


def _angle(p) -> float:
    return math.atan2(float(p[1]), float(p[0]))


def _sectors_below_pi(branches, r: float) -> list:
    """(b1, b2) for each cyclically adjacent pair of plane branches whose
    counterclockwise opening from b1 to b2, seen at radius r, is below pi."""
    if len(branches) < 2:
        return []
    ordered = sorted(
        ((_angle(b.point_at_radius(r)), k) for k, b in enumerate(branches))
    )
    pairs = []
    for (a1, k1), (a2, k2) in zip(ordered, ordered[1:] + ordered[:1]):
        if (a2 - a1) % (2.0 * math.pi) < math.pi:
            pairs.append((branches[k1], branches[k2]))
    return pairs


def _bisector_point(b1, b2, r: float, others, theta_min: float, surfaces):
    """(q, NearestPointCluster): the point q = r (cos phi, sin phi, 0, ...)
    in the sector swept counterclockwise from b1 to b2, equidistant from
    both branches.

    The unknown is the angle of q from b1's radius-r point.  The distance gap
    to the local feet near each branch's radius-r parameter is negative at
    b1's point and positive at b2's, so ``brentq`` brackets it.  Raises
    ``TraceError`` when the gap does not change sign or the root leaves a
    residual above ``_BISECTOR_RESIDUAL``, when the feet are less than
    ``theta_min`` apart as seen from q (the two halves of a smooth curve,
    whose feet both collapse to 0), when a branch of ``others`` is nearer,
    and when a piece of ``surfaces`` covers q (q lies on the set);
    ``DomainError`` when a branch does not reach radius r.
    """
    s1, s2 = b1.param_at_radius(r), b2.param_at_radius(r)
    a1 = _angle(b1.eval(s1))
    span = (_angle(b2.eval(s2)) - a1) % (2.0 * math.pi)
    pad = [0.0] * (b1.ambient_dim - 2)

    def feet(phi):
        q = r * np.array([math.cos(a1 + phi), math.sin(a1 + phi)] + pad)
        return q, _project_branch(b1, q, s1, s1 + r), _project_branch(b2, q, s2, s2 + r)

    def gap(phi):
        _, f1, f2 = feet(phi)
        return f1[0] - f2[0]

    if not (gap(0.0) < 0.0 < gap(span)):
        raise TraceError(f"no equidistance bracket at radius {r}")
    phi, info = brentq(gap, 0.0, span, xtol=1e-15, full_output=True, disp=False)
    if not info.converged:
        raise TraceError(f"equidistance solve did not converge at radius {r}")
    q, (d1, fp1, fm1), (d2, fp2, fm2) = feet(phi)
    if abs(d1 - d2) > _BISECTOR_RESIDUAL:
        raise TraceError(f"equidistance residual {abs(d1 - d2):.3e} at radius {r}")
    ang = _max_pair_angle(q, [fp1, fp2])
    if ang < theta_min:
        raise TraceError(f"feet {ang:.3g} rad apart at radius {r}")
    dist = 0.5 * (d1 + d2)
    for b in others:
        sb = b.param_at_radius(r)
        if _project_branch(b, q, sb, sb + r)[0] < dist - _BISECTOR_RESIDUAL:
            raise TraceError(f"branch {b.label!r} is nearer at radius {r}")
    for piece in surfaces:
        if piece.covers(q):
            raise TraceError(f"piece {piece.label!r} is nearer at radius {r}")
    reps = (Foot(fp1, d1, b1.label, fm1), Foot(fp2, d2, b2.label, fm2))
    return q, NearestPointCluster(dist, reps, ang)


def _z_trace(set_: GermSet):
    """The z = 0 trace of a 3D germ: its curve pieces and the ``trace`` of
    each surface piece, identical branches merged into the longest; None
    unless the germ is symmetric under z -> -z.

    Every surface piece is symmetric; a curve piece is when it lies in z = 0.
    """
    if set_.ambient_dim != 3 or any(c[2] for b in set_.branches for _, c in b.terms):
        return None
    merged: dict = {}
    for b in set_.branches + tuple(p for s in set_.surfaces for p in s.trace()):
        key = tuple((e, tuple(c.tolist())) for e, c in b.terms)
        if key not in merged or b.t_max > merged[key].t_max:
            merged[key] = b
    return list(merged.values())


def medial_branch_germs(set_: GermSet, scales, theta_min: float = 0.2):
    """(MedialAxisSample, curves): the medial branches of a germ near 0, from
    exact per-radius bisector solves.

    Near 0 the medial axis of a plane germ of Puiseux branches is the union
    of the bisectors of the cyclically adjacent half-branch pairs whose
    sector, at the smallest scale, is narrower than pi.  A 3D germ symmetric
    under z -> -z is solved in z = 0 on its trace (``_z_trace``), which is
    exact there (see ``HornPiece.trace``), and a point a surface ``covers``
    is rejected; any other germ gives no curves and records the cause as
    its one failure.

    Each pair whose solve holds at the largest scale becomes a
    ``SampledCurve`` anchored at the solves on ``scales`` and refined by the
    same solve, so ``point_at_radius`` stays exact; the first failing
    smaller scale flags it ``("continuation_failed", t)``.  The sample holds
    every anchor with its two feet, the failed solves, and the smallest
    scale as its resolution.
    """
    scales = sorted((float(t) for t in scales), reverse=True)
    if not scales:
        raise InputError("no scales to trace")
    for b in set_.branches:
        if not isinstance(b, PuiseuxBranch):
            raise InputError(f"curve piece {b.label!r}: bisectors need a Puiseux branch")
    dim = set_.ambient_dim
    trace = set_.branches if dim == 2 else _z_trace(set_)
    if trace is None:
        cause = "not symmetric under z -> -z" if dim == 3 else f"no bisectors in dimension {dim}"
        return MedialAxisSample((), scales[-1], ((scales[0], cause),)), ()
    points, failures, curves = [], [], []
    for b1, b2 in _sectors_below_pi(trace, scales[-1]):
        others = tuple(b for b in trace if b is not b1 and b is not b2)

        def solve(r, b1=b1, b2=b2, others=others):
            return _bisector_point(b1, b2, r, others, theta_min, set_.surfaces)

        def refiner(r, solve=solve):
            try:
                return solve(r)[0]
            except (DomainError, TraceError):
                return None

        curve = SampledCurve(f"medial_{len(curves)}", dim, refiner)
        anchors = []
        for t in scales:
            try:
                anchors.append(solve(t))
            except (DomainError, TraceError) as exc:
                failures.append((t, str(exc)))
                if anchors:
                    curve.flags.append(("continuation_failed", t))
                break
        if anchors:
            for q, _ in anchors:
                curve.add_anchor(q)
            curve.ladder = tuple(scales[: len(anchors)])
            points += anchors
            curves.append(curve)
    return MedialAxisSample(tuple(points), scales[-1], tuple(failures)), tuple(curves)
