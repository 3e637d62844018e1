"""Nearest-point sets, medial-axis extraction, and medial-branch recovery.

The discrete pipeline has three layers:

* ``FootFinder`` turns the cloud sample of a germ into polished local
  nearest points ("feet"): cloud candidates are grouped by direction from
  the query, then each group is refined against the exact parametrization
  of its piece (Newton on the foot-point equation for Puiseux branches,
  bounded 1D minimization for procedural surfaces).
* ``refine_equidistant`` moves a point onto the equidistance locus of its
  nearest feet by repeatedly equalizing the worst pair of foot distances
  along the difference of their directions (a monotone 1D root solve).
* Grid extraction screens nodes with a vectorized distance/angular-spread
  prefilter and polishes the survivors; branch tracking clusters the
  accepted points per radius level and follows clusters toward 0, handing
  each branch to a ``SampledCurve`` whose ``point_at_radius`` continues the
  branch to arbitrarily small radii by predict-refine-rescale steps.

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

from .errors import (
    DomainError,
    InputError,
    OnSetError,
    ResolutionError,
    TraceError,
)
from .germs import GermSet, HalfLine, PuiseuxBranch, sample_cloud
from .metrics import cluster_labels
from .optimize import golden_min

_SQRT2 = math.sqrt(2.0)
# candidate directions more than the default theta_min apart seed new groups
_COS_FOOT_SPLIT = math.cos(0.2)
# BLAS roundings of one cosine differ by a few ulp; decisions this close to
# the split or to a tie are recomputed exactly
_COS_MARGIN = 1e-12
# passes per refine; accepted refines on the plane builtins use at most 3
_REFINE_PASSES = 16
# spacing 2.2 r / 64 passes the spacing <= dmin / 2 guard for dmin >= 0.07 r
_NEAREST_DENSITY = 64
# traced bisector residuals on the builtin pairs stay below 1e-15 * t
_BISECTOR_RESIDUAL = 1e-10


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

    def polish(self, label: str, seed_param, x, pinned: bool = False):
        """(dist, point, param) of the local foot on one piece near a seed:
        surfaces project themselves, Puiseux branches go to ``_project_branch``.

        ``pinned`` keeps surface projections on the seeded side of the piece
        even where that side's foot degenerates (continuous extension for
        equidistance root solves).
        """
        piece = self._pieces[label]
        if hasattr(piece, "project"):
            return piece.project(x, seed_param, window=8.0 * self.spacing, pinned=pinned)
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
            for lab in sorted(self.cloud.labels[i]):
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
        for d, lab, i in tasks:
            if d - 0.5 * self.spacing > best + slack:
                break
            dist, point, prm = self.polish(lab, self.cloud.params[i][lab], x)
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


def nearest_point_set(
    x,
    set_: GermSet,
    tau: float = 1e-3,
    theta_min: float = 0.2,
    finder: FootFinder | None = None,
) -> NearestPointCluster:
    """Discrete m(x): polished nearest points within the (1+tau) band,
    merged spatially, with the angular gate collapsing one-sided curvature
    artifacts to a single cluster."""
    x = np.asarray(x, dtype=float)
    r = float(np.linalg.norm(x))
    if finder is None:
        if r == 0.0:
            raise OnSetError("query is the origin of the germ")
        finder = FootFinder(set_, 2.2 * r, _NEAREST_DENSITY)
    feet = finder.feet(x)
    if not feet:
        raise InputError("no candidate feet found; cloud may be degenerate")
    dmin = feet[0].dist
    if dmin <= max(1e-6 * finder.cloud.scale, 1e-12):
        raise OnSetError(f"query lies on the set (distance {dmin:.3e})")
    if finder.spacing > 0.5 * dmin:
        raise ResolutionError(
            "cloud spacing exceeds half the query distance; increase density"
        )
    cluster = _cluster(x, feet, dmin, finder.spacing, tau)
    if cluster.cluster_count >= 2 and cluster.max_pair_angle < theta_min:
        return NearestPointCluster(dmin, cluster.representatives[:1], 0.0)
    return cluster


# ---------------------------------------------------------------------------
# Equidistance refinement
# ---------------------------------------------------------------------------


def _recover_opposing(p, finder, tangent, s_max):
    """Walk tangentially away from a lone foot until the nearest-foot
    direction flips, then bisect onto the flip.

    Near a thin medial sheet the basin where both feet are simultaneously
    visible can be far narrower than the prediction error of a continuation
    step (or than machine epsilon), but the flip of the nearest-foot
    direction still locates the sheet.  Returns (point, near-side Foot,
    far-side Foot) with the feet re-polished at the flip point, or None.
    """
    feet = finder.feet(p)
    if not feet:
        return None
    f_near = feet[0]
    u0 = (p - f_near.point) / f_near.dist
    w = u0 - float(np.dot(u0, tangent)) * np.asarray(tangent, dtype=float)
    nw = float(np.linalg.norm(w))
    if nw < 1e-9:
        return None
    w = w / nw
    radius = float(np.linalg.norm(p))
    f_far = None

    def at(s):
        q = p + s * w
        return q * (radius / float(np.linalg.norm(q)))

    def flipped(s):
        nonlocal f_near, f_far
        ft = finder.feet(at(s))
        if not ft:
            return None
        u = (at(s) - ft[0].point) / ft[0].dist
        if float(np.dot(u, u0)) < 0.0:
            f_far = ft[0]
            return True
        f_near = ft[0]
        return False

    lo, hi = 0.0, None
    for s in (s_max / 8.0, s_max / 4.0, s_max / 2.0, s_max):
        fl = flipped(s)
        if fl is None:
            return None
        if fl:
            hi = s
            break
        lo = s
    if hi is None:
        return None
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fl = flipped(mid)
        if fl is None:
            return None
        if fl:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-16 * (radius + 1.0):
            break
    q = at(0.5 * (lo + hi))
    pair = []
    for f in (f_near, f_far):
        d, pt, prm = finder.polish(f.label, f.param, q, pinned=True)
        pair.append(Foot(point=pt, dist=d, label=f.label, param=prm))
    return q, pair[0], pair[1]


def refine_equidistant(
    x,
    finder: FootFinder,
    det_slack: float | None = None,
    tau: float = 1e-3,
    theta_min: float = 0.2,
    tangent=None,
):
    """Polish x onto the medial locus of its nearest feet.

    ``det_slack`` is the absolute distance band selecting competing feet
    (grid detection); None selects relatively (0.35 * d_min, continuation).
    With ``tangent`` given, motion is restricted to its orthogonal
    complement.  Each pass equalizes the nearest opposing foot pair (the
    nearest foot against the nearest foot at an admissible angle from it)
    by a monotone 1D root solve along the difference of the two foot
    directions.  Returns
    (point, NearestPointCluster) or None if no valid medial point emerges.
    """
    p = np.asarray(x, dtype=float).copy()
    band = det_slack
    recovered = False
    for _ in range(_REFINE_PASSES):
        feet = finder.feet(p, slack=None if band is None else band + finder.spacing)
        if not feet:
            return None
        dmin = feet[0].dist
        if dmin <= 1e-12:
            return None
        b = band if band is not None else 0.35 * dmin
        # equalize the nearest opposing pair: the nearest foot against the
        # nearest foot at an admissible angle from it.  Chasing the worst
        # pair instead stalls when a continuum arc of feet sits in the band
        # (a near-circular cross-section), as it drags p toward far feet.
        f_lo = feet[0]
        u_lo = (p - f_lo.point) / f_lo.dist
        f_hi = None
        for f in feet[1:]:
            if f.dist > dmin + b:
                break
            u = (p - f.point) / f.dist
            c = min(1.0, max(-1.0, float(np.dot(u_lo, u))))
            if math.acos(c) >= theta_min:
                f_hi = f
                break
        if f_hi is None:
            if tangent is None or recovered:
                return None
            rec = _recover_opposing(p, finder, tangent, s_max=dmin)
            if rec is None:
                return None
            p, f_a, f_b = rec
            recovered = True
            dm = min(f_a.dist, f_b.dist)
            ang = _max_pair_angle(p, [f_a.point, f_b.point])
            if (
                dm > 1e-12
                and ang >= theta_min
                and abs(f_a.dist - f_b.dist) <= max(0.5 * tau * dm, 1e-13)
            ):
                return p, NearestPointCluster(dm, (f_a, f_b), ang)
            continue
        spread = f_hi.dist - dmin
        if spread <= max(0.5 * tau * dmin, 1e-13):
            cluster = _cluster(p, feet, dmin, finder.spacing, tau)
            if cluster.cluster_count < 2 or cluster.max_pair_angle < theta_min:
                return None
            return p, cluster
        e = u_lo - (p - f_hi.point) / f_hi.dist
        if tangent is not None:
            e = e - float(np.dot(e, tangent)) * np.asarray(tangent, dtype=float)
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
        lim = 4.0 * (b + spread) + 4.0 * finder.spacing
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
        if band is not None:
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
    k = min(len(finder.cloud.points), 48)
    cos_gate = math.cos(0.6 * theta_min)
    cand_blocks = []
    for start in range(0, len(nodes), 32768):
        chunk = nodes[start : start + 32768]
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
    if not cand_blocks:
        return MedialAxisSample((), h)
    # refinement dominates the cost; thin more aggressively in 3D where
    # medial sheets produce thick candidate slabs
    thin_radius = 1.5 * h if set_.ambient_dim == 2 else 2.2 * h
    cands = _thin(np.concatenate(cand_blocks), thin_radius)
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
# Exact 2D bisector tracing
# ---------------------------------------------------------------------------


def trace_bisector_2d(
    b1: PuiseuxBranch,
    b2: PuiseuxBranch,
    scales,
) -> MedialAxisSample:
    """Equidistant points between two plane branches, one per scale.

    Each point solves d(p, b1) = d(p, b2) on the segment between the
    distance-parametrized branch points; failures are recorded per scale
    and the trace continues.
    """
    if b1.ambient_dim != 2 or b2.ambient_dim != 2:
        raise InputError("bisector tracing is 2D only")
    scales = [float(t) for t in scales]
    if not scales:
        raise InputError("no scales to trace")
    points = []
    failures = []
    for t in scales:
        try:
            s1 = b1.param_at_radius(t)
            s2 = b2.param_at_radius(t)
            p1 = b1.eval(s1)
            p2 = b2.eval(s2)
            seg = p1 - p2
            length = float(np.linalg.norm(seg))
            if length < 1e-13 * t:
                raise TraceError(f"branch points coincide at scale {t}")
            e = seg / length
            mid = 0.5 * (p1 + p2)
            w1 = s1 + t
            w2 = s2 + t

            def gap(alpha):
                q = mid + alpha * e
                return (
                    _project_branch(b1, q, s1, w1)[0]
                    - _project_branch(b2, q, s2, w2)[0]
                )

            lo, hi = -0.75 * length, 0.75 * length
            if gap(lo) * gap(hi) > 0:
                lo, hi = -1.5 * length, 1.5 * length
                if gap(lo) * gap(hi) > 0:
                    raise TraceError(f"no equidistance bracket at scale {t}")
            alpha = brentq(gap, lo, hi, xtol=1e-15 * max(t, 1e-9))
            q = mid + alpha * e
            d1, fp1, fm1 = _project_branch(b1, q, s1, w1)
            d2, fp2, fm2 = _project_branch(b2, q, s2, w2)
            if abs(d1 - d2) > _BISECTOR_RESIDUAL:
                raise TraceError(
                    f"equidistance residual {abs(d1 - d2):.3e} at scale {t}"
                )
            reps = (
                Foot(fp1, d1, b1.label, fm1),
                Foot(fp2, d2, b2.label, fm2),
            )
            ang = _max_pair_angle(q, [fp1, fp2])
            points.append(
                (q, NearestPointCluster(0.5 * (d1 + d2), reps, ang))
            )
        except TraceError as exc:
            failures.append((t, str(exc)))
    return MedialAxisSample(tuple(points), min(scales), tuple(failures))


# ---------------------------------------------------------------------------
# Branch tracking and continuation
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class SampledCurve:
    """Distance-parametrized curve known through refined anchor points.

    ``point_at_radius`` walks geometrically from the nearest anchor to the
    requested radius: predict by per-component power laws fitted to the two
    nearest anchors, hand the prediction to the refiner, rescale onto the
    target sphere, and cache the result as a new anchor.  With no refiner
    the prediction itself is used (pure extrapolation).
    """

    label: str
    ambient_dim: int
    refiner: object = None  # callable(radius, seed point) -> point | None
    flags: list = field(default_factory=list)
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

    def _nearest_two(self, r: float):
        i = bisect.bisect_left(self._radii, r)
        pool = sorted(
            (abs(math.log(rr / r)), rr)
            for rr in self._radii[max(0, i - 2) : i + 2]
        )
        return [rr for _, rr in pool[:2]]

    def _predict(self, r: float) -> np.ndarray:
        near = self._nearest_two(r)
        ra = near[0]
        pa = self._points[ra]
        if len(near) == 1:
            pred = pa * (r / ra)
        else:
            # per-coordinate power laws through the two nearest anchors;
            # coordinates that vanish or change sign fall back to linear
            rb = near[1]
            pb = self._points[rb]
            pred = np.zeros(self.ambient_dim)
            for j in range(self.ambient_dim):
                if (
                    abs(pa[j]) > 1e-13 * ra
                    and abs(pb[j]) > 1e-13 * rb
                    and pa[j] * pb[j] > 0
                ):
                    kappa = math.log(pa[j] / pb[j]) / math.log(ra / rb)
                    kappa = min(max(kappa, 0.5), 6.0)
                    pred[j] = pa[j] * (r / ra) ** kappa
                else:
                    pred[j] = pa[j] * (r / ra)
        n = float(np.linalg.norm(pred))
        return pred * (r / n) if n > 0 else pred

    def _cached(self, r: float):
        rr = self._anchor_near(r, 1e-9)
        return None if rr is None else self._points[rr].copy()

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
        hit = self._cached(r)
        if hit is not None:
            return hit
        r0 = min(self._radii, key=lambda rr: abs(math.log(rr / r)))
        n_steps = max(1, int(math.ceil(abs(math.log(r / r0)) / math.log(1.6))))
        targets = np.geomspace(r0, r, n_steps + 1)[1:]
        p = self._points[r0]
        for rt in targets:
            rt = float(rt)
            hit = self._cached(rt)
            if hit is not None:
                p = hit
                continue
            seed = self._predict(rt)
            if self.refiner is None:
                p = seed
            else:
                q = self.refiner(rt, seed)
                if q is None:
                    raise ResolutionError(
                        f"curve {self.label!r}: refinement failed at radius {rt}"
                    )
                p = np.asarray(q, dtype=float)
            self.add_anchor(p)
        return p.copy()


def _make_refiner(set_: GermSet, tau: float, theta_min: float, density: int):
    """Radius-indexed equidistance refiner over cached per-scale finders."""
    finders: dict = {}
    log_step = math.log(_SQRT2)

    def finder_for(radius: float) -> FootFinder:
        k = math.floor(math.log(radius) / log_step + 1e-9)
        f = finders.get(k)
        if f is None:
            f = FootFinder(set_, 1.45 * _SQRT2**k, density)
            finders[k] = f
        return f

    def refiner(radius: float, seed):
        f = finder_for(radius)
        p = np.asarray(seed, dtype=float)
        for _ in range(4):
            n = float(np.linalg.norm(p))
            if n == 0.0:
                return None
            p = p * (radius / n)
            res = refine_equidistant(
                p, f, det_slack=None, tau=tau, theta_min=theta_min,
                tangent=p / radius,
            )
            if res is None:
                return None
            p = res[0]
            if abs(float(np.linalg.norm(p)) - radius) <= 1e-9 * radius:
                return p
        n = float(np.linalg.norm(p))
        if abs(n - radius) <= 1e-6 * radius:
            return p * (radius / n)
        return None

    return refiner


def medial_branch_germs(
    axis: MedialAxisSample,
    scales,
    set_: GermSet | None = None,
    tau: float = 1e-3,
    theta_min: float = 0.2,
    density: int = 24,
):
    """Track axis points into branch curves reaching 0.

    Axis points are binned into geometric radius levels, clustered per
    level, and clusters are matched level-to-level against branch
    predictions (3h gate).  Ambiguous matches are flagged as merges, never
    silently resolved.  With ``set_`` given, each branch is validated by
    continuing it down to the smallest requested scale; continuation
    failures are flagged on the curve.
    """
    if not axis.points:
        raise InputError("medial axis sample is empty")
    scales = [float(t) for t in scales]
    pts = np.array([np.asarray(p, dtype=float) for p, _ in axis.points])
    radii = np.linalg.norm(pts, axis=1)
    h = axis.resolution
    rmax = float(radii.max())
    r_lo = max(float(radii.min()), 4.0 * h)
    step = 2.0**0.25
    levels = []
    t = rmax * 0.95
    while t >= r_lo * 0.99:
        levels.append(t)
        t /= step
    link_thresh = max(3.2 * h, 1e-12)
    gate = 3.0 * h
    tracks: list = []  # [curve, alive, misses]; label and refiner come last
    for t in levels:
        m = (radii >= t * 2.0**-0.125) & (radii < t * 2.0**0.125)
        if not m.any():
            continue
        level_pts = pts[m]
        reps = []
        groups = cluster_labels(level_pts, link_thresh)
        for g in range(groups.max() + 1):
            members = level_pts[groups == g]
            center = members.mean(axis=0)
            reps.append(members[np.argmin(np.linalg.norm(members - center, axis=1))])
        alive = [tr for tr in tracks if tr[1]]
        cands = []
        for bi, (curve, _, _) in enumerate(alive):
            if len(curve._radii) >= 2:
                # t lies below every anchor by at least 2^(1/8), so the
                # prediction uses the two most recent anchors
                pred = curve._predict(t)
                b_gate = max(gate, 0.06 * t)
            else:
                # linear scaling of a single anchor misses curvature by
                # O(t^2); allow a wider gate for the second match
                r_last = curve.min_anchor_radius
                pred = curve._points[r_last] * (t / r_last)
                b_gate = max(gate, 0.15 * t)
            for ci, rep in enumerate(reps):
                d = float(np.linalg.norm(pred - rep))
                if d <= b_gate:
                    cands.append((d, bi, ci))
        cands.sort(key=lambda c: (c[0], c[1], c[2]))
        taken_b: set = set()
        taken_c: set = set()
        had_candidate: set = set()
        for d, bi, ci in cands:
            had_candidate.add(bi)
            if bi in taken_b or ci in taken_c:
                continue
            taken_b.add(bi)
            taken_c.add(ci)
            alive[bi][0].add_anchor(reps[ci])
            alive[bi][2] = 0
        for bi, tr in enumerate(alive):
            if bi in taken_b:
                continue
            if bi in had_candidate:
                tr[0].flags.append(("merge", t))
                tr[1] = False
            else:
                tr[2] += 1
                if tr[2] >= 2:
                    tr[1] = False
        for ci, rep in enumerate(reps):
            if ci not in taken_c:
                curve = SampledCurve(label="", ambient_dim=pts.shape[1])
                curve.add_anchor(rep)
                tracks.append([curve, True, 0])
    refiner = (
        _make_refiner(set_, tau, theta_min, density) if set_ is not None else None
    )
    curves = [tr[0] for tr in tracks if len(tr[0]._radii) >= 3]
    for idx, curve in enumerate(curves):
        curve.label = f"medial_{idx}"
        curve.refiner = refiner
        if refiner is not None:
            try:
                for t in sorted(scales, reverse=True):
                    if t <= curve.max_radius:
                        curve.point_at_radius(t)
            except ResolutionError:
                curve.flags.append(("continuation_failed", t))
    return curves


def reaches_origin(curve: SampledCurve, radius: float) -> bool:
    """Whether the branch can be continued down to the given radius."""
    try:
        curve.point_at_radius(float(radius))
        return True
    except (ResolutionError, DomainError):
        return False
