"""Link sections of a germ and the link-based LNE criterion.

A link section X_t is the intersection of the germ with the norm-sphere of
radius t: curve pieces contribute exact root-solved points, surface pieces
their per-ray section samplers.  Per-scale sections carry a graph that
joins neighbouring samples of each surface piece in sampling order, with
pieces meeting only at shared seam points, and places each curve point
lying on a surface piece between the section samples on either side of
it; its components stand in for the connected components of the
punctured germ at that scale.  The criterion combines a uniform bound on
the link inner/outer distance ratio C(t) per component with a linear
lower bound on the separation between distinct components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import connected_components, dijkstra

from .errors import DomainError, InputError
from .germs import GermSet, merge_coincident
# build_graph is no longer called here, but perfbench/tracer.py wraps
# links.build_graph by name, so the name stays importable from this module.
from .metrics import build_graph, edge_matrix  # noqa: F401
from .norms import EUCLID
from .tangency import MIN_SCALES, OrderEstimate, Verdict, estimate_order
# pair_verdict is no longer called here, but perfbench/tracer.py wraps
# links.pair_verdict by name, so the name stays importable from this module.
from .tangency import pair_verdict  # noqa: F401

#: trend thresholds for the log-log fit of C(t): flat within BOUNDED_SLOPE is
#: a bounded constant, steeper negative than DIVERGING_SLOPE is growth as
#: t -> 0, anything between stays undecided.
BOUNDED_SLOPE = 0.1
DIVERGING_SLOPE = -0.2
#: separation d_0(X_t) >= K t passes when the fitted order of d_0(X_t)/t is
#: flat and the worst constant stays above K_MIN.
SEPARATION_SLOPE = 0.2
K_MIN = 0.05
#: every section point must meet | ||x||_norm - t | <= BAND * t; the samplers
#: root-solve onto the sphere, so only a faulty sampler can leave the band.
BAND = 0.02
#: points within COINCIDENT_TOL * t are one point: seam samples merge, and a
#: curve point that close to a surface piece's local foot lies on the piece.
COINCIDENT_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class LinkSample:
    """One link section with its sample-adjacency graph.

    ``graph`` is the sparse adjacency matrix (weight = Euclidean edge
    length) joining each surface sample to its neighbours on the same piece
    in sampling order; curve points, one per branch, have edges only where
    they lie on a surface piece.
    ``component_of`` assigns each point a component id; an empty section is
    a valid value (the set misses that scale), flagged rather than raised.
    """

    scale: float
    norm: object
    points: np.ndarray
    labels: tuple
    params: tuple
    graph: object  # scipy CSR matrix, None for an empty section
    component_of: np.ndarray
    component_count: int
    empty: bool

    def component_indices(self, c: int) -> np.ndarray:
        return np.flatnonzero(self.component_of == c)


def _on_piece_edges(piece, curve_pts, spts, sparams, sedges, t, base) -> list:
    """Edges placing each curve point (index c in ``curve_pts``) that lies on
    ``piece`` between its section samples (index base + j) on either side.

    A point lies on the piece when ``piece.project``, seeded at the nearest
    section sample, returns a distance <= COINCIDENT_TOL * t; it joins both
    ends of the nearest section edge (the nearest sample alone on a section
    without edges).
    """
    out: list = []
    if not spts:
        return out
    spts = np.asarray(spts, dtype=float)
    e = np.array(sedges, dtype=int).reshape(-1, 2)
    a, d = spts[e[:, 0]], spts[e[:, 1]] - spts[e[:, 0]]
    for c, x in enumerate(curve_pts):
        near = int(np.argmin(np.linalg.norm(spts - x, axis=1)))
        if piece.project(x, sparams[near])[0] > COINCIDENT_TOL * t:
            continue
        ends = (near,)
        if len(e):
            s = np.clip(np.sum((x - a) * d, axis=1) / np.sum(d * d, axis=1), 0.0, 1.0)
            ends = e[np.argmin(np.linalg.norm(a + s[:, None] * d - x, axis=1))]
        out.extend((c, base + int(j)) for j in ends)
    return out


def link_section(set_: GermSet, t: float, norm=EUCLID, density: int = 32) -> LinkSample:
    """Points of {x in X : ||x||_norm = t} with their component graph.

    Curve pieces are solved exactly on the monotone initial range of the
    norm along the piece; pieces too short to reach the sphere contribute
    nothing.  All emitted points satisfy the band constraint
    | ||x||_norm - t | <= BAND * t by construction.

    The graph follows sample adjacency, not a radius: consecutive theta
    rays on a horn (a closed cycle when no ray is skipped) and consecutive
    u samples on a wall.  Pieces connect only through the seam points that
    ``merge_coincident`` shares between them.  A radius would have to stay
    below the section's own feature size (a horn circle of diameter
    3t^2/4 at scale t), which no fixed multiple of t/density does.  A
    curve point lying on a surface piece joins that piece's section graph
    (``_on_piece_edges``); one that coincides with a sample merges with it.
    """
    if t <= 0:
        raise InputError("link scale must be positive")
    pts_list, labels, params, edges = [], [], [], []
    for piece in set_.branches:
        try:
            s = piece.param_at_radius(t, norm)
        except DomainError:
            continue
        pts_list.append(np.asarray(piece.eval(s), dtype=float))
        labels.append({piece.label})
        params.append({piece.label: s})
    curve_pts = list(pts_list)
    for piece in set_.surfaces:
        spts, sparams, sedges = piece.section(t, norm=norm, density=density)
        base = len(pts_list)
        edges.extend((base + i, base + j) for i, j in sedges)
        edges.extend(_on_piece_edges(piece, curve_pts, spts, sparams, sedges, t, base))
        for p, prm in zip(spts, sparams):
            pts_list.append(np.asarray(p, dtype=float))
            labels.append({piece.label})
            params.append({piece.label: prm})
    if not pts_list:
        return LinkSample(
            scale=t,
            norm=norm,
            points=np.zeros((0, set_.ambient_dim)),
            labels=(),
            params=(),
            graph=None,
            component_of=np.zeros(0, dtype=int),
            component_count=0,
            empty=True,
        )
    pts, mlabels, mparams, remap = merge_coincident(
        np.array(pts_list), labels, params, tol=COINCIDENT_TOL * t
    )
    values = np.asarray(norm(pts), dtype=float)
    if np.any(np.abs(values - t) > BAND * t):
        raise InputError(
            f"link section at t={t}: point outside the sphere band"
        )
    pairs = np.sort(remap[np.array(edges, dtype=int).reshape(-1, 2)], axis=1)
    pairs = np.unique(pairs[pairs[:, 0] != pairs[:, 1]], axis=0)
    graph = edge_matrix(pts, pairs)
    ncomp, comp = connected_components(graph, directed=False)
    return LinkSample(
        scale=t,
        norm=norm,
        points=pts,
        labels=mlabels,
        params=mparams,
        graph=graph,
        component_of=comp,
        component_count=ncomp,
        empty=False,
    )


def _link_ratio(sample: LinkSample) -> float:
    """C(t): max over same-component pairs of inner/Euclidean distance.

    Sections whose components are all singletons have no pairs and are
    bounded trivially with C = 1.
    """
    if sample.graph is None:
        return 1.0
    best = 1.0
    pts = sample.points
    for c in range(sample.component_count):
        idx = sample.component_indices(c)
        if len(idx) < 2:
            continue
        inner = dijkstra(sample.graph, directed=False, indices=idx)
        inner = inner[:, idx]
        outer = np.linalg.norm(pts[idx][:, None, :] - pts[idx][None, :, :], axis=2)
        mask = outer > 0
        if np.any(mask):
            best = max(best, float(np.max(inner[mask] / outer[mask])))
    return best


def _component_separation(sample: LinkSample) -> float:
    """d_0(X_t): min Euclidean distance between distinct components.

    +inf for a connected (or empty/singleton) section.
    """
    if sample.component_count <= 1:
        return math.inf
    pts = sample.points
    comp = sample.component_of
    best = math.inf
    for c in range(sample.component_count):
        a = pts[comp == c]
        b = pts[comp > c]
        if len(a) == 0 or len(b) == 0:
            continue
        d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
        best = min(best, float(np.min(d)))
    return best


@dataclass(frozen=True)
class LLNEReport:
    """Per-scale link ratios and separations with the fitted trend."""

    norm_name: str
    scales: tuple
    c_values: tuple
    component_counts: tuple
    separations: tuple
    empty_scales: tuple
    trend: str  # BOUNDED | DIVERGING | UNDECIDED
    c_fit: OrderEstimate | None
    k_est: float

    def per_scale(self) -> list:
        return [
            {
                "t": t,
                "component_count": n,
                "C_t": c,
                "min_separation": (None if math.isinf(s) else s),
            }
            for t, n, c, s in zip(
                self.scales, self.component_counts, self.c_values, self.separations
            )
        ]

    def to_dict(self) -> dict:
        return {
            "norm": self.norm_name,
            "per_scale": self.per_scale(),
            "empty_scales": list(self.empty_scales),
            "trend": self.trend,
            "c_fit": self.c_fit.to_dict() if self.c_fit else None,
            "k_est": (None if math.isinf(self.k_est) else self.k_est),
        }


def llne_test(set_: GermSet, scales, norm=EUCLID, density: int = 32) -> LLNEReport:
    """Fit the trend of C(t) over a geometric scale grid.

    A flat fit (|slope| <= 0.1) means the ratios stay bounded; a slope
    steeper than -0.2 means C grows as t -> 0; anything in between, or a
    scale grid broken by empty sections, is undecided.
    """
    scales = [float(t) for t in scales]
    if len(scales) < MIN_SCALES:
        raise InputError(f"need at least {MIN_SCALES} scales, got {len(scales)}")
    samples = [link_section(set_, t, norm, density) for t in scales]
    if all(s.empty for s in samples):
        raise InputError("all link sections are empty")
    empty = tuple(t for t, s in zip(scales, samples) if s.empty)
    kept = [(t, s) for t, s in zip(scales, samples) if not s.empty]
    c_values = tuple(_link_ratio(s) for _, s in kept)
    counts = tuple(s.component_count for _, s in kept)
    seps = tuple(_component_separation(s) for _, s in kept)
    k_est = min((s / t for (t, _), s in zip(kept, seps)), default=math.inf)
    c_fit = None
    trend = "UNDECIDED"
    if not empty:
        c_fit = estimate_order(list(zip(scales, c_values)))
        if abs(c_fit.slope) <= BOUNDED_SLOPE:
            trend = "BOUNDED"
        elif c_fit.slope <= DIVERGING_SLOPE:
            trend = "DIVERGING"
    return LLNEReport(
        norm_name=getattr(norm, "name", "euclid"),
        scales=tuple(t for t, _ in kept),
        c_values=c_values,
        component_counts=counts,
        separations=seps,
        empty_scales=empty,
        trend=trend,
        c_fit=c_fit,
        k_est=float(k_est),
    )


@dataclass(frozen=True)
class LinkCriterionResult:
    verdict: Verdict
    report: LLNEReport
    separation_fit: OrderEstimate | None
    notes: tuple

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "report": self.report.to_dict(),
            "separation_fit": (
                self.separation_fit.to_dict() if self.separation_fit else None
            ),
            "notes": list(self.notes),
        }


def link_criterion_verdict(
    set_: GermSet, scales, density: int = 32, norm=EUCLID
) -> LinkCriterionResult:
    """LNE iff every link component stays LNE with a uniform constant and
    distinct components separate at least linearly in the scale.

    Failures: a diverging ratio trend, or a component separation whose
    fitted order in t exceeds linear (d_0(X_t)/t -> 0).  An unstable
    component count across the scale range leaves the criterion undecided.
    """
    report = llne_test(set_, scales, norm, density)
    notes: list = []
    if report.empty_scales:
        notes.append(
            f"empty link sections at scales {list(report.empty_scales)}"
        )
        return LinkCriterionResult(Verdict.UNDECIDED, report, None, tuple(notes))
    if len(set(report.component_counts)) != 1:
        notes.append(
            f"component count unstable across scales: {list(report.component_counts)}"
        )
        return LinkCriterionResult(Verdict.UNDECIDED, report, None, tuple(notes))

    failures = 0
    undecided = 0
    if report.trend == "DIVERGING":
        failures += 1
        notes.append(
            f"link ratio C(t) diverges (fitted slope {report.c_fit.slope:.3f})"
        )
    elif report.trend != "BOUNDED":
        undecided += 1
        notes.append("link ratio trend undecided")

    sep_fit = None
    if report.component_counts[0] > 1:
        ratios = [s / t for t, s in zip(report.scales, report.separations)]
        sep_fit = estimate_order(list(zip(report.scales, ratios)))
        if sep_fit.slope >= SEPARATION_SLOPE:
            failures += 1
            notes.append(
                "component separation decays: d0(X_t)/t has fitted order "
                f"{sep_fit.slope:.3f}"
            )
        elif abs(sep_fit.slope) <= BOUNDED_SLOPE and report.k_est >= K_MIN:
            notes.append(f"separation constant K_est = {report.k_est:.4f}")
        else:
            undecided += 1
            notes.append(
                f"separation inconclusive (order {sep_fit.slope:.3f}, "
                f"K_est {report.k_est:.4f})"
            )

    if failures:
        verdict = Verdict.NOT_LNE
    elif undecided:
        verdict = Verdict.UNDECIDED
    else:
        verdict = Verdict.LNE
    return LinkCriterionResult(verdict, report, sep_fit, tuple(notes))
