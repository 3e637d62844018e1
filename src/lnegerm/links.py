"""Link sections of a germ and the link-based LNE criterion.

A link section X_t is the intersection of the germ with the norm-sphere of
radius t: curve pieces contribute exact root-solved points, surface pieces
one root-solved point per ray.  Per-scale sections carry a graph that
joins neighbouring samples of each surface piece in sampling order, with
pieces meeting only at points closer than COINCIDENT_TOL * t, merged into
one, and places each curve point lying on a surface piece between the
section samples on either side of it; its components stand in for the
connected components of the punctured germ at that scale.  Each section
measures its pairwise distances once, in one matrix that serves the merge,
the link ratio and the component gap: on Python floats for a germ of
curves alone, whose sections hold a handful of points and no edges, and
with whole-array numpy calls for a germ with surface pieces, whose
sections come from one lane pass as arrays.  The criterion combines a uniform
bound on the link inner/outer distance ratio C(t) per component with a
linear lower bound on the separation between distinct components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError
from .germs import GermSet, PuiseuxBranch, RadiusTable, check_scale_ladder
# build_graph is no longer called here, but perfbench/tracer.py wraps
# links.build_graph by name, so the name stays importable from this module.
from .metrics import build_graph, components, edge_matrix  # noqa: F401
from .metrics import linkage_labels, pairwise_sq_distances
from .norms import EUCLID, WeightedMaxNorm
from .tangency import OrderEstimate, Verdict, estimate_order
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
    they lie on a surface piece.  A section without edges (every curve
    germ's) has ``graph`` None.
    ``distances[i, j]`` is the Euclidean distance between points i and j,
    the square root of the section's one matrix of squared distances
    (``pairwise_sq_distances``), symmetric bitwise.
    ``component_of`` assigns each point a component id; an empty section is
    a valid value (the set misses that scale), flagged rather than raised.
    """

    scale: float
    points: np.ndarray
    labels: tuple
    graph: object  # scipy CSR matrix, None for a section without edges
    component_of: np.ndarray
    component_count: int
    empty: bool
    distances: np.ndarray


def _on_piece_edges(piece, curve_pts, spts, sparams, sedges, t, base) -> list:
    """Edges placing each curve point (row c of ``curve_pts``) that lies on
    ``piece`` between its section samples (index base + j) on either side.

    A point lies on the piece when ``piece.project``, seeded at the nearest
    section sample, returns a distance <= COINCIDENT_TOL * t; it joins both
    ends of the nearest section edge (the nearest sample alone on a section
    without edges).
    """
    out: list = []
    if not (len(spts) and len(curve_pts)):
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


def _empty_section(set_: GermSet, t: float) -> LinkSample:
    """The section of a germ that misses the sphere of radius t."""
    return LinkSample(
        scale=t,
        points=np.zeros((0, set_.ambient_dim)),
        labels=(),
        graph=None,
        component_of=np.zeros(0, dtype=int),
        component_count=0,
        empty=True,
        distances=np.zeros((0, 0)),
    )


def link_section(
    set_: GermSet, t: float, norm=EUCLID, density: int = 32, table: RadiusTable | None = None
) -> LinkSample:
    """Points of {x in X : ||x||_norm = t} with their component graph.

    Curve pieces are solved exactly on the monotone initial range of the
    norm along the piece; pieces too short to reach the sphere contribute
    nothing.  Each curve piece's parameter and each surface piece's
    section come from ``table``, the analysis's one ``RadiusTable``, so a
    (branch, radius, norm) that another stage has solved is not solved
    again, and a germ's surface pieces have their sections on every ladder
    radius solved together on the first ask; a caller without one gets a
    fresh table.  All emitted points satisfy the band constraint
    | ||x||_norm - t | <= BAND * t by construction.  A max norm needs one
    weight per ambient coordinate of the germ; here, where the two meet,
    any other count is an ``InputError`` naming both.  Curve pieces must
    be Puiseux branches, whose radius parameters the table solves; any
    other curve piece is an ``InputError`` naming it.

    The graph follows sample adjacency, not a radius: consecutive theta
    rays on a horn (a closed cycle when no ray is skipped) and consecutive
    u samples on a wall.  Pieces connect only through points closer than
    COINCIDENT_TOL * t, which merge into one point carrying both pieces'
    labels (single linkage, each group kept at its lowest index, as
    ``germs.merge_coincident`` keeps it).  A radius would have to stay
    below the section's own feature size (a horn circle of diameter
    3t^2/4 at scale t), which no fixed multiple of t/density does.  A
    curve point lying on a surface piece joins that piece's section graph
    (``_on_piece_edges``); one that coincides with a sample merges with it.

    The section's pairwise squared distances are computed once: the merge
    reads them, and the kept points' distances go with the sample for
    ``_link_ratio`` and ``_component_separation``.  Which path builds them
    depends only on whether the germ has surface pieces:

    - A germ of curves alone has one point per branch that reaches the
      sphere, a handful, and no edges, so numpy's per-call cost would be
      most of the work.  Its section is built on Python floats
      (``_curve_section``), with the bits of the array path, and its arrays
      once, at the end.
    - A germ with surface pieces (curves lying on them included) has tens
      to hundreds of points per radius.  Its section is assembled from the
      arrays the table hands back per piece (``surfaces._sphere_sections``)
      with whole-array numpy calls (``_surface_section``).
    """
    if not (math.isfinite(t) and t > 0):
        raise InputError(f"link scale must be positive and finite, got {t}")
    if isinstance(norm, WeightedMaxNorm) and len(norm.weights) != set_.ambient_dim:
        raise InputError(
            f"germ set {set_.label!r} has ambient dimension {set_.ambient_dim}, "
            f"max norm has {len(norm.weights)} weights"
        )
    if table is None:
        table = RadiusTable((t,))
    curves = []
    for piece in set_.branches:
        if not isinstance(piece, PuiseuxBranch):
            raise InputError(f"curve piece {piece.label!r}: link sections need a Puiseux branch")
        try:
            s = table.param(piece, t, norm)
        except DomainError:
            continue
        curves.append((piece._point(s), piece.label))
    if set_.surfaces:
        return _surface_section(set_, t, norm, density, table, curves)
    return _curve_section(set_, t, norm, curves)


def _curve_section(set_: GermSet, t: float, norm, curves: list) -> LinkSample:
    """The section of a germ of curves alone, from its (point, label)
    ``curves``, each point a list of floats.

    Bitwise the array path's section: each squared distance is summed
    coordinate by coordinate from 0.0, (dx*dx + dy*dy) + dz*dz as
    ``pairwise_sq_distances`` sums it; where two points lie within
    COINCIDENT_TOL * t, the matrix goes to ``linkage_labels``, the array
    path's one union-find, and each group is kept at its lowest index; the
    band check is ``norm.of``, the bits of ``norm(pts)``; distances are the
    correctly rounded ``math.sqrt``, as ``np.sqrt``.  Without edges every
    kept point is its own component.
    """
    n = len(curves)
    if not n:
        return _empty_section(set_, t)
    tol = COINCIDENT_TOL * t
    tol2 = tol * tol
    sq = [[0.0] * n for _ in range(n)]
    coincident = False
    for j in range(1, n):
        pj = curves[j][0]
        for i in range(j):
            acc = 0.0
            for a, b in zip(curves[i][0], pj):
                d = a - b
                acc += d * d
            sq[i][j] = sq[j][i] = acc
            if acc <= tol2:
                coincident = True
    group = list(range(n))
    if coincident:
        remap = linkage_labels(np.array(sq), tol)
        group = np.unique(remap, return_index=True)[1][remap].tolist()
    keep = [k for k in range(n) if group[k] == k]
    labels = tuple(frozenset(label for g, (_, label) in zip(group, curves) if g == k) for k in keep)
    for k in keep:
        if abs(norm.of(curves[k][0]) - t) > BAND * t:
            raise InputError(f"link section at t={t}: point outside the sphere band")
    m = len(keep)
    return LinkSample(
        scale=t,
        points=np.array([curves[k][0] for k in keep]),
        labels=labels,
        graph=None,
        component_of=np.arange(m),
        component_count=m,
        empty=False,
        distances=np.array([[math.sqrt(sq[i][j]) for j in keep] for i in keep]),
    )


def _surface_section(set_: GermSet, t: float, norm, density: int, table, curves: list) -> LinkSample:
    """The section of a germ with surface pieces, assembled from the
    per-piece arrays of ``table.sections`` and the (point, label)
    ``curves``, with whole-array numpy calls."""
    curve_pts = np.array([p for p, _ in curves], dtype=float).reshape(len(curves), set_.ambient_dim)
    blocks, edges = [curve_pts], []
    labels = [frozenset((label,)) for _, label in curves]
    base = len(curves)
    for piece, (spts, sparams, sedges) in zip(
        set_.surfaces, table.sections(set_.surfaces, t, norm, density)
    ):
        edges.append(sedges + base)
        on_piece = _on_piece_edges(piece, curve_pts, spts, sparams, sedges, t, base)
        if on_piece:
            edges.append(np.array(on_piece, dtype=int))
        blocks.append(spts)
        labels += [frozenset((piece.label,))] * len(spts)
        base += len(spts)
    if not base:
        return _empty_section(set_, t)
    raw = np.concatenate(blocks)
    sq = pairwise_sq_distances(raw)
    remap = linkage_labels(sq, COINCIDENT_TOL * t)
    keep = np.unique(remap, return_index=True)[1]
    merged = list(map(labels.__getitem__, keep.tolist()))
    for g in np.flatnonzero(np.bincount(remap) > 1).tolist():
        merged[g] = frozenset().union(*(labels[i] for i in np.flatnonzero(remap == g).tolist()))
    pts = raw[keep]
    values = np.asarray(norm(pts), dtype=float)
    if np.any(np.abs(values - t) > BAND * t):
        raise InputError(f"link section at t={t}: point outside the sphere band")
    edges = np.concatenate(edges)
    pairs = np.zeros((0, 2), dtype=int)
    if len(edges):
        m = len(pts)
        pairs = np.sort(remap[edges], axis=1)
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        key = np.unique(pairs[:, 0] * m + pairs[:, 1])
        pairs = np.column_stack([key // m, key % m])
    ncomp, comp = components(len(pts), pairs)
    return LinkSample(
        scale=t,
        points=pts,
        labels=tuple(merged),
        graph=edge_matrix(pts, pairs) if len(pairs) else None,
        component_of=comp,
        component_count=ncomp,
        empty=False,
        distances=np.sqrt(sq[keep][:, keep]),
    )


def _link_ratio(sample: LinkSample) -> float:
    """C(t): max over same-component pairs of inner/Euclidean distance.

    One Dijkstra from every point over the section graph gives the inner
    distances.  The graph is symmetric, so it is searched as directed and
    no transpose is built; the distances keep their bits, since a
    label-setting search that adds d(u) + w edge by edge has one float
    fixpoint.  The outer distances are the sample's ``distances``.
    Sections without edges have singleton components only, so no pairs,
    and are bounded trivially with C = 1.
    """
    if sample.graph is None:
        return 1.0
    from scipy.sparse.csgraph import dijkstra

    inner = dijkstra(sample.graph, directed=True)
    comp = sample.component_of
    outer = sample.distances
    mask = (comp[:, None] == comp[None, :]) & (outer > 0)
    if not np.any(mask):
        return 1.0
    return max(1.0, float(np.max(inner[mask] / outer[mask])))


def _component_separation(sample: LinkSample) -> float:
    """d_0(X_t): min Euclidean distance between distinct components, read
    off the sample's ``distances``.

    +inf for a connected (or empty/singleton) section.
    """
    if sample.component_count <= 1:
        return math.inf
    if sample.graph is None:
        # every point its own component (every curve germ's section, a
        # handful of points): the least distance off the diagonal, on floats
        rows = sample.distances.tolist()
        return min(min(row[:i]) for i, row in enumerate(rows) if i)
    comp = sample.component_of
    return float(np.min(sample.distances[comp[:, None] != comp[None, :]]))


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


def llne_test(
    set_: GermSet, scales, norm=EUCLID, density: int = 32, table: RadiusTable | None = None
) -> LLNEReport:
    """Fit the trend of C(t) over a geometric scale grid.

    A flat fit (|slope| <= 0.1) means the ratios stay bounded; a slope
    steeper than -0.2 means C grows as t -> 0; anything in between, or a
    scale grid broken by empty sections, is undecided.  ``table`` is as in
    ``link_section``; without one the sections share a fresh table.
    """
    scales = check_scale_ladder(scales)
    if table is None:
        table = RadiusTable(scales)
    samples = [link_section(set_, t, norm, density, table) for t in scales]
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
    set_: GermSet, scales, density: int = 32, norm=EUCLID, table: RadiusTable | None = None
) -> LinkCriterionResult:
    """LNE iff every link component stays LNE with a uniform constant and
    distinct components separate at least linearly in the scale.

    Failures: a diverging ratio trend, or a component separation whose
    fitted order in t exceeds linear (d_0(X_t)/t -> 0).  An unstable
    component count across the scale range leaves the criterion undecided.
    ``table`` is as in ``llne_test``.
    """
    report = llne_test(set_, scales, norm, density, table)
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
