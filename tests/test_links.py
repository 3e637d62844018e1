"""Link sections and the link-based LNE criterion."""

import math
import re

import numpy as np
import pytest

from lnegerm import (
    EUCLID,
    DomainError,
    InputError,
    RunConfig,
    Verdict,
    WeightedMaxNorm,
    builtin,
    germ_set,
    link_criterion_verdict,
    link_section,
    llne_test,
    make_norm,
    puiseux_branch,
    run_scenario,
)
from lnegerm import links
from lnegerm.germs import RadiusTable, merge_coincident
from lnegerm.links import (
    BAND,
    COINCIDENT_TOL,
    _component_separation,
    _link_ratio,
    _on_piece_edges,
)
from lnegerm.metrics import components, edge_matrix
from lnegerm.surfaces import HornPiece, WallPiece
from conftest import load_module

SCALES = tuple(2.0 ** -k for k in range(3, 10))


def horn_with_wall(c):
    """horn3d with its wall |x| <= c y^2 in place of |x| <= y^2/4."""
    horns = builtin("horn3d").germ().surfaces[:2]
    wall = WallPiece(label="wall", half_width_coef=c)
    return germ_set(surfaces=(*horns, wall), label=f"horn_wall_{c}")


def wall_with_lines(term):
    """The horn3d wall strip with the centre line (0, t, 0) and the line
    (0, t, 0) + term t^2."""
    l1 = puiseux_branch([(1, (0.0, 1.0, 0.0))], t_max=1.0, label="l1")
    l2 = puiseux_branch([(1, (0.0, 1.0, 0.0)), (2, term)], t_max=1.0, label="l2")
    wall = WallPiece(label="wall", half_width_coef=0.25)
    return germ_set(branches=(l1, l2), surfaces=(wall,), label="wall_lines")


class TestLinkSection:
    def test_curve_points_on_sphere(self):
        germ = builtin("cusp").germ()
        s = link_section(germ, 0.05)
        assert len(s.points) == 2
        assert np.allclose(np.linalg.norm(s.points, axis=1), 0.05, rtol=1e-9)

    def test_abs_graph_max_norm_exact(self):
        germ = builtin("abs_graph").germ()
        norm = WeightedMaxNorm((1.0, 1.0))
        for t in (0.25, 0.01, 1e-3):
            s = link_section(germ, t, norm=norm)
            got = {tuple(np.round(p / t, 9)) for p in s.points}
            assert got == {(1.0, 1.0), (-1.0, 1.0)}

    def test_max_norm_weights_must_match_the_germ(self):
        # two space lines: a max norm with two or four weights is an
        # InputError naming both, not a numpy broadcast error or a zip
        # that drops a coordinate
        lines = _curves("space_lines", ([(1, (1.0, 0.0, 0.0))], 1.0), ([(1, (0.0, 1.0, 0.0))], 1.0))
        for weights in ((1.0, 1.0), (1.0, 1.0, 1.0, 1.0)):
            match = f"'space_lines' has ambient dimension 3, max norm has {len(weights)} weights"
            with pytest.raises(InputError, match=match):
                link_section(lines, 0.1, WeightedMaxNorm(weights))
            with pytest.raises(InputError, match=match):
                llne_test(lines, RunConfig().scales(), WeightedMaxNorm(weights))
        with pytest.raises(InputError, match="max norm has 2 weights"):
            link_section(builtin("horn3d").germ(), 0.1, WeightedMaxNorm((1.0, 1.0)))

    def test_curve_pieces_must_be_puiseux_branches(self):
        # three_tangent's medial curves as a germ: an InputError naming the
        # first curve, not an AttributeError from the radius solve
        curves = run_scenario(builtin("three_tangent")).medial_curves
        germ = germ_set(branches=curves, label="medial")
        match = re.escape(f"curve piece {curves[0].label!r}: link sections need a Puiseux branch")
        with pytest.raises(InputError, match=match):
            link_section(germ, 2.0**-6)
        with pytest.raises(InputError, match=match):
            llne_test(germ, RunConfig().scales())
        with pytest.raises(InputError, match=match):
            link_criterion_verdict(germ, RunConfig().scales())

    def test_too_short_piece_contributes_nothing(self):
        short = puiseux_branch([(1, (1, 0))], 0.01, "short")
        long = puiseux_branch([(1, (0, 1))], 1.0, "long")
        germ = germ_set(branches=(short, long), label="g")
        s = link_section(germ, 0.5)
        assert len(s.points) == 1
        assert s.labels[0] == {"long"}

    def test_empty_section_flagged(self):
        short = puiseux_branch([(1, (1, 0))], 0.01, "short")
        germ = germ_set(branches=(short,), label="g")
        s = link_section(germ, 0.5)
        assert s.empty
        assert s.component_count == 0

    def test_nonpositive_scale_rejected(self):
        germ = builtin("cusp").germ()
        with pytest.raises(InputError):
            link_section(germ, 0.0)

    @pytest.mark.parametrize("label", ["cusp", "horn3d"])
    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, -0.5])
    def test_nonfinite_scale_rejected(self, label, t):
        # NaN fails every comparison, so a t <= 0 guard alone lets it in
        with pytest.raises(InputError, match="positive and finite"):
            link_section(builtin(label).germ(), t)

    def test_horn_section_one_component(self):
        germ = builtin("horn3d").germ()
        s = link_section(germ, 0.125)
        assert not s.empty
        assert s.component_count == 1
        piece_labels = set()
        for labs in s.labels:
            piece_labels |= labs
        assert piece_labels == {"horn_pos", "horn_neg", "wall"}

    @pytest.mark.parametrize(
        "norm", [EUCLID, WeightedMaxNorm((1.0, 1.0, 1.0))], ids=["euclid", "max"]
    )
    def test_horn_link_ratio_half_pi(self, norm):
        # the horn link at radius t is two circles of radius 3t^2/8 joined by
        # a wall segment of length t^2/2; antipodal points on one circle give
        # the supremum pi/2 of inner/outer distance (the 32-ray polygon falls
        # short by ~0.0025, the tilt of the circles adds O(t))
        germ = builtin("horn3d").germ()
        for t in RunConfig().scales():
            s = link_section(germ, t, norm=norm)
            assert s.component_count == 1
            assert _link_ratio(s) == pytest.approx(math.pi / 2, abs=0.01)

    def test_lone_circle_ratio_half_pi(self):
        germ = germ_set(surfaces=(HornPiece(label="horn"),), label="circle")
        for t in RunConfig().scales():
            s = link_section(germ, t)
            assert s.component_count == 1
            assert _link_ratio(s) == pytest.approx(math.pi / 2, abs=0.01)


class TestLLNE:
    def test_needs_min_scales(self):
        germ = builtin("cusp").germ()
        with pytest.raises(InputError):
            llne_test(germ, SCALES[:3])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_scale_rejected(self, bad):
        germ = builtin("cusp").germ()
        with pytest.raises(InputError, match="positive and finite"):
            llne_test(germ, [0.5, 0.25, 0.125, 0.0625, bad])

    def test_all_empty_rejected(self):
        short = puiseux_branch([(1, (1, 0))], 1e-4, "short")
        germ = germ_set(branches=(short,), label="g")
        with pytest.raises(InputError):
            llne_test(germ, SCALES)

    @pytest.mark.parametrize(
        "scales, ladder_error",
        [
            (SCALES[:3], "at least 5 scales"),
            ((0.1, 0.05, 0.02, 0.01, 0.005), "geometric"),
            (SCALES[::-1], "strictly decreasing"),
        ],
    )
    def test_ladder_checked_before_any_section(self, scales, ladder_error, monkeypatch):
        # the ladder rule of the order fits (check_scale_ladder) holds
        # before a section is solved: a germ whose every section is empty
        # names its ladder, not its empty sections
        solved = []
        monkeypatch.setattr(links, "link_section", lambda *args: solved.append(args))
        short = puiseux_branch([(1, (1, 0))], 1e-4, "short")
        for germ in (builtin("cusp").germ(), germ_set(branches=(short,), label="g")):
            with pytest.raises(InputError, match=ladder_error):
                llne_test(germ, scales)
        assert not solved

    def test_cusp_separation_order_half(self):
        # the two cusp link points separate like t^{3/2}, so d0/t ~ t^{1/2}
        germ = builtin("cusp").germ()
        res = link_criterion_verdict(germ, SCALES)
        assert res.verdict is Verdict.NOT_LNE
        assert res.separation_fit is not None
        assert res.separation_fit.slope == pytest.approx(0.5, abs=0.05)

    def test_horn_bounded_ratio(self, horn_result):
        rep = horn_result.link.report
        assert horn_result.link.verdict is Verdict.LNE
        assert rep.trend == "BOUNDED"
        # the inner/outer link ratio is pi/2 in closed form, held by
        # antipodal pairs on one circle of the link; stable across scales
        assert all(1.3 <= c <= 1.7 for c in rep.c_values)
        assert max(rep.c_values) - min(rep.c_values) <= 0.15

    def test_three_tangent_singletons_fail_separation(self):
        germ = builtin("three_tangent").germ()
        res = link_criterion_verdict(germ, SCALES)
        assert res.verdict is Verdict.NOT_LNE
        # three tangent branches: singleton components with d0/t -> 0
        assert res.report.component_counts == (3,) * len(SCALES)
        assert res.separation_fit.slope >= 0.2

    def test_norm_independence_2d(self):
        for label in ("cusp", "abs_graph", "three_tangent"):
            germ = builtin(label).germ()
            v_euc = link_criterion_verdict(germ, SCALES).verdict
            v_max = link_criterion_verdict(
                germ, SCALES, norm=WeightedMaxNorm((1.0, 1.0))
            ).verdict
            if Verdict.UNDECIDED not in (v_euc, v_max):
                assert v_euc is v_max


class TestCurvesOnSurfaces:
    @pytest.mark.parametrize(
        "term, verdict, count",
        [
            # l2 on a wall sample column, then between two columns
            ((0.125, 0.0, 0.0), Verdict.LNE, 1),
            ((0.075, 0.0, 0.0), Verdict.LNE, 1),
            # t^2/8 above the strip: near the wall but never on it
            ((0.0, 0.0, 0.125), Verdict.NOT_LNE, 2),
        ],
        ids=["on_sample", "between_samples", "off_strip"],
    )
    def test_curve_on_wall_joins_its_section(self, term, verdict, count):
        res = link_criterion_verdict(wall_with_lines(term), SCALES)
        assert res.verdict is verdict, res.notes
        assert res.report.component_counts == (count,) * len(SCALES)


class TestNarrowWall:
    """A wall narrower than the horns' inner generators, |x| <= c y^2 with
    c < 1/a_inner^2 = 1/4, leaves three link components: each horn circle
    and the wall segment between them.  Under Euclid the gap is the x-gap
    (1/4 - c) y^2 at y = t up to O(t^4), so d0(X_t)/t has order 1."""

    @pytest.mark.parametrize("c", [0.1, 0.2])
    @pytest.mark.parametrize(
        "norm", [EUCLID, WeightedMaxNorm((1.0, 1.0, 1.0))], ids=["euclid", "max"]
    )
    def test_three_components_separate_at_order_two(self, c, norm):
        scales = RunConfig().scales()
        res = link_criterion_verdict(horn_with_wall(c), scales, norm=norm)
        assert res.report.component_counts == (3,) * len(scales)
        assert res.verdict is Verdict.NOT_LNE, res.notes
        assert res.separation_fit.slope == pytest.approx(1.0, abs=0.05)
        assert any("component separation decays" in n for n in res.notes)
        if norm is EUCLID:
            for t, d0 in zip(res.report.scales, res.report.separations):
                assert d0 / ((0.25 - c) * t * t) == pytest.approx(1.0, abs=1e-3)


# ---------------------------------------------------------------------------
# The section path against a copy of the one it replaced: coincident points
# merged by merge_coincident, outer distances and the component gap from
# per-component norms, inner distances from an undirected Dijkstra.
# ---------------------------------------------------------------------------


def _old_link_section(set_, t, norm, density, table):
    pts_list, labels, edges = [], [], []
    for piece in set_.branches:
        try:
            s = table.param(piece, t, norm)
        except DomainError:
            continue
        pts_list.append(np.asarray(piece.eval(s), dtype=float))
        labels.append({piece.label})
    curve_pts = list(pts_list)
    for piece, section in zip(set_.surfaces, table.sections(set_.surfaces, t, norm, density)):
        # the lists the per-piece solve gave: point arrays, param tuples, edge tuples
        spts = list(section[0])
        sparams = [tuple(prm) for prm in section[1].tolist()]
        sedges = [tuple(e) for e in section[2].tolist()]
        base = len(pts_list)
        edges.extend((base + i, base + j) for i, j in sedges)
        edges.extend(_on_piece_edges(piece, curve_pts, spts, sparams, sedges, t, base))
        for p in spts:
            pts_list.append(np.asarray(p, dtype=float))
            labels.append({piece.label})
    if not pts_list:
        return None
    pts, mlabels, _, remap = merge_coincident(
        np.array(pts_list), labels, [{}] * len(labels), tol=COINCIDENT_TOL * t
    )
    values = np.asarray(norm(pts), dtype=float)
    assert not np.any(np.abs(values - t) > BAND * t)
    pairs = np.zeros((0, 2), dtype=int)
    if edges:
        pairs = np.sort(remap[np.array(edges, dtype=int)], axis=1)
        pairs = np.unique(pairs[pairs[:, 0] != pairs[:, 1]], axis=0)
    ncomp, comp = components(len(pts), pairs)
    graph = _coo_edge_matrix(pts, pairs) if len(pairs) else None
    return pts, mlabels, graph, comp, ncomp


def _coo_edge_matrix(pts, pairs):
    """The section graph as ``edge_matrix`` built it before: a COO matrix of
    both orientations of the pairs, converted to CSR by scipy."""
    from scipy import sparse

    w = np.linalg.norm(pts[pairs[:, 0]] - pts[pairs[:, 1]], axis=1)
    rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
    cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
    n = len(pts)
    return sparse.coo_matrix((np.concatenate([w, w]), (rows, cols)), shape=(n, n)).tocsr()


def _old_link_ratio(pts, graph, comp, ncomp):
    if graph is None:
        return 1.0
    from scipy.sparse.csgraph import dijkstra

    best = 1.0
    for c in range(ncomp):
        idx = np.flatnonzero(comp == c)
        if len(idx) < 2:
            continue
        inner = dijkstra(graph, directed=False, indices=idx)[:, idx]
        outer = np.linalg.norm(pts[idx][:, None, :] - pts[idx][None, :, :], axis=2)
        mask = outer > 0
        if np.any(mask):
            best = max(best, float(np.max(inner[mask] / outer[mask])))
    return best


def _old_component_separation(pts, comp, ncomp):
    if ncomp <= 1:
        return math.inf
    best = math.inf
    for c in range(ncomp):
        a, b = pts[comp == c], pts[comp > c]
        if len(a) and len(b):
            best = min(best, float(np.min(np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2))))
    return best


def _workload_germs(workload, seeds):
    module = load_module("perfbench/workloads.py", "perfbench_workloads")
    return [
        case.scenario.make_germ() for seed in seeds for case in module.build_cases(workload, seed)
    ]


_SURFACE_GERMS = [builtin("horn3d").germ()] + [
    horn_with_wall(c) for c in (0.1, 0.26, 0.3, 0.4, 0.5, 1.0)
]
def _curves(label, *branches):
    """A germ of curves alone from (terms, t_max) per branch, labelled b0, b1, ..."""
    return germ_set(
        branches=[
            puiseux_branch(terms, t_max, f"b{k}") for k, (terms, t_max) in enumerate(branches)
        ],
        label=label,
    )


_CUSP_UP = [(1, (1.0, 0.0)), ((3, 2), (0.0, 2.0))]
_CURVE_GERMS = (
    [builtin(label).germ() for label in ("cusp", "abs_graph", "three_tangent")]
    + [wall_with_lines(term) for term in ((0.125, 0.0, 0.0), (0.075, 0.0, 0.0), (0.0, 0.0, 0.125))]
    + _workload_germs("plane_sweep", (0, 1))
    + _workload_germs("arc_fan", range(4))
    + [
        # b2 is b0 under a second label: their points coincide and merge at
        # every radius
        _curves(
            "copied",
            (_CUSP_UP, 1.0),
            ([(1, (1.0, 0.0)), ((3, 2), (0.0, -1.0))], 1.0),
            (_CUSP_UP, 1.0),
        ),
        # b2 and b3 lie 1.4e-9 t and 0.7e-9 t off b0, against the merge
        # tolerance 1e-9 t: b2 joins b0 only through b3, and the group keeps
        # b0's bits, its lowest index
        _curves(
            "near_copies",
            (_CUSP_UP, 1.0),
            ([(1, (0.6, 0.8))], 1.0),
            ([(1, (1.0, 1.4e-9)), ((3, 2), (0.0, 2.0))], 1.0),
            ([(1, (1.0, 0.7e-9)), ((3, 2), (0.0, 2.0))], 1.0),
        ),
        # b1 stops below the three upper radii: the component count changes
        # along the ladder
        _curves(
            "short_branch",
            ([(1, (1.0, 0.0))], 1.0),
            ([(1, (0.0, 1.0)), (2, (1.0, 0.0))], 0.01),
            ([(1, (-1.0, 0.5))], 1.0),
        ),
        # every branch stops below the ladder: every section is empty
        _curves("all_short", ([(1, (1.0, 0.0))], 2.0**-12), ([(1, (0.0, 1.0))], 2.0**-12)),
        # space curves, under maxv with weights (40, 1, 20) among the norms
        _curves(
            "space_curves",
            ([(1, (1.0, 0.0, 0.0)), ((3, 2), (0.0, 0.7, -0.3))], 1.0),
            ([(1, (0.0, 1.0, 0.0)), (2, (0.2, 0.0, 1.1))], 1.0),
            ([(1, (-0.6, 0.0, 0.8)), ((5, 2), (1.0, 1.0, 1.0))], 1.0),
            ([(1, (0.3, -0.4, 0.5)), ((4, 3), (0.9, 0.1, -0.2))], 1.0),
        ),
    ]
)


def _section_norms(dim):
    if dim == 2:
        return [EUCLID, WeightedMaxNorm((1.0, 1.0)), WeightedMaxNorm((40.0, 1.0))]
    return [EUCLID, WeightedMaxNorm((1.0, 1.0, 1.0)), WeightedMaxNorm((40.0, 1.0, 20.0))]


@pytest.mark.parametrize(
    "germ", _SURFACE_GERMS + _CURVE_GERMS, ids=lambda g: g.label
)
def test_section_path_bitwise_as_before(germ):
    scales = RunConfig().scales()
    densities = (8, 32, 64) if germ.surfaces else (32,)
    for norm in _section_norms(germ.ambient_dim):
        for density in densities:
            table = RadiusTable(scales)
            for t in scales:
                got = link_section(germ, t, norm, density, table)
                old = _old_link_section(germ, t, norm, density, table)
                where = (germ.label, norm, density, t)
                if old is None:
                    assert got.empty, where
                    continue
                pts, labels, graph, comp, ncomp = old
                assert got.points.tobytes() == pts.tobytes(), where
                assert got.labels == labels, where
                assert got.component_of.tolist() == comp.tolist(), where
                assert got.component_count == ncomp, where
                assert (got.graph is None) == (graph is None), where
                if graph is not None:
                    for part in ("data", "indices", "indptr"):
                        assert getattr(got.graph, part).tobytes() == getattr(graph, part).tobytes()
                want = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
                assert got.distances.tobytes() == want.tobytes(), where
                assert _link_ratio(got).hex() == _old_link_ratio(pts, graph, comp, ncomp).hex()
                assert _component_separation(got) == _old_component_separation(pts, comp, ncomp)


def test_edge_matrix_is_scipys_coo_conversion(monkeypatch):
    # every section graph of scripts/digests.py --links has the data,
    # indices and indptr arrays, dtypes included, of scipy's COO-to-CSR
    digests = load_module("scripts/digests.py")
    built = []

    def recorded(pts, pairs):
        graph = edge_matrix(pts, pairs)
        built.append((pts, pairs, graph))
        return graph

    monkeypatch.setattr(links, "edge_matrix", recorded)
    scales = RunConfig().scales()
    for germ in digests.link_germs():
        for _, kind, weights in digests.LINK_NORMS:
            norm = make_norm(kind, weights, germ.ambient_dim)
            for density in digests.LINK_DENSITIES:
                table = RadiusTable(scales)
                for t in scales:
                    link_section(germ, t, norm, density, table)
    assert len(built) == 8 * 3 * 3 * len(scales)
    for pts, pairs, graph in built:
        want = _coo_edge_matrix(pts, pairs)
        assert graph.shape == want.shape
        for part in ("data", "indices", "indptr"):
            got, ref = getattr(graph, part), getattr(want, part)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
