"""Acceptance gate: one test and one printed pass/fail line per criterion.

Each verdict line is printed (visible with -s) and collected in RESULTS,
which the conftest terminal-summary hook replays after the run so the lines
survive output capture.  Each criterion asserts exactly what it states;
nothing is weakened to force a pass.
"""

import contextlib
import io
import math
from fractions import Fraction

import numpy as np
import pytest

from lnegerm import (
    RunConfig,
    Verdict,
    WeightedMaxNorm,
    build_graph,
    builtin,
    germ_set,
    induced_distance,
    link_criterion_verdict,
    link_section,
    outer_tangency_order,
    pancake_distance,
    puiseux_branch,
    sample_cloud,
    symbolic_separation_order,
)
from lnegerm.cli import main as cli_main
from lnegerm.scenarios import Scenario, run_scenario

from test_metrics import _enumerate_oracle, _triangle_complex


RESULTS: list = []


def _report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"[acceptance] criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    RESULTS.append(line)
    print(line, flush=True)
    assert ok, line


EXPONENTS = [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3)]


def test_criterion_01_order_oracle():
    rng = np.random.default_rng(11)
    scales = [2.0 ** -k for k in range(4, 11)]
    worst = 0.0
    for _ in range(20):
        split = EXPONENTS[int(rng.integers(0, len(EXPONENTS)))]
        c1 = float(rng.uniform(0.3, 2.0) * rng.choice((-1.0, 1.0)))
        c2 = c1 + float(rng.uniform(0.3, 2.0) * rng.choice((-1.0, 1.0)))
        if abs(c1 - c2) < 0.3:
            c2 = c1 + math.copysign(0.5, c2 - c1)

        def branch(label, c):
            if split == 1:
                return puiseux_branch([(Fraction(1), (1.0, c))], 1.0, label)
            return puiseux_branch(
                [(Fraction(1), (1.0, 0.0)), (split, (0.0, c))], 1.0, label
            )

        b1 = branch("b1", c1)
        b2 = branch("b2", c2)
        fit, exact = outer_tangency_order(b1, b2, scales)
        sym = symbolic_separation_order(b1, b2)
        assert exact == sym.order == split
        worst = max(worst, abs(fit.slope - float(split)))
    _report(1, "order-oracle", worst <= 0.05, f"max |numeric - symbolic| = {worst:.4f}")


def test_criterion_02_cusp(cusp_result):
    res = cusp_result
    rep = res.set_reports[0]
    coords = res.axis.coords()
    h = res.axis.resolution
    ok = (
        res.set_verdict is Verdict.NOT_LNE
        and abs(rep.tord.slope - 1.5) <= 0.05
        and abs(rep.tord_inn.slope - 1.0) <= 0.05
        and abs(res.l_set - 1.5) <= 0.1
        and len(coords) > 0
        and np.max(np.abs(coords[:, 1])) <= 2.0 * h
        and np.min(coords[:, 0]) > 0
        and res.medial_verdict is Verdict.LNE
    )
    _report(
        2,
        "cusp",
        ok,
        f"tord {rep.tord.slope:.3f}, tord_inn {rep.tord_inn.slope:.3f}, "
        f"L {res.l_set:.3f}, medial {res.medial_verdict.value}",
    )


def test_criterion_03_abs_graph(abs_result):
    res = abs_result
    coords = res.axis.coords()
    h = res.axis.resolution
    germ = res.scenario.germ()
    norm = WeightedMaxNorm((1.0, 1.0))
    exact_links = True
    for t in (0.25, 0.05, 0.01):
        s = link_section(germ, t, norm=norm)
        got = sorted(map(tuple, s.points))
        want = sorted([(-t, t), (t, t)])
        exact_links &= all(
            abs(a - b) <= 1e-9 for g, w in zip(got, want) for a, b in zip(g, w)
        )
    ok = (
        res.set_verdict is Verdict.LNE
        and abs(res.l_set - 1.0) <= 0.05
        and np.max(np.abs(coords[:, 0])) <= 2.0 * h
        and np.min(coords[:, 1]) > 0
        and res.medial_verdict is Verdict.LNE
        and exact_links
    )
    _report(
        3,
        "abs-graph",
        ok,
        f"L {res.l_set:.3f}, medial {res.medial_verdict.value}, "
        f"maxv links exact: {exact_links}",
    )


def test_criterion_04_three_tangent(three_result):
    res = three_result
    ok = (
        res.set_verdict is Verdict.NOT_LNE
        and abs(res.l_set - 2.0) <= 0.1
        and res.medial_verdict is Verdict.NOT_LNE
        and len(res.medial_reports) >= 1
    )
    outer = inner = None
    if res.medial_reports:
        rep = res.medial_reports[0]
        outer, inner = rep.tord.slope, rep.tord_inn.slope
        ok = ok and abs(outer - 2.0) <= 0.1 and abs(inner - 1.0) <= 0.1
    _report(
        4,
        "three-tangent",
        ok,
        f"L_set {res.l_set:.3f}, medial pair orders {outer} vs {inner}",
    )


def test_criterion_05_horn3d(horn_result):
    res = horn_result
    rep = res.link.report
    c_max = max(rep.c_values)
    outer = inner = None
    pair_ok = False
    if res.medial_reports and len(res.medial_curves) == 2:
        mrep = res.medial_reports[0]
        outer, inner = mrep.tord.slope, mrep.tord_inn.slope
        pair_ok = (
            abs(outer - 2.0) <= 0.1
            and abs(inner - 1.0) <= 0.1
            and res.medial_verdict is Verdict.NOT_LNE
        )
    ok = (
        res.link.verdict is Verdict.LNE
        and abs(c_max - math.pi / 2) <= 0.01
        and rep.trend == "BOUNDED"
        and pair_ok
    )
    _report(
        5,
        "horn3d",
        ok,
        f"link {res.link.verdict.value}, max C(t) {c_max:.4f} (exact pi/2 = {math.pi / 2:.4f}), "
        f"trend {rep.trend}, {len(res.medial_curves)} medial curves, "
        f"medial pair {outer} vs {inner}",
    )


def _random_parabola_pairs(n, rng):
    for i in range(n):
        a = float(rng.uniform(0.5, 1.5))
        b = a + float(rng.uniform(1.0, 2.0))
        g = germ_set(
            branches=(
                puiseux_branch([(1, (1, 0)), (2, (0, a))], 1.0, "p1"),
                puiseux_branch([(1, (1, 0)), (2, (0, b))], 1.0, "p2"),
            ),
            label=f"pair{i}",
        )
        yield Scenario(
            label=g.label,
            make_germ=lambda g=g: g,
            expected_set_verdict=None,
            expected_medial_verdict=None,
            expected_L_set=None,
            expected_L_medial=None,
            ambient_dim=2,
            medial_window=((-0.02, 0.3), (-0.05, 0.3)),
            medial_resolution=1.0 / 256.0,
            medial_scales=tuple(2.0 ** -k for k in range(4, 11)),
        )


@pytest.fixture(scope="session")
def random_pair_results():
    cfg = RunConfig(t_max=2.0 ** -4, t_min=2.0 ** -10)
    rng = np.random.default_rng(2024)
    return [run_scenario(s, cfg) for s in _random_parabola_pairs(10, rng)]


def test_criterion_06_plane_theorem(results_2d, random_pair_results):
    counterexamples = []
    undecided = 0
    for res in list(results_2d.values()) + random_pair_results:
        if Verdict.UNDECIDED in (res.medial_verdict, res.set_verdict):
            undecided += 1  # no decided implication to test
            continue
        if (
            res.medial_verdict is Verdict.NOT_LNE
            and res.set_verdict is Verdict.LNE
        ):
            counterexamples.append(res.scenario.label)
    _report(
        6,
        "plane-theorem",
        not counterexamples,
        f"{len(random_pair_results) + len(results_2d)} germs "
        f"({undecided} undecided), counterexamples: {counterexamples or 'none'}",
    )


def test_criterion_07_exponent_inequality(results_2d):
    bad = []
    for label, res in results_2d.items():
        if res.l_set is None or res.l_medial is None:
            continue  # not confident; the criterion only covers decided cases
        if not res.l_medial <= res.l_set + 0.1:
            bad.append(label)
    _report(7, "exponent-inequality", not bad, f"violations: {bad or 'none'}")


def test_criterion_08_metric_invariants(results_2d):
    from scipy.sparse.csgraph import dijkstra

    violations = 0
    triples = 0
    rng = np.random.default_rng(8)
    germs = [res.scenario.germ() for res in results_2d.values()]
    germs.append(builtin("horn3d").germ())
    for germ in germs:
        cloud = sample_cloud(germ, 0.25, 16)
        graph = build_graph(cloud, 4.0 * cloud.spacing)
        dist = dijkstra(graph.matrix, directed=False)
        n = len(cloud)
        for _ in range(250):
            i, j, k = (int(v) for v in rng.integers(0, n, size=3))
            triples += 1
            dij, dik, dkj = dist[i, j], dist[i, k], dist[k, j]
            if not (dij == dist[j, i] or abs(dij - dist[j, i]) <= 1e-9):
                violations += 1
            if (
                math.isfinite(dij)
                and induced_distance(cloud.points[i], cloud.points[j]) > dij + 1e-9
            ):
                violations += 1
            if math.isfinite(dik) and math.isfinite(dkj) and dij > dik + dkj + 1e-9:
                violations += 1
    _report(
        8,
        "metric-invariants",
        violations == 0,
        f"{triples} triples, {violations} violations",
    )


def test_criterion_09_pancake_metric():
    complex_ = _triangle_complex()
    queries = [
        ((0.25, 0.0), (1.0, 0.75)),
        ((0.75, 0.0), (0.25, 0.25)),
        ((0.0, 0.0), (1.0, 1.0)),
        ((0.5, 0.0), (0.5, 0.5)),
        ((0.1, 0.0), (1.0, 0.1)),
    ]
    exact = all(
        abs(pancake_distance(complex_, x, y)[0] - _enumerate_oracle(complex_, x, y))
        <= 1e-12
        for x, y in queries
    )

    from test_metrics import TestPancakeMetric

    two_t_ok = True
    try:
        TestPancakeMetric().test_two_tangent_curves_2t()
    except AssertionError:
        two_t_ok = False
    _report(
        9,
        "pancake-metric",
        exact and two_t_ok,
        f"enumeration match: {exact}, d_P = 2t: {two_t_ok}",
    )


def test_criterion_10_norm_independence(all_results, config):
    disagreements = []
    scales = config.scales()
    for label, res in all_results.items():
        germ = res.scenario.germ()
        v_euc = res.link.verdict  # default config norm is Euclidean
        norm = WeightedMaxNorm((1.0,) * germ.ambient_dim)
        v_max = link_criterion_verdict(
            germ, scales, density=config.density, norm=norm
        ).verdict
        if Verdict.UNDECIDED in (v_euc, v_max):
            continue
        if v_euc is not v_max:
            disagreements.append((label, v_euc.value, v_max.value))
    _report(
        10,
        "norm-independence",
        not disagreements,
        f"disagreements: {disagreements or 'none'}",
    )


def test_criterion_11_determinism():
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main(["analyze", "--builtin", "abs_graph", "--seed", "3"])
        assert code == 0
        return buf.getvalue()

    out1 = run()
    out2 = run()
    _report(
        11,
        "determinism",
        out1 == out2 and len(out1) > 0,
        f"{len(out1)} bytes, byte-identical: {out1 == out2}",
    )
