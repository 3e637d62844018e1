"""Order estimation, the arc criterion, and Lojasiewicz exponents."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from lnegerm import (
    BUILTIN_LABELS,
    InputError,
    RunConfig,
    Verdict,
    build_graph,
    builtin,
    estimate_order,
    germ_set,
    inner_distance,
    inner_tangency_order,
    outer_tangency_order,
    pair_verdict,
    puiseux_branch,
    run_scenario,
    sample_cloud,
)
from lnegerm import germs, links, medial, metrics, tangency
from lnegerm.scenarios import _pairwise_reports, combine_verdicts, scenario_for_germ

SCALES = tuple(2.0 ** -k for k in range(3, 10))


class TestEstimateOrder:
    def test_recovers_pure_power_law(self):
        samples = [(t, 3.0 * t**1.5) for t in SCALES]
        fit = estimate_order(samples)
        assert fit.slope == pytest.approx(1.5, abs=1e-9)
        assert fit.leading_constant == pytest.approx(3.0, rel=1e-9)
        assert fit.confident

    def test_needs_enough_scales(self):
        with pytest.raises(InputError):
            estimate_order([(0.1, 1.0), (0.05, 0.5)])

    def test_needs_geometric_scales(self):
        with pytest.raises(InputError):
            estimate_order([(t, t) for t in (0.5, 0.4, 0.3, 0.2, 0.1)])

    def test_rejects_nonpositive_values(self):
        with pytest.raises(InputError):
            estimate_order([(t, 0.0) for t in SCALES])

    def test_low_confidence_on_noise(self):
        rng = np.random.default_rng(3)
        samples = [(t, t * math.exp(rng.normal(0, 0.3))) for t in SCALES]
        assert not estimate_order(samples).confident

    def test_extrapolation_removes_preasymptotic_drift(self):
        samples = [(t, 3.0 * t**1.5 * (1.0 + 4.0 * t)) for t in SCALES]
        fit = estimate_order(samples)
        assert abs(fit.slope - 1.5) > 0.05
        limit = tangency.extrapolate_order(fit, [f for _, f in samples])
        assert limit.slope == pytest.approx(1.5, abs=0.01)
        assert limit.residual == fit.residual

    def test_extrapolation_keeps_exact_power_law(self):
        samples = [(t, 3.0 * t**1.5) for t in SCALES]
        fit = estimate_order(samples)
        assert tangency.extrapolate_order(fit, [f for _, f in samples]) is fit


class TestOuterOrder:
    def test_cusp_pair(self):
        germ = builtin("cusp").germ()
        fit, exact = outer_tangency_order(*germ.branches, SCALES)
        assert exact == Fraction(3, 2)
        assert fit.slope == pytest.approx(1.5, abs=0.02)

    def test_numeric_matches_symbolic_on_mixed_exponents(self):
        b1 = puiseux_branch([(1, (1, 0)), ((5, 2), (0, 2))], 1.0, "b1")
        b2 = puiseux_branch([(1, (1, 0)), ((5, 2), (0, -1))], 1.0, "b2")
        fit, exact = outer_tangency_order(b1, b2, SCALES)
        assert exact == Fraction(5, 2)
        assert fit.slope == pytest.approx(2.5, abs=0.05)

    def test_large_coefficients_at_three_halves(self):
        b1 = puiseux_branch([(1, (1, 0)), ((3, 2), (0, 2.0))], 1.0, "b1")
        b2 = puiseux_branch([(1, (1, 0)), ((3, 2), (0, 2.5))], 1.0, "b2")
        fit, exact = outer_tangency_order(b1, b2, [2.0 ** -k for k in range(4, 11)])
        assert exact == Fraction(3, 2)
        assert fit.slope == pytest.approx(1.5, abs=0.05)

    def test_turning_slopes_keep_plain_fit(self):
        # an arc_fan pair whose local slopes turn over at the finest default
        # scales (step ratios 2.46 then 0.985); Aitken read 0.806 here
        b1 = puiseux_branch(
            [(1, (1.0, 1 / 3)), ((5, 2), (0.0, 0.9974535496783192))], 1.0, "b1"
        )
        b2 = puiseux_branch(
            [(1, (1.0, 1.0)), ((3, 2), (0.0, 0.4314919566196566))], 1.0, "b2"
        )
        fit, exact = outer_tangency_order(b1, b2, SCALES)
        assert exact == 1
        assert fit.slope == pytest.approx(1.0, abs=0.05)

    def test_indistinguishable_branches_rejected(self):
        b1 = puiseux_branch([(1, (1, 0))], 1.0, "b1")
        b2 = puiseux_branch([(1, (1, 0))], 1.0, "b2")
        with pytest.raises(InputError):
            outer_tangency_order(b1, b2, SCALES)


class TestInnerOrder:
    def test_transverse_lines_order_one(self):
        germ = builtin("abs_graph").germ()
        fit = inner_tangency_order(*germ.branches, SCALES)
        assert fit.slope == pytest.approx(1.0, abs=0.02)

    def test_merged_tips_named(self):
        # (-u, -u^5) and (-u, 0), u = s^{1/2}, separate like t^5, below
        # 1e-9 t at the small scales; their inner distance is still l1 + l2
        a = puiseux_branch([((1, 2), (-1, 0)), ((5, 2), (0, -1))], 1.0, "a")
        b = puiseux_branch([((1, 2), (-1, 0))], 1.0, "b")
        scn = scenario_for_germ(germ_set(branches=(a, b), label="merged"), RunConfig())
        result = run_scenario(scn)
        assert result.set_verdict is Verdict.NOT_LNE
        (rep,) = result.set_reports
        assert rep.tord_exact == 5
        assert result.l_set == pytest.approx(5.0, abs=1e-3)

    def test_one_graph_per_scale(self, config, monkeypatch):
        # no builtin samples a cloud or builds a radius graph
        def refuse(*args, **kwargs):
            raise AssertionError("run_scenario sampled a cloud or built a graph")

        for mod, name in (
            (germs, "sample_cloud"),
            (medial, "sample_cloud"),
            (metrics, "build_graph"),
            (tangency, "build_graph"),
            (links, "build_graph"),
        ):
            monkeypatch.setattr(mod, name, refuse)
        for label in BUILTIN_LABELS:
            assert run_scenario(builtin(label), config).passed

    @pytest.mark.parametrize("label", ["cusp", "abs_graph", "three_tangent"])
    def test_graph_agrees_with_arc_lengths(self, label, config):
        # the radius graph of the whole set is the reference inner distance
        germ = builtin(label).germ()
        for t in config.scales():
            cloud = sample_cloud(germ, t, config.density)
            graph = build_graph(cloud, 4.0 * cloud.spacing)
            for b1, b2 in itertools.combinations(germ.branches, 2):
                d = inner_distance(graph, cloud.tip_index[b1.label], cloud.tip_index[b2.label])
                arcs = b1.arc_length(t) + b2.arc_length(t)
                assert d == pytest.approx(arcs, rel=1e-3)

    def test_cubic_contact_reads_three(self, config):
        # the branches come within 1e-9 t of each other at radii far below
        # t, yet meet only at 0
        b1 = puiseux_branch([(1, (1, 0))], 1.0, "b1")
        b2 = puiseux_branch([(1, (1, 0)), (3, (0, -1))], 1.0, "b2")
        scn = scenario_for_germ(germ_set(branches=(b1, b2), label="cubic"), config)
        assert run_scenario(scn, config).l_set == pytest.approx(3.0, abs=5e-3)


class TestPairVerdict:
    def test_cusp_not_lne(self, config):
        germ = builtin("cusp").germ()
        rep = pair_verdict(*germ.branches, SCALES)
        assert rep.verdict is Verdict.NOT_LNE
        assert rep.lojasiewicz_pair == pytest.approx(1.5, abs=0.1)

    def test_abs_graph_lne(self):
        germ = builtin("abs_graph").germ()
        rep = pair_verdict(*germ.branches, SCALES)
        assert rep.verdict is Verdict.LNE
        assert rep.lojasiewicz_pair == pytest.approx(1.0, abs=0.05)

    def test_order_tolerance_gate(self):
        # the LNE/NOT_LNE boundary is exactly |tord - tord_inn| <= tol
        germ = builtin("cusp").germ()
        loose = pair_verdict(*germ.branches, SCALES, order_tolerance=1.0)
        assert loose.verdict is Verdict.LNE
        tight = pair_verdict(*germ.branches, SCALES, order_tolerance=0.1)
        assert tight.verdict is Verdict.NOT_LNE


class TestLojasiewiczGerm:
    def test_three_tangent_witness(self, config):
        germ = builtin("three_tangent").germ()
        # start one octave below SCALES: at t_max = 1/8 the higher-order
        # corrections push the outer-fit residual past the confidence gate
        scales = tuple(2.0 ** -k for k in range(4, 11))
        reports = _pairwise_reports(germ, scales, config)
        verdict, l_val = combine_verdicts(reports)
        assert l_val == pytest.approx(2.0, abs=0.1)
        assert verdict is Verdict.NOT_LNE
        assert len(reports) == 3
        # the extreme pair is any of the three; all have exponent ~2
        for rep in reports:
            assert rep.verdict is Verdict.NOT_LNE

    def test_single_branch_is_normally_embedded(self, config):
        germ = germ_set(
            branches=(puiseux_branch([(1, (1, 0))], 1.0, "b"),), label="line"
        )
        reports = _pairwise_reports(germ, SCALES, config)
        assert reports == ()
        assert combine_verdicts(reports) == (Verdict.LNE, 1.0)
