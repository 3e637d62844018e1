"""Scenario registry and runner."""

import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lnegerm import (
    LnegermError,
    MedialConfig,
    RegistryError,
    RunConfig,
    Verdict,
    builtin,
    germ_set,
    puiseux_branch,
    run_scenario,
    symbolic_separation_order,
)
from lnegerm.scenarios import (
    BUILTIN_LABELS,
    Scenario,
    combine_verdicts,
    medial_grid,
    scenario_for_germ,
)
from test_links import wall_with_lines


class TestRegistry:
    def test_labels(self):
        assert set(BUILTIN_LABELS) == {
            "cusp",
            "abs_graph",
            "three_tangent",
            "horn3d",
        }

    def test_unknown_label(self):
        with pytest.raises(RegistryError):
            builtin("klein_bottle")

    def test_expected_verdicts(self):
        expect = {
            "cusp": (Verdict.NOT_LNE, Verdict.LNE),
            "abs_graph": (Verdict.LNE, Verdict.LNE),
            "three_tangent": (Verdict.NOT_LNE, Verdict.NOT_LNE),
            "horn3d": (Verdict.LNE, Verdict.NOT_LNE),
        }
        for label, (s, m) in expect.items():
            scn = builtin(label)
            assert scn.expected_set_verdict is s
            assert scn.expected_medial_verdict is m

    def test_plane_consistency_enforced(self):
        scn = builtin("cusp")
        with pytest.raises(RegistryError):
            dataclasses.replace(
                scn,
                expected_set_verdict=Verdict.LNE,
                expected_medial_verdict=Verdict.NOT_LNE,
            )

    def test_horn_is_the_3d_witness(self):
        scn = builtin("horn3d")
        assert scn.ambient_dim == 3
        assert scn.expected_set_verdict is Verdict.LNE
        assert scn.expected_medial_verdict is Verdict.NOT_LNE

    def test_germ_constructors(self):
        assert len(builtin("three_tangent").germ().branches) == 3
        horn = builtin("horn3d").germ()
        assert not horn.branches
        assert len(horn.surfaces) == 3


class TestCombineVerdicts:
    class _R:
        def __init__(self, verdict, l):
            self.verdict = verdict
            self.lojasiewicz_pair = l

    def test_not_lne_dominates_undecided(self):
        v, l = combine_verdicts(
            [self._R(Verdict.NOT_LNE, 2.0), self._R(Verdict.UNDECIDED, 1.7)]
        )
        assert v is Verdict.NOT_LNE
        assert l == 2.0

    def test_undecided_blocks_lne(self):
        v, _ = combine_verdicts(
            [self._R(Verdict.LNE, 1.0), self._R(Verdict.UNDECIDED, 1.0)]
        )
        assert v is Verdict.UNDECIDED

    def test_empty_is_trivially_lne(self):
        assert combine_verdicts([]) == (Verdict.LNE, 1.0)


class TestMedialGrid:
    def test_window_and_resolution_resolve_independently(self):
        s = builtin("horn3d")
        assert medial_grid(s, MedialConfig()) == (s.medial_window, 0.01)
        assert medial_grid(s, MedialConfig(resolution=0.005)) == (s.medial_window, 0.005)
        window = ((-0.2, 0.2), (0.0, 0.64), (-0.1, 0.1))
        assert medial_grid(s, MedialConfig(window=window)) == (window, 0.01)


class TestRunResults:
    def test_all_pass(self, all_results):
        for label, res in all_results.items():
            assert res.status == "PASS", (label, [c.to_dict() for c in res.checks])

    def test_four_case_table(self, all_results):
        rows = {r.to_row()["label"]: r.to_row() for r in all_results.values()}
        assert rows["cusp"]["set_verdict"] == "NOT_LNE"
        assert rows["cusp"]["medial_verdict"] == "LNE"
        assert rows["abs_graph"]["set_verdict"] == "LNE"
        assert rows["three_tangent"]["medial_verdict"] == "NOT_LNE"
        assert rows["horn3d"]["set_verdict"] == "LNE"
        assert rows["horn3d"]["medial_verdict"] == "NOT_LNE"

    def test_exponents(self, all_results):
        assert all_results["cusp"].l_set == pytest.approx(1.5, abs=0.1)
        assert all_results["abs_graph"].l_set == pytest.approx(1.0, abs=0.05)
        assert all_results["three_tangent"].l_set == pytest.approx(2.0, abs=0.1)
        assert all_results["three_tangent"].l_medial == pytest.approx(2.0, abs=0.1)
        assert all_results["horn3d"].l_medial == pytest.approx(2.0, abs=0.1)

    def test_remark_inequality_2d(self, results_2d):
        for label, res in results_2d.items():
            assert res.l_medial <= res.l_set + 0.1, label

    def test_horn_medial_center_curves(self, horn_result):
        # the two center curves are all the medial curves there are
        curves = horn_result.medial_curves
        assert len(curves) == 2
        ratios = sorted(
            float(c.point_at_radius(2.0 ** -9)[0] / c.point_at_radius(2.0 ** -9)[1] ** 2)
            for c in curves
        )
        assert ratios[0] == pytest.approx(-0.625, abs=0.01)
        assert ratios[1] == pytest.approx(0.625, abs=0.01)

    def test_horn_runs_without_the_grid(self, monkeypatch):
        from lnegerm import medial, scenarios

        def no_grid(*args, **kwargs):
            raise AssertionError("the medial grid ran")

        monkeypatch.setattr(scenarios, "extract_medial_axis_grid", no_grid)
        monkeypatch.setattr(medial, "extract_medial_axis_grid", no_grid)
        res = run_scenario(builtin("horn3d"))
        assert res.status == "PASS"

    def test_json_projection_keys(self, cusp_result):
        d = cusp_result.to_dict()
        assert {
            "label",
            "set_verdict",
            "medial_verdict",
            "L_set",
            "L_medial",
            "link_report",
            "pass",
        } <= set(d)
        assert d["pass"] is True


class TestSetVerdictRule:
    def test_curves_on_a_surface_take_the_link_verdict(self):
        # the arc criterion's radius graph does not join l2 to the wall and
        # would read NOT_LNE with L 2; the link criterion sees one component
        scn = Scenario(
            label="wall_lines",
            make_germ=lambda: wall_with_lines((0.125, 0.0, 0.0)),
            expected_set_verdict=None,
            expected_medial_verdict=None,
            expected_L_set=None,
            expected_L_medial=None,
            ambient_dim=3,
            medial_window=((-0.005, 0.005), (0.0, 0.32), (-0.005, 0.005)),
            medial_resolution=0.005,
            medial_scales=RunConfig().scales(),
        )
        res = run_scenario(scn)
        assert res.set_verdict is Verdict.LNE
        assert res.l_set == 1.0
        assert res.set_reports == ()
        assert res.link.verdict is Verdict.LNE


#: a plane branch (cos a, sin a) t^m + c t^e (-sin a, cos a): a = k pi/4 for
#: the drawn k, so that branches share tangents, and e only matters when c != 0
_plane_branch = st.tuples(
    st.sampled_from(["1", "1/2"]),
    st.integers(0, 7),
    st.sampled_from(["3/2", "2", "5/2", "3"]),
    st.integers(-3, 3),
).map(lambda b: (b[0], b[1], b[2] if b[3] else None, b[3]))


class TestPlaneFuzz:
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(st.lists(_plane_branch, min_size=1, max_size=4, unique=True))
    def test_random_plane_germs(self, specs):
        branches = []
        for i, (m, k, e, c) in enumerate(specs):
            a = k * math.pi / 4.0
            terms = [(Fraction(m), (math.cos(a), math.sin(a)))]
            if c:
                terms.append((Fraction(e), (-c * math.sin(a), c * math.cos(a))))
            branches.append(puiseux_branch(terms, 1.0, f"b{i}"))
        germ = germ_set(branches=branches, label="fuzz")
        config = RunConfig()
        try:
            res = run_scenario(scenario_for_germ(germ, config), config)
        except LnegermError:
            return  # typed failures are allowed; any other exception fails
        checks = {c.name: c for c in res.checks}
        assert checks["plane_implication"].passed is not False
        if res.l_set is not None and res.l_medial is not None:
            assert res.l_medial <= res.l_set + 0.1
        for r in res.set_reports:
            b1, b2 = (germ.branch(lab) for lab in r.pair)
            assert r.tord_exact == symbolic_separation_order(b1, b2).order
