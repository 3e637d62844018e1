"""Scenario registry and runner."""

import dataclasses

import pytest

from lnegerm import MedialConfig, RegistryError, RunConfig, Verdict, builtin, run_scenario
from lnegerm.scenarios import BUILTIN_LABELS, Scenario, combine_verdicts, medial_grid
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
        from lnegerm.scenarios import _off_axis_ribbon

        ribbons = [c for c in horn_result.medial_curves if _off_axis_ribbon(c)]
        assert len(ribbons) == 2
        ratios = sorted(
            float(c.point_at_radius(2.0 ** -9)[0] / c.point_at_radius(2.0 ** -9)[1] ** 2)
            for c in ribbons
        )
        assert ratios[0] == pytest.approx(-0.625, abs=0.01)
        assert ratios[1] == pytest.approx(0.625, abs=0.01)

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
