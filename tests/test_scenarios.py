"""Scenario registry and runner."""

import dataclasses
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lnegerm import (
    EUCLID,
    InputError,
    LnegermError,
    MedialConfig,
    PuiseuxBranch,
    RegistryError,
    RunConfig,
    Verdict,
    builtin,
    germ_set,
    puiseux_branch,
    run_scenario,
    symbolic_separation_order,
)
from lnegerm import germs, surfaces
from lnegerm.scenarios import (
    BUILTIN_LABELS,
    Scenario,
    combine_verdicts,
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
        # the center pair is tangent to order 2 and meets only at 0, so its
        # inner order is 1: not LNE
        (rep,) = horn_result.medial_reports
        assert abs(rep.tord.slope - 2.0) <= 0.01
        assert abs(rep.tord_inn.slope - 1.0) <= 0.01
        assert rep.verdict is Verdict.NOT_LNE

    def test_horn_runs_without_the_grid(self, monkeypatch):
        from lnegerm import medial, scenarios

        def no_grid(*args, **kwargs):
            raise AssertionError("the medial grid or a FootFinder ran")

        monkeypatch.setattr(scenarios, "extract_medial_axis_grid", no_grid)
        monkeypatch.setattr(medial, "extract_medial_axis_grid", no_grid)
        monkeypatch.setattr(medial.FootFinder, "__init__", no_grid)
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

    def test_axis_reaches_origin_on_a_short_ladder(self):
        # t_max < 4 t_min: the check asks for the smallest scale,
        # which every selected branch holds as an anchor
        config = RunConfig(t_min=0.1, t_max=0.125)
        res = run_scenario(scenario_for_germ(builtin("cusp").germ(), config), config)
        assert res.set_verdict is Verdict.NOT_LNE
        (check,) = [c for c in res.checks if c.name == "axis_reaches_origin"]
        assert check.passed is True
        assert check.detail == "continuation to radius 0.1 on 1 tracked branch(es)"
        assert res.status != "FAIL"

    def test_axis_reaches_origin_undecided_without_branches(self, monkeypatch):
        # no bisector solve holds, so no branch is selected and the medial
        # verdict is UNDECIDED: the check is undecided too, not failed
        from lnegerm import TraceError, medial

        def no_root(b1, b2, r, *rest):
            raise TraceError(f"no root at radius {r}")

        monkeypatch.setattr(medial, "_bisector_point", no_root)
        res = run_scenario(builtin("cusp"))
        assert res.set_verdict is Verdict.NOT_LNE
        assert res.medial_verdict is Verdict.UNDECIDED
        (check,) = [c for c in res.checks if c.name == "axis_reaches_origin"]
        assert check.passed is None
        assert check.detail == "continuation to radius 0.0009766 on 0 tracked branch(es)"
        assert res.status == "INCONCLUSIVE"


@pytest.mark.parametrize(
    "field, value",
    [
        ("t_min", math.nan),
        ("t_max", math.inf),
        ("order_tolerance", math.nan),
        ("order_tolerance", math.inf),
        ("weights", (math.nan, 1.0)),
        ("weights", (1.0, math.inf)),
    ],
)
def test_config_rejects_non_finite(field, value):
    # NaN and inf pass every <= check; each must be named where it enters
    with pytest.raises(InputError, match="finite"):
        RunConfig(**{field: value})


def test_config_weights_need_the_max_norm():
    # only the weighted max norm reads weights; under any other they would be
    # echoed in the report as if applied
    with pytest.raises(InputError, match="weights"):
        RunConfig(weights=(2.0, 1.0))
    assert RunConfig(norm_kind="maxv", weights=(2, 1)).weights == (2.0, 1.0)


#: (config class, field, value of the wrong type); unchecked, each ends in a
#: raw TypeError or ValueError, at once or later in the analysis, or in none
_WRONG_TYPES = {
    "levels_float": (RunConfig, "levels", 7.5),
    "levels_bool": (RunConfig, "levels", True),
    "density_float": (RunConfig, "density", 20.5),
    "seed_bool": (RunConfig, "seed", True),
    "t_min_string": (RunConfig, "t_min", "x"),
    "order_tolerance_none": (RunConfig, "order_tolerance", None),
    "weights_number": (RunConfig, "weights", 3),
    "weights_string_entry": (RunConfig, "weights", [1, "a"]),
    "medial_number": (RunConfig, "medial", 5),
    "norm_kind_number": (RunConfig, "norm_kind", 3),
    "output_format_number": (RunConfig, "output_format", 1),
    "plot_dir_number": (RunConfig, "plot_dir", 3),
    "theta_min_string": (MedialConfig, "theta_min", "a"),
    "resolution_string": (MedialConfig, "resolution", "a"),
    "window_list": (MedialConfig, "window", [[0.0, 1.0]]),
}


@pytest.mark.parametrize("case", list(_WRONG_TYPES))
def test_config_rejects_wrong_types(case):
    make, field, value = _WRONG_TYPES[case]
    with pytest.raises(InputError, match=f"^{field} must be (a|an|None) "):
        make(**{field: value})


class TestOneLadder:
    def test_default_ladder_is_exact(self):
        # float == is bitwise here: every entry is an exact power of two
        want = tuple(2.0**-k for k in range(4, 11))
        assert RunConfig().scales() == want
        assert RunConfig(t_max=2**-4, t_min=2**-10).scales() == want

    def test_every_stage_takes_the_configured_ladder(self):
        config = RunConfig(t_min=2.0**-8, levels=5)
        scales = config.scales()
        res = run_scenario(builtin("three_tangent"), config)
        assert res.link.report.scales == scales
        assert res.axis.resolution == scales[-1]
        assert [c.ladder for c in res.medial_curves] == [scales, scales]
        for r in res.set_reports + res.medial_reports:
            assert r.tord.scales_used == scales


class TestOneSolvePerAnalysis:
    @pytest.mark.parametrize(
        "label, config, solves",
        [
            ("three_tangent", RunConfig(), {"euclid": 21}),
            ("cusp", RunConfig(), {"euclid": 14}),
            # the link sections solve under maxv, the other stages under Euclid
            ("abs_graph", RunConfig(norm_kind="maxv"), {"maxv": 14, "euclid": 14}),
        ],
    )
    def test_each_parameter_solved_once(self, monkeypatch, label, config, solves):
        # the link sections, the set pairs and the medial bisectors share
        # one table: each (branch, ladder radius, norm) is solved once
        calls = []
        original = PuiseuxBranch.param_at_radius

        def counted(self, r, norm=EUCLID):
            calls.append((self.label, r, norm))
            return original(self, r, norm)

        monkeypatch.setattr(PuiseuxBranch, "param_at_radius", counted)
        run_scenario(builtin(label), config)
        assert len(calls) == len(set(calls))
        assert Counter(norm.name for _, _, norm in calls) == solves

    @pytest.mark.parametrize("config", [RunConfig(), RunConfig(norm_kind="maxv")])
    def test_each_surface_piece_solved_once(self, monkeypatch, config):
        # the 7 link sections of horn3d's 3 pieces come from one lane pass
        # over all three pieces, on the whole ladder, under the link's norm
        # and density
        calls = []
        original = surfaces._sphere_sections

        def counted(pieces, ts, norm, density):
            calls.append((tuple(piece.label for piece in pieces), tuple(ts), norm, density))
            return original(pieces, ts, norm, density)

        monkeypatch.setattr(surfaces, "_sphere_sections", counted)
        run_scenario(builtin("horn3d"), config)
        assert calls == [
            (
                ("horn_pos", "horn_neg", "wall"),
                tuple(sorted(config.scales(), reverse=True)),
                config.norm(3),
                config.density,
            )
        ]

    @pytest.mark.parametrize("label, inversions", [("three_tangent", 3), ("cusp", 2)])
    def test_each_branch_inverted_once(self, monkeypatch, label, inversions):
        # the set pairs share one norm inversion per branch, however many
        # pairs the branch is in
        calls = []
        original = germs.invert_norm_series
        monkeypatch.setattr(
            germs, "invert_norm_series", lambda *a: calls.append(a) or original(*a)
        )
        run_scenario(builtin(label))
        assert len(calls) == inversions


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
            b1, b2 = ({b.label: b for b in germ.branches}[lab] for lab in r.pair)
            assert r.tord_exact == symbolic_separation_order(b1, b2).order
