"""Link sections and the link-based LNE criterion."""

import math

import numpy as np
import pytest

from lnegerm import (
    EUCLID,
    InputError,
    RunConfig,
    Verdict,
    WeightedMaxNorm,
    builtin,
    germ_set,
    link_criterion_verdict,
    link_section,
    llne_test,
    puiseux_branch,
)
from lnegerm.links import _link_ratio
from lnegerm.surfaces import HornPiece, WallPiece

SCALES = tuple(2.0 ** -k for k in range(3, 10))


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

    def test_all_empty_rejected(self):
        short = puiseux_branch([(1, (1, 0))], 1e-4, "short")
        germ = germ_set(branches=(short,), label="g")
        with pytest.raises(InputError):
            llne_test(germ, SCALES)

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
