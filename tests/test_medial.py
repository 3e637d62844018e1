"""Nearest-point sets, grid extraction, bisector tracing, branch tracking."""

import math

import numpy as np
import pytest

from lnegerm import (
    InputError,
    OnSetError,
    ResolutionError,
    builtin,
    extract_medial_axis_grid,
    germ_set,
    medial_branch_germs,
    nearest_point_set,
    puiseux_branch,
    reaches_origin,
    trace_bisector_2d,
)


class TestNearestPointSet:
    def test_single_nearest_point(self):
        germ = builtin("abs_graph").germ()
        # a point well off the axis of symmetry sees one branch only
        res = nearest_point_set((0.2, 0.1), germ)
        assert res.cluster_count == 1
        assert res.representatives[0].label == "abs_plus"

    def test_medial_point_has_two_feet(self):
        germ = builtin("abs_graph").germ()
        res = nearest_point_set((0.0, 0.2), germ)
        assert res.cluster_count == 2
        assert {f.label for f in res.representatives} == {"abs_plus", "abs_minus"}
        d1, d2 = (f.dist for f in res.representatives)
        assert abs(d1 - d2) <= 1e-3 * min(d1, d2)

    def test_on_set_query_rejected(self):
        germ = builtin("abs_graph").germ()
        p = germ.branch("abs_plus").point_at_radius(0.1)
        with pytest.raises(OnSetError):
            nearest_point_set(p, germ)

    def test_origin_rejected(self):
        germ = builtin("abs_graph").germ()
        with pytest.raises(OnSetError):
            nearest_point_set((0.0, 0.0), germ)

    def test_resolution_guard(self):
        from lnegerm import FootFinder

        germ = builtin("abs_graph").germ()
        # an explicitly coarse finder: spacing 1/8 against a query whose
        # distance to the set is ~7e-3
        finder = FootFinder(germ, 0.9, 8)
        with pytest.raises(ResolutionError):
            nearest_point_set((0.0, 1e-2), germ, finder=finder)


class TestFootFinder:
    def test_sampled_curve_branch_rejected(self):
        from lnegerm import FootFinder
        from lnegerm.medial import SampledCurve

        curve = SampledCurve("sampled", 2)
        for r in (0.1, 0.2, 0.4):
            curve.add_anchor((r, 0.0))
        line = puiseux_branch([(1, (0.0, 1.0))], 1.0, "line")
        with pytest.raises(InputError):
            FootFinder(germ_set(branches=(curve, line)), 0.3, 16)


class TestGridExtraction:
    def test_abs_graph_axis_on_y_axis(self, abs_result):
        axis = abs_result.axis
        h = axis.resolution
        coords = axis.coords()
        assert len(coords) > 10
        assert np.max(np.abs(coords[:, 0])) <= 2.0 * h
        assert np.min(coords[:, 1]) > 0

    def test_cusp_axis_on_x_axis(self, cusp_result):
        axis = cusp_result.axis
        coords = axis.coords()
        assert len(coords) > 10
        assert np.max(np.abs(coords[:, 1])) <= 2.0 * axis.resolution

    def test_equidistance_invariant(self, three_result):
        axis = three_result.axis
        for p, cluster in axis.points:
            dists = [f.dist for f in cluster.representatives]
            assert max(dists) - min(dists) <= 1e-3 * cluster.distance + 1e-12

    def test_distance_floor_invariant(self, three_result):
        axis = three_result.axis
        for _, cluster in axis.points:
            assert cluster.distance > axis.resolution

    def test_mirror_symmetry_cusp(self, cusp_result):
        # the cusp is mirror-symmetric in y; the axis must be too, up to
        # one grid cell
        coords = cusp_result.axis.coords()
        h = cusp_result.axis.resolution
        mirrored = coords * np.array([1.0, -1.0])
        for q in mirrored:
            assert np.min(np.linalg.norm(coords - q, axis=1)) <= h

    def test_three_tangent_branch_constants(self, three_result):
        # medial branches near y = (3/2) x^2 and y = (5/2) x^2
        ratios = set()
        for c in three_result.medial_curves:
            if c.flags:
                continue
            p = c.point_at_radius(0.01)
            ratios.add(round(p[1] / p[0] ** 2, 1))
        assert ratios == {1.5, 2.5}

    def test_window_must_match_dimension(self):
        germ = builtin("abs_graph").germ()
        with pytest.raises(InputError):
            extract_medial_axis_grid(germ, ((-1, 1),), 1.0 / 128)

    def test_resolution_cap(self):
        germ = builtin("abs_graph").germ()
        with pytest.raises(InputError):
            extract_medial_axis_grid(germ, ((-1, 1), (-1, 1)), 0.25)


class TestBisectorTrace:
    SCALES = [2.0 ** -k for k in range(3, 12)]

    def test_symmetric_lines(self):
        germ = builtin("abs_graph").germ()
        axis = trace_bisector_2d(*germ.branches, self.SCALES)
        assert not axis.failures
        for p, cluster in axis.points:
            assert abs(p[0]) <= 1e-10
            d1, d2 = (f.dist for f in cluster.representatives)
            assert abs(d1 - d2) <= 1e-10

    def test_parabola_pair_constant(self):
        b1 = puiseux_branch([(1, (1, 0)), (2, (0, 1))], 1.0, "a")
        b2 = puiseux_branch([(1, (1, 0)), (2, (0, 2))], 1.0, "b")
        axis = trace_bisector_2d(b1, b2, self.SCALES)
        assert not axis.failures
        small = [p for p, _ in axis.points if np.linalg.norm(p) < 0.05]
        assert small
        for p in small:
            assert p[1] / p[0] ** 2 == pytest.approx(1.5, rel=0.05)

    def test_rejects_3d(self):
        b1 = puiseux_branch([(1, (1, 0, 0))], 1.0, "a")
        b2 = puiseux_branch([(1, (0, 1, 0))], 1.0, "b")
        with pytest.raises(InputError):
            trace_bisector_2d(b1, b2, self.SCALES)

    def test_agrees_with_grid(self, three_result):
        # grid extraction and exact tracing must agree within 2h where both
        # exist (here: the central bisector of the parabola fan)
        germ = three_result.scenario.germ()
        axis = trace_bisector_2d(
            germ.branch("parab1"), germ.branch("parab2"), [0.25, 0.2, 0.15, 0.1]
        )
        grid_coords = three_result.axis.coords()
        h = three_result.axis.resolution
        checked = 0
        for p, cluster in axis.points:
            if cluster.distance < 2.0 * h:
                continue  # below the grid's distance floor; no counterpart
            assert np.min(np.linalg.norm(grid_coords - p, axis=1)) <= 2.0 * h
            checked += 1
        assert checked >= 3


class TestBranchTracking:
    def test_single_branch_for_abs_graph(self, abs_result):
        flagfree = [c for c in abs_result.medial_curves if not c.flags]
        assert len(flagfree) == 1
        tangent = flagfree[0].tangent().direction
        assert np.allclose(tangent, (0.0, 1.0), atol=0.05)

    def test_three_tangent_two_branches(self, three_result):
        flagfree = [c for c in three_result.medial_curves if not c.flags]
        assert len(flagfree) == 2
        for c in flagfree:
            assert np.allclose(c.tangent().direction, (1.0, 0.0), atol=0.05)

    def test_continuation_reaches_small_radii(self, three_result):
        for c in three_result.medial_curves:
            if not c.flags:
                assert reaches_origin(c, 2.0 ** -10)

    def test_empty_axis_rejected(self):
        from lnegerm.medial import MedialAxisSample

        with pytest.raises(InputError):
            medial_branch_germs(MedialAxisSample((), 0.01), [0.1, 0.05])
