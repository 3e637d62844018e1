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


def _sequential_direction_groups(vecs, dists):
    """The one-candidate-at-a-time grouping ``_direction_groups`` replaces:
    join the earlier seed of largest cosine if it reaches the split, else
    seed a new group (direction 0 within 1e-14 of the query)."""
    from lnegerm.medial import _COS_FOOT_SPLIT

    seed_dirs = np.zeros((0, vecs.shape[1]))
    group_of = []
    for v, d in zip(vecs, dists):
        d = float(d)
        gi = -1
        if d > 1e-14:
            u = v / d
            if len(seed_dirs):
                cos = seed_dirs @ u
                gi = int(np.argmax(cos))
                if cos[gi] < _COS_FOOT_SPLIT:
                    gi = -1
        if gi < 0:
            gi = len(seed_dirs)
            seed_dirs = np.vstack([seed_dirs, u[None, :] if d > 1e-14 else np.zeros((1, len(v)))])
        group_of.append(gi)
    return group_of, len(seed_dirs)


def _rotation(rng, dim):
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q


def _sorted_candidates(vecs):
    vecs = np.asarray(vecs, dtype=float)
    dists = np.linalg.norm(vecs, axis=1)
    order = np.argsort(dists, kind="stable")
    return vecs[order], dists[order]


class TestDirectionGroups:
    """``_direction_groups`` makes every decision the sequential loop makes."""

    def check(self, vecs, dists):
        from lnegerm.medial import _direction_groups

        group_of, n_groups = _direction_groups(vecs, dists)
        assert (group_of.tolist(), n_groups) == _sequential_direction_groups(vecs, dists)
        return group_of

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_candidates(self, dim, seed):
        rng = np.random.default_rng(seed)
        # clustered directions, as around a ring of feet, plus scatter
        centres = rng.normal(size=(6, dim))
        vecs = np.concatenate(
            [centres[rng.integers(6, size=200)] + 0.15 * rng.normal(size=(200, dim)),
             rng.normal(size=(60, dim))]
        )
        vecs *= rng.uniform(0.5, 1.0, size=(len(vecs), 1))
        group_of = self.check(*_sorted_candidates(vecs))
        assert 1 < group_of.max() + 1 < len(vecs)

    @staticmethod
    def fan(rng, dim, seed_angles, offsets):
        """Unit seeds at seed_angles (nearest first), then candidates at the
        given angles, in a random plane of R^dim."""
        angles = np.concatenate([seed_angles, offsets])
        vecs = np.zeros((len(angles), dim))
        vecs[:, 0], vecs[:, 1] = np.cos(angles), np.sin(angles)
        radii = np.concatenate(
            [np.full(len(seed_angles), 0.5), rng.uniform(0.6, 1.0, len(offsets))]
        )
        return _sorted_candidates(vecs @ _rotation(rng, dim).T * radii[:, None])

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("seed", range(2))
    def test_cosines_at_the_split(self, dim, seed):
        # candidates within an ulp or two of the split from a lone seed:
        # there ``seed @ u`` and the column ``U @ seed`` round differently
        # and fall on either side of the split
        rng = np.random.default_rng(100 + seed)
        for _ in range(300):
            near = rng.choice([-1, 1], 30) * (0.2 + rng.uniform(0.0, 9e-16, 30))
            self.check(*self.fan(rng, dim, np.zeros(1), near))

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_near_ties_between_seeds(self, dim, seed):
        # candidates midway between two seeds 0.3 rad apart, their two
        # cosines a few ulp apart (the OpenBLAS of numpy 2.4 wheels rounds
        # ``seeds @ u`` and ``U @ seed`` alike once there are two or more
        # seeds, so there the exact recompute of ties runs but changes
        # nothing)
        rng = np.random.default_rng(200 + seed)
        seeds = np.array([0.0, 0.3, 2.0, 2.3])
        mid = seeds[2 * rng.integers(2, size=2000)] + 0.15 + rng.uniform(-1e-15, 1e-15, 2000)
        self.check(*self.fan(rng, dim, seeds, mid))

    def test_exact_split_joins(self):
        from lnegerm.medial import _COS_FOOT_SPLIT

        c = _COS_FOOT_SPLIT
        s = math.sqrt(1.0 - c * c)
        vecs = np.array([[1.0, 0.0, 0.0], [c, s, 0.0], [c, -s, 0.0]])
        dists = np.linalg.norm(vecs, axis=1)
        assert dists[1] == 1.0 and vecs[1] @ vecs[0] == c
        assert self.check(vecs, dists).tolist() == [0, 0, 0]
        # one ulp below the split, at unit distance: a new group
        b = math.nextafter(c, 0.0)
        below = np.array([[1.0, 0.0], [b, math.sqrt(1.0 - b * b)]])
        assert np.linalg.norm(below[1]) == 1.0
        assert self.check(below, np.linalg.norm(below, axis=1)).tolist() == [0, 1]

    def test_duplicate_directions_and_ties(self):
        # repeated candidates, and candidates exactly between two seeds
        a = 0.15
        vecs = np.array(
            [[math.cos(a), math.sin(a)], [math.cos(a), -math.sin(a)]] * 3
            + [[2.0, 0.0], [2.0, 0.0], [3.0, 0.0]]
        )
        group_of = self.check(*_sorted_candidates(vecs))
        assert group_of.max() == 1
        rng = np.random.default_rng(7)
        dup = rng.normal(size=(20, 3))
        self.check(*_sorted_candidates(np.concatenate([dup, dup, 2.0 * dup])))

    def test_zero_distance_candidates(self):
        vecs = np.array([[0.0, 0.0, 0.0], [1e-15, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.01, 0.0]])
        dists = np.linalg.norm(vecs, axis=1)
        assert self.check(vecs, dists).tolist() == [0, 1, 2, 2]

    def test_single_candidate(self):
        assert self.check(np.array([[0.3, 0.4]]), np.array([0.5])).tolist() == [0]
        assert self.check(np.zeros((1, 3)), np.zeros(1)).tolist() == [0]


class TestDropRepeats:
    def test_matches_pairwise_loop(self):
        # the loop ``_drop_repeats`` replaces: keep a foot unless some
        # earlier kept foot lies within tol
        from lnegerm.medial import Foot, _drop_repeats

        rng = np.random.default_rng(0)
        tol = 1e-6
        # offsets at distance tol within rounding, along an axis and a
        # diagonal, where only the norm itself decides
        edge = tol * np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 1.0] / np.sqrt(3.0)])
        for _ in range(500):
            m = int(rng.integers(1, 30))
            base = rng.uniform(0.0, 5e-6, size=(m, 3))
            spread = float(rng.choice([0.0, 3e-7, 1e-6]))
            points = base[rng.integers(m, size=m)] + rng.normal(scale=spread, size=(m, 3))
            at_edge = rng.random(m) < 0.3
            points[at_edge] = points[0] + edge[rng.integers(2, size=at_edge.sum())] * (
                1.0 + rng.uniform(-1e-15, 1e-15, size=(at_edge.sum(), 1))
            )
            feet = [Foot(point=p, dist=0.0, label="p", param=None) for p in points]
            kept = []
            for f in feet:
                if not any(np.linalg.norm(f.point - g.point) <= tol for g in kept):
                    kept.append(f)
            assert _drop_repeats(feet, tol) == kept


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
