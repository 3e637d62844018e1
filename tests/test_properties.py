"""Property-based tests (hypothesis) for the metric and series layers."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lnegerm import (
    EUCLID,
    WeightedMaxNorm,
    build_graph,
    estimate_order,
    induced_distance,
    inner_distance,
    outer_tangency_order,
    puiseux_branch,
    symbolic_separation_order,
)
from lnegerm.germs import merge_coincident

finite = st.floats(-10, 10, allow_nan=False, allow_infinity=False)
points_2d = st.tuples(finite, finite)
weights = st.lists(st.floats(0.1, 5.0), min_size=2, max_size=4)


class TestNorms:
    @given(points_2d, points_2d, weights.filter(lambda w: len(w) == 2))
    def test_max_norm_triangle_inequality(self, x, y, w):
        norm = WeightedMaxNorm(tuple(w))
        a = np.array(x)
        b = np.array(y)
        assert norm(a + b) <= norm(a) + norm(b) + 1e-12

    @given(points_2d, st.floats(0.0, 100.0))
    def test_homogeneity(self, x, lam):
        a = np.array(x)
        assert float(EUCLID(lam * a)) == pytest.approx(
            lam * float(EUCLID(a)), rel=1e-9, abs=1e-12
        )

    @given(points_2d, points_2d)
    def test_induced_symmetry(self, x, y):
        assert induced_distance(x, y) == induced_distance(y, x)


class TestOrderFit:
    @given(
        st.floats(0.3, 4.0),
        st.floats(0.1, 10.0),
        st.integers(5, 9),
    )
    def test_recovers_exponent_and_constant(self, alpha, const, n):
        scales = [2.0 ** -k for k in range(2, 2 + n)]
        fit = estimate_order([(t, const * t**alpha) for t in scales])
        assert fit.slope == pytest.approx(alpha, abs=1e-9)
        assert math.exp(fit.intercept) == pytest.approx(const, rel=1e-9)
        assert fit.confident


EXPONENTS = [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3)]


@st.composite
def tangent_branch_pairs(draw):
    """Pairs sharing a leading term, differing at a random later exponent."""
    split = draw(st.sampled_from(EXPONENTS[1:]))
    c1 = draw(st.floats(-2, 2).filter(lambda v: abs(v) > 0.1))
    c2 = draw(st.floats(-2, 2).filter(lambda v: abs(v) > 0.1))
    if abs(c1 - c2) < 0.1:
        c2 = c1 + math.copysign(0.5, c2)
    b1 = puiseux_branch([(1, (1.0, 0.0)), (split, (0.0, c1))], 1.0, "b1")
    b2 = puiseux_branch([(1, (1.0, 0.0)), (split, (0.0, c2))], 1.0, "b2")
    return b1, b2, split


class TestSeparationOrders:
    @settings(max_examples=25, deadline=None)
    @given(tangent_branch_pairs())
    def test_symbolic_matches_construction(self, pair):
        b1, b2, split = pair
        sep = symbolic_separation_order(b1, b2)
        assert sep.order == split

    @settings(max_examples=10, deadline=None)
    @given(tangent_branch_pairs())
    def test_numeric_matches_symbolic(self, pair):
        b1, b2, split = pair
        scales = [2.0 ** -k for k in range(4, 11)]
        fit, exact = outer_tangency_order(b1, b2, scales)
        assert exact == split
        assert fit.slope == pytest.approx(float(split), abs=0.05)


class TestMergeCoincident:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(points_2d, min_size=1, max_size=30),
        st.floats(1e-6, 0.5),
    )
    def test_merged_points_separated(self, pts, tol):
        pts = np.array(pts, dtype=float)
        labels = [{f"p{i % 3}"} for i in range(len(pts))]
        params = [{f"p{i % 3}": float(i)} for i in range(len(pts))]
        merged, mlabels, mparams, remap = merge_coincident(pts, labels, params, tol)
        assert len(merged) <= len(pts)
        assert len(remap) == len(pts)
        # every original label survives on its merged representative
        for i in range(len(pts)):
            assert labels[i] <= set(mlabels[remap[i]])


class TestGraphMetricInvariants:
    def test_random_triples(self, results_2d, config):
        from lnegerm import sample_cloud

        rng = np.random.default_rng(config.seed)
        for label, res in results_2d.items():
            cloud = sample_cloud(res.scenario.germ(), 0.25, 24)
            graph = build_graph(cloud, 4.0 * cloud.spacing)
            n = len(cloud)
            for _ in range(120):
                i, j, k = (int(v) for v in rng.integers(0, n, size=3))
                dij = inner_distance(graph, i, j)
                dji = inner_distance(graph, j, i)
                # Dijkstra accumulates edge weights in visit order, so the
                # two directions can differ by float rounding only
                assert dij == pytest.approx(dji, rel=1e-12, abs=1e-15)
                assert induced_distance(cloud.points[i], cloud.points[j]) <= dij + 1e-9
                dik = inner_distance(graph, i, k)
                dkj = inner_distance(graph, k, j)
                if math.isfinite(dik) and math.isfinite(dkj):
                    assert dij <= dik + dkj + 1e-9
