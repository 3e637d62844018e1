"""Curve germs: construction, evaluation, reparametrization, series oracle,
and the germ JSON format."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from lnegerm import (
    DomainError,
    InputError,
    WeightedMaxNorm,
    estimate_order,
    germ_set,
    germset_from_json,
    germset_to_json,
    load_germ_file,
    puiseux_branch,
    sample_cloud,
    symbolic_separation_order,
)
from lnegerm import germs
from lnegerm.germs import merge_coincident
from lnegerm.tangency import pair_reports


def line(direction, label="line", t_max=1.0):
    d = np.asarray(direction, dtype=float)
    return puiseux_branch([(1, d / np.linalg.norm(d))], t_max, label)


class TestBranchConstruction:
    def test_exponents_sorted_and_fractional(self):
        b = puiseux_branch([((3, 2), (0, 1)), (1, (1, 0))], 1.0, "b")
        assert [e for e, _ in b.terms] == [Fraction(1), Fraction(3, 2)]

    def test_rejects_nonincreasing_exponents(self):
        with pytest.raises(InputError):
            puiseux_branch([(1, (1, 0)), (1, (0, 1))], 1.0, "b")

    def test_rejects_zero_coefficient(self):
        with pytest.raises(InputError):
            puiseux_branch([(1, (0.0, 0.0))], 1.0, "b")

    def test_rejects_nonpositive_t_max(self):
        with pytest.raises(InputError):
            puiseux_branch([(1, (1, 0))], 0.0, "b")

    @pytest.mark.parametrize(
        "coeff, t_max",
        [((math.nan, 1.0), 1.0), ((1.0, -math.inf), 1.0), ((1.0, 0.0), math.inf), ((1.0, 0.0), math.nan)],
        ids=["coeff_nan", "coeff_inf", "t_max_inf", "t_max_nan"],
    )
    def test_rejects_non_finite(self, coeff, t_max):
        with pytest.raises(InputError, match="finite"):
            puiseux_branch([(1, coeff)], t_max, "b")

    @pytest.mark.parametrize("weights", [(math.nan, 1.0), (1.0, math.inf)], ids=["nan", "inf"])
    def test_max_norm_rejects_non_finite_weights(self, weights):
        with pytest.raises(InputError, match="finite"):
            WeightedMaxNorm(weights)

    def test_eval_at_zero_is_origin(self):
        b = puiseux_branch([((1, 2), (1, 0)), (2, (0, 3))], 1.0, "b")
        assert np.allclose(b.eval(0.0), 0.0)

    def test_eval_outside_domain(self):
        b = line((1, 0))
        with pytest.raises(DomainError):
            b.eval(1.5)


class TestReparametrization:
    def test_param_at_radius_inverts_norm(self):
        b = puiseux_branch([(1, (1, 0)), (2, (0, 2))], 1.0, "b")
        for r in (0.5, 0.1, 1e-3):
            s = b.param_at_radius(r)
            assert math.isclose(float(np.linalg.norm(b.eval(s))), r, rel_tol=1e-12)

    def test_param_at_radius_max_norm(self):
        b = line((1, 1))
        norm = WeightedMaxNorm((1.0, 1.0))
        s = b.param_at_radius(0.25, norm)
        p = b.eval(s)
        assert math.isclose(float(np.max(np.abs(p))), 0.25, rel_tol=1e-12)

    def test_radius_beyond_reach(self):
        b = line((1, 0), t_max=0.1)
        with pytest.raises(DomainError):
            b.param_at_radius(0.5)


class TestArcLength:
    RADII = (0.5, 2.0**-3, 2.0**-9)

    def test_line_length_is_radius(self):
        b = line((3, 4))
        for r in self.RADII:
            assert math.isclose(b.arc_length(r), r, rel_tol=1e-12)

    def test_cusp_closed_form(self):
        b = puiseux_branch([(1, (1, 0)), ((3, 2), (0, 1))], 1.0, "cusp")
        for r in self.RADII:
            s = b.param_at_radius(r)
            exact = (8 / 27) * ((1 + 9 * s / 4) ** 1.5 - 1)
            assert math.isclose(b.arc_length(r), exact, rel_tol=1e-12)

    def test_matches_quad_on_thirds(self):
        b = puiseux_branch(
            [(1, (1, 0.3)), ((4, 3), (0, -2)), ((7, 3), (0.5, 1))], 1.0, "thirds"
        )
        for r in self.RADII:
            s = b.param_at_radius(r)
            ref, _ = quad(
                lambda x: float(np.linalg.norm(b.eval_deriv(x))),
                0.0, s, epsabs=0.0, epsrel=1e-13, limit=200,
            )
            assert math.isclose(b.arc_length(r), ref, rel_tol=1e-12)


class TestSeparationOrder:
    def test_tangent_parabolas_order_two(self):
        b1 = puiseux_branch([(1, (1, 0)), (2, (0, 1))], 1.0, "b1")
        b2 = puiseux_branch([(1, (1, 0)), (2, (0, 2))], 1.0, "b2")
        sep = symbolic_separation_order(b1, b2)
        assert not sep.infinite
        assert sep.order == Fraction(2)

    def test_cusp_pair_order_three_halves(self):
        b1 = puiseux_branch([(1, (1, 0)), ((3, 2), (0, 1))], 1.0, "b1")
        b2 = puiseux_branch([(1, (1, 0)), ((3, 2), (0, -1))], 1.0, "b2")
        assert symbolic_separation_order(b1, b2).order == Fraction(3, 2)

    def test_transverse_lines_order_one(self):
        sep = symbolic_separation_order(line((1, 0), "a"), line((0, 1), "b"))
        assert sep.order == Fraction(1)

    def test_identical_branches_flagged_infinite(self):
        b1 = line((1, 0), "a")
        b2 = line((1, 0), "b")
        sep = symbolic_separation_order(b1, b2)
        assert sep.infinite
        assert sep.undecided_beyond is not None


def plane(c, e, label):
    """(t, c t^e) in the plane; c = 0 is the x axis."""
    if e == 1:
        return puiseux_branch([(1, (1.0, float(c)))], 1.0, label)
    tail = [(e, (0.0, float(c)))] if c else []
    return puiseux_branch([(1, (1.0, 0.0))] + tail, 1.0, label)


class TestLatticeOracle:
    @pytest.mark.parametrize("e", ["1", "3/2", "2", "5/2", "3"])
    def test_plane_family_returns_e(self, e):
        # 42 ordered pairs per exponent; at e = 3/2 the aligned coefficients
        # grow like c^{2k} in t, which a floor set by the whole truncation hid
        e = Fraction(e)
        for c1 in range(-3, 4):
            for c2 in range(-3, 4):
                if c1 != c2:
                    sep = symbolic_separation_order(plane(c1, e, "a"), plane(c2, e, "b"))
                    assert (c1, c2, sep.order) == (c1, c2, e)

    @pytest.mark.parametrize("e", ["3/2", "2", "5/2", "3"])
    def test_large_coefficients(self, e):
        e = Fraction(e)
        for c1 in (-50, -20, -10, 10, 20, 50):
            for c2 in (-50, -20, -10, 10, 20, 50):
                if c1 != c2:
                    sep = symbolic_separation_order(plane(c1, e, "a"), plane(c2, e, "b"))
                    assert (c1, c2, sep.order) == (c1, c2, e)

    @pytest.mark.parametrize("lower, upper", [("3/2", "5/2"), ("5/3", "7/3"), ("2", "3")])
    def test_shared_lower_term(self, lower, upper):
        lower, upper = Fraction(lower), Fraction(upper)

        def branch(c, label):
            terms = [(1, (1.0, 0.0)), (lower, (0.0, 20.0)), (upper, (0.0, c))]
            return puiseux_branch(terms, 1.0, label)

        assert symbolic_separation_order(branch(-3.0, "a"), branch(2.0, "b")).order == upper

    def test_fan_pairs_transversal(self):
        exps = [Fraction(5, 2), Fraction(3, 2), Fraction(3), Fraction(2)]
        fan = [
            puiseux_branch(
                [(1, (1.0, -1.0 + 2.0 * k / 3)), (e, (0.0, 0.2 + 0.25 * k))], 1.0, f"f{k}"
            )
            for k, e in enumerate(exps)
        ]
        for i in range(4):
            for j in range(i + 1, 4):
                assert symbolic_separation_order(fan[i], fan[j]).order == 1

    def test_tangent_pair_takes_smaller_tail(self):
        b1 = puiseux_branch([(1, (1, 0)), ((7, 3), (0, 1))], 1.0, "b1")
        b2 = puiseux_branch([(1, (1, 0)), ((5, 2), (0, 1))], 1.0, "b2")
        assert symbolic_separation_order(b1, b2).order == Fraction(7, 3)


def _seeded_fans(seed, count=40):
    """Seeded groups of 2-4 branches (t d, c t^e ...) in the plane and in
    3D: a few shared tangent directions, tails with exponent denominators
    1-3, so pairs separate at orders from 1 to past the tails."""
    rng = np.random.default_rng(seed)
    groups = []
    for k in range(count):
        dim = 2 + k % 2
        group = []
        for j in range(int(rng.integers(2, 5))):
            d = np.zeros(dim)
            d[:2] = (1.0, float(rng.integers(0, 2)))
            terms = [(1, d)]
            for den in rng.integers(1, 4, size=int(rng.integers(1, 3))):
                e = Fraction(int(rng.integers(den + 1, 4 * den + 1)), int(den))
                if all(e != t for t, _ in terms):
                    terms.append((e, rng.uniform(-3.0, 3.0, dim)))
            group.append(puiseux_branch(terms, 1.0, f"f{k}_{j}"))
        groups.append(group)
    return groups


class TestSharedInversions:
    """``pair_reports`` inverts each branch's norm once, at the largest cap
    of its pairs, and every pair slices its own length off it."""

    def test_truncated_inversion_is_bitwise(self, monkeypatch):
        # the rule the sharing rests on, on the very series the oracle inverts
        inverted = []
        original = germs.invert_norm_series

        def recorded(q, m, n):
            inverted.append((q, m, n))
            return original(q, m, n)

        monkeypatch.setattr(germs, "invert_norm_series", recorded)
        for group in _seeded_fans(1):
            symbolic_separation_order(*group[:2])
        assert len(inverted) == 80
        for q, m, n in inverted:
            for longer in (n + 1, n + m, 2 * n):
                assert original(q, m, longer)[:n].tobytes() == original(q, m, n).tobytes()

    def test_shared_and_per_pair_orders_agree(self):
        # each branch is aligned once, at the group's largest cap; every
        # pair's slice has the bits of the branch aligned at the pair's cap
        orders = set()
        for group in _seeded_fans(0) + _seeded_fans(1) + _seeded_fans(2):
            aligned = germs.AlignedSeries(germs.separation_cap(group))
            for b1, b2 in itertools.combinations(group, 2):
                shared = symbolic_separation_order(b1, b2, aligned)
                assert shared == symbolic_separation_order(b1, b2)
                orders.add(shared.order)
                cap = germs.separation_cap((b1, b2))
                for b in (b1, b2):
                    alone = germs._aligned_components(b, cap)
                    sliced = aligned.of(b, cap)
                    assert alone[0] == sliced[0]
                    assert alone[1].tobytes() == sliced[1].tobytes()
        assert len(orders) >= 5

    def test_each_branch_aligned_once_per_pair_reports(self, monkeypatch):
        calls = []
        original = germs._aligned_components

        def recorded(b, cap):
            calls.append(b)
            return original(b, cap)

        monkeypatch.setattr(germs, "_aligned_components", recorded)
        for group in _seeded_fans(3, count=8):
            calls.clear()
            pair_reports(itertools.combinations(group, 2), [2.0**-k for k in range(4, 11)])
            assert sorted(map(id, calls)) == sorted(map(id, group))


class TestSampling:
    def test_cloud_meets_spacing_bound(self):
        germ = germ_set(
            branches=(line((1, 0), "a"), line((0, 1), "b")), label="cross"
        )
        cloud = sample_cloud(germ, 0.5, 16)
        assert cloud.spacing == 0.5 / 16
        assert np.all(np.linalg.norm(cloud.points, axis=1) <= cloud.scale)
        assert set(cloud.tip_index) == {"a", "b"}

    def test_origin_shared_across_pieces(self):
        germ = germ_set(
            branches=(line((1, 0), "a"), line((0, 1), "b")), label="cross"
        )
        cloud = sample_cloud(germ, 0.5, 16)
        origins = [
            i
            for i, p in enumerate(cloud.points)
            if np.linalg.norm(p) < 1e-12
        ]
        assert len(origins) == 1
        assert cloud.labels[origins[0]] == {"a", "b"}

    def test_density_floor(self):
        germ = germ_set(branches=(line((1, 0)),), label="l")
        with pytest.raises(InputError):
            sample_cloud(germ, 0.5, 4)

    def test_sample_germ_rejects_bad_ladders(self):
        # estimate_order is the caller of the one scale-ladder check
        with pytest.raises(InputError, match="strictly decreasing"):
            estimate_order([(t, t) for t in (0.1, 0.2, 0.4, 0.8, 1.6)])
        with pytest.raises(InputError, match="geometric sequence"):
            estimate_order([(t, t) for t in (0.4, 0.2, 0.15, 0.1, 0.05)])

    def test_merge_coincident_unions_labels(self):
        pts = np.array([[0.0, 0.0], [1e-12, 0.0], [1.0, 0.0]])
        merged, labels, params, remap = merge_coincident(
            pts, [{"a"}, {"b"}, {"a"}], [{"a": 0.0}, {"b": 0.0}, {"a": 1.0}], 1e-9
        )
        assert len(merged) == 2
        assert labels[remap[0]] == {"a", "b"}


class TestGermJson:
    def test_round_trip(self):
        germ = germ_set(
            branches=(
                puiseux_branch([(1, (1, 0)), ((3, 2), (0, -1))], 0.7, "b"),
            ),
            label="g",
        )
        back = germset_from_json(germset_to_json(germ))
        assert back.label == "g"
        assert back.branches[0].t_max == 0.7
        for (e1, c1), (e2, c2) in zip(back.branches[0].terms, germ.branches[0].terms):
            assert e1 == e2
            assert np.array_equal(c1, c2)

    def test_exponents_must_be_integer_pairs(self):
        data = {
            "label": "g",
            "ambient_dim": 2,
            "branches": [
                {
                    "label": "b",
                    "t_max": 1.0,
                    "terms": [{"exp": [1.5, 1], "coeff": [1.0, 0.0]}],
                }
            ],
        }
        with pytest.raises(InputError):
            germset_from_json(data)

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(InputError):
            load_germ_file(path)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(InputError):
            germ_set(branches=(line((1, 0), "a"), line((0, 1), "a")), label="g")
