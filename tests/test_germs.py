"""Curve germs: construction, evaluation, reparametrization, series oracle,
and the germ JSON format."""

import collections
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
from conftest import load_module


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


def _reference_separation_order(b1, b2):
    """``symbolic_separation_order`` as it was before its short first cap:
    both branches aligned to the pair's full cap, compared in one pass."""
    cap = germs.separation_cap((b1, b2))
    (m1, a1), (m2, a2) = (germs._aligned_components(b, cap) for b in (b1, b2))
    lcm = math.lcm(m1, m2)
    lattice = np.zeros((2, b1.ambient_dim, math.ceil(cap * lcm)))
    lattice[0][:, :: lcm // m1] = a1
    lattice[1][:, :: lcm // m2] = a2
    diff = np.abs(lattice[0] - lattice[1]).max(axis=0)
    floor = germs.COEFF_TOL * np.maximum.accumulate(np.abs(lattice).max(axis=(0, 1)))
    hits = np.flatnonzero(diff > floor)
    if hits.size == 0:
        return germs.SeparationOrder(None, True, undecided_beyond=cap)
    return germs.SeparationOrder(Fraction(int(hits[0]), lcm), False, None)


#: (t, t^{6/5} + t^{4/3}/2 - 2 t^{7/4}) and (t, -t^{6/5} + 3 t^{5/2}): lattice
#: t^{1/60}, order 6/5, full cap 3 * 5/2 + 6
LCM_60 = (
    puiseux_branch(
        [(1, (1.0, 0.0)), ((6, 5), (0.0, 1.0)), ((4, 3), (0.0, 0.5)), ((7, 4), (0.0, -2.0))],
        1.0,
        "m1",
    ),
    puiseux_branch([(1, (1.0, 0.0)), ((6, 5), (0.0, -1.0)), ((5, 2), (0.0, 3.0))], 1.0, "m2"),
)
#: (s + s^2, s^3) and (s, s^3): y = x^3 - 3x^4 + ... against y = x^3, so
#: order 4, at the first cap max_exp + 1 = 4; only the second pass finds it
AT_FIRST_CAP = (
    puiseux_branch([(1, (1.0, 0.0)), (2, (1.0, 0.0)), (3, (0.0, 1.0))], 1.0, "x_bent"),
    puiseux_branch([(1, (1.0, 0.0)), (3, (0.0, 1.0))], 1.0, "x_straight"),
)


class TestShortFirstCap:
    """The oracle compares up to ``first_separation_cap`` first and goes to
    the full cap only for a pair that does not separate below it; every
    order is held to the full-cap body it replaced."""

    def _groups(self):
        digests = load_module("scripts/digests.py")
        groups = {}
        for name, b1, b2 in digests.order_pairs(digests.order_germs()):
            groups.setdefault(name, []).append((b1, b2))
        for seed in (0, 1, 2):
            for k, group in enumerate(_seeded_fans(seed)):
                pairs = list(itertools.combinations(group, 2))
                # a coincident copy never separates: INFINITE, after both passes
                pairs += [(b, puiseux_branch(b.terms, b.t_max, b.label + "_copy")) for b in group]
                groups[f"fans{seed}:{k}"] = pairs
        groups["lcm60"] = [LCM_60]
        groups["at_first_cap"] = [AT_FIRST_CAP]
        return groups

    def test_orders_match_the_full_cap_body(self):
        # every Puiseux pair of the digest germs (the default set and the
        # 210-germ plane family), the seeded fans with coincident copies,
        # the lcm-60 pair and a pair at the first cap; alone and through
        # one store per group, as pair_reports shares it
        seen = collections.Counter()
        for pairs in self._groups().values():
            branches = {b for pair in pairs for b in pair}
            aligned = germs.AlignedSeries(germs.first_separation_cap(branches))
            for b1, b2 in pairs:
                ref = _reference_separation_order(b1, b2)
                assert symbolic_separation_order(b1, b2) == ref, (b1.label, b2.label)
                assert symbolic_separation_order(b1, b2, aligned) == ref, (b1.label, b2.label)
                seen["infinite" if ref.infinite else "finite"] += 1
        assert seen["finite"] > 700 and seen["infinite"] > 300

    def test_pair_at_the_first_cap_takes_the_second_pass(self, monkeypatch):
        calls = []
        original = germs._aligned_components

        def recorded(b, cap):
            calls.append((b.label, cap))
            return original(b, cap)

        monkeypatch.setattr(germs, "_aligned_components", recorded)
        sep = symbolic_separation_order(*AT_FIRST_CAP)
        assert sep.order == 4 >= germs.first_separation_cap(AT_FIRST_CAP)
        assert calls == [("x_bent", 4), ("x_straight", 4), ("x_bent", 15), ("x_straight", 15)]
        # pair_reports' exact order takes the same second pass
        (report,) = pair_reports([AT_FIRST_CAP], [2.0**-k for k in range(4, 11)])
        assert report.tord_exact == 4

    def test_separating_pairs_align_to_the_first_cap_only(self, monkeypatch):
        # the lcm-60 pair separates at 6/5, below its first cap 7/2: each
        # branch is aligned once, to the first cap, and the lattice holds
        # 210 terms of t^{1/60}, not the full cap's 810
        calls = []
        original = germs._aligned_components
        monkeypatch.setattr(
            germs, "_aligned_components", lambda b, cap: calls.append(cap) or original(b, cap)
        )
        assert symbolic_separation_order(*LCM_60).order == Fraction(6, 5)
        assert calls == [Fraction(7, 2)] * 2


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
