"""Batched fits and quadrature: bitwise equal to the per-call paths they
replaced.

``tangency.estimate_orders`` fits every column of one ladder in one
least-squares solve, and ``PuiseuxBranch.arc_lengths_at`` integrates every
parameter of a branch in one quadrature pass.  Each is held here to a copy
of the one-column ``estimate_order`` and of the per-parameter quadrature
as they were before, on every fit and every arc length that the analyses of
the 73 germs of ``scripts/digests.py`` ask for, and on seeded random inputs.
Every comparison is on the float's hex.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from lnegerm import InputError, puiseux_branch, run_scenario, tangency
from lnegerm.germs import (
    _ARC_NODES,
    _ARC_WEIGHTS,
    MIN_SCALES,
    PuiseuxBranch,
    check_scale_ladder,
)
from lnegerm.tangency import RESIDUAL_GATE, estimate_orders
from conftest import load_module


def _old_estimate_order(samples):
    """``tangency.estimate_order`` as it was before ``estimate_orders``."""
    samples = [(float(t), float(f)) for t, f in samples]
    scales = [t for t, _ in samples]
    if len(scales) < MIN_SCALES:
        raise InputError(f"need at least {MIN_SCALES} scales, got {len(scales)}")
    check_scale_ladder(scales)
    values = np.array([f for _, f in samples])
    if np.any(values <= 0):
        raise InputError("order undefined: nonpositive sample value")
    lt = np.log(np.asarray(scales))
    lf = np.log(values)
    slope, intercept = np.polyfit(lt, lf, 1)
    resid = float(np.sqrt(np.mean((lf - (slope * lt + intercept)) ** 2)))
    confident = resid <= RESIDUAL_GATE and len(scales) >= MIN_SCALES
    return float(slope), float(intercept), resid, tuple(scales), confident


def _old_arc_length(branch, s):
    """A branch's arc length to gamma(s) as it was measured before
    ``arc_lengths_at``: one quadrature pass per parameter."""
    n, powers = branch.u_powers
    u_r = s ** (1.0 / n)
    u = 0.5 * u_r * (_ARC_NODES + 1.0)
    velocity = sum(
        p * np.power(u, p - 1)[:, None] * np.asarray(c, dtype=float)
        for p, (_, c) in zip(powers, branch.terms)
    )
    return float(0.5 * u_r * _ARC_WEIGHTS @ np.linalg.norm(velocity, axis=1))


def _fit_bits(fit):
    return (
        fit.slope.hex(),
        fit.intercept.hex(),
        fit.residual.hex(),
        fit.scales_used,
        fit.confident,
    )


def _old_fit_bits(samples):
    slope, intercept, resid, scales, confident = _old_estimate_order(samples)
    return slope.hex(), intercept.hex(), resid.hex(), scales, confident


def _digest_cases():
    """The 73 germs of ``scripts/digests.py``: plane_sweep and arc_fan at
    seeds 0-7, horn3d at seed 0."""
    module = load_module("perfbench/workloads.py", "perfbench_workloads")
    sets = (("plane_sweep", range(8)), ("arc_fan", range(8)), ("horn3d", range(1)))
    return [
        case
        for workload, seeds in sets
        for seed in seeds
        for case in module.build_cases(workload, seed)
    ]


@pytest.fixture(scope="module")
def digest_calls():
    """(fits, lengths): every pass (scales, columns) of the fit body that
    ``estimate_orders`` and ``pair_reports`` share, and every
    ``arc_lengths_at`` call (branch, params) of the digest germs'
    analyses."""
    fits, lengths = [], []
    fit, integrate = tangency._fit_columns, PuiseuxBranch.arc_lengths_at

    def fit_recorded(scales, columns):
        fits.append((list(scales), [list(c) for c in columns]))
        return fit(scales, columns)

    def integrate_recorded(self, params):
        lengths.append((self, list(params)))
        return integrate(self, params)

    cases = _digest_cases()
    assert len(cases) == 73
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tangency, "_fit_columns", fit_recorded)
        mp.setattr(PuiseuxBranch, "arc_lengths_at", integrate_recorded)
        for case in cases:
            run_scenario(case.scenario, case.config)
    return fits, lengths


def test_digest_fits_are_the_one_column_fits(digest_calls):
    fits, _ = digest_calls
    # the set and medial pairs fit many columns at once, the link fits one
    assert max(len(columns) for _, columns in fits) >= 6
    assert any(len(columns) == 1 for _, columns in fits)
    for scales, columns in fits:
        got = estimate_orders(scales, columns)
        assert len(got) == len(columns)
        for fit, column in zip(got, columns):
            assert _fit_bits(fit) == _old_fit_bits(zip(scales, column)), (scales, column)


def test_random_ladders_fit_column_by_column():
    # ladders of 5-14 scales, 1-19 columns of noisy power laws each; one
    # np.polyfit with a 2-D right-hand side would differ in the last bit
    # on most ladders of 8 scales or more
    rng = random.Random(26)
    for _ in range(300):
        levels, width = rng.randint(5, 14), rng.randint(1, 19)
        top, ratio = rng.uniform(0.01, 1.0), rng.uniform(0.3, 0.9)
        scales = [top * ratio**k for k in range(levels)]
        columns = [
            [
                rng.uniform(0.1, 10.0) * t ** rng.uniform(0.5, 4.0) * (1.0 + rng.uniform(-0.1, 0.1))
                for t in scales
            ]
            for _ in range(width)
        ]
        for fit, column in zip(estimate_orders(scales, columns), columns):
            assert _fit_bits(fit) == _old_fit_bits(zip(scales, column))


def test_digest_arc_lengths_are_the_per_scale_lengths(digest_calls):
    _, lengths = digest_calls
    assert len(lengths) >= 100
    for branch, params in lengths:
        got = branch.arc_lengths_at(params)
        assert [v.hex() for v in got] == [_old_arc_length(branch, s).hex() for s in params]


def test_random_branch_arc_lengths():
    # exponents with denominators 1-3 in 2D and 3D, parameters across the
    # whole range, in one pass per branch
    rng = random.Random(7)
    for k in range(60):
        dim = 2 + k % 2
        dens = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
        exps = sorted({Fraction(rng.randint(1, 4 * d), d) for d in dens})
        terms = [(e, [rng.uniform(-3.0, 3.0) for _ in range(dim)]) for e in exps]
        b = puiseux_branch(terms, rng.uniform(0.05, 2.0), f"b{k}")
        params = [0.0, b.t_max] + [rng.uniform(0.0, b.t_max) for _ in range(rng.randint(1, 12))]
        got = b.arc_lengths_at(params)
        assert [v.hex() for v in got] == [_old_arc_length(b, s).hex() for s in params]
        assert b.arc_lengths_at(params[-1:])[0].hex() == got[-1].hex()


def test_columns_must_match_the_ladder():
    scales = [2.0**-k for k in range(4, 11)]
    with pytest.raises(InputError, match="one value per scale"):
        estimate_orders(scales, [scales[:-1]])
    with pytest.raises(InputError, match="one value per scale"):
        estimate_orders(scales, scales)
    assert math.isclose(estimate_orders(scales, [scales])[0].slope, 1.0)
