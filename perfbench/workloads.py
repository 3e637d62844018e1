"""Seeded germ generators for the benchmark workloads, and the grading of
each analysed germ against its exact oracle.

The package only ever sees the generated germs: every case goes through
``lnegerm.scenarios.run_scenario``, the function ``lnegerm analyze`` calls.
Cases are rebuilt from the seed on every pass, so no germ object (and no
cache keyed by one) is shared between passes.
"""

from __future__ import annotations

import random
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from lnegerm import MedialConfig, RunConfig, builtin, germ_set, puiseux_branch
from lnegerm.scenarios import scenario_for_germ
from lnegerm.tangency import RESIDUAL_GATE, Verdict

#: exponents of the random two-branch plane germs (t, c t^e), one germ each
PLANE_EXPONENTS = (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3))
PLANE_COEFFS = range(-3, 4)
#: one exponent per fan branch, in seeded order
FAN_EXPONENTS = (Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3))
#: the smallest crop of the horn3d medial window that keeps its verdicts
#: (narrower x or z extents lose the medial pair); y spans 64 grid steps,
#: the least the grid extractor accepts at this resolution
HORN_WINDOW = ((-0.14, 0.14), (0.0, 0.64), (-0.05, 0.05))
HORN_RESOLUTION = 0.01

#: a fitted order may differ from its exact value by the acceptance tolerance
ORDER_TOLERANCE = RunConfig().order_tolerance

#: known defects the workloads surface, by name: each maps to a phrase of
#: the recorded cause of a failed or UNDECIDED germ (see README.md)
KNOWN_DEFECTS = {
    "negative_lead_power": "rational power needs a positive leading coefficient",
    "axis_misses_origin": "check axis_reaches_origin",
    "residual_gate": "fit residual",
    "medial_empty": "no tracked branch selected",
}


@dataclass(frozen=True)
class Case:
    """One germ to analyse, with the exact orders its pairs must show.

    ``set_order`` is the exact outer separation order of every curve pair
    of the germ; ``medial_orders`` the exact (outer, inner) orders of every
    tracked medial pair.  None means no oracle.  ``timed`` germs make up the
    end-to-end timings: those whose cost does not depend on the seed.
    """

    name: str
    scenario: object
    config: RunConfig
    set_order: Fraction | None
    medial_orders: tuple | None = None
    timed: bool = True


def _plane_germ(label: str, e: Fraction, coeffs) -> object:
    branches = []
    for k, c in enumerate(coeffs):
        if e == 1:
            terms = [(1, (1.0, float(c)))]
        else:
            terms = [(1, (1.0, 0.0))] + ([(e, (0.0, float(c)))] if c else [])
        branches.append(puiseux_branch(terms, t_max=1.0, label=f"b{k}"))
    return germ_set(branches=branches, label=label)


def plane_sweep(seed: int) -> list:
    """The three plane builtins, then one random germ (t, c_k t^e) per
    exponent with distinct integer c_1, c_2 in [-3, 3].

    The random germs are analysed and graded but left out of the end-to-end
    timings: over the whole family their analysis takes 0.1 to 4.6 s
    (a germ that raises ends early), which would make a pass's time depend
    on the seed far more than on the code.
    """
    config = RunConfig()
    cases = [
        Case("cusp", builtin("cusp"), config, Fraction(3, 2)),
        Case("abs_graph", builtin("abs_graph"), config, Fraction(1)),
        Case(
            "three_tangent",
            builtin("three_tangent"),
            config,
            Fraction(2),
            (Fraction(2), Fraction(1)),
        ),
    ]
    rng = random.Random(seed)
    for e in PLANE_EXPONENTS:
        c1, c2 = rng.sample(PLANE_COEFFS, 2)
        label = f"plane_e{e}_c{c1}_{c2}".replace("/", "_")
        germ = _plane_germ(label, e, (c1, c2))
        cases.append(Case(label, scenario_for_germ(germ, config), config, e, timed=False))
    return cases


def arc_fan(seed: int) -> list:
    """One fan of transversal branches (t, a_k t + c_k t^{e_k}): slopes
    evenly spaced in [-1, 1], exponents in seeded order, c_k in [0.2, 1]."""
    rng = random.Random(seed)
    exps = list(FAN_EXPONENTS)
    rng.shuffle(exps)
    n = len(exps)
    branches = []
    for k, e in enumerate(exps):
        a = -1.0 + 2.0 * k / (n - 1)
        c = rng.uniform(0.2, 1.0)
        branches.append(
            puiseux_branch([(1, (1.0, a)), (e, (0.0, c))], t_max=1.0, label=f"fan{k}")
        )
    germ = germ_set(branches=branches, label="arc_fan")
    config = RunConfig()
    return [Case("arc_fan", scenario_for_germ(germ, config), config, Fraction(1))]


def horn3d(seed: int) -> list:
    """The registered horn3d scenario on the cropped medial window.  The
    germ is fixed, so the seed selects nothing."""
    config = RunConfig(medial=MedialConfig(window=HORN_WINDOW, resolution=HORN_RESOLUTION))
    return [
        Case("horn3d", builtin("horn3d"), config, None, (Fraction(2), Fraction(1)))
    ]


def build_cases(workload: str, seed: int) -> list:
    return {"plane_sweep": plane_sweep, "arc_fan": arc_fan, "horn3d": horn3d}[
        workload
    ](seed)


# ---------------------------------------------------------------------------
# Grading
# ---------------------------------------------------------------------------


@dataclass
class Grade:
    failures: list
    undecided: list
    order_errors: list  # |fitted outer order - exact| per pair with an oracle
    c_max: float | None = None
    continuation_failed: int = 0


def raised_cause(exc: BaseException) -> str:
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return f"raised {type(exc).__name__}: {exc} ({Path(frame.filename).name}:{frame.lineno})"


def defect_of(cause: str) -> str:
    """Name of the known defect a recorded cause belongs to, or "unknown"."""
    for name, phrase in KNOWN_DEFECTS.items():
        if phrase in cause:
            return name
    return "unknown"


def _pair_label(report) -> str:
    return "|".join(report.pair)


def _grade_pairs(kind, reports, exact_outer, exact_inner, grade) -> None:
    for r in reports:
        pair = _pair_label(r)
        err = abs(r.tord.slope - float(exact_outer))
        grade.order_errors.append(err)
        if r.tord_exact is not None and r.tord_exact != exact_outer:
            grade.failures.append(
                f"oracle {kind} pair {pair}: symbolic order {r.tord_exact} "
                f"vs exact {exact_outer}"
            )
        if not (r.tord.confident and r.tord_inn.confident):
            continue  # an undecided pair claims no order
        if err > ORDER_TOLERANCE:
            grade.failures.append(
                f"oracle {kind} pair {pair}: outer order {r.tord.slope:.4f} "
                f"vs exact {exact_outer}"
            )
        if exact_inner is not None and abs(r.tord_inn.slope - float(exact_inner)) > ORDER_TOLERANCE:
            grade.failures.append(
                f"oracle {kind} pair {pair}: inner order {r.tord_inn.slope:.4f} "
                f"vs exact {exact_inner}"
            )


def _undecided_pairs(kind, reports) -> list:
    return [
        f"{kind} pair {_pair_label(r)}: fit residual outer {r.tord.residual:.4f} "
        f"inner {r.tord_inn.residual:.4f}, gate {RESIDUAL_GATE}"
        for r in reports
        if r.verdict is Verdict.UNDECIDED
    ]


def grade(case: Case, result) -> Grade:
    """Failures (graded checks False, oracle disagreements) and the cause of
    every UNDECIDED verdict of one analysed germ."""
    g = Grade(failures=[], undecided=[], order_errors=[])
    for check in result.checks:
        if check.passed is False:
            g.failures.append(f"check {check.name}: {check.detail}")
    if case.set_order is not None:
        # every curve pair through the origin has inner order 1
        _grade_pairs("set", result.set_reports, case.set_order, Fraction(1), g)
    if case.medial_orders is not None:
        outer, inner = case.medial_orders
        if not result.medial_reports:
            g.failures.append("oracle medial: no medial pair to compare")
        _grade_pairs("medial", result.medial_reports, outer, inner, g)

    if result.set_verdict is Verdict.UNDECIDED:
        g.undecided += _undecided_pairs("set", result.set_reports) or [
            "set: " + "; ".join(result.link.notes)
        ]
    if result.medial_verdict is Verdict.UNDECIDED:
        # run_scenario leaves the medial verdict UNDECIDED without pair
        # reports exactly when its branch filter selected nothing
        if not result.medial_reports:
            g.undecided.append(
                f"medial: no tracked branch selected ({len(result.axis.points)} "
                f"axis points, {len(result.medial_curves)} curves)"
            )
        else:
            g.undecided += _undecided_pairs("medial", result.medial_reports)
    if result.link.verdict is Verdict.UNDECIDED:
        g.undecided.append("link: " + "; ".join(result.link.notes))

    c_values = result.link.report.c_values
    g.c_max = max(c_values) if c_values else None
    g.continuation_failed = sum(
        1 for c in result.medial_curves for f in c.flags if f[0] == "continuation_failed"
    )
    return g
