"""Built-in benchmark germs with expected verdicts, and the scenario runner.

The registry holds the four canonical cases of the LNE/medial interplay:

* ``cusp`` — a non-LNE plane curve pair whose medial axis is LNE,
* ``abs_graph`` — LNE set, LNE medial axis,
* ``three_tangent`` — non-LNE set with a non-LNE medial axis,
* ``horn3d`` — an LNE surface germ whose medial axis is non-LNE; the
  registered witness that the plane-case implication (medial non-LNE
  implies set non-LNE) does not survive into three dimensions.

``run_scenario`` executes the full pipeline (link criterion, arc criterion,
medial branches from exact bisectors + medial-branch tangency) and grades
the outcome against the expected verdicts.  Any UNDECIDED sub-verdict marks
the result INCONCLUSIVE rather than FAIL.  The medial grid window and step
of a scenario serve only ``lnegerm medial``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .config import MedialConfig, RunConfig
from .errors import RegistryError
from .germs import GermSet, germ_set, puiseux_branch
from .links import LinkCriterionResult, link_criterion_verdict
from .medial import MedialAxisSample, medial_branch_germs, reaches_origin
from .surfaces import HornPiece, WallPiece
from .tangency import Verdict, pair_reports
# pair_verdict and extract_medial_axis_grid are no longer called here, but
# perfbench/tracer.py wraps scenarios.pair_verdict and
# scenarios.extract_medial_axis_grid by name, so the names stay importable
# from this module.
from .medial import extract_medial_axis_grid  # noqa: F401
from .tangency import pair_verdict  # noqa: F401

#: expected Lojasiewicz values are graded to this absolute tolerance
#: (inherited from the default order tolerance).
L_TOLERANCE = 0.1


@dataclass(frozen=True)
class Scenario:
    """One registry entry: a germ constructor plus its expected outcome.

    ``expected_L_set`` / ``expected_L_medial`` may be None (unknown).
    Plane scenarios must have internally consistent expectations: a
    non-LNE medial axis forces a non-LNE set.
    """

    label: str
    make_germ: object  # callable () -> GermSet
    expected_set_verdict: Verdict | None
    expected_medial_verdict: Verdict | None
    expected_L_set: float | None
    expected_L_medial: float | None
    ambient_dim: int
    medial_window: tuple
    medial_resolution: float
    medial_scales: tuple
    notes: str = ""

    def __post_init__(self):
        if (
            self.ambient_dim == 2
            and self.expected_medial_verdict is Verdict.NOT_LNE
            and self.expected_set_verdict is not None
            and self.expected_set_verdict is not Verdict.NOT_LNE
        ):
            raise RegistryError(
                f"scenario {self.label!r}: a plane germ with a non-LNE medial "
                "axis cannot be expected LNE"
            )

    def germ(self) -> GermSet:
        return self.make_germ()


_SQ2 = math.sqrt(2.0)
_MEDIAL_SCALES = tuple(2.0 ** -k for k in range(4, 11))


def _make_cusp() -> GermSet:
    mk = lambda sgn, lab: puiseux_branch(
        [(1, (1.0, 0.0)), ((3, 2), (0.0, sgn))], t_max=1.0, label=lab
    )
    return germ_set(
        branches=(mk(1.0, "cusp_plus"), mk(-1.0, "cusp_minus")), label="cusp"
    )


def _make_abs_graph() -> GermSet:
    mk = lambda sgn, lab: puiseux_branch(
        [(1, (sgn / _SQ2, 1.0 / _SQ2))], t_max=1.0, label=lab
    )
    return germ_set(
        branches=(mk(1.0, "abs_plus"), mk(-1.0, "abs_minus")), label="abs_graph"
    )


def _make_three_tangent() -> GermSet:
    mk = lambda k: puiseux_branch(
        [(1, (1.0, 0.0)), (2, (0.0, float(k)))], t_max=1.0, label=f"parab{k}"
    )
    return germ_set(branches=(mk(1), mk(2), mk(3)), label="three_tangent")


def _make_horn3d() -> GermSet:
    return germ_set(
        surfaces=(
            HornPiece(label="horn_pos", sign=1.0, a_outer=1.0, a_inner=2.0, y_max=1.0),
            HornPiece(label="horn_neg", sign=-1.0, a_outer=1.0, a_inner=2.0, y_max=1.0),
            WallPiece(label="wall", half_width_coef=0.25, y_max=1.0),
        ),
        label="horn3d",
    )


_REGISTRY = {
    "cusp": Scenario(
        label="cusp",
        make_germ=_make_cusp,
        expected_set_verdict=Verdict.NOT_LNE,
        expected_medial_verdict=Verdict.LNE,
        expected_L_set=1.5,
        expected_L_medial=1.0,
        ambient_dim=2,
        medial_window=((-0.02, 0.3), (-0.12, 0.12)),
        medial_resolution=1.0 / 256.0,
        medial_scales=_MEDIAL_SCALES,
        notes="branches (t, +-t^{3/2}); outer order 3/2 vs inner 1; "
        "medial axis is the positive x-axis",
    ),
    "abs_graph": Scenario(
        label="abs_graph",
        make_germ=_make_abs_graph,
        expected_set_verdict=Verdict.LNE,
        expected_medial_verdict=Verdict.LNE,
        expected_L_set=1.0,
        expected_L_medial=1.0,
        ambient_dim=2,
        medial_window=((-0.12, 0.12), (-0.02, 0.3)),
        medial_resolution=1.0 / 256.0,
        medial_scales=_MEDIAL_SCALES,
        notes="unit-speed branches along (+-1, 1)/sqrt 2; medial axis is the "
        "positive y-axis",
    ),
    "three_tangent": Scenario(
        label="three_tangent",
        make_germ=_make_three_tangent,
        expected_set_verdict=Verdict.NOT_LNE,
        expected_medial_verdict=Verdict.NOT_LNE,
        expected_L_set=2.0,
        expected_L_medial=2.0,
        ambient_dim=2,
        medial_window=((-0.02, 0.3), (-0.04, 0.16)),
        medial_resolution=1.0 / 256.0,
        medial_scales=_MEDIAL_SCALES,
        notes="parabolas (t, k t^2), k = 1, 2, 3; medial branches near "
        "y = (3/2) x^2 and y = (5/2) x^2, mutually tangent of order 2",
    ),
    "horn3d": Scenario(
        label="horn3d",
        make_germ=_make_horn3d,
        expected_set_verdict=Verdict.LNE,
        expected_medial_verdict=Verdict.NOT_LNE,
        expected_L_set=1.0,
        expected_L_medial=2.0,
        ambient_dim=3,
        medial_window=((-0.28, 0.28), (0.0, 0.64), (-0.1, 0.1)),
        medial_resolution=0.01,
        medial_scales=_MEDIAL_SCALES,
        notes="two horns with generator abscissae y^2 and y^2/4 (cross-"
        "sections are circles over the generator midpoint, diameter the "
        "generator gap) joined by the wall |x| <= y^2/4 in the z = 0 "
        "plane; medial center curves approach x = +-(5/8) y^2, pairwise "
        "outer order 2 vs inner 1.  They are the exact bisectors of the "
        "z = 0 trace between each horn's generators; the bisector of the "
        "wall edges lies inside the wall and gives no curve.",
    ),
}

BUILTIN_LABELS = tuple(sorted(_REGISTRY))


def builtin(label: str) -> Scenario:
    try:
        return _REGISTRY[label]
    except KeyError:
        raise RegistryError(
            f"unknown builtin scenario {label!r}; known: {', '.join(BUILTIN_LABELS)}"
        ) from None


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    """One graded assertion; ``passed`` is None when undecidable."""

    name: str
    passed: bool | None
    detail: str

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass(frozen=True, eq=False)
class ScenarioResult:
    scenario: Scenario
    config: RunConfig
    set_verdict: Verdict
    l_set: float | None
    set_reports: tuple
    medial_verdict: Verdict
    l_medial: float | None
    medial_reports: tuple
    axis: MedialAxisSample
    medial_curves: tuple
    link: LinkCriterionResult
    checks: tuple
    status: str  # PASS | FAIL | INCONCLUSIVE

    @property
    def passed(self) -> bool:
        return self.status == "PASS"

    def to_dict(self) -> dict:
        return {
            "label": self.scenario.label,
            "set_verdict": self.set_verdict.value,
            "medial_verdict": self.medial_verdict.value,
            "L_set": self.l_set,
            "L_medial": self.l_medial,
            "link_report": self.link.to_dict(),
            "checks": [c.to_dict() for c in self.checks],
            "pass": self.passed,
            "status": self.status,
        }

    def to_row(self) -> dict:
        """Flat projection for the four-case aggregate table."""
        return {
            "label": self.scenario.label,
            "set_verdict": self.set_verdict.value,
            "medial_verdict": self.medial_verdict.value,
            "L_set": self.l_set,
            "L_medial": self.l_medial,
            "link_verdict": self.link.verdict.value,
            "status": self.status,
        }


def combine_verdicts(reports) -> tuple:
    """(verdict, L) over pairwise reports: any NOT_LNE pair decides the
    set (the exponent is a supremum); otherwise any undecided pair leaves
    it undecided; L is the largest decided pairwise exponent."""
    reports = list(reports)
    if not reports:
        return Verdict.LNE, 1.0
    verdicts = [r.verdict for r in reports]
    if any(v is Verdict.NOT_LNE for v in verdicts):
        verdict = Verdict.NOT_LNE
    elif any(v is Verdict.UNDECIDED for v in verdicts):
        verdict = Verdict.UNDECIDED
    else:
        verdict = Verdict.LNE
    decided = [r for r in reports if r.verdict is not Verdict.UNDECIDED]
    l_val = max((r.lojasiewicz_pair for r in decided), default=None)
    return verdict, l_val


def _pairwise_reports(set_: GermSet, scales, config: RunConfig):
    return pair_reports(
        itertools.combinations(set_.branches, 2), scales, config.order_tolerance
    )


def medial_grid(s: Scenario, medial: MedialConfig) -> tuple:
    """(window, resolution) of the medial grid: each the configured one
    where set, else the scenario's own."""
    window = s.medial_window if medial.window is None else medial.window
    resolution = s.medial_resolution if medial.resolution is None else medial.resolution
    return window, resolution


def _grade(name: str, expected, actual, detail: str = "") -> Check:
    if actual is Verdict.UNDECIDED or actual is None:
        return Check(name, None, f"undecided ({detail})" if detail else "undecided")
    ok = expected == actual if not isinstance(expected, float) else (
        abs(actual - expected) <= L_TOLERANCE
    )
    msg = f"expected {expected}, got {actual}"
    return Check(name, bool(ok), f"{msg}; {detail}" if detail else msg)


def run_scenario(s: Scenario, config: RunConfig | None = None) -> ScenarioResult:
    if config is None:
        config = RunConfig()
    germ = s.germ()
    scales = config.scales()
    norm = config.norm(germ.ambient_dim)

    link = link_criterion_verdict(
        germ, scales, density=config.density, norm=norm
    )

    if germ.surfaces:
        # arc lengths are inner distances only where the pieces meet at 0
        # alone, and a curve may lie on a surface; the link criterion
        # carries the set verdict (an LNE germ has exponent 1 by definition)
        set_reports = ()
        set_verdict = link.verdict
        l_set = 1.0 if set_verdict is Verdict.LNE else None
    else:
        set_reports = _pairwise_reports(germ, scales, config)
        set_verdict, l_set = combine_verdicts(set_reports)

    axis, curves = medial_branch_germs(
        germ, s.medial_scales, theta_min=config.medial.theta_min
    )
    # a flagged curve does not reach the smallest scale
    selected = tuple(c for c in curves if not c.flags)
    if not selected:
        medial_reports = ()
        medial_verdict, l_medial = Verdict.UNDECIDED, None
    elif len(selected) == 1:
        medial_reports = ()
        medial_verdict, l_medial = Verdict.LNE, 1.0
    else:
        medial_set = germ_set(
            branches=selected,
            label=f"{s.label}_medial",
            ambient_dim=germ.ambient_dim,
        )
        medial_reports = _pairwise_reports(medial_set, s.medial_scales, config)
        medial_verdict, l_medial = combine_verdicts(medial_reports)

    checks = []
    if s.expected_set_verdict is not None:
        checks.append(_grade("set_verdict", s.expected_set_verdict, set_verdict))
    if s.expected_medial_verdict is not None:
        checks.append(_grade("medial_verdict", s.expected_medial_verdict, medial_verdict))
    if s.expected_L_set is not None:
        checks.append(_grade("L_set", float(s.expected_L_set), l_set))
    if s.expected_L_medial is not None:
        checks.append(_grade("L_medial", float(s.expected_L_medial), l_medial))

    if germ.ambient_dim == 2:
        if medial_verdict is Verdict.UNDECIDED or set_verdict is Verdict.UNDECIDED:
            checks.append(Check("plane_implication", None, "a sub-verdict is undecided"))
        else:
            ok = (
                medial_verdict is not Verdict.NOT_LNE
                or set_verdict is Verdict.NOT_LNE
            )
            checks.append(
                Check(
                    "plane_implication",
                    ok,
                    f"medial {medial_verdict.value} => set {set_verdict.value}",
                )
            )
        if l_set is None or l_medial is None:
            checks.append(Check("exponent_inequality", None, "an exponent is undecided"))
        else:
            checks.append(
                Check(
                    "exponent_inequality",
                    l_medial <= l_set + L_TOLERANCE,
                    f"L_medial {l_medial:.4f} vs L_set {l_set:.4f}",
                )
            )
        if set_verdict is Verdict.NOT_LNE:
            # the medial closure must contain the origin: a selected branch
            # continues down to four times the smallest medial scale
            r0 = 4.0 * axis.resolution
            ok = any(reaches_origin(c, r0) for c in selected)
            checks.append(
                Check(
                    "axis_reaches_origin",
                    bool(ok),
                    f"continuation to radius {r0:.4g} "
                    f"on {len(selected)} tracked branch(es)",
                )
            )

    if any(c.passed is False for c in checks):
        status = "FAIL"
    elif any(c.passed is None for c in checks):
        status = "INCONCLUSIVE"
    else:
        status = "PASS"
    return ScenarioResult(
        scenario=s,
        config=config,
        set_verdict=set_verdict,
        l_set=l_set,
        set_reports=set_reports,
        medial_verdict=medial_verdict,
        l_medial=l_medial,
        medial_reports=medial_reports,
        axis=axis,
        medial_curves=curves,
        link=link,
        checks=tuple(checks),
        status=status,
    )


def run_all(config: RunConfig | None = None) -> list:
    return [run_scenario(builtin(lab), config) for lab in BUILTIN_LABELS]


def scenario_for_germ(germ: GermSet, config: RunConfig) -> Scenario:
    """Ad-hoc scenario (no expectations) wrapping a user-supplied germ.

    Its medial scales are the configured scales.  Its medial window is the
    symmetric box of half-width 1.2 * t_max and its grid step 1/256;
    ``medial_grid`` applies a configured window or resolution in their
    place.  Window and step serve only the grid of ``lnegerm medial``:
    ``run_scenario`` takes exact bisectors for every germ.
    """
    w = 1.2 * config.t_max
    return Scenario(
        label=germ.label,
        make_germ=lambda: germ,
        expected_set_verdict=None,
        expected_medial_verdict=None,
        expected_L_set=None,
        expected_L_medial=None,
        ambient_dim=germ.ambient_dim,
        medial_window=((-w, w),) * germ.ambient_dim,
        medial_resolution=1.0 / 256.0,
        medial_scales=config.scales(),
    )
