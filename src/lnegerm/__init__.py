"""Lipschitz normal embedding of semialgebraic germs and their medial axes.

The package decides and quantifies the LNE property for curve/surface germs
at the origin: induced vs. inner (graph-geodesic) vs. pancake metrics,
tangency orders and Lojasiewicz exponents via the arc criterion (inner
distances of curve germs from arc lengths), medial branches from exact
bisectors (with the grid medial axis kept as the reference the tests hold
them to), and link sections with the link-based LNE criterion.  A scenario
registry packages the four canonical benchmark cases, and ``lnegerm.cli``
exposes everything as a command-line tool.
"""

from .config import MedialConfig, RunConfig
from .errors import (
    DomainError,
    InputError,
    LnegermError,
    RegistryError,
    ReparametrizationError,
    ResolutionError,
    TraceError,
)
from .germs import (
    GermSet,
    PuiseuxBranch,
    RadiusTable,
    germ_set,
    germset_from_json,
    germset_to_json,
    load_germ_file,
    puiseux_branch,
    sample_cloud,
    symbolic_separation_order,
)
from .links import LinkSample, LLNEReport, link_criterion_verdict, link_section, llne_test
from .medial import (
    FootFinder,
    MedialAxisSample,
    SampledCurve,
    extract_medial_axis_grid,
    medial_branch_germs,
    refine_equidistant,
)
from .metrics import (
    NeighborhoodGraph,
    Pancake,
    PancakeComplex,
    PointCloud,
    build_graph,
    induced_distance,
    inner_distance,
    pancake_distance,
)
from .norms import EUCLID, EuclideanNorm, WeightedMaxNorm, make_norm
from .scenarios import (
    BUILTIN_LABELS,
    Scenario,
    ScenarioResult,
    builtin,
    run_all,
    run_scenario,
)
from .tangency import (
    OrderEstimate,
    TangencyReport,
    Verdict,
    estimate_order,
    inner_tangency_order,
    outer_tangency_order,
    pair_reports,
    pair_verdict,
)

__version__ = "1.0.0"
