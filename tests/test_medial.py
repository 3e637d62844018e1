"""Nearest points, grid extraction, and medial branches from exact bisectors.

The medial grid runs only here: with a brute-force scan of circles around
plane germs (``_scan_crossings``), it is the independent reference that the
exact bisector branches are held to.
"""

import gc
import itertools
import math
import weakref

import numpy as np
import pytest

from lnegerm import (
    FootFinder,
    InputError,
    LnegermError,
    PuiseuxBranch,
    RadiusTable,
    ResolutionError,
    RunConfig,
    builtin,
    extract_medial_axis_grid,
    germ_set,
    medial_branch_germs,
    pair_reports,
    puiseux_branch,
    run_scenario,
)
from lnegerm import medial, scenarios
from lnegerm.surfaces import HornPiece, WallPiece
from conftest import load_module


def _nearest(germ, x):
    """m(x) at tolerance 1e-3: the polished feet of x, from a cloud covering
    2.2 |x|, clustered as grid extraction clusters them."""
    from lnegerm.medial import _cluster

    x = np.asarray(x, dtype=float)
    finder = FootFinder(germ, 2.2 * float(np.linalg.norm(x)), 64)
    feet = finder.feet(x)
    return _cluster(x, feet, feet[0].dist, finder.spacing, 1e-3)


class TestNearestPointSet:
    """m(x), the nearest points of the set, from ``FootFinder.feet``."""

    def test_single_nearest_point(self):
        germ = builtin("abs_graph").germ()
        # a point well off the axis of symmetry sees one branch only
        res = _nearest(germ, (0.2, 0.1))
        assert res.cluster_count == 1
        assert res.representatives[0].label == "abs_plus"

    def test_medial_point_has_two_feet(self):
        germ = builtin("abs_graph").germ()
        res = _nearest(germ, (0.0, 0.2))
        assert res.cluster_count == 2
        assert {f.label for f in res.representatives} == {"abs_plus", "abs_minus"}
        d1, d2 = (f.dist for f in res.representatives)
        assert abs(d1 - d2) <= 1e-3 * min(d1, d2)


def _sampled_line(radii):
    """A ``SampledCurve`` along the x-axis through its points at ``radii``,
    whose solve fails at every other radius."""
    from lnegerm import TraceError
    from lnegerm.medial import SampledCurve

    def solve(r):
        raise TraceError(f"no root at radius {r}")

    points = tuple(np.array([r, 0.0]) for r in radii)
    return SampledCurve("sampled", 2, tuple(radii), points, solve)


class TestFootFinder:
    def test_sampled_curve_branch_rejected(self):
        curve = _sampled_line((0.4, 0.2, 0.1))
        line = puiseux_branch([(1, (0.0, 1.0))], 1.0, "line")
        with pytest.raises(InputError):
            FootFinder(germ_set(branches=(curve, line)), 0.3, 16)


def _grid_setup(germ, window, h):
    """The node array and foot finder ``extract_medial_axis_grid`` builds
    for a window and grid step."""
    from lnegerm import FootFinder

    axes = [np.arange(a, b + 0.5 * h, h) for a, b in window]
    nodes = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    corners = np.array(list(itertools.product(*window)))
    scale = float(np.max(np.linalg.norm(corners, axis=1))) + 2.0 * h
    return FootFinder(germ, scale, max(16, int(math.ceil(scale / h)))), nodes


#: the cropped horn3d medial window of the benchmark, at its grid step
HORN_WINDOW = ((-0.14, 0.14), (0.0, 0.64), (-0.05, 0.05))
HORN_STEP = 0.01
#: grid window and step of each plane builtin: each window holds the
#: builtin's medial branches out to the default ladder's largest scale, 1/16
PLANE_GRIDS = {
    "cusp": (((-0.02, 0.3), (-0.12, 0.12)), 1.0 / 256.0),
    "abs_graph": (((-0.12, 0.12), (-0.02, 0.3)), 1.0 / 256.0),
    "three_tangent": (((-0.02, 0.3), (-0.04, 0.16)), 1.0 / 256.0),
}
#: grid of a germ at the default ladder: the box of half-width 1.2 t_max
ADHOC_GRID = (((-0.15, 0.15), (-0.15, 0.15)), 1.0 / 256.0)


@pytest.fixture(scope="session")
def grid_axes():
    """The grid medial axis of each plane builtin on its window and step."""
    return {
        label: extract_medial_axis_grid(builtin(label).germ(), window, h)
        for label, (window, h) in PLANE_GRIDS.items()
    }


class TestGridPrefilter:
    def test_blocks_do_not_change_candidates(self, monkeypatch):
        from lnegerm import medial

        for germ, window, h in (
            (builtin("horn3d").germ(), HORN_WINDOW, HORN_STEP),
            (builtin("cusp").germ(), *PLANE_GRIDS["cusp"]),
        ):
            finder, nodes = _grid_setup(germ, window, h)
            assert len(nodes) > 2 * medial._GRID_BLOCK
            blocked = medial._grid_candidates(finder, nodes, h, 0.2)
            with monkeypatch.context() as m:
                m.setattr(medial, "_GRID_BLOCK", len(nodes))
                whole = medial._grid_candidates(finder, nodes, h, 0.2)
            assert len(blocked) > 0
            assert blocked.tobytes() == whole.tobytes()

    def test_prefilter_peak_memory(self):
        # the whole horn3d window in one block peaks near 56 MB of numpy
        # temporaries; blocks of _GRID_BLOCK nodes stay near 10 MB
        import tracemalloc

        from lnegerm.medial import _grid_candidates

        finder, nodes = _grid_setup(builtin("horn3d").germ(), HORN_WINDOW, HORN_STEP)
        tracemalloc.start()
        try:
            _grid_candidates(finder, nodes, HORN_STEP, 0.2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


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
    def test_abs_graph_axis_on_y_axis(self, grid_axes):
        axis = grid_axes["abs_graph"]
        h = axis.resolution
        coords = axis.coords()
        assert len(coords) > 10
        assert np.max(np.abs(coords[:, 0])) <= 2.0 * h
        assert np.min(coords[:, 1]) > 0

    def test_cusp_axis_on_x_axis(self, grid_axes):
        axis = grid_axes["cusp"]
        coords = axis.coords()
        assert len(coords) > 10
        assert np.max(np.abs(coords[:, 1])) <= 2.0 * axis.resolution

    def test_equidistance_invariant(self, grid_axes):
        axis = grid_axes["three_tangent"]
        for p, cluster in axis.points:
            dists = [f.dist for f in cluster.representatives]
            assert max(dists) - min(dists) <= 1e-3 * cluster.distance + 1e-12

    def test_distance_floor_invariant(self, grid_axes):
        axis = grid_axes["three_tangent"]
        for _, cluster in axis.points:
            assert cluster.distance > axis.resolution

    def test_mirror_symmetry_cusp(self, grid_axes):
        # the cusp is mirror-symmetric in y; the axis must be too, up to
        # one grid cell
        coords = grid_axes["cusp"].coords()
        h = grid_axes["cusp"].resolution
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
        axis, curves = medial_branch_germs(builtin("abs_graph").germ(), self.SCALES)
        assert not axis.failures and len(curves) == 1
        for p, cluster in axis.points:
            assert abs(p[0]) <= 1e-10
            d1, d2 = (f.dist for f in cluster.representatives)
            assert abs(d1 - d2) <= 1e-10

    @pytest.mark.parametrize("a, b", [(1.0, 2.0), (2.0, 3.0), (1.0, 3.0)])
    def test_parabola_pair_constant(self, a, b):
        # the bisector of y = a x^2 and y = b x^2 tends to y = (a+b)/2 x^2:
        # the constant near 0, and order 2 in a log-log fit of all points
        b1 = puiseux_branch([(1, (1, 0)), (2, (0, a))], 1.0, "a")
        b2 = puiseux_branch([(1, (1, 0)), (2, (0, b))], 1.0, "b")
        axis, _ = medial_branch_germs(germ_set(branches=(b1, b2)), self.SCALES)
        assert not axis.failures
        small = [p for p, _ in axis.points if np.linalg.norm(p) < 0.05]
        assert small
        for p in small:
            assert p[1] / p[0] ** 2 == pytest.approx(0.5 * (a + b), rel=0.05)
        coords = axis.coords()
        assert len(coords) == len(self.SCALES) and np.all(coords > 0)
        slope, _ = np.polyfit(np.log(coords[:, 0]), np.log(coords[:, 1]), 1)
        assert abs(slope - 2.0) <= 0.01

    def test_rejects_3d(self):
        # (t, t^2, 0) and (t, 0, t^2) are not symmetric under z -> -z: no
        # curves, the cause recorded, and the medial verdict UNDECIDED while
        # the set and link verdicts are still decided
        from lnegerm import RunConfig, Verdict, run_scenario
        from lnegerm.scenarios import scenario_for_germ

        b1 = puiseux_branch([(1, (1, 0, 0)), (2, (0, 1, 0))], 1.0, "a")
        b2 = puiseux_branch([(1, (1, 0, 0)), (2, (0, 0, 1))], 1.0, "b")
        germ = germ_set(branches=(b1, b2))
        axis, curves = medial_branch_germs(germ, self.SCALES)
        assert curves == () and axis.points == ()
        assert axis.failures == ((self.SCALES[0], "not symmetric under z -> -z"),)
        config = RunConfig()
        res = run_scenario(scenario_for_germ(germ, config), config)
        assert res.medial_verdict is Verdict.UNDECIDED
        assert res.axis.failures[0][1] == "not symmetric under z -> -z"
        assert res.set_verdict is Verdict.NOT_LNE
        assert res.l_set == pytest.approx(2.0, abs=0.05)
        assert res.link.verdict is Verdict.NOT_LNE

    def test_agrees_with_grid(self, grid_axes):
        # grid extraction and exact bisectors must agree within 2h where
        # both exist (here: the central bisector of the parabola fan)
        germ = builtin("three_tangent").germ()
        pair = germ_set(branches=[b for b in germ.branches if b.label in ("parab1", "parab2")])
        axis, _ = medial_branch_germs(pair, [0.25, 0.2, 0.15, 0.1])
        grid_coords = grid_axes["three_tangent"].coords()
        h = grid_axes["three_tangent"].resolution
        checked = 0
        for p, cluster in axis.points:
            if cluster.distance < 2.0 * h:
                continue  # below the grid's distance floor; no counterpart
            assert np.min(np.linalg.norm(grid_coords - p, axis=1)) <= 2.0 * h
            checked += 1
        assert checked >= 3

    @pytest.mark.parametrize("label", ["three_tangent", "abs_graph"])
    def test_each_point_projected_once(self, monkeypatch, label):
        # bracket ends, the root's feet and the points adjacent sectors
        # share are projected once per branch
        seen = []
        original = medial._project_branch

        def recorded(branch, x0, x1, seed, window):
            seen.append((branch.label, (x0, x1)))
            return original(branch, x0, x1, seed, window)

        monkeypatch.setattr(medial, "_project_branch", recorded)
        medial_branch_germs(builtin(label).germ(), RunConfig().scales())
        assert seen and len(seen) == len(set(seen))

    def test_perpendicular_bracket_ends_need_no_search(self, monkeypatch):
        # at each bracket end of abs_graph's sector the query is one
        # branch's radius-r point, whose foot on the perpendicular branch
        # is its parameter 0; Newton ends there, with no golden search
        def no_search(*args, **kwargs):
            raise AssertionError("golden_min called")

        monkeypatch.setattr(medial, "golden_min", no_search)
        germ = builtin("abs_graph").germ()
        plus, minus = germ.branches
        assert (plus.label, minus.label) == ("abs_plus", "abs_minus")
        for r in RunConfig().scales():
            for b, other in ((plus, minus), (minus, plus)):
                p = b.point_at_radius(r)
                q = r * np.array([math.cos(medial._angle(p)), math.sin(medial._angle(p))])
                s = other.param_at_radius(r)
                dist, _, foot = medial._project_branch(other, *q, s, s + r)
                assert foot <= 1e-15 * r
                assert dist == pytest.approx(r, rel=1e-12)

    def test_grid_points_lie_on_bisectors(self, grid_axes):
        # where the axis is farther than 8h from the set the grid resolves
        # it: every accepted point lies within 2h of the exact bisector
        # solved at its own radius
        for label, axis in grid_axes.items():
            germ = builtin(label).germ()
            h = axis.resolution
            checked = 0
            for p, cluster in axis.points:
                if cluster.distance <= 8.0 * h:
                    continue
                exact, _ = medial_branch_germs(germ, [float(np.linalg.norm(p))])
                assert exact.points, (label, p)
                assert np.min(np.linalg.norm(exact.coords() - p, axis=1)) <= 2.0 * h, (label, p)
                checked += 1
            assert checked >= 3, label


def _line(direction, label, t_max=1.0):
    return puiseux_branch([(1, direction)], t_max, label)


#: plane germs at the edges of the bisector rule, with their number of
#: medial branches
EDGE_GERMS = {
    # the two halves of y = x^2: the feet of their sector's bisector both
    # collapse to 0
    "parabola_halves": (
        (
            puiseux_branch([(1, (1, 0)), (2, (0, 1))], 1.0, "right"),
            puiseux_branch([(1, (-1, 0)), (2, (0, 1))], 1.0, "left"),
        ),
        0,
    ),
    # opposite half-lines bound no sector below pi
    "opposite_lines": ((_line((1, 0), "east"), _line((-1, 0), "west")), 0),
    # a single branch bounds no sector at all
    "single_branch": ((puiseux_branch([(1, (1, 0)), (2, (0, 1))], 1.0, "only"),), 0),
    # four axis half-lines: one diagonal per quadrant
    "axis_lines": (
        tuple(
            _line(d, lab)
            for d, lab in (((1, 0), "e"), ((0, 1), "n"), ((-1, 0), "w"), ((0, -1), "s"))
        ),
        4,
    ),
}


def _scan_germ(label):
    """(branches, scales, number of medial branches) of an edge germ, or of
    three_tangent with its two branches, at the default ladder."""
    if label in EDGE_GERMS:
        branches, n_branches = EDGE_GERMS[label]
        return branches, RunConfig().scales(), n_branches
    return builtin("three_tangent").germ().branches, RunConfig().scales(), 2


#: angles per circle and samples per branch of the brute-force medial scan
SCAN_ANGLES = 4096
SCAN_SAMPLES = 512


def _scan_crossings(branches, scales, theta_min=0.2):
    """(found, missed): the number of medial crossings a brute-force scan
    finds on the circles |q| = r, r in ``scales``, and the (radius, point)
    of each that no medial branch of ``medial_branch_germs`` passes near.

    Each branch is sampled at SCAN_SAMPLES parameters in (0, 2r]: a foot of
    a point of the circle lies within r of it, so at radius at most 2r, and
    no parameter of these germs exceeds its point's radius.  Where the
    nearest samples of two neighbouring scan angles lie on different
    branches, at least ``theta_min`` apart as seen from the point q midway
    on the circle, the scan crosses the medial axis, and some branch's
    radius-r point must lie within the scan step r dphi plus the sampling
    error h^2 / (4 d) of q (h the sample spacing, d the nearest sample
    distance).
    """
    from scipy.spatial import cKDTree

    _, curves = medial_branch_germs(germ_set(branches=branches), scales, theta_min)
    step = 2.0 * math.pi / SCAN_ANGLES
    phi = np.arange(SCAN_ANGLES) * step
    scan = np.stack([np.cos(phi), np.sin(phi)], axis=1)
    # the circle point midway between each scan angle and the one before
    between = np.stack([np.cos(phi - 0.5 * step), np.sin(phi - 0.5 * step)], axis=1)
    found, missed = 0, []
    for r in scales:
        params = np.linspace(0.0, 2.0 * r, SCAN_SAMPLES + 1)[1:]
        pts = np.concatenate([b.eval(params) for b in branches])
        branch_of = np.repeat(np.arange(len(branches)), SCAN_SAMPLES)
        dist, near = cKDTree(pts).query(r * scan)
        h = 2.0 * r / SCAN_SAMPLES
        on_curves = [c.point_at_radius(r) for c in curves]
        for k in np.flatnonzero(branch_of[near] != branch_of[np.roll(near, 1)]):
            q = r * between[k]
            u, v = pts[near[k]] - q, pts[near[k - 1]] - q
            cos = float(u @ v) / float(np.linalg.norm(u) * np.linalg.norm(v))
            if math.acos(min(1.0, max(-1.0, cos))) < theta_min:
                continue
            found += 1
            tol = r * step + h * h / (4.0 * dist[k])
            if min((np.linalg.norm(p - q) for p in on_curves), default=math.inf) > tol:
                missed.append((r, q))
    return found, missed


class TestPlaneMedialBranches:
    """Exact bisector branches of plane germs."""

    @pytest.mark.parametrize(
        "branches, n_branches",
        [pytest.param(*EDGE_GERMS[k], id=k) for k in EDGE_GERMS],
    )
    def test_branches_match_grid(self, branches, n_branches):
        from lnegerm import Verdict, run_scenario
        from lnegerm.scenarios import scenario_for_germ

        config = RunConfig()
        scn = scenario_for_germ(germ_set(branches=branches, label="edge"), config)
        res = run_scenario(scn, config)
        assert len(res.medial_curves) == n_branches
        if n_branches == 0:
            assert res.medial_verdict is Verdict.UNDECIDED
        else:
            assert res.medial_verdict is Verdict.LNE
            exact = sorted(tuple(np.round(_direction(c), 6)) for c in res.medial_curves)
            want = sorted(
                (sx / math.sqrt(2.0), sy / math.sqrt(2.0)) for sx in (-1, 1) for sy in (-1, 1)
            )
            assert np.allclose(exact, want, atol=1e-6)
        # two-sided against the raw grid points, where the grid resolves the
        # axis (farther than 8h from the set): every grid point inside the
        # largest scale lies within 2h of an exact curve at its radius, and
        # every exact curve has an anchor within 2h of a grid point
        grid = extract_medial_axis_grid(scn.germ(), *ADHOC_GRID)
        h = grid.resolution
        top = max(config.scales())
        for p, cluster in grid.points:
            r = float(np.linalg.norm(p))
            if cluster.distance > 8.0 * h and r <= top:
                gaps = [np.linalg.norm(c.point_at_radius(r) - p) for c in res.medial_curves]
                assert min(gaps, default=math.inf) <= 2.0 * h, p
        coords = grid.coords()
        near = set()
        for q, cluster in res.axis.points:
            if cluster.distance > 8.0 * h:
                assert np.min(np.linalg.norm(coords - q, axis=1)) <= 2.0 * h, q
                near.add(frozenset(f.label for f in cluster.representatives))
        assert len(near) == n_branches

    @pytest.mark.parametrize("label", list(EDGE_GERMS) + ["three_tangent"])
    def test_bisectors_complete(self, label):
        # every medial crossing of a brute-force scan of the circles lies on
        # a bisector branch, and the scan finds some wherever branches exist
        branches, scales, n_branches = _scan_germ(label)
        found, missed = _scan_crossings(branches, scales)
        assert missed == []
        assert (found > 0) == (n_branches > 0)

    @pytest.mark.parametrize("label", ["axis_lines", "three_tangent"])
    def test_completeness_sees_a_dropped_pair(self, monkeypatch, label):
        from lnegerm import medial

        sectors = medial._sectors_below_pi
        monkeypatch.setattr(medial, "_sectors_below_pi", lambda *a: sectors(*a)[1:])
        branches, scales, _ = _scan_germ(label)
        assert _scan_crossings(branches, scales)[1]

    def test_three_tangent_constants(self, three_result):
        # y = (3/2) x^2 and y = (5/2) x^2 to within 1e-3 at the smallest scale
        ratios = sorted(
            float(p[1] / p[0] ** 2)
            for p in (c.point_at_radius(2.0**-10) for c in three_result.medial_curves)
        )
        assert ratios == pytest.approx([1.5, 2.5], abs=1e-3)

    def test_short_branch_gives_no_curve(self):
        # the short branch ends at radius 0.04, below the largest scale
        germ = germ_set(branches=(_line((1, 0), "long"), _line((0, 1), "short", 0.04)))
        scales = [2.0 ** -k for k in range(4, 11)]
        axis, curves = medial_branch_germs(germ, scales)
        assert curves == ()
        assert [t for t, _ in axis.failures] == [2.0**-4]
        # reaching the largest scale, the same pair gives its curve
        axis, curves = medial_branch_germs(germ, scales[1:])
        assert len(curves) == 1 and not curves[0].flags
        assert len(axis.points) == len(scales) - 1

    def test_no_other_branch_nearer(self):
        # a branch starting just below the east half-line and bending up
        # through it (angle -0.1 + 8r) enters the east/north sector at the
        # largest scale, so that sector's bisector point is nearer to it
        a = -0.1
        riser = puiseux_branch([(1, (math.cos(a), math.sin(a))), (2, (0, 8))], 1.0, "riser")
        germ = germ_set(branches=(_line((1, 0), "east"), _line((0, 1), "north"), riser))
        axis, curves = medial_branch_germs(germ, [2.0 ** -k for k in range(4, 11)])
        assert curves == ()
        assert any("'riser' is nearer" in msg for _, msg in axis.failures)

    def test_failure_below_the_largest_scale_flags(self, monkeypatch):
        from lnegerm import TraceError, medial

        solve = medial._bisector_point

        def failing_below(b1, b2, r, *rest):
            if r < 2.0**-7:
                raise TraceError(f"no root at radius {r}")
            return solve(b1, b2, r, *rest)

        monkeypatch.setattr(medial, "_bisector_point", failing_below)
        germ = builtin("abs_graph").germ()
        axis, curves = medial_branch_germs(germ, [2.0 ** -k for k in range(4, 11)])
        assert len(curves) == 1
        assert curves[0].flags == (("continuation_failed", 2.0**-8),)
        assert curves[0].ladder == tuple(2.0 ** -k for k in range(4, 8))
        assert len(axis.points) == 4
        with pytest.raises(ResolutionError):
            curves[0].point_at_radius(2.0**-9)

    def test_unconverged_solve_is_a_trace_failure(self, monkeypatch):
        from lnegerm import medial, optimize

        monkeypatch.setattr(
            medial, "brentq", lambda f, a, b, **kw: optimize.brentq(f, a, b, maxiter=1, **kw)
        )
        axis, curves = medial_branch_germs(builtin("cusp").germ(), [0.1, 0.05])
        assert curves == ()
        assert axis.failures
        assert all("did not converge" in msg for _, msg in axis.failures)

    def test_solve_lets_other_errors_through(self, monkeypatch):
        from lnegerm import medial

        def broken(*args):
            raise ValueError("not a trace failure")

        monkeypatch.setattr(medial, "_bisector_point", broken)
        with pytest.raises(ValueError):
            medial_branch_germs(builtin("cusp").germ(), [0.1, 0.05])

    def test_lead_exponent_below_one(self):
        # (t^{1/2}, 0) and (0, t^{1/2}): the foot solve starts at s = 0,
        # where gamma' is unbounded
        germ = germ_set(
            branches=(
                puiseux_branch([((1, 2), (1, 0))], 1.0, "a"),
                puiseux_branch([((1, 2), (0, 1))], 1.0, "b"),
            )
        )
        axis, curves = medial_branch_germs(germ, [2.0 ** -k for k in range(4, 11)])
        assert len(curves) == 1 and not axis.failures
        for p, _ in axis.points:
            assert p[0] == pytest.approx(p[1], rel=1e-12)

    def test_rejects_surface_germs(self):
        # horn3d's surfaces are symmetric under z -> -z, but a curve leaving
        # z = 0 makes the germ asymmetric: no curves, the cause recorded
        horn = builtin("horn3d").germ()
        riser = puiseux_branch([(1, (0, 1, 0)), (2, (0, 0, 1))], 1.0, "riser")
        germ = germ_set(branches=(riser,), surfaces=horn.surfaces)
        axis, curves = medial_branch_germs(germ, [0.1, 0.05])
        assert curves == ()
        assert axis.failures == ((0.1, "not symmetric under z -> -z"),)

    def test_rejects_sampled_curves(self):
        germ = germ_set(branches=(_sampled_line((0.1,)), _line((0, 1), "line")))
        with pytest.raises(InputError):
            medial_branch_germs(germ, [0.1, 0.05])


def _direction(curve):
    """The unit direction of a medial curve's point at its smallest ladder
    radius."""
    p = curve.points[-1]
    return p / np.linalg.norm(p)


def _reference_arc_length(curve, r):
    """The arc length of ``SampledCurve.arc_lengths`` at one radius as it
    was measured before the ladder chords were shared: the chord path of
    that radius, measured alone."""
    r = float(r)
    below = sorted(t for t in curve.ladder if t < r * (1 - 1e-9))
    path = [np.zeros(curve.ambient_dim)] + [curve.point_at_radius(t) for t in below]
    path.append(curve.point_at_radius(r))
    return float(np.linalg.norm(np.diff(path, axis=0), axis=1).sum())


def _length_outcome(fn, *args):
    try:
        return fn(*args).hex()
    except LnegermError as exc:
        return type(exc).__name__


def _digest_medial_curves():
    """The medial curves of every default germ of ``scripts/digests.py``."""
    digests = load_module("scripts/digests.py")
    return [
        curve
        for workload, seeds in digests.DEFAULT
        for seed in seeds
        for case in digests.build_cases(workload, seed)
        for curve in run_scenario(case.scenario, case.config).medial_curves
    ]


class TestChordsOnce:
    """``SampledCurve.arc_lengths`` measures the ladder chords once; each
    length must have the bits of its own chord path measured alone."""

    def _check(self, curve, off_ladder):
        ladder = curve.ladder
        ref = [_reference_arc_length(curve, t).hex() for t in ladder]
        assert [v.hex() for v in curve.arc_lengths(ladder)] == ref, curve.label
        assert [curve.arc_lengths([t])[0].hex() for t in ladder] == ref, curve.label
        for r in off_ladder:
            want = _length_outcome(_reference_arc_length, curve, r)
            got = _length_outcome(lambda r: curve.arc_lengths([r])[0], r)
            assert got == want, (curve.label, r)

    def test_digest_germs(self):
        curves = _digest_medial_curves()
        assert len(curves) > 90
        for curve in curves:
            top, low = curve.ladder[0], curve.ladder[-1]
            self._check(curve, [0.0, 0.75 * curve.ladder[2], 0.5 * low, top * (1 - 1e-10)])

    @pytest.mark.parametrize("label", ["cusp", "three_tangent", "horn3d"])
    def test_twelve_levels(self, label):
        # the top radii sum 8 to 12 chords, which numpy adds pairwise
        scales = RunConfig(levels=12).scales()
        _, curves = medial_branch_germs(builtin(label).germ(), scales)
        assert curves and all(len(c.ladder) == 12 for c in curves)
        for curve in curves:
            mids = [math.sqrt(a * b) for a, b in zip(scales, scales[1:])]
            self._check(curve, mids[:3] + [2.0 * scales[0], -1.0])


class TestBranchTracking:
    def test_single_branch_for_abs_graph(self, abs_result):
        flagfree = [c for c in abs_result.medial_curves if not c.flags]
        assert len(flagfree) == 1
        assert np.allclose(_direction(flagfree[0]), (0.0, 1.0), atol=0.05)

    def test_three_tangent_two_branches(self, three_result):
        flagfree = [c for c in three_result.medial_curves if not c.flags]
        assert len(flagfree) == 2
        for c in flagfree:
            assert np.allclose(_direction(c), (1.0, 0.0), atol=0.05)

    def test_kept_result_holds_no_table(self, monkeypatch):
        # the analysis's RadiusTable lives only as long as the analysis: the
        # medial curves of a kept result solve off their ladder afresh
        tables = []

        def recorded(scales):
            table = RadiusTable(scales)
            tables.append(weakref.ref(table))
            return table

        monkeypatch.setattr(scenarios, "RadiusTable", recorded)
        config = RunConfig()
        result = run_scenario(builtin("three_tangent"), config)
        gc.collect()
        assert len(tables) == 1 and tables[0]() is None
        r = 1.5 * min(config.scales())
        curves = [c for c in result.medial_curves if not c.flags]
        assert curves
        for c in curves:
            assert np.linalg.norm(c.point_at_radius(r)) == pytest.approx(r, rel=1e-12)

    def test_continuation_reaches_small_radii(self, three_result):
        for c in three_result.medial_curves:
            if not c.flags:
                p = c.point_at_radius(2.0**-10)
                assert np.linalg.norm(p) == pytest.approx(2.0**-10, rel=1e-12)

    @pytest.mark.parametrize("label", ["three_tangent", "horn3d"])
    def test_arc_length_against_dense_path(self, label):
        # the ladder chord path against a path through the solved points
        # at 16 radii per octave, from four octaves below the ladder
        scales = RunConfig().scales()
        _, curves = medial_branch_germs(builtin(label).germ(), scales)
        assert len(curves) == 2
        lo, hi = min(scales) / 16, max(scales)
        radii = lo * 2.0 ** (np.arange(round(16 * math.log2(hi / lo)) + 1) / 16)
        for c in curves:
            lengths = c.arc_lengths(scales)
            path = np.array([np.zeros(c.ambient_dim)] + [c.point_at_radius(r) for r in radii])
            dense = np.cumsum(np.linalg.norm(np.diff(path, axis=0), axis=1))
            for t, length in zip(scales, lengths):
                (k,) = np.flatnonzero(radii == t)
                assert length == pytest.approx(dense[k], rel=1e-3)
            # the dense queries solved afresh; the ladder path is unchanged
            assert c.arc_lengths(scales) == lengths

    def test_off_ladder_query_solves_afresh(self, monkeypatch):
        # the shared parameter table holds ladder radii only: each (branch,
        # ladder radius) is solved once for the bisectors and the set pairs
        # together, a ladder query solves nothing, and a repeated off-ladder
        # query solves again
        calls = []
        original = PuiseuxBranch.param_at_radius

        def counted(self, r, *args, **kwargs):
            calls.append((self.label, r))
            return original(self, r, *args, **kwargs)

        monkeypatch.setattr(PuiseuxBranch, "param_at_radius", counted)
        scales = RunConfig().scales()
        germ = builtin("three_tangent").germ()
        table = RadiusTable(scales)
        _, curves = medial_branch_germs(germ, scales, table=table)
        assert len(calls) == len(set(calls)) == 3 * len(scales)
        pair_reports(itertools.combinations(germ.branches, 2), scales, table=table)
        assert len(calls) == 3 * len(scales)
        c = curves[0]
        calls.clear()
        c.point_at_radius(scales[2])
        assert calls == []
        r = 0.75 * scales[2]
        first = c.point_at_radius(r)
        solved = list(calls)
        assert {t for _, t in solved} == {r}
        calls.clear()
        assert np.array_equal(c.point_at_radius(r), first)
        assert calls == solved


def _horn_family(a_inner: float):
    """Two horns over x = +-y^2 and x = +-(y/a_inner)^2, joined by the wall
    strip |x| <= (y/a_inner)^2, like horn3d (a_inner = 2)."""
    horns = tuple(
        HornPiece(label=label, sign=sign, a_outer=1.0, a_inner=a_inner)
        for label, sign in (("horn_pos", 1.0), ("horn_neg", -1.0))
    )
    wall = WallPiece(label="wall", half_width_coef=1.0 / a_inner**2)
    return germ_set(surfaces=horns + (wall,), label="horn_family")


def _dense_sheet(piece, ys, n: int = 720):
    """A horn3d piece sampled on a grid over the heights ``ys``: n circle
    angles per height for a horn, n + 1 abscissae across the wall."""
    if isinstance(piece, HornPiece):
        theta = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        y, th = np.meshgrid(ys, theta, indexing="ij")
        cx, r = piece._cx_r(y)
        return np.stack([piece.sign * (cx + r * np.cos(th)), y, r * np.sin(th)], axis=-1)
    y, u = np.meshgrid(ys, np.linspace(-1.0, 1.0, n + 1), indexing="ij")
    return np.stack([u * piece.half_width_coef * y**2, y, np.zeros_like(y)], axis=-1)


def _sheet_error(sheet) -> float:
    """A bound on how far a piece point over the sheet's heights lies from
    the nearest grid point: the sum of the largest steps along both axes."""
    return sum(float(np.linalg.norm(np.diff(sheet, axis=k), axis=-1).max()) for k in (0, 1))


class TestHornTrace:
    """Medial branches of the horns: exact bisectors of the z = 0 trace."""

    @pytest.mark.parametrize("a_inner", [1.5, 2.0, 3.0])
    def test_center_curves_closed_form(self, a_inner):
        # the tube centers x = +-(1 + 1/a_i^2)/2 y^2; the bisector of the
        # wall edges lies inside the wall and gives no curve
        axis, curves = medial_branch_germs(
            _horn_family(a_inner), [2.0 ** -k for k in range(4, 11)]
        )
        assert len(curves) == 2 and not any(c.flags for c in curves)
        assert [msg for _, msg in axis.failures] == ["piece 'wall' is nearer at radius 0.0625"]
        limit = 0.5 * (1.0 + 1.0 / a_inner**2)
        ratios = sorted(
            float(p[0] / p[1] ** 2) for p in (c.point_at_radius(2.0**-10) for c in curves)
        )
        assert ratios == pytest.approx([-limit, limit], abs=1e-3)
        for c in curves:
            assert c.point_at_radius(2.0**-7)[2] == 0.0

    def test_trace_merges_identical_branches(self):
        from lnegerm.medial import _z_trace

        # each inner generator is also a wall edge, y^2/4
        trace = _z_trace(builtin("horn3d").germ())
        coefs = sorted(float(b.terms[1][1][0]) for b in trace)
        assert coefs == [-1.0, -0.25, 0.25, 1.0]
        # a zero-width wall has one edge, the line x = 0
        (line,) = _z_trace(germ_set(surfaces=(WallPiece(label="w", half_width_coef=0.0),)))
        assert len(line.terms) == 1 and line.terms[0][1].tolist() == [0.0, 1.0, 0.0]

    def test_anchors_against_brute_force(self, horn_result):
        # no point of a dense (height, angle) grid on both horns and the
        # wall is nearer to an anchor than its distance d, and the grid's
        # own error (its largest steps) bounds how far above d its minimum
        # sits, so a piece nearer by more than that error would show
        germ = builtin("horn3d").germ()
        assert len(horn_result.axis.points) == 14
        for q, cluster in horn_result.axis.points:
            d = cluster.distance
            # only heights within d of q hold points nearer than d
            ys = np.linspace(max(q[1] - 1.5 * d, 0.0), q[1] + 1.5 * d, 301)
            sheets = [_dense_sheet(piece, ys) for piece in germ.surfaces]
            best = min(float(np.linalg.norm(s - q, axis=-1).min()) for s in sheets)
            err = max(_sheet_error(s) for s in sheets)
            assert err <= 0.05 * d
            assert d * (1.0 - 1e-9) <= best <= d + err, q

    def test_slice_distance_is_exact(self):
        # at points q of z = 0 the distance to each piece of horn3d is its
        # slice distance: 0 where the piece covers q, else the distance to
        # its trace.  Both sides are dense samples that overshoot the true
        # distance by at most their own step error.
        germ = builtin("horn3d").germ()
        kinds = {"wall": 0, "tube": 0, "outside": 0}
        for r in (2.0**-k for k in range(4, 9)):
            # 40 points along x = k y^2 across the tubes and the strip, and
            # 8 directions around the circle
            dirs = [(k * r * r, r) for k in np.linspace(-1.6, 1.6, 40)]
            dirs += [(math.cos(a), math.sin(a)) for a in np.arange(8) * math.pi / 4 + 0.1]
            for v in dirs:
                q = r * np.array([v[0], v[1], 0.0]) / math.hypot(*v)
                k = abs(q[0]) / q[1] ** 2 if q[1] > 0 else math.inf
                kinds["wall" if k <= 0.25 else "tube" if k < 1.0 else "outside"] += 1
                y0 = max(q[1], 0.0)
                for piece in germ.surfaces:
                    branches = piece.trace()
                    # the origin and the trace points at q's height bound the
                    # trace distance, so the nearest trace point lies within
                    # that bound of q's height
                    bound = min([r] + [float(np.linalg.norm(b.eval(y0) - q)) for b in branches])
                    ts = np.linspace(max(q[1] - bound, 0.0), q[1] + bound, 2001)
                    pts = [b.eval(ts) for b in branches]
                    err0 = max(float(np.linalg.norm(np.diff(p, axis=0), axis=-1).max()) for p in pts)
                    if piece.covers(q):
                        d0 = 0.0
                    else:
                        d0 = min(float(np.linalg.norm(p - q, axis=-1).min()) for p in pts)
                    w = 1.5 * d0 + 1e-3 * r
                    ys = np.linspace(max(q[1] - w, 0.0), q[1] + w, 201)
                    sheet = _dense_sheet(piece, ys, 360)
                    d3 = float(np.linalg.norm(sheet - q, axis=-1).min())
                    slack = 1e-12 * r
                    assert -err0 - slack <= d3 - d0 <= _sheet_error(sheet) + slack, (
                        piece.label,
                        q,
                    )
        assert min(kinds.values()) >= 20, kinds

    def test_grid_points_on_trace(self):
        # a grid point whose feet all lie on one horn is a tube center; the
        # grid resolves those only where the tube radius exceeds its step,
        # and each lies within 2h of an exact curve at its own radius
        scn = builtin("horn3d")
        germ = scn.germ()
        grid = extract_medial_axis_grid(germ, HORN_WINDOW, HORN_STEP)
        _, curves = medial_branch_germs(germ, (0.64,) + RunConfig().scales())
        assert len(curves) == 2
        on_curve = {c.label: 0 for c in curves}
        for p, cluster in grid.points:
            labels = {f.label for f in cluster.representatives}
            if len(labels) != 1 or labels == {"wall"}:
                continue
            r = float(np.linalg.norm(p))
            gaps = {c.label: float(np.linalg.norm(c.point_at_radius(r) - p)) for c in curves}
            label = min(gaps, key=gaps.get)
            assert gaps[label] <= 2.0 * HORN_STEP, p
            on_curve[label] += 1
        assert min(on_curve.values()) >= 3
