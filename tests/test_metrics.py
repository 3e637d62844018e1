"""Graph metrics and the pancake metric.

The pancake oracle here is an independent brute-force enumerator over
admissible hop sequences; the implementation must match it exactly.
"""

import itertools
import math

import numpy as np
import pytest

from lnegerm import (
    InputError,
    Pancake,
    PancakeComplex,
    build_graph,
    builtin,
    germ_set,
    induced_distance,
    inner_distance,
    pancake_distance,
    puiseux_branch,
    sample_cloud,
)
from lnegerm import metrics
from lnegerm.metrics import cluster_labels, components


def _cross_cloud(density=16):
    line = lambda d, lab: puiseux_branch(
        [(1, np.asarray(d, dtype=float) / np.linalg.norm(d))], 1.0, lab
    )
    germ = germ_set(branches=(line((1, 0), "a"), line((0, 1), "b")), label="cross")
    return sample_cloud(germ, 0.5, density)


class TestNeighborhoodGraph:
    def test_edges_require_shared_label(self):
        cloud = _cross_cloud()
        # a huge radius would connect the two lines directly were it not
        # for the label rule; all inter-line paths must pass the origin
        graph = build_graph(cloud, 10.0)
        edges = graph.edge_array()
        for i, j in edges:
            assert cloud.labels[i] & cloud.labels[j]

    def test_inner_distance_through_origin(self):
        cloud = _cross_cloud()
        graph = build_graph(cloud, 4.0 * cloud.spacing)
        i = cloud.tip_index["a"]
        j = cloud.tip_index["b"]
        d = inner_distance(graph, i, j)
        assert d == pytest.approx(1.0, rel=0.03)  # 0.5 + 0.5 via the origin

    def test_disconnected_is_inf(self):
        cloud = _cross_cloud()
        graph = build_graph(cloud, 0.25 * cloud.spacing)
        assert graph.n_components > 1
        assert math.isinf(inner_distance(graph, 0, len(cloud) - 1))

    def test_induced_vs_inner(self):
        cloud = _cross_cloud()
        graph = build_graph(cloud, 4.0 * cloud.spacing)
        rng = np.random.default_rng(7)
        for _ in range(50):
            i, j = rng.integers(0, len(cloud), size=2)
            d_inn = inner_distance(graph, int(i), int(j))
            if math.isinf(d_inn):
                continue
            assert induced_distance(cloud.points[i], cloud.points[j]) <= d_inn + 1e-12


def test_cluster_labels_chain():
    # a - b - c with only neighbours within tol: one group, represented by
    # its lowest index a; the far point stays alone and comes first
    far, a, c, b = (9.0, 9.0), (0.0, 0.0), (2.0, 0.0), (1.0, 0.0)
    labels = cluster_labels(np.array([far, a, c, b]), tol=1.2)
    assert labels.tolist() == [0, 1, 1, 1]


def test_components_match_scipy():
    from scipy import sparse
    from scipy.sparse.csgraph import connected_components

    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 120))
        pairs = rng.integers(0, n, size=(int(rng.integers(0, 2 * n)), 2))
        adj = sparse.coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n))
        want_count, want = connected_components(adj, directed=False)
        count, labels = components(n, pairs)
        assert count == want_count
        assert labels.tolist() == want.tolist()


def _single_linkage(points, tol):
    """Reference groups: every pair within tol joins."""
    n = len(points)
    d2 = ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    return components(n, np.argwhere(d2 <= tol * tol))[1]


@pytest.mark.parametrize("dim", [2, 3])
def test_cluster_labels_random_clouds(dim):
    rng = np.random.default_rng(dim)
    for _ in range(40):
        n = int(rng.integers(65, 400))
        pts = np.round(rng.random((n, dim)), 1 + int(rng.integers(0, 3)))
        tol = float(rng.uniform(0.001, 0.2))
        assert cluster_labels(pts, tol).tolist() == _single_linkage(pts, tol).tolist()


@pytest.mark.parametrize("dim", [2, 3])
def test_pairwise_sq_distances_bitwise(dim):
    # the matrix has the bits of numpy's sum of squares over the last axis,
    # its square root those of np.linalg.norm, and it is symmetric bitwise
    # (the other association, dx*dx + (dy*dy + dz*dz), differs on about a
    # fifth of the entries of such a cloud)
    rng = np.random.default_rng(10 + dim)
    pts = rng.standard_normal((120, dim)) * rng.uniform(1e-6, 1.0, (120, 1))
    diff = pts[:, None, :] - pts[None, :, :]
    sq = metrics.pairwise_sq_distances(pts)
    assert sq.tobytes() == np.sum(diff * diff, axis=2).tobytes()
    assert np.sqrt(sq).tobytes() == np.linalg.norm(diff, axis=2).tobytes()
    assert sq.tobytes() == sq.T.copy().tobytes()
    assert metrics.pairwise_sq_distances(np.zeros((0, dim))).shape == (0, 0)


def test_linkage_labels_match_cluster_labels():
    rng = np.random.default_rng(5)
    for _ in range(20):
        pts = np.round(rng.random((128, 3)), 1)
        tol = float(rng.uniform(0.01, 0.2))
        got = metrics.linkage_labels(metrics.pairwise_sq_distances(pts), tol)
        assert got.tolist() == cluster_labels(pts, tol).tolist()


@pytest.mark.parametrize(
    "cloud",
    [
        lambda s: np.column_stack([np.full_like(s, 0.3), s, np.full_like(s, -0.2)]),
        lambda s: np.column_stack([s, np.full_like(s, 0.7)]),
        lambda s: np.column_stack([s, -s, 2 * s]) / 3.0,
        lambda s: np.tile([0.25, -0.5, 0.125], (len(s), 1)),
    ],
    ids=["line_y", "line_x", "diagonal", "coincident"],
)
def test_cluster_labels_degenerate_clouds(cloud):
    # each point twice, in runs of three 1e-3 apart with gaps of 2e-3: at
    # tol 1.5e-3 a run is one group (on the diagonal too, where both
    # shrink by 0.82)
    s = np.repeat(np.cumsum(np.where(np.arange(300) % 3 == 0, 2e-3, 1e-3)), 2)
    pts = cloud(s)
    tol = 1.5e-3
    labels = cluster_labels(pts, tol)
    assert labels.tolist() == _single_linkage(pts, tol).tolist()
    assert labels.max() + 1 == (1 if (pts == pts[0]).all() else 100)


def test_cluster_labels_horn3d_seams():
    # horn3d's pieces sampled apart at scale 0.5, density 32: where horn and
    # wall seams meet, copies of one point differ by rounding, and the merge
    # of ``sample_cloud`` (tol 1e-9 scale) joins them
    germ = builtin("horn3d").germ()
    pts = np.vstack([np.asarray(s.sample(0.5, 32)[0], dtype=float) for s in germ.surfaces])
    assert len(pts) == 1603
    tol = 1e-9 * 0.5
    labels = cluster_labels(pts, tol)
    assert labels.tolist() == _single_linkage(pts, tol).tolist()
    rep = np.unique(labels, return_index=True)[1][labels]
    assert (pts != pts[rep]).any(axis=1).sum() > 0


# ---------------------------------------------------------------------------
# Pancake metric
# ---------------------------------------------------------------------------


def _segment_pancake(label, a, b, tol=1e-9):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)

    def contains(p):
        p = np.asarray(p, dtype=float)
        ab = b - a
        t = float(np.dot(p - a, ab) / np.dot(ab, ab))
        t = min(max(t, 0.0), 1.0)
        return float(np.linalg.norm(a + t * ab - p)) <= tol

    sample = np.linspace(0, 1, 9)[:, None] * (b - a)[None, :] + a[None, :]
    return Pancake(label, contains, sample)


def _triangle_complex():
    A, B, C = (0.0, 0.0), (1.0, 0.0), (1.0, 1.0)
    return PancakeComplex(
        pancakes=(
            _segment_pancake("ab", A, B),
            _segment_pancake("bc", B, C),
            _segment_pancake("ca", C, A),
        ),
        intersections={
            frozenset({"ab", "bc"}): np.array([[1.0, 0.0]]),
            frozenset({"bc", "ca"}): np.array([[1.0, 1.0]]),
            frozenset({"ca", "ab"}): np.array([[0.0, 0.0]]),
        },
    )


def _enumerate_oracle(complex_, x, y):
    """Exhaustive admissible-sequence minimum, written independently of the
    search in ``pancake_distance``."""
    nodes = [np.asarray(x, dtype=float)]
    for pts in complex_.intersections.values():
        for p in np.atleast_2d(pts):
            nodes.append(np.asarray(p, dtype=float))
    nodes.append(np.asarray(y, dtype=float))
    members = [complex_.member_labels(p) for p in nodes]
    goal = len(nodes) - 1
    labels = [p.label for p in complex_.pancakes]
    best = math.inf
    mids = [i for i in range(1, goal)]
    for k in range(len(mids) + 1):
        for perm in itertools.permutations(mids, k):
            path = (0,) + perm + (goal,)
            for assignment in itertools.product(labels, repeat=len(path) - 1):
                if len(set(assignment)) != len(assignment):
                    continue  # a pancake hosts at most one pair
                ok = True
                for idx, lab in enumerate(assignment):
                    if lab not in members[path[idx]] or lab not in members[path[idx + 1]]:
                        ok = False
                        break
                    # no other sequence point may lie in the pair's pancake
                    for other in range(len(path)):
                        if other not in (idx, idx + 1) and lab in members[path[other]]:
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    continue
                length = sum(
                    float(np.linalg.norm(nodes[path[i]] - nodes[path[i + 1]]))
                    for i in range(len(path) - 1)
                )
                best = min(best, length)
    return best


class TestPancakeMetric:
    def test_matches_exhaustive_enumeration(self):
        complex_ = _triangle_complex()
        queries = [
            ((0.25, 0.0), (1.0, 0.75)),
            ((0.75, 0.0), (0.25, 0.25)),
            ((0.0, 0.0), (1.0, 1.0)),
            ((0.5, 0.0), (0.5, 0.5)),
        ]
        for x, y in queries:
            d, seq = pancake_distance(complex_, x, y)
            oracle = _enumerate_oracle(complex_, x, y)
            assert d == pytest.approx(oracle, abs=1e-12)
            assert seq is not None
            assert seq.length() == pytest.approx(d, abs=1e-12)

    def test_same_pancake_is_direct(self):
        complex_ = _triangle_complex()
        d, seq = pancake_distance(complex_, (0.2, 0.0), (0.8, 0.0))
        assert d == pytest.approx(0.6, abs=1e-12)
        assert len(seq.points) == 2

    def test_point_outside_raises(self):
        complex_ = _triangle_complex()
        with pytest.raises(InputError):
            pancake_distance(complex_, (5.0, 5.0), (0.5, 0.0))

    def test_two_tangent_curves_2t(self):
        # two tangent curve pancakes meeting only at the origin: the hop
        # sequence must pass through 0, giving exactly t + t = 2t when the
        # endpoints are distance-parametrized
        b1 = puiseux_branch([(1, (1, 0)), (2, (0, 1))], 1.0, "g1")
        b2 = puiseux_branch([(1, (1, 0)), (2, (0, -1))], 1.0, "g2")

        def curve_pancake(label, b):
            def contains(p):
                p = np.asarray(p, dtype=float)
                r = float(np.linalg.norm(p))
                if r > b.max_radius:
                    return False
                return float(np.linalg.norm(b.point_at_radius(r) - p)) <= 1e-9

            sample = np.array([b.point_at_radius(r) for r in np.linspace(0, 0.5, 9)])
            return Pancake(label, contains, sample)

        complex_ = PancakeComplex(
            pancakes=(curve_pancake("g1", b1), curve_pancake("g2", b2)),
            intersections={frozenset({"g1", "g2"}): np.array([[0.0, 0.0]])},
        )
        for t in (0.3, 0.1, 0.02):
            x = b1.point_at_radius(t)
            y = b2.point_at_radius(t)
            d, seq = pancake_distance(complex_, x, y)
            assert abs(d - 2.0 * t) <= 1e-9
            assert seq.pancakes in (("g1", "g2"), ("g2", "g1"))
