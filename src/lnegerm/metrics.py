"""Induced, inner (graph-geodesic), and pancake metrics over sampled germs.

The neighborhood graph connects points of the same piece within a radius;
points shared by several pieces (stored once, with the union of labels) are
the only junctions between pieces.  This keeps graph geodesics inside the
sampled set even where distinct pieces pass arbitrarily close to each other.

Components, pairwise distances and single-linkage clusters need only
numpy (``components``, ``pairwise_sq_distances``, ``linkage_labels``,
``cluster_labels``).  The radius graph, its CSR matrix and its shortest
paths import scipy inside the functions that build or walk them.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError


def induced_distance(x, y) -> float:
    """Euclidean distance of the ambient space."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise InputError("points must share an ambient dimension")
    return float(np.linalg.norm(x - y))


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Finite sample of a germ inside the ball of a given scale.

    ``labels[i]`` is the set of piece labels the i-th point belongs to;
    ``params[i]`` maps a piece label to the sampling parameter of the point
    on that piece (curve parameter, or a surface parameter tuple).
    ``tip_index`` locates, per curve piece, the sample at radius == scale.
    """

    points: np.ndarray
    scale: float
    labels: tuple
    params: tuple
    spacing: float
    tip_index: dict = field(default_factory=dict)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or len(pts) == 0:
            raise InputError("point cloud must be a nonempty (N, n) array")
        radii = np.linalg.norm(pts, axis=1)
        if np.any(radii > self.scale * (1 + 1e-9)):
            raise InputError("cloud contains points outside the stated ball")

    def __len__(self):
        return len(self.points)


@dataclass(eq=False)
class NeighborhoodGraph:
    """Undirected graph on a cloud, edge weight = Euclidean edge length."""

    cloud: PointCloud
    radius: float
    matrix: object  # scipy CSR matrix
    n_components: int
    component_of: np.ndarray

    def edge_array(self) -> np.ndarray:
        from scipy import sparse

        coo = sparse.triu(self.matrix).tocoo()
        return np.column_stack([coo.row, coo.col])


def build_graph(cloud: PointCloud, radius: float) -> NeighborhoodGraph:
    """Neighborhood graph at the given radius, respecting piece labels.

    An edge (i, j) requires ||p_i - p_j|| <= radius and a shared piece label.
    """
    from scipy.spatial import cKDTree

    if radius <= 0:
        raise InputError("graph radius must be positive")
    pts = cloud.points
    tree = cKDTree(pts)
    pairs = tree.query_pairs(r=radius, output_type="ndarray")
    if len(pairs):
        keep = np.fromiter(
            (bool(cloud.labels[i] & cloud.labels[j]) for i, j in pairs),
            dtype=bool,
            count=len(pairs),
        )
        pairs = pairs[keep]
    ncomp, comp = components(len(pts), pairs)
    return NeighborhoodGraph(cloud, radius, edge_matrix(pts, pairs), ncomp, comp)


def edge_matrix(pts: np.ndarray, pairs: np.ndarray):
    """Symmetric scipy CSR adjacency over distinct index pairs, weight =
    edge length."""
    from scipy import sparse

    n = len(pts)
    if not len(pairs):
        return sparse.csr_matrix((n, n))
    w = np.linalg.norm(pts[pairs[:, 0]] - pts[pairs[:, 1]], axis=1)
    if np.any(w <= 0):
        raise InputError("coincident points must be merged before graphing")
    return sparse.coo_matrix(
        (np.concatenate([w, w]),
         (np.concatenate([pairs[:, 0], pairs[:, 1]]),
          np.concatenate([pairs[:, 1], pairs[:, 0]]))),
        shape=(n, n),
    ).tocsr()


def components(n: int, pairs) -> tuple:
    """(count, labels): connected components of the undirected graph on
    nodes 0..n-1 with edges ``pairs`` (an (m, 2) index array).

    A union-find on whole arrays: each round hooks the larger root of every
    edge whose ends have different roots onto the smaller, then compresses
    paths until every node points at its root.  Roots are the lowest index
    of their component, and components are numbered in that order (as
    scipy's ``connected_components`` numbers them).
    """
    root = np.arange(n)
    edges = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    u, v = edges[:, 0], edges[:, 1]
    while True:
        ru, rv = root[u], root[v]
        split = ru != rv
        if not split.any():
            break
        ru, rv = ru[split], rv[split]
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
    is_root = root == np.arange(n)
    return int(is_root.sum()), (np.cumsum(is_root) - 1)[root]


def pairwise_sq_distances(points: np.ndarray) -> np.ndarray:
    """(n, n) squared Euclidean distances between the rows of ``points``.

    Built column by column as (dx*dx + dy*dy) + dz*dz, left to right: the
    order of numpy's sum over a short last axis, so each entry is bitwise
    ``np.sum(diff * diff, axis=-1)`` and its square root bitwise
    ``np.linalg.norm(diff, axis=-1)``.  The matrix is symmetric bitwise,
    since (a - b)**2 == (b - a)**2.
    """
    points = np.asarray(points, dtype=float)
    sq = np.zeros((len(points), len(points)))
    for col in points.T:
        d = col[:, None] - col[None, :]
        sq += d * d
    return sq


def linkage_labels(sq: np.ndarray, tol: float) -> np.ndarray:
    """``cluster_labels`` read off a matrix of squared distances
    (``pairwise_sq_distances``): every pair is a candidate."""
    i, j = np.nonzero(sq <= tol * tol)
    return components(len(sq), np.column_stack([i, j]))[1]


#: up to this many points ``cluster_labels`` checks every pair
ALL_PAIRS_MAX = 64


def cluster_labels(points: np.ndarray, tol: float) -> np.ndarray:
    """Single-linkage groups of points closer than ``tol``.

    ``labels[i]`` is the group of point i.  Groups are numbered in the order
    of their lowest index, so that index is each group's representative.
    A candidate pair joins when its squared distance is at most tol**2.
    Up to ``ALL_PAIRS_MAX`` points every pair is a candidate
    (``linkage_labels``); above that, the pairs from ``_cube_pairs``.
    """
    points = np.asarray(points, dtype=float)
    n = len(points)
    if n <= ALL_PAIRS_MAX:
        return linkage_labels(pairwise_sq_distances(points), tol)
    i, j = _cube_pairs(points, tol)
    near = np.sum((points[i] - points[j]) ** 2, axis=1) <= tol * tol
    return components(n, np.column_stack([i[near], j[near]]))[1]


def _cube_pairs(points: np.ndarray, tol: float) -> tuple:
    """(i, j): candidate pairs of points within ``tol``, i != j.

    Each point is paired with the first copy of itself; the distinct
    points are bucketed into cubes of side 2 tol, so two points within tol
    lie in the same or adjacent cubes whatever the rounding of their cube
    coordinates, and are paired with the points of their own cube and of
    the lexicographically positive half of its neighbours.  The count grows
    with the points plus the near pairs: a line of points, or many copies
    of one point, does not inflate it.
    """
    order = np.lexsort(points.T[::-1])  # equal rows keep index order
    rows = points[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    first = order[new]  # lowest index of each distinct point
    pairs_i, pairs_j = [first[np.cumsum(new) - 1][~new]], [order[~new]]
    if len(first) > 1 and tol > 0:
        cells = np.floor(rows[new] / (2.0 * tol))
        m, dim = cells.shape
        # row 0 the cube itself, then its lexicographically positive
        # neighbours, so each pair of cubes is visited once
        shifts = np.array(
            [o for o in itertools.product((-1, 0, 1), repeat=dim) if o >= (0,) * dim]
        )
        # mixed-radix key of each shifted cube from the ranks of its
        # coordinates among those occupied on each axis; -1 where one is not
        key = np.zeros((len(shifts), m), dtype=np.int64)
        hit = np.ones((len(shifts), m), dtype=bool)
        for col, shift in zip(cells.T, shifts.T):
            vals, rank = np.unique(col, return_inverse=True)
            rank = rank.reshape(1, -1) + shift[:, None]
            hit &= vals[np.clip(rank, 0, len(vals) - 1)] == col + shift[:, None]
            key = key * len(vals) + rank
        key[~hit] = -1
        by_cube = np.argsort(key[0], kind="stable")
        sorted_keys = key[0][by_cube]
        start = np.searchsorted(sorted_keys, key, side="left")
        end = np.searchsorted(sorted_keys, key, side="right")
        start[0, by_cube] = np.arange(m) + 1  # in its own cube, the later points only
        count = np.maximum(end - start, 0).ravel()
        at = np.repeat(np.cumsum(count) - count - start.ravel(), count)
        pairs_i.append(first[np.repeat(np.tile(np.arange(m), len(shifts)), count)])
        pairs_j.append(first[by_cube[np.arange(count.sum()) - at]])
    return np.concatenate(pairs_i), np.concatenate(pairs_j)


def inner_distance(graph: NeighborhoodGraph, i: int, j: int) -> float:
    """Shortest-path length between nodes; math.inf when disconnected."""
    if i == j:
        return 0.0
    if graph.component_of[i] != graph.component_of[j]:
        return math.inf
    from scipy.sparse.csgraph import dijkstra

    d = dijkstra(graph.matrix, directed=False, indices=i, min_only=False)
    return float(d[j])


# ---------------------------------------------------------------------------
# Pancake metric
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Pancake:
    label: str
    contains: object  # callable point -> bool (tolerance built in)
    sample: np.ndarray


@dataclass(frozen=True, eq=False)
class PancakeComplex:
    pancakes: tuple
    intersections: dict  # frozenset({label_a, label_b}) -> (k, n) array

    def member_labels(self, point) -> frozenset:
        return frozenset(p.label for p in self.pancakes if p.contains(point))


@dataclass(frozen=True, eq=False)
class PancakeSequence:
    """Witnessing hop sequence: pancake[k] hosts (points[k], points[k+1])."""

    points: tuple
    pancakes: tuple

    def length(self) -> float:
        return float(
            sum(
                np.linalg.norm(np.asarray(a) - np.asarray(b))
                for a, b in zip(self.points[:-1], self.points[1:])
            )
        )


def pancake_distance(complex_: PancakeComplex, x, y):
    """Minimal hop-sequence length between x and y, with its witness.

    Hop sequences satisfy the three pancake-sequence conditions; in
    particular a pancake hosts at most one consecutive pair and no other
    sequence point may lie in it.  The search enumerates sequences whose
    intermediate points are the sampled pairwise-intersection points, with
    best-first expansion over (path, used-pancake) states.

    Returns ``(math.inf, None)`` when no admissible sequence exists.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    nodes = [x]
    for pts in complex_.intersections.values():
        for p in np.atleast_2d(pts):
            nodes.append(np.asarray(p, dtype=float))
    nodes.append(y)
    goal = len(nodes) - 1
    members = [complex_.member_labels(p) for p in nodes]
    if not members[0]:
        raise InputError("start point lies in no pancake")
    if not members[goal]:
        raise InputError("end point lies in no pancake")

    best = math.inf
    best_path = None
    # heap entries: (length, tiebreak, node index, path indices, used labels)
    heap = [(0.0, 0, 0, (0,), ())]
    tick = 1
    while heap:
        length, _, cur, path, used = heapq.heappop(heap)
        if length >= best:
            break
        if cur == goal:
            best = length
            best_path = (path, used)
            continue
        for pk in complex_.pancakes:
            if pk.label not in members[cur] or pk.label in used:
                continue
            for nxt in range(1, len(nodes)):
                if nxt in path:
                    continue
                if pk.label not in members[nxt]:
                    continue
                # condition 3: the new point must avoid every pancake already
                # used by earlier pairs, and earlier points must avoid pk.
                if any(u in members[nxt] for u in used):
                    continue
                if any(pk.label in members[s] for s in path[:-1]):
                    continue
                step = float(np.linalg.norm(nodes[cur] - nodes[nxt]))
                heapq.heappush(
                    heap,
                    (length + step, tick, nxt, path + (nxt,), used + (pk.label,)),
                )
                tick += 1
    if best_path is None:
        return math.inf, None
    path, used = best_path
    seq = PancakeSequence(
        points=tuple(tuple(nodes[i]) for i in path), pancakes=used
    )
    return best, seq
