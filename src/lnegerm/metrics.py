"""Induced, inner (graph-geodesic), and pancake metrics over sampled germs.

The neighborhood graph connects points of the same piece within a radius;
points shared by several pieces (stored once, with the union of labels) are
the only junctions between pieces.  This keeps graph geodesics inside the
sampled set even where distinct pieces pass arbitrarily close to each other.

Components, pairwise distances and single-linkage labels off a distance
matrix need only numpy (``components``, ``pairwise_sq_distances``,
``linkage_labels``).  The point-cloud merge (``cluster_labels``), the
radius graph, its CSR matrix and its shortest paths import scipy inside
the functions that build or walk them.
"""

from __future__ import annotations

import heapq
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
    edge length.

    Built directly from both orientations of the pairs sorted by (row,
    column), with 32-bit indices: the arrays scipy's COO-to-CSR conversion
    gives, without building the COO matrix.
    """
    from scipy import sparse

    n = len(pts)
    if not len(pairs):
        return sparse.csr_matrix((n, n))
    w = np.linalg.norm(pts[pairs[:, 0]] - pts[pairs[:, 1]], axis=1)
    if np.any(w <= 0):
        raise InputError("coincident points must be merged before graphing")
    rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
    cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
    order = np.lexsort((cols, rows))
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return sparse.csr_matrix(
        (np.concatenate([w, w])[order], cols[order].astype(np.int32), indptr),
        shape=(n, n),
    )


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


def cluster_labels(points: np.ndarray, tol: float) -> np.ndarray:
    """Single-linkage groups of points closer than ``tol``.

    ``labels[i]`` is the group of point i.  Groups are numbered in the order
    of their lowest index, so that index is each group's representative.
    The candidates are the k-d tree's pairs within 2 tol, a margin for the
    tree's own rounding; a candidate joins when its squared distance is at
    most tol**2, so exact copies join at tol = 0 too.
    """
    from scipy.spatial import cKDTree

    points = np.asarray(points, dtype=float)
    n = len(points)
    if n < 2:
        return np.zeros(n, dtype=np.intp)
    pairs = cKDTree(points).query_pairs(2 * tol, output_type="ndarray")
    near = np.sum((points[pairs[:, 0]] - points[pairs[:, 1]]) ** 2, axis=1) <= tol * tol
    return components(n, pairs[near])[1]


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
