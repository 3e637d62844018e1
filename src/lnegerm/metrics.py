"""Induced, inner (graph-geodesic), and pancake metrics over sampled germs.

The neighborhood graph connects points of the same piece within a radius;
points shared by several pieces (stored once, with the union of labels) are
the only junctions between pieces.  This keeps graph geodesics inside the
sampled set even where distinct pieces pass arbitrarily close to each other.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components, dijkstra
from scipy.spatial import cKDTree

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
    matrix: sparse.csr_matrix
    n_components: int
    component_of: np.ndarray

    def edge_array(self) -> np.ndarray:
        coo = sparse.triu(self.matrix).tocoo()
        return np.column_stack([coo.row, coo.col])


def build_graph(cloud: PointCloud, radius: float) -> NeighborhoodGraph:
    """Neighborhood graph at the given radius, respecting piece labels.

    An edge (i, j) requires ||p_i - p_j|| <= radius and a shared piece label.
    """
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
    mat = edge_matrix(pts, pairs)
    ncomp, comp = connected_components(mat, directed=False)
    return NeighborhoodGraph(cloud, radius, mat, ncomp, comp)


def edge_matrix(pts: np.ndarray, pairs: np.ndarray) -> sparse.csr_matrix:
    """Symmetric adjacency over distinct index pairs, weight = edge length."""
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


def cluster_labels(points: np.ndarray, tol: float) -> np.ndarray:
    """Single-linkage groups of points closer than ``tol``.

    ``labels[i]`` is the group of point i.  Groups are numbered in the order
    of their lowest index, so that index is each group's representative.
    """
    n = len(points)
    pairs = cKDTree(points).query_pairs(r=tol, output_type="ndarray") if n > 1 else ()
    if not len(pairs):
        return np.arange(n)
    adj = sparse.coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    # undirected components are labelled by a scan in index order
    return connected_components(adj, directed=False)[1]


def inner_distance(graph: NeighborhoodGraph, i: int, j: int) -> float:
    """Shortest-path length between nodes; math.inf when disconnected."""
    if i == j:
        return 0.0
    if graph.component_of[i] != graph.component_of[j]:
        return math.inf
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
