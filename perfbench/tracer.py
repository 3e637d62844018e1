"""In-memory span tracer that wraps lnegerm functions from outside the package.

Only the traced run imports this module.  ``install`` rebinds each traced
name where its callers look it up (a module global such as
``lnegerm.scenarios.extract_medial_axis_grid``, or a class attribute such as
``lnegerm.medial.FootFinder.feet``) and ``restore`` puts the originals back.
A span's self time is its duration minus the durations of the spans opened
directly inside it, kept on a parent stack.  Spans are aggregated per name
as they close (calls, total and self seconds): the hot spans run millions of
times, too many to keep one record each.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, total_s, self_s]
        self.counts = defaultdict(int)
        self._stack = []  # [name, seconds covered by child spans]
        self._patches = []

    def _rebind(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr, name, after=None) -> None:
        """Time every call of ``owner.attr`` as a span.

        ``name`` is a string or a callable (args) -> string; ``after`` is
        called with (tracer, args, result) once the span has closed.
        """
        fn = getattr(owner, attr)
        clock = time.perf_counter
        stack, spans = self._stack, self.spans

        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            frame = [label, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                s = spans[label]
                s[0] += 1
                s[1] += dt
                s[2] += dt - frame[1]
            if after is not None:
                after(self, args, out)
            return out

        self._rebind(owner, attr, wrapper)

    def count(self, owner, attr, name) -> None:
        """Count calls of ``owner.attr`` without opening a span."""
        fn = getattr(owner, attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        self._rebind(owner, attr, wrapper)

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


STAGE = "scenarios.stage."
GRID = STAGE + "medial_grid"


def _grid_nodes(args) -> int:
    window, h = args[1], float(args[2])
    return int(np.prod([len(np.arange(a, b + 0.5 * h, h)) for a, b in window]))


def _after_grid(tr, args, axis) -> None:
    tr.counts["medial.grid.nodes"] += _grid_nodes(args)
    tr.counts["medial.grid.accepted"] += len(axis.points)


def _after_refine(tr, args, res) -> None:
    if res is None:
        tr.counts["medial.refine_equidistant.none"] += 1
    if tr.inside(GRID):
        tr.counts["medial.grid.refine_attempts"] += 1


def _after_sample_cloud(tr, args, cloud) -> None:
    tr.counts["germs.sample_cloud.points"] += len(cloud.points)


def _after_build_graph(tr, args, graph) -> None:
    tr.counts["metrics.build_graph.edges"] += graph.matrix.nnz // 2


def _after_finder_init(tr, args, _) -> None:
    tr.counts["medial.FootFinder.init.cloud_points"] += len(args[0].cloud.points)


def _pairs_stage(args) -> str:
    # run_scenario builds the medial germ set with this label suffix
    return STAGE + ("medial_pairs" if args[0].label.endswith("_medial") else "set_pairs")


def install(tr: Tracer) -> None:
    """Wrap every traced layer boundary of the lnegerm package."""
    from lnegerm import germs, links, medial, scenarios, surfaces, tangency

    tr.span(scenarios, "link_criterion_verdict", STAGE + "link_criterion")
    tr.span(scenarios, "_pairwise_reports", _pairs_stage)
    tr.span(scenarios, "extract_medial_axis_grid", GRID, after=_after_grid)
    tr.span(scenarios, "medial_branch_germs", STAGE + "branch_tracking")

    for mod in (scenarios, links):
        tr.span(mod, "pair_verdict", "tangency.pair_verdict")
    tr.span(tangency, "outer_tangency_order", "tangency.outer_tangency_order")
    tr.span(tangency, "inner_tangency_order", "tangency.inner_tangency_order")
    tr.span(tangency, "symbolic_separation_order", "germs.symbolic_separation_order")
    tr.span(germs, "invert_norm_series", "series.invert_norm_series")
    for mod in (germs, medial):
        tr.span(mod, "sample_cloud", "germs.sample_cloud", after=_after_sample_cloud)
    for mod in (tangency, links):
        tr.span(mod, "build_graph", "metrics.build_graph", after=_after_build_graph)
    tr.span(tangency, "inner_distance", "metrics.inner_distance")
    tr.span(links, "link_section", "links.link_section")

    finder = medial.FootFinder
    tr.span(finder, "__init__", "medial.FootFinder.init", after=_after_finder_init)
    tr.span(finder, "feet", "medial.FootFinder.feet")
    tr.span(finder, "polish", "medial.FootFinder.polish")
    tr.count(medial, "golden_min", "medial.golden_min")
    tr.span(medial, "refine_equidistant", "medial.refine_equidistant", after=_after_refine)
    tr.span(medial.SampledCurve, "point_at_radius", "medial.SampledCurve.point_at_radius")

    tr.span(surfaces.HornPiece, "project", "surfaces.HornPiece.project")
    tr.span(surfaces.WallPiece, "project", "surfaces.WallPiece.project")
    tr.count(surfaces, "golden_min", "surfaces.golden_min")
