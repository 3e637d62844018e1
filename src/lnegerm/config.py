"""Run configuration shared by the scenario runner and the CLI.

A configuration bundles the geometric scale grid, the discretization knobs
of the graph and medial pipelines, the ambient norm selector, and output
options.  Everything downstream is deterministic for a fixed configuration;
``seed`` is recorded in reports so that randomized *callers* (property
tests, randomized germ generators) can tie their output to a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .norms import make_norm

MIN_LEVELS = 5


@dataclass(frozen=True)
class MedialConfig:
    """Knobs of the medial-axis extraction pipeline.

    ``window`` is an optional axis-aligned box ((lo, hi), ...) and
    ``resolution`` an optional grid step; None means the scenario's own
    (builtins carry theirs, ad-hoc germs get a symmetric box from the scale
    range and step 1/256).
    """

    window: tuple | None = None
    resolution: float | None = None
    tau: float = 1e-3
    theta_min: float = 0.2

    def __post_init__(self):
        if self.resolution is not None and self.resolution <= 0:
            raise InputError("medial resolution must be positive")
        if not 0 < self.tau < 1:
            raise InputError("equidistance tolerance must lie in (0, 1)")
        if not 0 < self.theta_min < np.pi:
            raise InputError("angular threshold must lie in (0, pi)")
        if self.window is not None:
            w = tuple((float(a), float(b)) for a, b in self.window)
            if any(b <= a for a, b in w):
                raise InputError("medial window must have positive extent")
            object.__setattr__(self, "window", w)


@dataclass(frozen=True)
class RunConfig:
    t_min: float = 2.0**-9
    t_max: float = 2.0**-3
    levels: int = 7
    density: int = 32
    graph_radius_factor: float = 4.0
    order_tolerance: float = 0.1
    medial: MedialConfig = field(default_factory=MedialConfig)
    norm_kind: str = "euclid"
    weights: tuple | None = None
    output_format: str = "json"
    plot_dir: str | None = None
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.t_min < self.t_max:
            raise InputError("need 0 < t_min < t_max")
        if self.levels < MIN_LEVELS:
            raise InputError(f"need at least {MIN_LEVELS} scale levels")
        if self.density < 8:
            raise InputError("density must be at least 8")
        if self.graph_radius_factor <= 0:
            raise InputError("graph radius factor must be positive")
        if self.order_tolerance <= 0:
            raise InputError("order tolerance must be positive")
        if self.norm_kind not in ("euclid", "maxv"):
            raise InputError(f"unknown norm kind {self.norm_kind!r}")
        if self.weights is not None:
            w = tuple(float(v) for v in self.weights)
            if any(v <= 0 for v in w):
                raise InputError("max-norm weights must be positive")
            object.__setattr__(self, "weights", w)
        if self.output_format not in ("json", "csv"):
            raise InputError(f"unknown output format {self.output_format!r}")

    def scales(self) -> tuple:
        """Decreasing geometric grid of ``levels`` scales in [t_min, t_max]."""
        return tuple(float(t) for t in np.geomspace(self.t_max, self.t_min, self.levels))

    def norm(self, dim: int):
        return make_norm(self.norm_kind, self.weights, dim)

    def to_dict(self) -> dict:
        return {
            "t_min": self.t_min,
            "t_max": self.t_max,
            "levels": self.levels,
            "density": self.density,
            "graph_radius_factor": self.graph_radius_factor,
            "order_tolerance": self.order_tolerance,
            "medial": {
                "window": (
                    [list(ab) for ab in self.medial.window]
                    if self.medial.window is not None
                    else None
                ),
                "resolution": self.medial.resolution,
                "tau": self.medial.tau,
                "theta_min": self.medial.theta_min,
            },
            "norm": self.norm_kind,
            "weights": list(self.weights) if self.weights else None,
            "format": self.output_format,
            "seed": self.seed,
        }
