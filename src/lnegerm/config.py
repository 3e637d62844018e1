"""Run configuration shared by the scenario runner and the CLI.

A configuration bundles the geometric scale grid, the sampling density of
surface link sections (and of ``--plot``'s branch samples), the angular
threshold of medial bisectors, the order tolerance of the arc criterion,
the ambient norm selector, and output options.  Everything downstream is deterministic for a fixed
configuration; ``seed`` is recorded in reports so that randomized *callers*
(property tests, randomized germ generators) can tie their output to a run.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .germs import MIN_SCALES
from .norms import make_norm


def _is_number(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _check_types(config, kinds: dict) -> None:
    """Raise ``InputError`` naming the first field whose value fails its
    test; ``kinds`` maps each field to (what it must be, test)."""
    for name, (what, ok) in kinds.items():
        v = getattr(config, name)
        if not ok(v):
            raise InputError(f"{name} must be {what}, got {v!r}")


@dataclass(frozen=True)
class MedialConfig:
    """Settings of the medial bisector solve.

    ``theta_min`` is the least angle between the two feet of a bisector
    point, as seen from it.  ``window`` and ``resolution`` are read by
    nothing: they set the medial grid that ``lnegerm medial`` no longer
    runs, and stay constructible only for callers that still pass them.
    They are not echoed, and a config file that sets them is rejected.
    """

    window: tuple | None = None
    resolution: float | None = None
    theta_min: float = 0.2

    def __post_init__(self):
        _check_types(
            self,
            {
                "window": ("None or a tuple", lambda v: v is None or isinstance(v, tuple)),
                "resolution": ("None or a number", lambda v: v is None or _is_number(v)),
                "theta_min": ("a number", _is_number),
            },
        )
        if not 0 < self.theta_min < np.pi:
            raise InputError("angular threshold must lie in (0, pi)")


@dataclass(frozen=True)
class RunConfig:
    """One analysis's settings.

    ``t_min``, ``t_max`` and ``levels`` set the one scale ladder,
    ``scales()``, on which every stage works: the link criterion, the set
    pairs, the medial bisector solves and the medial pairs.  The default
    ladder is 2^-4..2^-10 in seven levels.
    """

    t_min: float = 2.0**-10
    t_max: float = 2.0**-4
    levels: int = 7
    density: int = 32
    order_tolerance: float = 0.1
    medial: MedialConfig = field(default_factory=MedialConfig)
    norm_kind: str = "euclid"
    weights: tuple | None = None
    output_format: str = "json"
    plot_dir: str | None = None
    seed: int = 0

    def __post_init__(self):
        _check_types(
            self,
            {
                "t_min": ("a number", _is_number),
                "t_max": ("a number", _is_number),
                "levels": ("an integer", _is_int),
                "density": ("an integer", _is_int),
                "order_tolerance": ("a number", _is_number),
                "medial": ("a MedialConfig", lambda v: isinstance(v, MedialConfig)),
                "norm_kind": ("a string", lambda v: isinstance(v, str)),
                "weights": (
                    "None or a list of numbers",
                    lambda v: v is None or isinstance(v, (list, tuple)) and all(map(_is_number, v)),
                ),
                "output_format": ("a string", lambda v: isinstance(v, str)),
                "plot_dir": ("None or a string", lambda v: v is None or isinstance(v, str)),
                "seed": ("an integer", _is_int),
            },
        )
        for name in ("t_min", "t_max", "order_tolerance"):
            if not math.isfinite(getattr(self, name)):
                raise InputError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0 < self.t_min < self.t_max:
            raise InputError("need 0 < t_min < t_max")
        if self.levels < MIN_SCALES:
            raise InputError(f"need at least {MIN_SCALES} scale levels")
        if self.density < 8:
            raise InputError("density must be at least 8")
        if self.order_tolerance <= 0:
            raise InputError("order tolerance must be positive")
        if self.norm_kind not in ("euclid", "maxv"):
            raise InputError(f"unknown norm kind {self.norm_kind!r}")
        if self.weights is not None:
            w = tuple(float(v) for v in self.weights)
            if not all(math.isfinite(v) and v > 0 for v in w):
                raise InputError("max-norm weights must be positive and finite")
            if self.norm_kind != "maxv":
                raise InputError(f"weights apply only to the maxv norm, not {self.norm_kind!r}")
            object.__setattr__(self, "weights", w)
        if self.output_format not in ("json", "csv"):
            raise InputError(f"unknown output format {self.output_format!r}")

    def scales(self) -> tuple:
        """Decreasing geometric grid of ``levels`` scales from t_max to t_min.

        The exponents are spaced in base 2 and both endpoints are pinned, so
        a ladder between powers of two whose exponents divide evenly holds
        exact powers of two (``np.geomspace`` misses some by an ulp).
        """
        hi, lo = math.log2(self.t_max), math.log2(self.t_min)
        k = self.levels - 1
        inner = (2.0 ** (hi + (lo - hi) * i / k) for i in range(1, k))
        return (float(self.t_max), *inner, float(self.t_min))

    def norm(self, dim: int):
        return make_norm(self.norm_kind, self.weights, dim)

    def to_dict(self) -> dict:
        return {
            "t_min": self.t_min,
            "t_max": self.t_max,
            "levels": self.levels,
            "density": self.density,
            "order_tolerance": self.order_tolerance,
            "medial": {"theta_min": self.medial.theta_min},
            "norm": self.norm_kind,
            "weights": list(self.weights) if self.weights else None,
            "format": self.output_format,
            "seed": self.seed,
        }
