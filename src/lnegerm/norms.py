"""Ambient norms: Euclidean and weighted max.

A norm object is callable on a single point or an (m, n) array of points
and returns the norm value(s).  ``of(xs)`` is the same norm of one point
given as a sequence of floats, returned as a float, for the per-point root
solves: it takes a few hundred ns where the array call takes microseconds,
and it rounds exactly as the array call does (the Euclidean sum of squares
runs left to right, as numpy's reduction over a short last axis does), so
either path gives the same bits.  Its points come from the scalar paths of
the pieces (``PuiseuxBranch._point``), which keep their own bits by one
``np.power`` ufunc call per term and never Python's ``**``: numpy's SIMD
``pow`` and libm's round differently on some inputs.  ``of_columns(cols)``
is ``of`` on many points at once, given as one array per coordinate: it
makes ``of``'s float operations in ``of``'s order, elementwise, so each
value has ``of``'s bits.

The rule of every per-point kernel (``of``, ``PuiseuxBranch._point`` and
``param_at_radius``, ``medial._project_branch``, ``germs._miller_powers``):
it makes only the numpy calls whose bits it pins, its clamps and
tolerances run on Python floats with the semantics of Python's ``min`` and
``max``, and arrays are built at the root, where a caller keeps one.  A
kernel skips a call only where an identity fixes its value for every
float: ``np.power(x, 1.0)`` and libm's ``x ** 1.0`` are x (the scalar
kernel tests hold both over every binade), CPython's ``x ** 0.0`` is 1.0
without a libm call, and a term 0.0 * (finite) adds a signed zero, which
leaves a sum of squares as it is.  No other exponent is skipped: libm's
``x ** 2.0`` is not ``x * x`` on every input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError


@dataclass(frozen=True)
class EuclideanNorm:
    name: str = "euclid"

    def __call__(self, x):
        return np.linalg.norm(np.asarray(x, dtype=float), axis=-1)

    def of(self, xs) -> float:
        acc = 0.0
        for v in xs:
            acc += v * v
        return math.sqrt(acc)

    def of_columns(self, cols) -> np.ndarray:
        acc = 0.0
        for v in cols:
            acc = acc + v * v
        return np.sqrt(acc)


@dataclass(frozen=True)
class WeightedMaxNorm:
    """max_i v_i |x_i| with strictly positive, finite weights."""

    weights: tuple
    name: str = "maxv"

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or not np.all(np.isfinite(w) & (w > 0)):
            raise InputError("max-norm weights must be a vector of positive finite reals")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        return np.max(w * np.abs(x), axis=-1)

    def of(self, xs) -> float:
        return max(w * abs(v) for w, v in zip(self.weights, xs))

    def of_columns(self, cols) -> np.ndarray:
        # Python's max keeps the first of equal values: a later column
        # replaces the running maximum only where it is larger
        best = None
        for w, v in zip(self.weights, cols):
            wv = w * np.abs(v)
            best = wv if best is None else np.where(wv > best, wv, best)
        return best


EUCLID = EuclideanNorm()


def make_norm(kind: str, weights=None, dim: int | None = None):
    if kind == "euclid":
        return EUCLID
    if kind == "maxv":
        if weights is None:
            if dim is None:
                raise InputError("maxv norm needs weights or an ambient dimension")
            weights = (1.0,) * dim
        elif dim is not None and len(weights) != dim:
            raise InputError(
                f"max-norm weights: {len(weights)} given for ambient dimension {dim}"
            )
        return WeightedMaxNorm(tuple(float(w) for w in weights))
    raise InputError(f"unknown norm kind {kind!r}")
