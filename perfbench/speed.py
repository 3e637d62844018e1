"""Machine-speed probe: scales wall times to a reference speed.

On a shared machine the same work runs up to about twice as fast at one
moment as at another (neighbours on the same core and cache come and go),
and a state lasts from seconds to minutes: far more than any change a
benchmark needs to see.  The probe runs small fixed kernels from a SIGALRM
handler every PERIOD_S seconds.  Python runs the handler in the main thread
between bytecodes, so each sample times the thread doing the work, at that
moment.  The kernels are the benchmark's own, in the two styles that make up
most of the package's time: dict arithmetic on Fraction exponents (the
series oracle) and k-d tree queries (clouds and foot finding).  Nothing from
lnegerm runs in them, so a faster package does not make the reference
faster.

``scale`` over an interval is the geometric mean, over the kernels sampled
in it, of the kernel's reference time over its mean measured time;
``ref_seconds`` is wall seconds times that scale.  The kernels cost about 1%
of a run, on both sides of any comparison.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.05

_TERMS = tuple((Fraction(k, 2), 1.0 + k) for k in range(8))


def _series_kernel() -> dict:
    out = {}
    for e1, c1 in _TERMS:
        for e2, c2 in _TERMS:
            e = e1 + e2
            out[e] = out.get(e, 0.0) + c1 * c2
    return out


class SpeedProbe:
    """Samples kernel times until ``stop``; start it before the imports so
    that set-up is covered too."""

    #: kernel times at the reference speed (about this machine's usual one)
    REF_S = {"series": 4.2e-4, "tree": 4.2e-4}

    def __init__(self):
        self.kernels = [("series", _series_kernel)]
        self.samples = []  # (start, kernel name, seconds)
        self._tick_no = 0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def add_tree_kernel(self) -> None:
        """Add the k-d tree kernel, once numpy and scipy are imported."""
        import numpy as np
        from scipy.spatial import cKDTree

        rng = np.random.default_rng(0)
        tree = cKDTree(rng.random((20000, 2)))
        queries = rng.random((32, 2))
        self.kernels.append(("tree", lambda: tree.query(queries, k=8)))

    def _tick(self, signum, frame) -> None:
        name, kernel = self.kernels[self._tick_no % len(self.kernels)]
        self._tick_no += 1
        t0 = time.perf_counter()
        kernel()
        self.samples.append((t0, name, time.perf_counter() - t0))

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per wall second over [start, end]; an interval
        too short to hold a sample is widened one period each way."""
        for pad in (0.0, PERIOD_S, math.inf):
            by_kernel: dict = {}
            for t, name, s in self.samples:
                if start - pad <= t <= end + pad:
                    by_kernel.setdefault(name, []).append(s)
            if by_kernel:
                logs = [
                    math.log(self.REF_S[name] / statistics.fmean(times))
                    for name, times in by_kernel.items()
                ]
                return math.exp(statistics.fmean(logs))
        raise ValueError("the speed probe has no samples")

    def ref_seconds(self, start: float, end: float) -> float:
        return (end - start) * self.scale(start, end)
