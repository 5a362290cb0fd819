"""Occupation statistics of the interpolated partial-sum path.

W_n(s) for s in [0,1] joins the points S_0, S_1, ..., S_n with affine
segments, each taking 1/n of the time budget. The fraction of time a
segment spends inside a cone comes from the exact crossing kernels in
`cones`, so tau needs no quadrature: it is the mean of per-segment
inside fractions. The piecewise-constant variant counts the lattice
points themselves.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cones import BallWindow, Cone
from .engine import CocycleTrace
from .errors import ConfigInvalid


def _segments(trace: CocycleTrace, n: int):
    if not 1 <= n <= trace.N:
        raise ConfigInvalid("n", "need 1 <= n <= N")
    return trace.values[:n], trace.values[1:n + 1]


def tau(trace: CocycleTrace, n: int, cone: Cone) -> float:
    """Time fraction of [0,1] the interpolated path W_n spends in the cone."""
    P0, P1 = _segments(trace, n)
    return float(cone.segment_fraction(P0, P1).mean())


def tau_discrete(trace: CocycleTrace, n: int, cone: Cone) -> float:
    """Fraction of the points S_1..S_n inside the cone."""
    _, P1 = _segments(trace, n)
    return float(cone.contains(P1).mean())


def ball_visit_frequency(trace: CocycleTrace, n: int, M: float) -> float:
    """Time fraction W_n spends inside the open ball of radius M."""
    P0, P1 = _segments(trace, n)
    return float(BallWindow(M).segment_fraction(P0, P1).mean())


def dyadic_grid(N: int) -> np.ndarray:
    """Powers of two 1, 2, 4, ... up to N; window [lo, 2 lo) is S[lo:2 * lo]."""
    return 2 ** np.arange(max(int(N), 0).bit_length(), dtype=np.int64)


@dataclass
class SojournSeries:
    """tau along a grid of horizons, with its extremes.

    The grid max and min are the finite-horizon surrogates for the
    limsup/liminf of the occupation fraction.
    """

    ns: np.ndarray
    tau: np.ndarray
    tau_disc: np.ndarray

    @property
    def running_max(self) -> float:
        return float(self.tau.max())

    @property
    def running_min(self) -> float:
        return float(self.tau.min())


def sojourn_series(trace: CocycleTrace, cone: Cone, grid=None) -> SojournSeries:
    """tau and tau_discrete at each grid horizon (default: dyadic).

    Per-segment fractions are computed once for the longest horizon;
    each tau_n is a prefix mean.
    """
    ns = dyadic_grid(trace.N) if grid is None else np.asarray(grid, dtype=np.int64)
    if len(ns) == 0 or ns.min() < 1 or ns.max() > trace.N:
        raise ConfigInvalid("grid", "grid horizons must lie in [1, N]")
    top = int(ns.max())
    P0, P1 = _segments(trace, top)
    frac_cum = np.cumsum(cone.segment_fraction(P0, P1))
    disc_cum = np.cumsum(cone.contains(P1).astype(np.float64))
    taus = frac_cum[ns - 1] / ns
    discs = disc_cum[ns - 1] / ns
    return SojournSeries(ns, taus, discs)
