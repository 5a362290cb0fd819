"""Occupation statistics of the interpolated partial-sum path.

W_n(s) for s in [0,1] joins the points S_0, S_1, ..., S_n with affine
segments, each taking 1/n of the time budget. The fraction of time a
segment spends inside a cone comes from the exact crossing kernels in
`cones`, so tau needs no quadrature: it is the mean of per-segment
inside fractions. The piecewise-constant variant counts the lattice
points themselves; the kernels' `path_fractions` gives both in one pass
over the points. A series of horizons folds the path in blocks of
`cones.ROWS`, carrying a running sum and a count, so it holds no array
as long as the horizon.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cones import ROWS, BallWindow, Cone
from .engine import CocycleTrace
from .errors import ConfigInvalid


def _walk(trace: CocycleTrace, n: int, cone: Cone | None = None) -> np.ndarray:
    # the points S_0 .. S_n, for a cone of the walk's dimension
    if not 1 <= n <= trace.N:
        raise ConfigInvalid("n", "need 1 <= n <= N")
    if cone is not None and cone.d != trace.d:
        raise ConfigInvalid("cone", f"cone has dimension {cone.d}, the walk {trace.d}")
    return trace.values[:n + 1]


def tau(trace: CocycleTrace, n: int, cone: Cone) -> float:
    """Time fraction of [0,1] the interpolated path W_n spends in the cone."""
    return float(cone.path_fractions(_walk(trace, n, cone), ends=False)[0].mean())


def tau_discrete(trace: CocycleTrace, n: int, cone: Cone) -> float:
    """Fraction of the points S_1..S_n inside the cone, counted ROWS at a time."""
    V = _walk(trace, n, cone)
    return sum(np.count_nonzero(cone.contains(V[lo + 1:lo + ROWS + 1]))
               for lo in range(0, n, ROWS)) / n


def ball_visit_frequency(trace: CocycleTrace, n: int, M: float) -> float:
    """Time fraction W_n spends inside the open ball of radius M."""
    fr, _ = BallWindow(M).path_fractions(_walk(trace, n), trace.norms[:n + 1], ends=False)
    return float(fr.mean())


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

    The path up to the longest horizon is folded in blocks of ROWS
    segments, each read through the cone's `path_fractions`: the block's
    fractions continue the running sum (the same sequential sum as one
    cumsum over all of them), and its points in the cone are counted up
    to each horizon that ends in the block, and over the whole block.
    Memory is bounded by the block, not by the horizon. The grid may be
    unsorted and may repeat horizons.
    """
    ns = dyadic_grid(trace.N) if grid is None else np.asarray(grid, dtype=np.int64)
    if len(ns) == 0 or ns.min() < 1 or ns.max() > trace.N:
        raise ConfigInvalid("grid", "grid horizons must lie in [1, N]")
    top = int(ns.max())
    V = _walk(trace, top, cone)
    order = np.argsort(ns, kind="stable")
    at = ns[order] - 1                      # each horizon's last segment, ascending
    frac_at = np.empty(len(ns))
    disc_at = np.empty(len(ns), dtype=np.int64)
    frac_cum = np.empty(min(top, ROWS))
    run, count = 0.0, 0
    for lo in range(0, top, ROWS):
        hi = min(lo + ROWS, top)
        fr, inside = cone.path_fractions(V[lo:hi + 1])
        if lo:
            fr[0] += run
        fc = np.cumsum(fr, out=frac_cum[:hi - lo])
        run = fc[-1]
        a, b = np.searchsorted(at, (lo, hi))
        if a < b:
            frac_at[order[a:b]] = fc[at[a:b] - lo]
            # the points inside up to each horizon: those at or before its last segment
            upto = np.searchsorted(np.flatnonzero(inside), at[a:b] - lo, side="right")
            disc_at[order[a:b]] = count + upto
        count += np.count_nonzero(inside)
    return SojournSeries(ns, frac_at / ns, disc_at / ns)
