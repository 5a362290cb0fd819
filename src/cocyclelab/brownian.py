"""Brownian-motion reference: cone-occupation samplers, analytic oracles.

These samplers are the independent yardstick for the walk statistics:
occupation fractions of cones under Brownian motion obey the Levy
arcsine law (half-spaces, via 1-D projection), are scale invariant in
the horizon, and are strictly positive near 1. Occupation is read by
the same exact path kernel as walk paths, the cone's `path_fractions`;
a half-space path is 1-D, read through `HalfSpace([1.0])`.
"""
from __future__ import annotations

import math

import numpy as np

from .cones import Cone, HalfSpace
from .errors import ConfigInvalid, _whole

_TAG = 179          # seed-space namespace for Brownian streams
ROW_BLOCK = 1 << 16  # path steps drawn, summed and reduced at a time
BATCH = 10_000       # paths a generator draws: batch bi is keyed (seed, bi)
_HALF_LINE = HalfSpace([1.0])


def _rng(seed):
    key = (_TAG,) + (tuple(seed) if isinstance(seed, (tuple, list)) else (seed,))
    return np.random.default_rng(key)


def _check_step(t: float, h: float) -> None:
    if h <= 0 or t <= 0 or h > t / 100.0:
        raise ConfigInvalid("h", "need 0 < h <= t/100")


def tau_samples(cone: Cone, t: float, h: float, samples: int, seed: int = 0) -> np.ndarray:
    """Occupation fractions across independent paths.

    Batch bi of BATCH paths draws from the generator keyed (seed, bi);
    cones other than half-spaces take batches of at most 2e6 path steps.
    Within a batch, whole paths are drawn, summed and reduced a few rows
    at a time (about ROW_BLOCK path steps), in buffers reused across the
    row blocks, so memory is bounded by the row block and the output,
    not by the sample count. A row block is laid out as one walk, each
    path from an origin of its own, and read through the cone's
    `path_fractions`; the segment from one path's end to the next
    origin is dropped. Half-spaces draw 1-D increments, since the
    projection of a Brownian motion on the unit normal is a 1-D Brownian
    motion, and read them through the half-line `HalfSpace([1.0])`.
    """
    _check_step(t, h)
    if samples < 1:
        raise ConfigInvalid("samples", "need at least one sample")
    _whole("seed", seed, 0)
    steps = int(round(t / h))
    if isinstance(cone, HalfSpace):
        kernel, d, batch = _HALF_LINE, 1, BATCH
    else:
        # the batch size decides which (seed, bi) generator draws each path
        kernel, d, batch = cone, cone.d, max(1, min(BATCH, 2_000_000 // steps))
    rows = min(max(1, ROW_BLOCK // steps), batch, samples)
    V = np.empty((rows, steps, d))                  # increments, as drawn
    # a row block as one walk: each path's origin (0) and its steps points,
    # then one more origin, so each path has steps + 1 segments, the last
    # one (to the next origin) dropped
    walk = np.zeros((rows * (steps + 1) + 1, d))
    W = walk[:-1].reshape(rows, steps + 1, d)[:, 1:]    # each path's points
    sqrt_h = np.sqrt(h)
    out = np.empty(samples)
    for bi, lo in enumerate(range(0, samples, batch)):
        rng = _rng((seed, bi))
        end = min(lo + batch, samples)
        for r0 in range(lo, end, rows):
            m = min(rows, end - r0)
            v = V[:m]
            rng.standard_normal(out=v)
            v *= sqrt_h
            np.cumsum(v, axis=1, out=W[:m])
            fr, _ = kernel.path_fractions(walk[:m * (steps + 1) + 1], ends=False)
            out[r0:r0 + m] = fr.reshape(m, steps + 1)[:, :steps].mean(axis=1)
    return out


def arcsine_cdf(u) -> np.ndarray:
    """Levy arcsine law (2/pi) arcsin sqrt(u) on [0, 1]."""
    return (2.0 / np.pi) * np.arcsin(np.sqrt(np.clip(u, 0.0, 1.0)))


def normal_cdf(x) -> np.ndarray:
    """Standard normal CDF 0.5 erfc(-x / sqrt 2), elementwise."""
    erfc = np.vectorize(math.erfc, otypes=[np.float64])
    return 0.5 * erfc(-np.asarray(x, dtype=np.float64) / math.sqrt(2.0))


def ks_statistic(samples, cdf) -> float:
    """One-sample KS distance: max over i of i/n - F(x_(i)), F(x_(i)) - (i-1)/n."""
    F = cdf(np.sort(np.asarray(samples, dtype=np.float64)))
    n = len(F)
    return float(max((np.arange(1.0, n + 1) / n - F).max(), (F - np.arange(0.0, n) / n).max()))


def ks_2samp_statistic(a, b) -> float:
    """Two-sample KS distance, counted exactly on the lattice 1/lcm(n_a, n_b)."""
    a, b = np.sort(a), np.sort(b)
    g = math.gcd(len(a), len(b))
    pts = np.concatenate([a, b])
    h = np.abs(np.searchsorted(a, pts, "right") * (len(b) // g)
               - np.searchsorted(b, pts, "right") * (len(a) // g)).max()
    return int(h) / (len(a) // g * len(b))


def arcsine_ks(samples: np.ndarray) -> float:
    """KS distance of occupation samples to the arcsine law."""
    return ks_statistic(samples, arcsine_cdf)


def scale_invariance_check(cone: Cone, t1: float, t2: float, samples: int,
                           h: float = 1e-3, seed: int = 0) -> float:
    """Two-sample KS between normalized occupations at two horizons.

    The step count is held fixed across horizons (h scales with t), so
    the comparison isolates scale invariance from discretization bias;
    |KS| at the MC noise floor confirms the property.
    """
    if t1 == t2:
        raise ConfigInvalid("t", "horizons must differ")
    a = tau_samples(cone, t1, h, samples, seed=(seed * 2 + 1))
    b = tau_samples(cone, t2, h * (t2 / t1), samples, seed=(seed * 2 + 2))
    return ks_2samp_statistic(a, b)


def wilson_interval(successes: int, n: int, z: float = 1.959963984540054):
    """Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise ConfigInvalid("samples", "need n > 0")
    p = successes / n
    z2 = z * z
    center = (p + z2 / (2 * n)) / (1 + z2 / n)
    half = z * np.sqrt(p * (1 - p) / n + z2 / (4 * n * n)) / (1 + z2 / n)
    return center - half, center + half


def positivity_check(cone: Cone, alpha: float, samples: int, seed: int = 0,
                     t: float = 1.0, h: float = 1e-3):
    """Empirical P(tau > 1 - alpha) with a Wilson confidence interval.

    Returns (p_hat, (lo, hi)).
    """
    if not 0.0 < alpha < 1.0:
        raise ConfigInvalid("alpha", "need 0 < alpha < 1")
    taus = tau_samples(cone, t, h, samples, seed=seed)
    k = int((taus > 1.0 - alpha).sum())
    return k / samples, wilson_interval(k, samples)
