"""Running-minimum decomposition and growth classification for scalar sums.

The min process m_n(x) = min_{1<=k<=n} S_k(x) is computed twice, by the
direct definition and by the one-step recursion through the shifted
orbit, m_{n+1}(x) = phi(x) + min(m_n(Tx), 0); disagreement beyond
1e-10 marks an orbit or precision fault and raises MismatchError.
Splitting m = m^+ - m^- yields the finite-horizon decomposition
phi(x) = m_N^-(Tx) - m_{N+1}^-(x) + m_{N+1}^+(x), an algebraic identity
whose float residual stays at rounding level.

Growth labels (to +inf / to -inf / oscillates / inconclusive) and the
Kesten-style rate liminf S_n/n are finite-horizon heuristics over
dyadic windows; every report carries its parameters.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import ergodic_sums
from .errors import ConfigInvalid, MismatchError
from .observables import ObservableSpec
from .sojourn import dyadic_grid
from .systems import SystemSpec, SystemState, sample_initial


def _require_scalar(obs: ObservableSpec):
    if obs.d != 1:
        raise ConfigInvalid("observable", "filling operations need a scalar observable")


@dataclass
class MinProcess:
    """Running minima along one orbit; arrays are 1-based (index 0 unused)."""

    state0: SystemState
    N: int
    m: np.ndarray          # m[n] = min partial sum through n, n = 1..N+1
    m_shift: np.ndarray    # m_shift[n] = same at Tx, n = 1..N
    phi0: float            # phi(x)

    def decomposition_residual(self) -> float:
        """|phi(x) - [m_N^-(Tx) - m_{N+1}^-(x) + m_{N+1}^+(x)]|; ~0 by algebra."""
        m_shift_minus = max(-self.m_shift[self.N], 0.0)
        m_next = self.phi0 - m_shift_minus                   # recursion, exact route
        return abs(self.phi0 - (m_shift_minus - max(-m_next, 0.0) + max(m_next, 0.0)))


def min_process(system: SystemSpec, obs: ObservableSpec, state0: SystemState,
                N: int) -> MinProcess:
    """Min process through n = N+1, cross-checked by two routes."""
    _require_scalar(obs)
    if N < 1:
        raise ConfigInvalid("N", f"the min process needs N >= 1, got {N}")
    S = ergodic_sums(system, obs, state0, N + 1).values[:, 0]
    m = np.empty(N + 2)
    m[0] = np.nan
    m[1:] = np.minimum.accumulate(S[1:])
    m_shift = np.empty(N + 1)
    m_shift[0] = np.nan
    m_shift[1:] = np.minimum.accumulate(S[2:] - S[1])
    recursion = S[1] + np.minimum(m_shift[1:], 0.0)      # m_{n+1}(x), n = 1..N
    gap = np.max(np.abs(recursion - m[2:]))
    if gap > 1e-10:
        raise MismatchError(
            f"min-process routes disagree by {gap:.3e} (> 1e-10)")
    return MinProcess(state0, N, m, m_shift, float(S[1]))


def classify_series(S: np.ndarray, level: float | None = None) -> str:
    """Growth label for one partial-sum series S_1..S_N (index 0 ignored).

    level defaults to twice the per-step standard deviation; the tail is
    the last half of the dyadic windows.
    """
    S = np.asarray(S, dtype=np.float64)
    N = len(S) - 1
    if N < 8:
        raise ConfigInvalid("N", "classification needs N >= 8")
    if level is None:
        level = max(2.0 * float(np.std(np.diff(S[0:]))), 1e-12)
    wins = [S[lo:2 * lo] for lo in dyadic_grid(N)]
    tail = wins[len(wins) // 2:]
    tail_min = np.array([w.min() for w in tail])
    tail_max = np.array([w.max() for w in tail])
    if np.all(tail_min > level):
        return "to+inf"
    if np.all(tail_max < -level):
        return "to-inf"
    if tail_max.max() > level and tail_min.min() < -level:
        return "oscillates"
    return "inconclusive"


@dataclass
class OscillationReport:
    verdict: str
    per_seed: list
    level: float | None
    N: int


def classify_oscillation(system: SystemSpec, obs: ObservableSpec, seeds,
                         N: int, level: float | None = None) -> OscillationReport:
    """Majority growth label across seeds."""
    _require_scalar(obs)
    seeds = list(seeds)
    if not seeds:
        raise ConfigInvalid("seeds", "need at least one seed")
    labels = []
    for s in seeds:
        tr = ergodic_sums(system, obs, sample_initial(system, s), N)
        labels.append(classify_series(tr.values[:, 0], level))
    order = ["to+inf", "to-inf", "oscillates", "inconclusive"]
    verdict = max(order, key=labels.count)
    return OscillationReport(verdict, labels, level, N)


def kesten_rate(system: SystemSpec, obs: ObservableSpec, seeds,
                N: int) -> np.ndarray:
    """Per-seed tail estimate of liminf S_n/n over dyadic windows.

    Positive for sums drifting to +inf; near zero for recurrent sums.
    """
    _require_scalar(obs)
    if N < 1:
        raise ConfigInvalid("N", f"the Kesten rate needs N >= 1, got {N}")
    seeds = list(seeds)
    out = np.empty(len(seeds))
    for i, s in enumerate(seeds):
        tr = ergodic_sums(system, obs, sample_initial(system, s), N)
        ratio = tr.values[1:, 0] / np.arange(1, N + 1)
        mins = [ratio[lo - 1:2 * lo - 1].min() for lo in dyadic_grid(N)]
        half = len(mins) // 2
        out[i] = min(mins[half:])
    return out
