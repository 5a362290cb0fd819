"""Ergodic sums, the cocycle chain rule, reverse cocycles.

A trace holds the partial sums S_n = sum_{k<n} phi(T^k x) for n = 0..N
as an (N+1, d) array, accumulated block by block with a carried offset.

When the observable declares a lattice (m, K) (see ``observables``),
every value is k * 2^-m for an integer |k| <= K, so it lies on 2^-m Z
with |value| <= B = K * 2^-m. If n * B * 2^m = n * K <= 2^53 for the n
steps summed through a block, every partial sum is such a multiple of
size at most 2^53 * 2^-m, so a float64 cumsum plus the carry is exact:
the Rademacher walk, centered dyadic indicators and their cobdrifts sum
this way. Every other block runs a longdouble cumsum with the carry
added before rounding to float64, which keeps indicator-heavy sums well
inside the 1e-9 identity tolerances at N = 10^6. On a lattice both
routes give the exact sums, so they write the same bytes.

One block loop, `_sweep`, yields each block's sums in turn: a trace
writes them into its own rows, and a fold that keeps no trace (the
direction scan) reads them from one reused block buffer.

Checkpoints record the orbit state every `checkpoint_every` steps so a
second pass can restart mid-orbit without O(N) storage per restart;
`checkpoint_every=None` stores none, for bulk statistics.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cones import ROWS, _true_norm
from .errors import ConfigInvalid, MissingCheckpoint, NotInvertible
from .observables import ObservableSpec
from .systems import SystemSpec, SystemState, orbit_span, state_in_span

BLOCK = 1 << 16


@dataclass
class CocycleTrace:
    """Partial-sum process of one observable along one orbit."""

    system: SystemSpec
    obs: ObservableSpec
    state0: SystemState
    N: int
    values: np.ndarray                     # (N+1, d), values[n] = S_n, values[0] = 0
    checkpoints: dict = field(default_factory=dict)   # step -> SystemState
    checkpoint_every: int | None = 1024
    direction: int = 1                     # -1 for reverse traces
    _norms: np.ndarray | None = field(default=None, repr=False)

    @property
    def d(self) -> int:
        return self.values.shape[1]

    @property
    def norms(self) -> np.ndarray:
        # ||S_n|| for n = 0..N, taken once, ROWS rows at a time so the
        # temporaries stay in cache; _true_norm works row by row, so the
        # blocks give the bytes of one whole-array call
        if self._norms is None:
            self._norms = np.empty(len(self.values))
            for lo in range(0, len(self.values), ROWS):
                self._norms[lo:lo + ROWS] = _true_norm(self.values[lo:lo + ROWS])
        return self._norms

    def state_at_step(self, n: int) -> SystemState:
        """Orbit state at step n; n must sit on the checkpoint grid."""
        if n == 0:
            return self.state0
        st = self.checkpoints.get(self.direction * n)
        if st is None:
            grid = (f"every {self.checkpoint_every}" if self.checkpoint_every
                    else "none stored")
            raise MissingCheckpoint(f"step {n} not on the checkpoint grid ({grid})")
        return st


def _exact(obs: ObservableSpec, n: int) -> bool:
    """True when float64 partial sums of n values of obs are exact."""
    lattice = obs.root.lattice
    return lattice is not None and n * lattice[1] <= 2 ** 53


def _accumulate(phi: np.ndarray, carry: np.ndarray, out: np.ndarray,
                exact: bool) -> np.ndarray:
    # running sum of phi plus the longdouble carry, written into out; returns
    # the new carry. exact: the sums are lattice sums within the bound, so a
    # float64 cumsum and the carry, converted without rounding, are exact.
    # The carry goes in column by column, as a scalar: a broadcast add over
    # rows of d = 2 or 3 takes about three times as long. The longdouble
    # cumsum runs in place in its one copy of phi: the values of a cumsum into
    # a second array, in half the memory
    if exact:
        s, carry = np.cumsum(phi, axis=0, out=out), carry.astype(np.float64)
    else:
        s = phi.astype(np.longdouble)
        np.cumsum(s, axis=0, out=s)
    for j, c in enumerate(carry):
        s[:, j] += c
    if not exact:
        out[...] = s
    return s[-1].astype(np.longdouble)


def _grid(lo: int, hi: int, every: int | None) -> range:
    # multiples of `every` in [lo, hi]; none when every is None
    if every is None:
        return range(0)
    return range(-(-lo // every) * every, hi + 1, every)


def _check(system: SystemSpec, obs: ObservableSpec, N: int) -> None:
    # the config errors of a sweep of N steps, raised before anything is allocated
    if N < 0:
        raise ConfigInvalid("N", f"a sweep needs N >= 0 steps, got {N}")
    obs.validate_for(system)


def _sweep(system: SystemSpec, obs: ObservableSpec, state0: SystemState, N: int,
           sign: int, values: np.ndarray | None = None):
    # the one block loop of both directions: step k adds phi(T^{k-1} x) for
    # sign +1 and -phi(T^{-k} x) for sign -1. Yields (done, S, data) per block:
    # S holds S_{done+1} .. S_m, written into values[done+1:m+1], or, when
    # values is None, into one (BLOCK, d) buffer that the next block reuses;
    # data is the orbit span the block read. The caller runs _check first
    buf = np.empty((min(N, BLOCK), obs.d)) if values is None else None
    carry = np.zeros(obs.d, dtype=np.longdouble)
    # forward, row hi+1 must exist for on-grid checkpoints
    ext = max(1, obs.lookahead) if sign > 0 else obs.lookahead
    for done in range(0, N, BLOCK):
        m = min(done + BLOCK, N)   # this block covers steps done+1 .. m
        lo, hi = (done, m - 1) if sign > 0 else (-m, -done - 1)
        data = orbit_span(system, state0, lo, hi + ext)
        phi = obs.evaluate(data, lo, hi)
        S = values[done + 1:m + 1] if buf is None else buf[:m - done]
        carry = _accumulate(phi if sign > 0 else -phi[::-1], carry, S, _exact(obs, m))
        yield done, S, data


def _trace(system: SystemSpec, obs: ObservableSpec, state0: SystemState, N: int,
           checkpoint_every: int | None, sign: int) -> tuple[np.ndarray, dict]:
    # the (N+1, d) sums of a sweep and its checkpoints, keyed by the signed step
    _check(system, obs, N)
    values = np.zeros((N + 1, obs.d))
    checkpoints: dict = {}
    for done, S, data in _sweep(system, obs, state0, N, sign, values):
        for k in _grid(done + 1, done + len(S), checkpoint_every):
            checkpoints[sign * k] = state_in_span(state0, data, sign * k)
    return values, checkpoints


def ergodic_sums(system: SystemSpec, obs: ObservableSpec, state0: SystemState,
                 N: int, checkpoint_every: int | None = 1024) -> CocycleTrace:
    """Trace of S_n = sum_{k<n} phi(T^k x) for n = 0..N."""
    values, checkpoints = _trace(system, obs, state0, N, checkpoint_every, 1)
    return CocycleTrace(system, obs, state0, N, values, checkpoints, checkpoint_every)


def cocycle_identity_check(trace: CocycleTrace, n: int, p: int) -> float:
    """Residual of S_{n+p}(x) = S_n(x) + S_p(T^n x), second pass from step n.

    Raises MissingCheckpoint when n is off the checkpoint grid.
    """
    if n + p > trace.N:
        raise ValueError("n + p exceeds the trace length")
    st = trace.state_at_step(n)
    fresh = ergodic_sums(trace.system, trace.obs, st, p,
                         checkpoint_every=None).values[p]
    return float(np.linalg.norm(trace.values[n + p] - trace.values[n] - fresh))


def evaluate_at(system: SystemSpec, obs: ObservableSpec, state: SystemState) -> np.ndarray:
    """phi at a single phase point."""
    data = orbit_span(system, state, 0, obs.lookahead)
    return obs.evaluate(data, 0, 0)[0]


def reverse_sums(system: SystemSpec, obs: ObservableSpec, state0: SystemState,
                 N: int, checkpoint_every: int | None = 1024) -> CocycleTrace:
    """Reverse trace R_n = -sum_{k=1..n} phi(T^{-k} x) for n = 0..N.

    Satisfies R_n(T^n x) = -S_n(x). Invertible systems only.
    """
    if not system.invertible:
        raise NotInvertible("reverse sums need an invertible system")
    values, checkpoints = _trace(system, obs, state0, N, checkpoint_every, -1)
    return CocycleTrace(system, obs, state0, N, values, checkpoints,
                        checkpoint_every, direction=-1)
