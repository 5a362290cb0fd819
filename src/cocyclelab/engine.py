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

One block loop, `_sweep`, walks every orbit. It yields each block's
orbit span and sums: a trace writes the sums into its own rows, the
direction scan folds them from one reused buffer, and a return-time scan
(`induce`) tests the span for its set and reads the sums at the returns.
Traces and scans run 65536-step blocks, return-time scans 8192-step ones.
A longdouble block adds its carry to a block-local cumsum, so a
non-lattice induced sum may differ in its last bits from `ergodic_sums`.

A trace stores no orbit states. States are plain values and increments a
pure function of (key, index), so `state_at` reaches any step directly: the
identity check restarts its second pass there, at any n.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cones import ROWS, _true_norm
from .errors import ConfigInvalid, NotInvertible
from .observables import ObservableSpec
from .systems import SystemSpec, SystemState, orbit_span, state_at

BLOCK = 1 << 16


@dataclass
class CocycleTrace:
    """Partial-sum process of one observable along one orbit."""

    system: SystemSpec
    obs: ObservableSpec
    state0: SystemState
    N: int
    values: np.ndarray                     # (N+1, d), values[n] = S_n, values[0] = 0
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

    @property
    def checkpoints(self) -> dict:
        # compatibility: older callers read checkpoints; a trace stores none
        return {}


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


def _check(system: SystemSpec, obs: ObservableSpec, N: int) -> None:
    # the config errors of a sweep of N steps, raised before anything is allocated
    if N < 0:
        raise ConfigInvalid("N", f"a sweep needs N >= 0 steps, got {N}")
    obs.validate_for(system)


def _sweep(system: SystemSpec, obs: ObservableSpec | None, state0: SystemState, N: int,
           sign: int, values: np.ndarray | None = None, block: int = BLOCK):
    # the one orbit block loop, both directions: step k adds phi(T^{k-1} x)
    # for sign +1 and -phi(T^{-k} x) for sign -1. Yields (done, data, S) per
    # block of steps done+1 .. m: data the orbit span of steps done .. m and
    # phi's lookahead, S the sums S_{done+1} .. S_m in values[done+1:m+1] or,
    # when values is None, in one (block, d) buffer that the next block
    # reuses; with obs None, S is None and nothing is evaluated. The caller runs _check first
    ext = 1 if obs is None else max(1, obs.lookahead)
    if obs is not None:
        buf = np.empty((min(N, block), obs.d)) if values is None else None
        carry = np.zeros(obs.d, dtype=np.longdouble)
    S = None
    for done in range(0, N, block):
        m = min(done + block, N)
        lo, hi = (done, m - 1) if sign > 0 else (-m, -done - 1)
        data = orbit_span(system, state0, lo, hi + ext)
        if obs is not None:
            phi = obs.evaluate(data, lo, hi)
            S = values[done + 1:m + 1] if buf is None else buf[:m - done]
            carry = _accumulate(phi if sign > 0 else -phi[::-1], carry, S, _exact(obs, m))
        yield done, data, S


def _trace(system: SystemSpec, obs: ObservableSpec, state0: SystemState, N: int,
           sign: int) -> np.ndarray:
    # the (N+1, d) sums of a sweep
    _check(system, obs, N)
    values = np.zeros((N + 1, obs.d))
    for _ in _sweep(system, obs, state0, N, sign, values):
        pass
    return values


def ergodic_sums(system: SystemSpec, obs: ObservableSpec, state0: SystemState,
                 N: int, checkpoint_every: int | None = None) -> CocycleTrace:
    """Trace of S_n = sum_{k<n} phi(T^k x) for n = 0..N.

    checkpoint_every is accepted for older callers and ignored.
    """
    return CocycleTrace(system, obs, state0, N, _trace(system, obs, state0, N, 1))


def cocycle_identity_check(trace: CocycleTrace, n: int, p: int) -> float:
    """Residual of S_{n+p}(x) = S_n(x) + S_p(T^n x), second pass from step n.

    On a reverse trace, of R_{n+p}(x) = R_n(x) + R_p(T^{-n} x). Needs
    0 <= n, p and n + p <= N.
    """
    if min(n, p) < 0 or n + p > trace.N:
        raise ValueError(f"need 0 <= n, p and n + p <= N = {trace.N}, got n={n}, p={p}")
    sums = ergodic_sums if trace.direction > 0 else reverse_sums
    st = state_at(trace.system, trace.state0, trace.direction * n)
    fresh = sums(trace.system, trace.obs, st, p).values[p]
    return float(np.linalg.norm(trace.values[n + p] - trace.values[n] - fresh))


def evaluate_at(system: SystemSpec, obs: ObservableSpec, state: SystemState) -> np.ndarray:
    """phi at a single phase point."""
    data = orbit_span(system, state, 0, obs.lookahead)
    return obs.evaluate(data, 0, 0)[0]


def reverse_sums(system: SystemSpec, obs: ObservableSpec, state0: SystemState,
                 N: int, checkpoint_every: int | None = None) -> CocycleTrace:
    """Reverse trace R_n = -sum_{k=1..n} phi(T^{-k} x) for n = 0..N.

    Satisfies R_n(T^n x) = -S_n(x). Invertible systems only.
    checkpoint_every is accepted for older callers and ignored.
    """
    if not system.invertible:
        raise NotInvertible("reverse sums need an invertible system")
    return CocycleTrace(system, obs, state0, N, _trace(system, obs, state0, N, -1),
                        direction=-1)
