"""First-return maps, induced cocycles, and Kac return-time statistics.

A target set B is an interval of [0,1), a rectangle of the 2-torus, or
a positive-coordinate cylinder on the shift's increment at the current
index. Return-time scans read the engine's block loop, `_sweep`, in
blocks of BLOCK steps, and never run past an explicit cap: a missing
return inside the cap raises CapExceeded rather than looping.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import _sweep
from .errors import CapExceeded, ConfigInvalid, _spec, _whole
from .observables import ObservableSpec
from .systems import (OrbitData, SystemSpec, SystemState, orbit_span, sample_initial,
                      state_at)

BLOCK = 8192


@dataclass(frozen=True)
class SetSpec:
    """Membership-testable subset of the phase space; its measure follows from its kind."""

    kind: str                    # interval | rect | cylpos
    params: tuple = ()

    def __post_init__(self):
        if self.kind == "interval":
            a, b = self.params
            if not (0.0 <= a < b <= 1.0):
                raise ConfigInvalid("set", f"bad interval [{a},{b})")
        elif self.kind == "rect":
            a, b, c, e = self.params
            if not (0.0 <= a < b <= 1.0 and 0.0 <= c < e <= 1.0):
                raise ConfigInvalid("set", f"bad rectangle {self.params}")
        elif self.kind == "cylpos":
            (coord,) = self.params
            object.__setattr__(self, "params", (_whole("set", coord, 0),))
        else:
            raise ConfigInvalid("set", f"unknown set kind {self.kind!r}")

    @property
    def measure(self) -> float:
        """b - a for [a, b), (b - a)(e - c) for a rectangle, 1/2 for a cylinder."""
        p = self.params
        if self.kind == "cylpos":
            return 0.5              # {increment coordinate > 0} under the symmetric laws
        return (p[1] - p[0]) * (p[3] - p[2] if self.kind == "rect" else 1.0)

    def validate_for(self, system: SystemSpec):
        if self.kind == "cylpos":
            if system.kind != "iid-shift":
                raise ConfigInvalid("set", "cylinder sets need an iid-shift system")
            if self.params[0] >= system.d:
                raise ConfigInvalid("set", "cylinder coordinate exceeds increment dim")
        else:
            pdim = system.position_dim
            need = 2 if self.kind == "rect" else 1
            if pdim is None or pdim < need:
                raise ConfigInvalid("set", f"{self.kind} set needs phase dimension {need}")

    def contains(self, data: OrbitData, lo: int, hi: int) -> np.ndarray:
        """Membership of T^k x for k = lo..hi as a bool array."""
        if self.kind == "cylpos":
            return data.increments[data.rows(lo, hi), self.params[0]] > 0.0
        pos = data.positions[data.rows(lo, hi)]
        a, b = self.params[0], self.params[1]
        out = (pos[:, 0] >= a) & (pos[:, 0] < b)
        if self.kind == "rect":
            c, e = self.params[2], self.params[3]
            out &= (pos[:, 1] >= c) & (pos[:, 1] < e)
        return out


def interval(a: float, b: float) -> SetSpec:
    return SetSpec("interval", (float(a), float(b)))


def rect(a, b, c, e) -> SetSpec:
    return SetSpec("rect", (float(a), float(b), float(c), float(e)))


def cylinder_positive(coord: int = 0) -> SetSpec:
    return SetSpec("cylpos", (coord,))


def parse_set(text: str) -> SetSpec:
    """Parse "interval:a,b", "rect:a,b,c,e" and "cylpos:i" or "cylpos" (i = 0)
    through `errors._spec`: finite numbers, no measure (the kind gives it)."""
    kind, nums = _spec("set", text, {"interval": (2, 2, 0), "rect": (4, 4, 0),
                                     "cylpos": (0, 1, 0)})
    return {"interval": interval, "rect": rect, "cylpos": cylinder_positive}[kind](*nums)


@dataclass
class InducedTrace:
    """Return times R_1 < R_2 < ... and the cocycle sampled at them.

    values[n] equals the full-orbit partial sum at step R_n (values[0]
    is 0), which is the defining sampling identity of the induced
    cocycle.
    """

    system: SystemSpec
    obs: ObservableSpec
    set_spec: SetSpec
    state0: SystemState
    return_times: np.ndarray      # (n,) int64, strictly increasing
    values: np.ndarray            # (n+1, d)
    cap: int


def _scan_returns(system, B, state, n_returns, cap, obs=None):
    """Stream the orbit, yielding return indices (and sums at them).

    obs: None, or the observable whose partial sums are also recorded
    at the returns. Returns (return_times, values or None). With no gap
    above cap the last return is at most n_returns * cap: N is one step past.
    """
    rt = np.empty(n_returns, dtype=np.int64)
    vals = np.zeros((n_returns + 1, obs.d)) if obs is not None else None
    found = last = 0
    N = n_returns * cap + 1
    for done, data, S in _sweep(system, obs, state, N, 1, block=BLOCK):
        m = min(done + BLOCK, N)
        js = done + 1 + np.flatnonzero(B.contains(data, done + 1, m))[:n_returns - found]
        if np.any(np.diff(js, prepend=last) > cap):
            raise CapExceeded(cap)
        rt[found:found + len(js)] = js
        if S is not None:
            vals[found + 1:found + 1 + len(js)] = S[js - done - 1]
        found += len(js)
        last = int(js[-1]) if len(js) else last
        if found == n_returns:
            return rt, vals
        if m - last > cap:
            raise CapExceeded(cap)


def return_time(system: SystemSpec, B: SetSpec, state: SystemState, cap: int) -> int:
    """Least j in [1, cap] with T^j x in B; CapExceeded otherwise."""
    if cap < 1:
        raise ConfigInvalid("cap", "cap must be >= 1")
    B.validate_for(system)
    rt, _ = _scan_returns(system, B, state, 1, cap)
    return int(rt[0])


def first_entry(system: SystemSpec, B: SetSpec, state: SystemState, cap: int) -> SystemState:
    """Advance to the first j >= 0 with T^j x in B (j = 0 allowed)."""
    B.validate_for(system)
    data = orbit_span(system, state, 0, 0)
    if bool(B.contains(data, 0, 0)[0]):
        return state
    j = return_time(system, B, state, cap)
    return state_at(system, state, j)


def induced_trace(system: SystemSpec, obs: ObservableSpec, B: SetSpec,
                  state0: SystemState, n_returns: int, cap: int) -> InducedTrace:
    """Induced cocycle over the first-return map on B, starting from x0 in B."""
    obs.validate_for(system)
    B.validate_for(system)
    data = orbit_span(system, state0, 0, 0)
    if not bool(B.contains(data, 0, 0)[0]):
        raise ValueError("induced_trace requires a base point inside B")
    rt, vals = _scan_returns(system, B, state0, n_returns, cap, obs=obs)
    return InducedTrace(system, obs, B, state0, rt, vals, cap)


def kac_statistic(system: SystemSpec, B: SetSpec, n_returns: int, seeds,
                  cap: int = 10_000_000):
    """Empirical mean of R_n/n over seeds; converges to 1/measure(B).

    Returns (mean, per_seed). Each seed samples an initial point, moves
    to its first entry into B, then counts n_returns returns.
    """
    B.validate_for(system)
    seeds = list(seeds)
    if not seeds:
        raise ConfigInvalid("seeds", "need at least one seed")
    if n_returns < 1:
        raise ConfigInvalid("returns", f"need at least one return, got {n_returns}")
    per_seed = np.empty(len(seeds))
    for i, s in enumerate(seeds):
        st = first_entry(system, B, sample_initial(system, s), cap)
        rt, _ = _scan_returns(system, B, st, n_returns, cap)
        per_seed[i] = rt[-1] / n_returns
    return float(per_seed.mean()), per_seed
