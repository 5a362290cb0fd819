"""Concrete measure-preserving systems and their orbit generators.

Four base systems on probability spaces, each with exact-as-possible
float orbits and a declared invertibility flag:

- ``rotation``: x -> x + alpha mod 1, alpha a named quadratic irrational.
  Positions are reconstructed from the integer step index as
  frac(x0 + k*alpha), never by repeated addition, so forward/backward
  iteration is bit-stable.
- ``doubling``: x -> 2x mod 1. Non-invertible. Float doubling shifts
  mantissa bits out, so an orbit longer than 48 steps carries almost no
  information from x0; beyond that horizon positions are drawn as fresh
  uniform window seeds every 48 steps (a measure-theoretic surrogate,
  deterministic per trajectory key, so checkpoint restarts reproduce).
- ``cat-map``: (x,y) -> (2x+y, x+y) mod 1 on the 2-torus, invertible.
- ``iid-shift``: two-sided shift over i.i.d. increments in R^d
  (rademacher | gaussian | cauchy). The realized increment sequence is
  reproducible in both directions from the trajectory key: each side is
  one stream, drawn once, in order, and appended to as reads reach
  further out.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigInvalid, NotInvertible

KINDS = ("rotation", "doubling", "cat-map", "iid-shift")
LAWS = ("rademacher", "gaussian", "cauchy")

# Named rotation angles, irrational by construction.
ALPHAS = {
    "golden": (math.sqrt(5.0) - 1.0) / 2.0,
    "sqrt2m1": math.sqrt(2.0) - 1.0,
    "sqrt3m1": math.sqrt(3.0) - 1.0,
}

# Doubling-map surrogate window: 48 < 53 mantissa bits.
DOUBLING_WINDOW = 48

_POW2 = 2.0 ** np.arange(DOUBLING_WINDOW)


@dataclass(frozen=True)
class SystemSpec:
    """Immutable description of a base system."""

    kind: str
    alpha: str | None = None     # rotation only, key into ALPHAS
    law: str | None = None       # iid-shift only
    d: int = 1                   # iid-shift increment dimension
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigInvalid("system.kind", f"unknown kind {self.kind!r}")
        if self.kind == "rotation":
            if self.alpha not in ALPHAS:
                raise ConfigInvalid(
                    "system.alpha",
                    f"alpha must be one of {sorted(ALPHAS)}, got {self.alpha!r}")
        if self.kind == "iid-shift":
            if self.law not in LAWS:
                raise ConfigInvalid(
                    "system.law", f"law must be one of {LAWS}, got {self.law!r}")
            if self.d < 1:
                raise ConfigInvalid("system.d", "dimension must be >= 1")

    @property
    def alpha_value(self) -> float:
        return ALPHAS[self.alpha]

    @property
    def invertible(self) -> bool:
        return self.kind != "doubling"

    @property
    def position_dim(self) -> int | None:
        """Dimension of the visible phase point; None for the shift."""
        if self.kind == "cat-map":
            return 2
        if self.kind == "iid-shift":
            return None
        return 1


def rotation(alpha: str = "golden", seed: int = 0) -> SystemSpec:
    return SystemSpec("rotation", alpha=alpha, seed=seed)


def doubling(seed: int = 0) -> SystemSpec:
    return SystemSpec("doubling", seed=seed)


def cat_map(seed: int = 0) -> SystemSpec:
    return SystemSpec("cat-map", seed=seed)


def iid_shift(law: str = "rademacher", d: int = 1, seed: int = 0) -> SystemSpec:
    return SystemSpec("iid-shift", law=law, d=d, seed=seed)


class IncrementCache:
    """Growable two-sided cache of realized i.i.d. increments.

    Increment at absolute index i >= 0 is draw i of the forward stream;
    index i < 0 is draw (-1-i) of the backward stream. Each stream is one
    live generator seeded by the trajectory key: its rows are drawn once,
    in order, and appended to the cache, so the realized sequence is a
    pure function of (key, law, d) regardless of access order.
    """

    def __init__(self, key: tuple, law: str, d: int):
        self.law = law
        self.d = d
        self._rngs = [np.random.default_rng((*key, stream)) for stream in (0, 1)]
        self._rows = [np.empty((0, d)), np.empty((0, d))]

    def _draw(self, stream: int, count: int) -> np.ndarray:
        # the next `count` rows of a stream; chunked draws equal one-shot draws
        rng = self._rngs[stream]
        d = self.d
        if self.law == "rademacher":
            flat = np.where(rng.random(count * d) < 0.5, -1.0, 1.0)
        elif self.law == "gaussian":
            flat = rng.standard_normal(count * d)
        else:
            # cauchy: isotropic, gaussian vector over an independent |gaussian|
            block = rng.standard_normal(count * (d + 1)).reshape(count, d + 1)
            return block[:, :d] / np.abs(block[:, d])[:, None]
        return flat.reshape(count, d)

    def _stream(self, stream: int, n: int) -> np.ndarray:
        # at least the first n rows of a stream; growth is geometric, so
        # the appends stay logarithmic in the length read
        rows = self._rows[stream]
        if len(rows) < n:
            fresh = self._draw(stream, max(n, 2 * len(rows), 1024) - len(rows))
            rows = self._rows[stream] = np.concatenate([rows, fresh])
        return rows

    def get(self, lo: int, hi: int) -> np.ndarray:
        """Increments for absolute indices lo..hi inclusive, as a fresh array."""
        parts = []
        if lo < 0:
            # indices lo..min(hi, -1) are backward draws -1-lo down to -1-min(hi, -1)
            parts.append(self._stream(1, -lo)[-1 - min(hi, -1):-lo][::-1])
        if hi >= 0:
            parts.append(self._stream(0, hi + 1)[max(lo, 0):hi + 1])
        return np.concatenate(parts)


@dataclass(frozen=True)
class SystemState:
    """A phase point plus the bookkeeping needed to regenerate its orbit.

    ``index`` counts steps from the sampled origin (can be negative for
    invertible systems). ``coords`` is the current position for interval
    and torus systems; the shift has no visible position. ``origin`` is
    the index-0 point for the rotation. ``traj_key`` seeds per-trajectory
    randomness (doubling windows, shift increments).
    """

    index: int
    coords: np.ndarray | None = None
    origin: float | None = None
    traj_key: tuple | None = None
    cache: IncrementCache | None = field(default=None, compare=False)


@dataclass(frozen=True)
class OrbitData:
    """Vectorized orbit segment: rows cover relative steps lo..hi."""

    lo: int
    hi: int
    positions: np.ndarray | None    # (hi-lo+1, pdim) or None for the shift
    increments: np.ndarray | None   # (hi-lo+1, d) for the shift, else None

    def rows(self, a: int, b: int) -> slice:
        # relative steps a..b inclusive as a row slice
        return slice(a - self.lo, b - self.lo + 1)


def sample_initial(system: SystemSpec, seed: int) -> SystemState:
    """Draw an initial state from the invariant measure, deterministically."""
    key = (system.seed, seed)
    rng = np.random.default_rng(key)
    if system.kind == "rotation":
        x0 = rng.random()
        return SystemState(0, coords=np.array([x0]), origin=x0)
    if system.kind == "doubling":
        x0 = rng.random()
        return SystemState(0, coords=np.array([x0]), traj_key=key)
    if system.kind == "cat-map":
        return SystemState(0, coords=rng.random(2))
    cache = IncrementCache(key, system.law, system.d)
    return SystemState(0, traj_key=key, cache=cache)


def _rot_position(system: SystemSpec, origin: float, index: int | np.ndarray):
    return np.mod(origin + system.alpha_value * np.asarray(index, dtype=np.float64), 1.0)


def _doubling_window_bases(traj_key: tuple, n_windows: int) -> np.ndarray:
    # base point of window m >= 1 is draw m-1 of the window stream
    rng = np.random.default_rng((*traj_key, 2))
    return rng.random(n_windows)


def _doubling_positions(state: SystemState, lo: int, hi: int) -> np.ndarray:
    # forward only; positions for relative steps lo..hi from the current point
    i0 = state.index
    abs_idx = np.arange(i0 + lo, i0 + hi + 1)
    out = np.empty(len(abs_idx))
    W = DOUBLING_WINDOW
    first_window = abs_idx[0] // W
    last_window = abs_idx[-1] // W
    bases = None
    if last_window >= 1:
        bases = _doubling_window_bases(state.traj_key, last_window)
    for m in range(first_window, last_window + 1):
        w_lo, w_hi = max(m * W, abs_idx[0]), min((m + 1) * W - 1, abs_idx[-1])
        if m == i0 // W and m == first_window:
            # current window: roll forward from the known point (exact doubling)
            base, base_idx = float(state.coords[0]), i0
        elif m == 0:
            raise NotInvertible("doubling orbit cannot reach window 0 from here")
        else:
            base, base_idx = float(bases[m - 1]), m * W
        js = np.arange(w_lo - base_idx, w_hi - base_idx + 1)
        seg = np.mod(base * _POW2[js], 1.0)
        out[w_lo - abs_idx[0]:w_hi - abs_idx[0] + 1] = seg
    return out


def _cat_forward(x: float, y: float) -> tuple[float, float]:
    return (2.0 * x + y) % 1.0, (x + y) % 1.0


def _cat_backward(x: float, y: float) -> tuple[float, float]:
    return (x - y) % 1.0, (-x + 2.0 * y) % 1.0


def _cat_positions(state: SystemState, lo: int, hi: int) -> np.ndarray:
    # Each row is fwd^r / back^{-r} of the anchor point, never a mix, so a
    # span agrees bitwise with repeated step()/step_back() from the state.
    n = hi - lo + 1
    out = np.empty((n, 2))
    x0, y0 = float(state.coords[0]), float(state.coords[1])
    if lo <= 0 <= hi:
        out[-lo] = (x0, y0)
    if lo < 0:
        x, y = x0, y0
        top = min(hi, -1)
        for r in range(-1, lo - 1, -1):
            x, y = _cat_backward(x, y)
            if r <= top:
                out[r - lo] = (x, y)
    if hi > 0:
        x, y = x0, y0
        bot = max(lo, 1)
        for r in range(1, hi + 1):
            x, y = _cat_forward(x, y)
            if r >= bot:
                out[r - lo] = (x, y)
    return out


def orbit_span(system: SystemSpec, state: SystemState, lo: int, hi: int) -> OrbitData:
    """Positions/increments for relative steps lo..hi (inclusive), vectorized.

    Raises NotInvertible when a negative relative step is requested on
    the doubling map.
    """
    if hi < lo:
        raise ValueError("empty span")
    if system.kind == "rotation":
        idx = state.index + np.arange(lo, hi + 1)
        pos = _rot_position(system, state.origin, idx)
        return OrbitData(lo, hi, pos[:, None], None)
    if system.kind == "doubling":
        if state.index + lo < 0 or lo < 0:
            raise NotInvertible("doubling map has no backward orbit")
        return OrbitData(lo, hi, _doubling_positions(state, lo, hi)[:, None], None)
    if system.kind == "cat-map":
        return OrbitData(lo, hi, _cat_positions(state, lo, hi), None)
    inc = state.cache.get(state.index + lo, state.index + hi)
    return OrbitData(lo, hi, None, inc)


def state_in_span(state: SystemState, data: OrbitData, k: int) -> SystemState:
    """The state k steps from ``state``, read from row k of a span of its orbit."""
    coords = None if data.positions is None else data.positions[k - data.lo].copy()
    return replace(state, index=state.index + k, coords=coords)


def state_at(system: SystemSpec, state: SystemState, k: int) -> SystemState:
    """The state k steps ahead of ``state`` (k may be negative if invertible)."""
    if k == 0:
        return state
    if system.position_dim is None:
        # the shift has no position: moving the index draws no increments
        return replace(state, index=state.index + k)
    return state_in_span(state, orbit_span(system, state, k, k), k)


def step(system: SystemSpec, state: SystemState) -> SystemState:
    """One forward application of T. Position stays in the fundamental domain."""
    return state_at(system, state, 1)


def step_back(system: SystemSpec, state: SystemState) -> SystemState:
    """One application of T^{-1}; raises NotInvertible on the doubling map."""
    return state_at(system, state, -1)


def parse_system(obj: dict, seed: int = 0) -> SystemSpec:
    """Build a SystemSpec from a config mapping, e.g. {"kind": "rotation", "alpha": "golden"}."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigInvalid("system", "expected a mapping with a 'kind' field")
    kind = obj["kind"]
    known = {"kind", "alpha", "law", "d", "seed"}
    extra = set(obj) - known
    if extra:
        raise ConfigInvalid("system", f"unknown fields {sorted(extra)}")
    return SystemSpec(kind, alpha=obj.get("alpha"), law=obj.get("law"),
                      d=int(obj.get("d", 1)), seed=int(obj.get("seed", seed)))
