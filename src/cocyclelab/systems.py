"""Concrete measure-preserving systems and their orbit generators.

Four base systems on probability spaces, each with a declared
invertibility flag:

- ``rotation``: x -> x + alpha mod 1, alpha a named quadratic irrational.
  Positions are reconstructed from the integer step index as
  frac(x0 + k*alpha), never by repeated addition, so forward/backward
  iteration is bit-stable.
- ``doubling``: x -> 2x mod 1, non-invertible. x = 0.b1 b2 ... has the
  state's 53 digits, then digits drawn from the trajectory key.
- ``cat-map``: (x,y) -> (2x+y, x+y) mod 1 on the 2-torus, invertible.
- ``iid-shift``: two-sided shift over i.i.d. increments in R^d
  (rademacher | gaussian | cauchy). The realized increments, like the
  doubling map's digits, are a pure function of the trajectory key and
  the index (`increments`), so states are plain values and any span can
  be read in any order.

Doubling and cat-map orbits are exact in uint64 arithmetic on the
lattice 2^-53 Z, so float coords are a state's whole position; a
hand-built state is read as its nearest lattice point. The cat map's
period mod 2^k grows like 2^k (Dyson & Falk, Amer. Math. Monthly 1992):
no horizon here sees a lattice orbit repeat.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigInvalid, NotInvertible, _whole

KINDS = ("rotation", "doubling", "cat-map", "iid-shift")
LAWS = ("rademacher", "gaussian", "cauchy")

# Named rotation angles, irrational by construction.
ALPHAS = {
    "golden": (math.sqrt(5.0) - 1.0) / 2.0,
    "sqrt2m1": math.sqrt(2.0) - 1.0,
    "sqrt3m1": math.sqrt(3.0) - 1.0,
}

_MASK = np.uint64((1 << 53) - 1)       # lattice positions are (X & _MASK) * 2^-53
_CAT = np.array([[2, 1], [1, 1]], dtype=np.uint64)
_CAT_INV = np.array([[1, -1], [-1, 2]]).astype(np.uint64)     # entries mod 2^64
_WORDS = "words"            # the `increments` law of the doubling map's digit stream
MARK = 8192                 # orbit steps between the generator states saved for a stream
_ANY_SEED = np.random.SeedSequence(0)   # a mark then sets the generator's whole state


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


def _draw(rng: np.random.Generator, law: str, d: int, out: np.ndarray) -> np.ndarray:
    # the next len(out) rows of a stream into out; chunked draws equal one-shot draws
    count = len(out)
    flat = out.reshape(count * d)
    if law == _WORDS:
        flat[:] = rng.bit_generator.random_raw(count * d)
    elif law == "rademacher":
        # -1 below 0.5, else +1: r - 0.5 is exact and carries the sign
        rng.random(out=flat)
        flat -= 0.5
        np.copysign(1.0, flat, out=flat)
    elif law == "gaussian":
        rng.standard_normal(out=flat)
    else:
        # cauchy: isotropic, gaussian vector over an independent |gaussian|
        block = rng.standard_normal(count * (d + 1)).reshape(count, d + 1)
        scale = np.abs(block[:, d], out=block[:, d])
        for j in range(d):
            np.divide(block[:, j], scale, out=out[:, j])
    return out


@functools.lru_cache(maxsize=64)
def _marks(seed: tuple, law: str, d: int) -> dict:
    # g -> the state of the generator keyed `seed` before its g-th mark's row,
    # for g = 0, 1, ...; reads add the next ones. A state is a function of g
    # alone, so reads that both save it agree. A mark counts rows, not
    # generator outputs, so law and d are part of the key
    return {0: np.random.default_rng(seed).bit_generator.state}


def _stream(seed: tuple, law: str, d: int, a: int, b: int) -> np.ndarray:
    # rows a .. b-1 of the stream keyed `seed`, as a fresh array: from the
    # last mark at or below a, in chunks that end at each mark's row, where
    # a missing mark is saved; skipped rows go to a scratch chunk
    marks = _marks(seed, law, d)
    every = MARK // 64 if law == _WORDS else MARK       # a word holds 64 steps
    at = min(a // every, len(marks) - 1) * every
    rng = np.random.Generator(np.random.PCG64(_ANY_SEED))    # a third of default_rng's cost
    rng.bit_generator.state = marks[at // every]
    dtype = np.uint64 if law == _WORDS else np.float64
    out = np.empty((b - a, d), dtype)
    skip = np.empty((min(a - at, every), d), dtype)
    while at < b:
        stop = min(b, at - at % every + every)
        if at < a:
            stop = min(stop, a)
            _draw(rng, law, d, skip[:stop - at])
        else:
            _draw(rng, law, d, out[at - a:stop - a])
        at = stop
        if at % every == 0 and at // every not in marks:
            marks[at // every] = rng.bit_generator.state
    return out


def increments(key: tuple, law: str, d: int, lo: int, hi: int) -> np.ndarray:
    """Realized draws at absolute indices lo..hi inclusive, as a fresh (n, d) array;
    a read wholly below 0 is a row-reversed view of one.

    A pure function of (key, law, d, index). Index i >= 0 is draw i of the
    stream keyed ``(*key, 0)``, or ``(*key, 2)`` for the doubling map's
    uint64 digit words (law ``"words"``); index i < 0 is draw -1-i of
    ``(*key, 1)``. Generator states are saved every MARK rows, or every
    MARK / 64 words (MARK orbit steps of the doubling map), of the 64
    streams read last, so a read costs its own rows plus at most one such
    spacing more once a stream's marks reach it; a first read far out draws
    its way there a mark at a time and keeps none of those rows.
    """
    fwd = None
    if hi >= 0:
        fwd = _stream((*key, 2 if law == _WORDS else 0), law, d, max(lo, 0), hi + 1)
        if lo >= 0:
            return fwd
    bwd = _stream((*key, 1), law, d, -1 - min(hi, -1), -lo)[::-1]
    return bwd if fwd is None else np.concatenate([bwd, fwd])


@dataclass(frozen=True)
class SystemState:
    """A phase point plus the bookkeeping needed to regenerate its orbit.

    ``index`` counts steps from the sampled origin (can be negative for
    invertible systems). ``coords`` is the current position for interval
    and torus systems; the shift has no visible position. ``origin`` is
    the index-0 point for the rotation. ``traj_key`` seeds per-trajectory
    randomness (the doubling map's digit stream, shift increments).
    """

    index: int
    coords: np.ndarray | None = None
    origin: float | None = None
    traj_key: tuple | None = None


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
    key = (_whole("system.seed", system.seed, 0), _whole("seed", seed, 0))
    rng = np.random.default_rng(key)
    if system.kind == "rotation":
        x0 = rng.random()
        return SystemState(0, coords=np.array([x0]), origin=x0)
    if system.kind == "doubling":
        return SystemState(0, coords=np.array([rng.random()]), traj_key=key)
    if system.kind == "cat-map":
        return SystemState(0, coords=rng.random(2))
    return SystemState(0, traj_key=key)


def _lattice(coords: np.ndarray) -> np.ndarray:
    # X with X * 2^-53 the nearest lattice point to each coordinate, mod 1
    return np.mod(np.rint(coords * 2.0 ** 53), 2.0 ** 53).astype(np.uint64)


def _windows(words: np.ndarray, s) -> np.ndarray:
    # for each word but the last, the 64 bits that start s bits into it and
    # run on into the next; s broadcasts on a new last axis, so s = 0..63 gives all
    return ((words[:-1, None] << s) | (words[1:, None] >> (64 - s))).ravel()


def _doubling_positions(state: SystemState, lo: int, hi: int) -> np.ndarray:
    # x = 0.b1 b2 ...: the state's lattice digits X, then the word stream from
    # bit `index` on. V is 11 zero bits then b1 b2 ..., in words: V[0] = X and
    # V[k] = stream word k-1. T^r x is the low 53 of V's 64 bits from bit r.
    i, a, b = state.index, lo // 64, hi // 64 + 1      # V words a..b are read
    words = increments(state.traj_key, _WORDS, 1, i // 64 + max(a - 1, 0), i // 64 + b)
    V = _windows(words[:, 0], np.uint64(i % 64))
    if a == 0:
        V = np.concatenate([_lattice(state.coords), V])
    bits = _windows(V, np.arange(64, dtype=np.uint64))[lo - 64 * a:hi - 64 * a + 1]
    return (bits & _MASK) * 2.0 ** -53


def _cat_positions(state: SystemState, lo: int, hi: int) -> np.ndarray:
    # row r is A^(lo+r) X: the first by squaring A or its inverse, then each
    # pass maps the m rows filled so far by A^m onto the next m, so n rows
    # take log2(n) array passes; uint64 wraps mod 2^64, which 2^53 divides
    n = hi - lo + 1
    xy = np.empty((2, n), dtype=np.uint64)
    xy[:, 0] = np.linalg.matrix_power(_CAT if lo >= 0 else _CAT_INV, abs(lo)) @ \
        _lattice(state.coords)
    m, P = 1, _CAT
    while m < n:
        k = min(m, n - m)
        (a, b), (c, d) = P
        xy[0, m:m + k] = a * xy[0, :k] + b * xy[1, :k]
        xy[1, m:m + k] = c * xy[0, :k] + d * xy[1, :k]
        m, P = m + k, P @ P
    return (xy.T & _MASK) * 2.0 ** -53


def orbit_span(system: SystemSpec, state: SystemState, lo: int, hi: int) -> OrbitData:
    """Positions/increments for relative steps lo..hi (inclusive), vectorized.

    Raises NotInvertible when a negative relative step is requested on
    the doubling map.
    """
    if hi < lo:
        raise ValueError("empty span")
    if system.kind == "rotation":
        idx = (state.index + np.arange(lo, hi + 1)).astype(np.float64)
        pos = np.mod(state.origin + system.alpha_value * idx, 1.0)
        return OrbitData(lo, hi, pos[:, None], None)
    if system.kind == "doubling":
        if state.index + lo < 0 or lo < 0:
            raise NotInvertible("doubling map has no backward orbit")
        return OrbitData(lo, hi, _doubling_positions(state, lo, hi)[:, None], None)
    if system.kind == "cat-map":
        return OrbitData(lo, hi, _cat_positions(state, lo, hi), None)
    inc = increments(state.traj_key, system.law, system.d, state.index + lo,
                     state.index + hi)
    return OrbitData(lo, hi, None, inc)


def state_at(system: SystemSpec, state: SystemState, k: int) -> SystemState:
    """The state k steps ahead of ``state`` (k may be negative if invertible)."""
    if k == 0:
        return state
    # the shift has no position: moving the index draws no increments
    coords = None if system.position_dim is None else \
        orbit_span(system, state, k, k).positions[0]
    return replace(state, index=state.index + k, coords=coords)


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
                      d=_integer(obj, "d", 1), seed=_integer(obj, "seed", seed))


def _integer(obj: dict, name: str, default: int) -> int:
    # the config schema's integer rule (no bool, a float only if integral),
    # which numpy integers from library callers also pass
    v = obj.get(name, default)
    if isinstance(v, numbers.Integral) and not isinstance(v, bool) or \
            isinstance(v, float) and v.is_integer():
        return int(v)
    raise ConfigInvalid(f"system.{name}", f"{v!r} is not of type 'integer'")
