"""Directional statistics of a vector cocycle.

The normalized process S_n/||S_n|| is binned on a fixed sphere mesh at
a ladder of norm thresholds M_1 < ... < M_m: cell k is counted at
threshold M_i when some n has ||S_n|| > M_i and direction in cell k.
Counts are nested across thresholds by construction. Histograms form a
merge monoid so independent trajectories can be folded in any order.
A seed's sweep folds block by block into its histogram and the minima of
||S_n|| over dyadic windows, which label recurrence, with no trace kept;
`_map` runs seeds side by side on threads, the package's one pool.

The limit-direction estimate is the set of cells visited at the top
threshold by at least a quorum q of the traces; (mesh, ladder, quorum)
are always reported alongside the estimate, since the underlying set
is a limit object with no finite certificate.

Meshes: d=1 uses the two half-lines; d=2 uses K equal arcs (default
72); d>=3 uses a Fibonacci point set with nearest-center cells.
"""
from __future__ import annotations

import contextvars
import functools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .cones import ROWS, _true_norm
from .engine import BLOCK, CocycleTrace, _check, _sweep
from .errors import ConfigInvalid
from .observables import ObservableSpec
from .systems import SystemSpec, sample_initial

DEFAULT_ARCS = 72
LADDER_RUNGS = (0.1, 10.0 ** -0.5, 1.0, 10.0 ** 0.5, 10.0)


@dataclass(frozen=True)
class SphereMesh:
    """Partition of the unit sphere into K cells with representative centers."""

    d: int
    K: int
    centers: np.ndarray = field(compare=False)

    def assign(self, U: np.ndarray) -> np.ndarray:
        """Cell index per unit vector (rows), in the least unsigned type that holds K."""
        cell = np.min_scalar_type(self.K)
        if self.d == 1:
            return np.where(U[:, 0] > 0.0, 0, 1).astype(cell)
        if self.d == 2:
            # floor(theta K / 2pi) clipped to K - 1, the float clip before the cast;
            # theta lies in [-pi, pi], where adding 2pi below 0 is np.mod's
            # arithmetic (it differs only in the sign of a zero)
            theta = np.arctan2(U[:, 1], U[:, 0])
            np.add(theta, 2.0 * np.pi, out=theta, where=theta < 0.0)
            np.multiply(theta, self.K, out=theta)
            np.divide(theta, 2.0 * np.pi, out=theta)
            return np.minimum(theta, self.K - 1, out=theta).astype(cell)
        return np.argmax(U @ self.centers.T, axis=1).astype(cell)

    def antipode_map(self) -> np.ndarray:
        """antipode_map[k] = cell containing the antipode of cell k's center."""
        if self.d == 2:
            return (np.arange(self.K) + self.K // 2) % self.K
        return self.assign(-self.centers)


def make_mesh(d: int, K: int = DEFAULT_ARCS) -> SphereMesh:
    if d < 1:
        raise ConfigInvalid("mesh", "dimension must be >= 1")
    if d == 1:
        return SphereMesh(1, 2, np.array([[1.0], [-1.0]]))
    if d == 2:
        if K < 2 or K % 2:
            raise ConfigInvalid("mesh", "d=2 mesh needs an even number of arcs")
        ang = 2.0 * np.pi * (np.arange(K) + 0.5) / K
        return SphereMesh(2, K, np.column_stack([np.cos(ang), np.sin(ang)]))
    if d == 3:
        i = np.arange(K) + 0.5
        z = 1.0 - 2.0 * i / K
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        golden = np.pi * (3.0 - math.sqrt(5.0))
        th = golden * i
        centers = np.column_stack([r * np.cos(th), r * np.sin(th), z])
        return SphereMesh(3, K, centers)
    raise ConfigInvalid("mesh", "meshes are provided for d <= 3")


@dataclass
class DirectionHistogram:
    """Visit counts per (threshold, cell); a commutative merge monoid."""

    mesh: SphereMesh
    thresholds: np.ndarray            # (m,) increasing
    counts: np.ndarray                # (m, K) int64
    visited_traces: np.ndarray        # (m, K) int64, traces with count > 0
    n_traces: int = 0
    total_steps: int = 0

    @classmethod
    def empty(cls, mesh: SphereMesh, thresholds) -> "DirectionHistogram":
        th = _ladder(thresholds)
        z = np.zeros((len(th), mesh.K), dtype=np.int64)
        return cls(mesh, th, z.copy(), z.copy())

    def merge(self, other: "DirectionHistogram") -> "DirectionHistogram":
        if self.mesh.K != other.mesh.K or not np.array_equal(self.thresholds,
                                                             other.thresholds):
            raise ConfigInvalid("histogram", "merge needs identical mesh and ladder")
        return DirectionHistogram(
            self.mesh, self.thresholds, self.counts + other.counts,
            self.visited_traces + other.visited_traces,
            self.n_traces + other.n_traces, self.total_steps + other.total_steps)


def _ladder(thresholds) -> np.ndarray:
    # thresholds as a float64 array, refused unless strictly increasing
    th = np.asarray(thresholds, dtype=np.float64)
    if len(th) == 0 or not np.all(np.diff(th) > 0.0):
        raise ConfigInvalid("thresholds", "thresholds must be strictly increasing")
    return th


def _compact(n: int, mesh: SphereMesh):
    # room for n compact rows: a cell in the least unsigned type that holds
    # K, and a float64 norm
    return np.empty(n, dtype=np.min_scalar_type(mesh.K)), np.empty(n)


def _cells_and_norms(values: np.ndarray, mesh: SphereMesh, known=None, out=None,
                     fill=None):
    # cell and norm of every row with a positive finite norm, ROWS rows at a
    # time so the temporaries stay in cache: 9 bytes a row for the 72-arc mesh;
    # a zero, NaN or infinite norm (an infinite coordinate, or a true norm
    # past the float64 range) gives no direction, so its row is dropped. A
    # block is divided by its norms a column at a time into the C-ordered U,
    # which gives the bytes of one broadcast division without its cost.
    # known, if given, holds the rows' _true_norm (a trace's cached norms),
    # and fill, if given, receives them; out, if given, is a (cells, norms)
    # pair with room for every row, which the kept rows fill from its start
    n = len(values)
    cells, norms = out or _compact(n, mesh)
    U = np.empty((min(n, ROWS), values.shape[1]))
    kept = 0
    for lo in range(0, n, ROWS):
        V = values[lo:lo + ROWS]
        nrm = _true_norm(V) if known is None else known[lo:lo + ROWS]
        if fill is not None:
            fill[lo:lo + ROWS] = nrm
        nz = (nrm > 0.0) & (nrm < np.inf)
        if not nz.all():
            V, nrm = V[nz], nrm[nz]
        k = kept + len(nrm)
        u = U[:len(nrm)]
        for j in range(u.shape[1]):
            np.divide(V[:, j], nrm, out=u[:, j])
        cells[kept:k] = mesh.assign(u)
        norms[kept:k] = nrm
        kept = k
    return cells[:kept], norms[:kept]


def _count(above: np.ndarray, cells: np.ndarray, norms: np.ndarray, ladder) -> None:
    # adds each row once into above, an (m+1, K) table, under the number of
    # the m thresholds its norm exceeds; ROWS rows at a time, in buffers
    # reused across blocks, with the rungs in the least type that holds m
    flat, n = above.reshape(-1), min(len(cells), ROWS)
    rungs, over = np.empty(n, np.min_scalar_type(len(ladder))), np.empty(n, bool)
    index = np.empty(n, np.intp)
    for lo in range(0, len(cells), ROWS):
        nrm = norms[lo:lo + ROWS]
        rung, gt, at = rungs[:len(nrm)], over[:len(nrm)], index[:len(nrm)]
        rung[...] = 0
        for M in ladder:
            np.greater(nrm, M, out=gt)
            np.add(rung, gt, out=rung)
        np.multiply(rung, above.shape[1], out=at, dtype=np.intp)
        np.add(at, cells[lo:lo + ROWS], out=at)
        flat += np.bincount(at, minlength=len(flat))


def _from_table(above: np.ndarray, mesh: SphereMesh, ladder: np.ndarray,
                steps: int) -> DirectionHistogram:
    # one trajectory's histogram from its _count table: the counts at
    # threshold i are the rows that exceed more than i of them
    counts = np.cumsum(above[:0:-1], axis=0)[::-1].copy()
    return DirectionHistogram(mesh, ladder, counts, (counts > 0).astype(np.int64), 1, steps)


def _histogram(cells: np.ndarray, norms: np.ndarray, mesh: SphereMesh, thresholds,
               steps: int) -> DirectionHistogram:
    # one trajectory's histogram from its compact rows
    ladder = _ladder(thresholds)
    above = np.zeros((len(ladder) + 1, mesh.K), dtype=np.int64)
    _count(above, cells, norms, ladder)
    return _from_table(above, mesh, ladder, steps)


def hist_from_values(values: np.ndarray, mesh: SphereMesh,
                     thresholds) -> DirectionHistogram:
    """Histogram of one trajectory's partial-sum rows (row 0 may be 0).

    Rows whose norm is zero, NaN or infinite have no direction and are
    not counted; an infinite coordinate gives an infinite norm, and a
    finite row counts with its true norm even where its squares overflow.
    """
    return _histogram(*_cells_and_norms(values, mesh), mesh, thresholds, len(values))


def hist_from_trace(trace: CocycleTrace, mesh: SphereMesh,
                    thresholds) -> DirectionHistogram:
    """`hist_from_values` of S_1 .. S_N, with the trace's cached norms.

    A trace without them caches the norms its cell pass takes.
    """
    values = trace.values[1:]
    if trace._norms is None:
        norms = np.empty(len(trace.values))
        norms[0] = _true_norm(trace.values[0])
        rows = _cells_and_norms(values, mesh, fill=norms[1:])
        trace._norms = norms
    else:
        rows = _cells_and_norms(values, mesh, known=trace.norms[1:])
    return _histogram(*rows, mesh, thresholds, len(values))


def cell_max_norms(values: np.ndarray, mesh: SphereMesh) -> np.ndarray:
    """Largest norm of the rows in each cell, -inf where none falls.

    Rows are dropped as in `hist_from_values`.

    Cell k is visited at threshold M exactly when entry k is above M.
    """
    cells, nrm = _cells_and_norms(values, mesh)
    top = np.full(mesh.K, -np.inf)
    np.maximum.at(top, cells, nrm)
    return top


def default_m_ladder(scale: float) -> np.ndarray:
    """Five thresholds centered (geometrically) on a trajectory norm scale."""
    if scale <= 0.0:
        raise ConfigInvalid("thresholds", "ladder scale must be positive")
    return scale * np.asarray(LADDER_RUNGS)


@dataclass
class DirectionEstimate:
    """Cells visited at the top threshold by >= quorum of the traces."""

    cells: np.ndarray                 # sorted cell indices
    quorum: float
    histogram: DirectionHistogram


def direction_set_estimate(hist: DirectionHistogram,
                           quorum: float = 0.9) -> DirectionEstimate:
    if not 0.0 < quorum <= 1.0:
        raise ConfigInvalid("quorum", "quorum must lie in (0, 1]")
    need = quorum * hist.n_traces - 1e-9
    cells = np.flatnonzero(hist.visited_traces[-1] >= need)
    return DirectionEstimate(cells, quorum, hist)


@dataclass
class RecurrenceReport:
    window_minima: np.ndarray         # min ||S_n|| per dyadic window
    verdict: str                      # recurrent-like | transient-like | inconclusive
    epsilon: float


def recurrence_diagnostic(trace: CocycleTrace, epsilon: float) -> RecurrenceReport:
    """Dyadic-window minima heuristic; labels, never proofs.

    recurrent-like: a minimum <= epsilon within the last two windows;
    transient-like: minima strictly increasing over the last five.
    """
    if trace.N < 1024:
        raise ConfigInvalid("N", "recurrence diagnostic needs N >= 1024")
    mins = np.full(int(trace.N).bit_length(), np.inf)
    _fold_minima(mins, trace.norms[1:], 1)
    return RecurrenceReport(mins, _verdict(mins, epsilon), epsilon)


def _fold_minima(mins: np.ndarray, norms: np.ndarray, start: int) -> None:
    # folds the norms of S_start, S_start+1, ... (start >= 1) into mins, the
    # minimum of ||S_n|| over each dyadic window [lo, 2 lo); a NaN propagates as in .min()
    stop = start + len(norms)
    for i in range(start.bit_length() - 1, (stop - 1).bit_length()):
        lo, hi = max(1 << i, start), min(2 << i, stop)
        mins[i] = np.minimum(mins[i], norms[lo - start:hi - start].min())


def _verdict(mins: np.ndarray, epsilon: float) -> str:
    if mins[-2:].min() <= epsilon:
        return "recurrent-like"
    rising = len(mins) >= 5 and np.all(np.diff(mins[-5:]) > 0.0)
    return "transient-like" if rising else "inconclusive"


def antipodal_closure(mesh: SphereMesh, mask: np.ndarray) -> np.ndarray:
    """Cells union the cells of their antipodes."""
    amap = mesh.antipode_map()
    out = np.asarray(mask, dtype=bool).copy()
    out[amap[np.flatnonzero(mask)]] = True
    return out


def _scan_seed(system: SystemSpec, obs: ObservableSpec, seed, N: int, mesh: SphereMesh,
               ladder: np.ndarray | None, rows):
    # one seed's sweep folded block by block, with no trace kept. Without a
    # ladder, the blocks' rows fill rows, a compact pair with room for N rows;
    # with one, each block's rows go into one block-sized pair and are counted
    # at once. Returns ||S_N||, the dyadic-window minima (zero norms included)
    # and the number of rows kept or the histogram
    if ladder is not None:
        rows = _compact(min(N, BLOCK), mesh)
        above = np.zeros((len(ladder) + 1, mesh.K), dtype=np.int64)
    cells, norms = rows
    block_norms, mins = np.empty(min(N, BLOCK)), np.full(int(N).bit_length(), np.inf)
    term, kept = 0.0, 0
    for done, _, S in _sweep(system, obs, sample_initial(system, seed), N, 1):
        nrm = block_norms[:len(S)]
        c, r = _cells_and_norms(S, mesh, out=(cells[kept:], norms[kept:]), fill=nrm)
        _fold_minima(mins, nrm, done + 1)
        if ladder is None:
            kept += len(c)
        else:
            _count(above, c, r, ladder)
        term = nrm[-1]
    return term, mins, kept if ladder is None else _from_table(above, mesh, ladder, N)


def direction_scan(system: SystemSpec, obs: ObservableSpec, N: int, seeds,
                   mesh: SphereMesh | None = None, thresholds=None,
                   quorum: float = 0.9):
    """End-to-end estimate over fresh trajectories, one sweep per seed.

    No trace is built: each seed's sums are folded block by block. Seeds
    run side by side on min(len(seeds), os.cpu_count()) threads and are
    merged in seed order, so the result does not depend on the worker
    count. Explicit thresholds count each block at once, in block-sized
    memory. When they are omitted, the ladder is scaled to the median
    terminal norm (reported in the histogram): each seed's compact
    (cell, norm) rows, about 9 bytes a step, are kept until every
    terminal norm is known. Returns (estimate, per_seed_terminal_norms).
    """
    seeds = list(seeds)
    if not seeds:
        raise ConfigInvalid("seeds", "a direction scan needs at least one seed")
    _check(system, obs, N)
    mesh = mesh or make_mesh(obs.d)
    ladder = None if thresholds is None else _ladder(thresholds)
    # taken here: rows taken in a worker thread stay in its malloc arena
    rows = [_compact(N, mesh) if ladder is None else None for _ in seeds]
    workers = os.cpu_count() or 1
    scans = _map(_scan_seed, [(system, obs, s, N, mesh, ladder, r)
                              for s, r in zip(seeds, rows)], workers)
    terms = np.array([term for term, _, _ in scans])
    if ladder is None:
        ladder = default_m_ladder(float(np.median(terms)))
        hists = _map(_histogram, [(c[:k], n[:k], mesh, ladder, N)
                                  for (c, n), (_, _, k) in zip(rows, scans)], workers)
    else:
        hists = [h for _, _, h in scans]
    return direction_set_estimate(functools.reduce(DirectionHistogram.merge, hists),
                                  quorum), terms


def _map(fn, calls: list, workers: int) -> list:
    # fn(*args) for each args in calls, results (or the first error) in call
    # order: the package's one pool. In the caller for workers <= 1 or one call,
    # else on up to `workers` threads, each call in its own copy of the caller's
    # context (numpy's error state is a context variable)
    if workers <= 1 or len(calls) <= 1:
        return [fn(*args) for args in calls]
    from concurrent.futures import ThreadPoolExecutor   # here, so the CLI's import stays light
    pool = ThreadPoolExecutor(max_workers=min(workers, len(calls)))
    try:
        tasks = [pool.submit(contextvars.copy_context().run, fn, *args) for args in calls]
        return [t.result() for t in tasks]
    finally:
        pool.shutdown(cancel_futures=True)
