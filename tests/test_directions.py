"""Direction histograms over norm thresholds and recurrence heuristics."""

import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cocyclelab as cl
from cocyclelab import directions as dr
from cocyclelab.cones import ROWS, _norm, _true_norm
from cocyclelab.engine import BLOCK


def rademacher_trace(sys_seed: int, init_seed: int, n: int) -> cl.CocycleTrace:
    sysm = cl.iid_shift("rademacher", d=2, seed=sys_seed)
    return cl.ergodic_sums(sysm, cl.iid_increment("rademacher", 2),
                           cl.sample_initial(sysm, init_seed), n,
                           checkpoint_every=None)


def test_mesh_assignment():
    mesh = dr.make_mesh(2)
    assert mesh.K == 72
    # (3, 4) normalizes to (0.6, 0.8); atan2 = 0.9273 rad falls in cell 10
    assert mesh.assign(np.array([[0.6, 0.8]]))[0] == 10
    mesh1 = dr.make_mesh(1)
    assert mesh1.K == 2
    assert mesh1.assign(np.array([[1.0], [-1.0]])).tolist() == [0, 1]


def test_unit_drift_fills_positive_cell():
    sysm = cl.doubling(seed=2)
    tr = cl.ergodic_sums(sysm, cl.parse_observable("1.0"), cl.sample_initial(sysm, 0), 100,
                         checkpoint_every=None)
    mesh = dr.make_mesh(1)
    h = dr.hist_from_trace(tr, mesh, np.array([0.5, 10.0, 50.0]))
    assert h.counts[0].tolist() == [100, 0]
    assert h.counts[1].tolist() == [90, 0]
    assert h.counts[2].tolist() == [50, 0]


def test_zero_sums_are_skipped():
    mesh = dr.make_mesh(2)
    vals = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [2.0, 0.0]])
    h = dr.hist_from_values(vals, mesh, np.array([0.5]))
    assert h.counts[0].sum() == 2


def test_constant_vector_occupies_one_cell():
    sysm = cl.rotation("golden")
    tr = cl.ergodic_sums(sysm, cl.parse_observable("[1.0,2.0]"), cl.sample_initial(sysm, 0),
                         500, checkpoint_every=None)
    mesh = dr.make_mesh(2)
    h = dr.hist_from_trace(tr, mesh, np.array([1.0, 10.0, 100.0]))
    for i in range(3):
        assert int((h.counts[i] > 0).sum()) == 1
    assert (h.counts[0] > 0).argmax() == (h.counts[2] > 0).argmax()


def test_coboundary_histogram_empties_beyond_bound():
    # sums stay within 2 sup|psi| = 2, so no direction survives M > 2
    sysm = cl.rotation("golden")
    phi = cl.coboundary_of(cl.parse_observable("sin2pi(frac)"))
    tr = cl.ergodic_sums(sysm, phi, cl.sample_initial(sysm, 4), 50_000,
                         checkpoint_every=None)
    h = dr.hist_from_trace(tr, dr.make_mesh(1), np.array([2.5, 5.0]))
    assert h.counts.sum() == 0


def test_nesting_and_exact_totals():
    tr = rademacher_trace(1, 1, 5000)
    mesh = dr.make_mesh(2)
    lad = np.array([5.0, 20.0, 60.0])
    h = dr.hist_from_trace(tr, mesh, lad)
    for i, M in enumerate(lad):
        assert h.counts[i].sum() == int(np.sum(tr.norms[1:] > M))
        if i:
            assert np.all(h.counts[i] <= h.counts[i - 1])
            assert not np.any((h.counts[i] > 0) & ~(h.counts[i - 1] > 0))


def test_hist_from_trace_equals_hist_from_values():
    # the trace's cached norms, taken once in blocks, give the bytes of the
    # rows' own norms: zero rows, rows whose squares overflow and infinite
    # rows, across kernel-block edges
    tr = rademacher_trace(3, 3, 2 * ROWS + 5)
    tr.values[[5, ROWS, ROWS + 1]] = 0.0
    tr.values[ROWS - 2:ROWS + 3] = np.ldexp(tr.values[ROWS - 2:ROWS + 3], 700)
    tr.values[2 * ROWS, 1] = -np.inf
    tr.values[7] = np.inf
    assert tr.norms.tobytes() == _true_norm(tr.values).tobytes()
    mesh = dr.make_mesh(2)
    for lad in ([0.5], [5.0, 20.0, 60.0], [1.0, 1e200, 1e300]):
        got = dr.hist_from_trace(tr, mesh, lad)
        assert same_histogram(got, dr.hist_from_values(tr.values[1:], mesh, lad))
    assert got.counts[1].sum() > 0 and got.counts[2].sum() == 0


def test_hist_from_trace_caches_the_norms_of_its_cell_pass(monkeypatch):
    # on a trace without cached norms the cell pass's own norms fill the
    # cache: each row reaches _true_norm once, in that pass and not in a
    # pass of the trace's own, and the cache has that pass's bytes
    tr = rademacher_trace(4, 4, 3 * ROWS + 5)
    tr.values[ROWS - 2:ROWS + 3] = np.ldexp(tr.values[ROWS - 2:ROWS + 3], 700)
    tr.values[[6, 2 * ROWS]] = 0.0
    want = cl.CocycleTrace(tr.system, tr.obs, tr.state0, tr.N, tr.values).norms
    mesh, lad = dr.make_mesh(2), [5.0, 50.0, 1e300]
    hist = dr.hist_from_values(tr.values[1:], mesh, lad)
    rows = {dr: [], cl.engine: []}
    for module, seen in rows.items():
        monkeypatch.setattr(module, "_true_norm",
                            lambda V, seen=seen: (seen.append(len(np.atleast_2d(V))),
                                                  _true_norm(V))[1])
    assert same_histogram(dr.hist_from_trace(tr, mesh, lad), hist)
    assert tr.norms.tobytes() == want.tobytes()
    assert sum(rows[dr]) == len(tr.values) and not rows[cl.engine]


def test_histogram_merge_is_monoidal():
    mesh = dr.make_mesh(2)
    lad = np.array([5.0, 50.0])
    h1 = dr.hist_from_trace(rademacher_trace(1, 1, 2000), mesh, lad)
    h2 = dr.hist_from_trace(rademacher_trace(2, 2, 2000), mesh, lad)
    m = h1.merge(h2)
    assert np.array_equal(m.counts, h1.counts + h2.counts)
    assert m.n_traces == 2
    empty = dr.DirectionHistogram.empty(mesh, lad)
    assert np.array_equal(empty.merge(h1).counts, h1.counts)


def cell_visit_frequency(tr, mesh, mask):
    # running frequency of directions S_n/||S_n|| in the masked cells;
    # zero sums are skipped, not counted in the denominator
    nz = tr.norms[1:] > 0.0
    member = mask[mesh.assign(tr.values[1:][nz] / tr.norms[1:][nz][:, None])]
    return np.cumsum(member) / np.arange(1, len(member) + 1)


def test_half_circle_visit_frequency():
    # directions sweep the circle: most walks push the running upper-half
    # frequency above 0.8 at some point, yet the final fractions do not
    # settle near 1/2 (occupation has a limit law, not a limit)
    mesh = dr.make_mesh(2)
    mask = mesh.centers[:, 1] > 0.0
    tail_max, final = [], []
    for s in range(20):
        freq = cell_visit_frequency(rademacher_trace(s, s, 100_000), mesh, mask)
        tail_max.append(float(np.max(freq[100:])))
        final.append(float(freq[-1]))
    assert np.mean(np.asarray(tail_max) >= 0.8) >= 0.75
    assert min(final) <= 0.1 and max(final) >= 0.9


def test_shift_stability_of_visited_cells():
    # starting the same realized walk one step later moves each direction
    # by at most 2b/(M-b); above that absorption scale at most the two
    # arc-boundary cells can differ
    mesh = dr.make_mesh(2)
    b = np.sqrt(2.0)
    absorb = b * (1.0 + 2.0 / (2.0 * np.pi / mesh.K))
    for s in range(10):
        sysm = cl.iid_shift("rademacher", d=2, seed=100 + s)
        obs = cl.iid_increment("rademacher", 2)
        x0 = cl.sample_initial(sysm, s)
        tr_x = cl.ergodic_sums(sysm, obs, x0, 10_001, checkpoint_every=None)
        tr_tx = cl.ergodic_sums(sysm, obs, cl.step(sysm, x0), 10_000,
                                checkpoint_every=None)
        lad = dr.default_m_ladder(float(np.median(tr_x.norms[1:])))
        h_x = dr.hist_from_trace(tr_x, mesh, lad)
        h_tx = dr.hist_from_trace(tr_tx, mesh, lad)
        for i, M in enumerate(lad):
            if M < absorb:
                continue
            assert int(np.sum((h_x.counts[i] > 0) != (h_tx.counts[i] > 0))) <= 2


def test_recurrence_verdicts():
    sysm = cl.doubling(seed=1)
    tr = cl.ergodic_sums(sysm, cl.parse_observable("1.0"), cl.sample_initial(sysm, 0), 1 << 10,
                         checkpoint_every=None)
    assert cl.recurrence_diagnostic(tr, 0.5).verdict == "transient-like"

    rot = cl.rotation("golden")
    centered = cl.centered_indicator(0.0, 0.5)
    for s in range(5):
        tr = cl.ergodic_sums(rot, centered, cl.sample_initial(rot, s), 1 << 14,
                             checkpoint_every=None)
        assert cl.recurrence_diagnostic(tr, 0.5).verdict == "recurrent-like"


def test_scan_minima_are_the_trace_window_minima():
    # the scan folds each block's norms into the windows it meets, past one
    # block; seed 1 of this walk returns to 0, and a zero norm is a window's min
    N = 70_000
    sysm = cl.parse_system({"kind": "iid-shift", "law": "rademacher", "d": 2})
    obs, mesh = cl.iid_increment("rademacher", 2), dr.make_mesh(2)
    zeros = 0
    for s in range(3):
        tr = cl.ergodic_sums(sysm, obs, cl.sample_initial(sysm, s), N)
        want = np.array([tr.norms[lo:2 * lo].min() for lo in cl.dyadic_grid(N)])
        _, mins, _ = dr._scan_seed(sysm, obs, s, N, mesh, np.array([10.0]), None)
        assert mins.tobytes() == want.tobytes()
        assert dr.recurrence_diagnostic(tr, 0.5).window_minima.tobytes() == want.tobytes()
        zeros += int((want == 0.0).sum())
    assert zeros > 0


def test_cauchy_walk_never_looks_recurrent():
    sysm = cl.iid_shift("cauchy", d=2, seed=5)
    obs = cl.iid_increment("cauchy", 2)
    verdicts = []
    for s in range(12):
        tr = cl.ergodic_sums(sysm, obs, cl.sample_initial(sysm, s), 1 << 18,
                             checkpoint_every=None)
        verdicts.append(cl.recurrence_diagnostic(tr, 0.5).verdict)
    assert "recurrent-like" not in verdicts
    assert verdicts.count("transient-like") >= 2


def test_short_trace_rejected_by_diagnostic():
    tr = rademacher_trace(0, 0, 512)
    with pytest.raises(cl.ConfigInvalid):
        cl.recurrence_diagnostic(tr, 0.5)


@pytest.mark.parametrize("ladder", [[], [5.0, 5.0], [5.0, 1.0], [1.0, np.nan, 5.0]])
def test_ladder_must_increase_strictly(ladder):
    # a NaN rung is not above the one before it: each row is counted under
    # the number of rungs below its norm, which needs an increasing ladder
    with pytest.raises(cl.ConfigInvalid):
        dr.hist_from_values(np.ones((3, 2)), dr.make_mesh(2), ladder)


def test_a_ladder_past_255_rungs_counts_like_the_kernel_before():
    # rows above more than 255 of 300 thresholds: the rungs outgrow uint8
    values = walk_values("gaussian", 2, 3, 2 * ROWS + 5)
    mesh, ladder = dr.make_mesh(2), np.geomspace(0.5, 400.0, 300)
    got = dr.hist_from_values(values, mesh, ladder)
    assert same_histogram(got, hist_from_values_before(values, mesh, ladder))
    assert got.counts[255:].sum() > 0


def test_antipodal_closure():
    mesh = dr.make_mesh(2)
    mask = np.zeros(mesh.K, dtype=bool)
    mask[0] = True
    closed = cl.antipodal_closure(mesh, mask)
    assert closed.sum() == 2 and closed[36]
    mesh1 = dr.make_mesh(1)
    closed1 = cl.antipodal_closure(mesh1, np.array([True, False]))
    assert closed1.tolist() == [True, True]


def test_transient_top_cells_form_one_arc():
    # bounded steps and a transient-like verdict keep the far field in
    # one angular patch
    tr = rademacher_trace(8, 8, 200_000)
    mesh = dr.make_mesh(2)
    h = dr.hist_from_trace(tr, mesh, np.array([0.75 * float(tr.norms.max())]))
    mask = h.counts[0] > 0
    assert mask.any() and np.sum(mask & ~np.roll(mask, 1)) <= 1   # one circular run


def test_direction_scan_merges_like_manual_histograms():
    sysm = cl.iid_shift("rademacher", d=2, seed=4)
    obs = cl.iid_increment("rademacher", 2)
    mesh = dr.make_mesh(2)
    lad = np.array([10.0, 40.0])
    est, terms = cl.direction_scan(sysm, obs, 4000, [0, 1], mesh, thresholds=lad)
    merged = None
    for s in (0, 1):
        tr = cl.ergodic_sums(sysm, obs, cl.sample_initial(sysm, s), 4000,
                             checkpoint_every=None)
        h = dr.hist_from_trace(tr, mesh, lad)
        merged = h if merged is None else merged.merge(h)
    want = cl.direction_set_estimate(merged)
    assert np.array_equal(est.cells, want.cells)
    assert len(terms) == 2


@pytest.mark.parametrize("law, d", [("rademacher", 1), ("cauchy", 2), ("gaussian", 3)])
def test_cell_max_norms_answer_every_rung(law, d):
    # cell k is visited at rung M exactly when its largest norm is above M
    sysm = cl.iid_shift(law, d=d, seed=40 + d)
    mesh = dr.make_mesh(d, 72 if d == 2 else 30)
    for s in range(4):
        tr = cl.ergodic_sums(sysm, cl.iid_increment(law, d), cl.sample_initial(sysm, s),
                             3000, checkpoint_every=None)
        ladder = dr.default_m_ladder(float(tr.norms[-1]) + 1.0)
        top = dr.cell_max_norms(tr.values[1:], mesh)
        h = dr.hist_from_trace(tr, mesh, ladder)
        for i, M in enumerate(ladder):
            assert np.array_equal(top > M, h.counts[i] > 0)
        assert np.all(top[h.counts[0] == 0] < ladder[0])
    assert dr.cell_max_norms(np.zeros((5, d)), mesh).tolist() == [-np.inf] * mesh.K


# The histogram kernel before it ran in blocks, with the cell assignment it
# called and the two-pass direction scan, kept verbatim as the reference.

def assign_before(mesh, U):
    if mesh.d == 1:
        return np.where(U[:, 0] > 0.0, 0, 1).astype(np.int64)
    if mesh.d == 2:
        theta = np.mod(np.arctan2(U[:, 1], U[:, 0]), 2.0 * np.pi)
        return np.minimum((theta * mesh.K / (2.0 * np.pi)).astype(np.int64),
                          mesh.K - 1)
    return np.argmax(U @ mesh.centers.T, axis=1).astype(np.int64)


def cells_and_norms_before(values, mesh):
    nrm = _norm(values)
    nz = nrm > 0.0
    return assign_before(mesh, values[nz] / nrm[nz][:, None]), nrm[nz]


def hist_from_values_before(values, mesh, thresholds):
    h = dr.DirectionHistogram.empty(mesh, thresholds)
    cells, nrm = cells_and_norms_before(values, mesh)
    for i, M in enumerate(h.thresholds):
        sel = nrm > M
        h.counts[i] = np.bincount(cells[sel], minlength=mesh.K)
    h.visited_traces = (h.counts > 0).astype(np.int64)
    h.n_traces = 1
    h.total_steps = len(values)
    return h


def cell_max_norms_before(values, mesh):
    cells, nrm = cells_and_norms_before(values, mesh)
    top = np.full(mesh.K, -np.inf)
    np.maximum.at(top, cells, nrm)
    return top


def direction_scan_before(system, obs, N, seeds, mesh=None, thresholds=None,
                          quorum=0.9):
    seeds = list(seeds)
    mesh = mesh or dr.make_mesh(obs.d)
    terms = np.empty(len(seeds))
    if thresholds is None:
        # ladder pass: terminal norms only, traces are recomputed below
        # so at most one full trace is ever held in memory
        for i, s in enumerate(seeds):
            tr = cl.ergodic_sums(system, obs, cl.sample_initial(system, s), N,
                                 checkpoint_every=None)
            terms[i] = tr.norms[-1]
        thresholds = dr.default_m_ladder(float(np.median(terms)))
    hist = None
    for i, s in enumerate(seeds):
        tr = cl.ergodic_sums(system, obs, cl.sample_initial(system, s), N,
                             checkpoint_every=None)
        terms[i] = tr.norms[-1]
        h = hist_from_values_before(tr.values[1:], mesh, thresholds)
        hist = h if hist is None else hist.merge(h)
    return cl.direction_set_estimate(hist, quorum), terms


def walk_values(law, d, seed, n):
    if n == 0:
        return np.empty((0, d))
    return np.cumsum(cl.systems.increments((seed, 1), law, d, 0, n - 1), axis=0)


def same_histogram(a, b):
    return (a.counts.tobytes() == b.counts.tobytes() and a.counts.shape == b.counts.shape
            and a.visited_traces.tobytes() == b.visited_traces.tobytes()
            and a.thresholds.tobytes() == b.thresholds.tobytes()
            and (a.n_traces, a.total_steps) == (b.n_traces, b.total_steps))


_MESHES = {1: [2], 2: [2, 72, 512], 3: [30, 300]}      # 512 and 300 need uint16 cells


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(cl.systems.LAWS), st.integers(1, 3), st.integers(0, 2**32),
       st.sampled_from([0, ROWS - 1, ROWS, ROWS + 1, 2 * ROWS + 37]), st.data())
def test_blocked_kernel_equals_the_kernel_before(law, d, seed, n, data):
    # zero rows anywhere, a whole block of them, and a threshold that equals a
    # row's norm (rows exactly at a threshold are not above it)
    values = walk_values(law, d, seed, n)
    zeros = data.draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=40))
    values[[z for z in zeros if z < n]] = 0.0
    if data.draw(st.booleans()):
        values[ROWS // 2:ROWS // 2 + ROWS] = 0.0
    mesh = dr.make_mesh(d, data.draw(st.sampled_from(_MESHES[d])))
    norms = _norm(values)
    k = data.draw(st.integers(0, max(n - 1, 0)))
    ladder = dr.default_m_ladder(float(norms[k]) if n and norms[k] > 0.0 else 1.0)
    got = dr.hist_from_values(values, mesh, ladder)
    assert same_histogram(got, hist_from_values_before(values, mesh, ladder))
    assert got.counts.dtype == np.int64 and got.counts.flags.c_contiguous
    want = cell_max_norms_before(values, mesh)
    assert dr.cell_max_norms(values, mesh).tobytes() == want.tobytes()


@pytest.mark.parametrize("law, d", [("cauchy", 2), ("rademacher", 1), ("gaussian", 3),
                                    ("rotation", 2)])
def test_one_pass_scan_equals_the_two_pass_scan(monkeypatch, law, d):
    # block and kernel-block edges, one seed and five, and one worker or one
    # per seed: the folded, threaded scan writes the bytes of the two-pass
    # scan. The rotation's [frac-0.5,sin2pi(frac)] takes the longdouble route
    if law == "rotation":
        sysm, obs = cl.rotation("golden", seed=62), cl.parse_observable("[frac-0.5,sin2pi(frac)]")
    else:
        sysm, obs = cl.iid_shift(law, d=d, seed=60 + d), cl.iid_increment(law, d)
    mesh = dr.make_mesh(d, 72 if d == 2 else 30)
    for N in (1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * ROWS + 5):
        for seeds in (range(1), range(5)):
            for thresholds in (None, np.array([5.0, 40.0])):
                want, want_terms = direction_scan_before(sysm, obs, N, seeds, mesh,
                                                         thresholds)
                for cpus in (1, 8):
                    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
                    est, terms = cl.direction_scan(sysm, obs, N, seeds, mesh, thresholds)
                    assert same_histogram(est.histogram, want.histogram)
                    assert est.cells.tobytes() == want.cells.tobytes()
                    assert terms.tobytes() == want_terms.tobytes()


def test_direction_scan_sweeps_once_per_seed(monkeypatch):
    # on a cold memo the scan draws exactly the rows of one ergodic_sums per seed
    real, drawn = cl.systems._draw, []

    def counted(rng, law, d, out):
        drawn.append(len(out))
        return real(rng, law, d, out)

    monkeypatch.setattr(cl.systems, "_draw", counted)
    sysm, obs = cl.iid_shift("cauchy", d=2, seed=7), cl.iid_increment("cauchy", 2)
    N = 3 * BLOCK + 5
    cl.systems._marks.cache_clear()
    cl.direction_scan(sysm, obs, N, [0, 1, 2])
    scan = sum(drawn)
    drawn.clear()
    cl.systems._marks.cache_clear()
    for s in (0, 1, 2):
        cl.ergodic_sums(sysm, obs, cl.sample_initial(sysm, s), N, checkpoint_every=None)
    assert scan == sum(drawn) >= 3 * N


def test_direction_scan_keeps_terminal_norms_whose_squares_overflow():
    # every increment scaled by 2^700 = 5.260135901548374e+210 (terminal norms
    # near 1e212), so every sum stays exact: the terminal norms, the default
    # ladder and the histogram are those of the unscaled walks, times 2^700
    # where they are norms
    sysm = cl.iid_shift("rademacher", d=2, seed=4)
    obs = cl.iid_increment("rademacher", 2)
    est, terms = cl.direction_scan(sysm, obs, 3000, [0, 1, 2])
    scaled = cl.parse_observable("iid(rademacher,d=2)*5.260135901548374e+210")
    with np.errstate(over="raise"):
        big, big_terms = cl.direction_scan(sysm, scaled, 3000, [0, 1, 2])
    assert big_terms.tobytes() == np.ldexp(terms, 700).tobytes()
    assert big.histogram.thresholds.tobytes() == \
        np.ldexp(est.histogram.thresholds, 700).tobytes()
    assert np.array_equal(big.histogram.counts, est.histogram.counts)
    assert est.histogram.counts[0].sum() > 0
    assert np.array_equal(big.cells, est.cells)


def traced_peak(fn) -> int:
    # peak bytes traced while fn runs, above what was live when it started
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_histogram_kernel_memory_per_row():
    # 9 bytes a row for the compact (cell, norm) rows and block-sized
    # temporaries; the whole-array kernel took about 50
    values = walk_values("cauchy", 2, 5, 1 << 18)
    mesh = dr.make_mesh(2)
    peak = traced_peak(lambda: dr.hist_from_values(values, mesh, dr.default_m_ladder(512.0)))
    assert peak / len(values) < 16


def test_direction_scan_rejects_an_empty_seed_list(monkeypatch):
    built = []
    monkeypatch.setattr(dr, "_sweep", lambda *a, **k: built.append(a) or iter(()))
    sysm = cl.iid_shift("cauchy", d=2, seed=7)
    for thresholds in (None, [1.0, 2.0]):
        with pytest.raises(cl.ConfigInvalid) as e:
            cl.direction_scan(sysm, cl.iid_increment("cauchy", 2), 100, [], thresholds=thresholds)
        assert e.value.field == "seeds"
    assert built == []


def test_direction_scan_rejects_a_negative_N():
    # N = 0 gives an empty histogram with explicit thresholds, and no ladder
    # scale (every terminal norm is 0) without them
    sysm, obs = cl.iid_shift("cauchy", d=2, seed=7), cl.iid_increment("cauchy", 2)
    for thresholds in (None, [1.0]):
        with pytest.raises(cl.ConfigInvalid) as e:
            cl.direction_scan(sysm, obs, -1, [1, 2], thresholds=thresholds)
        assert e.value.field == "N"
    est, terms = cl.direction_scan(sysm, obs, 0, [1, 2], thresholds=[1.0])
    assert est.histogram.counts.tolist() == [[0] * 72] and est.cells.size == 0
    assert (est.histogram.n_traces, est.histogram.total_steps) == (2, 0)
    assert terms.tolist() == [0.0, 0.0]
    with pytest.raises(cl.ConfigInvalid) as e:
        cl.direction_scan(sysm, obs, 0, [1, 2])
    assert e.value.field == "thresholds"


def scan_peak(N, thresholds):
    sysm = cl.iid_shift("cauchy", d=2, seed=11)
    return traced_peak(lambda: cl.direction_scan(sysm, cl.iid_increment("cauchy", 2), N,
                                                 [0, 1], thresholds=thresholds))


# The scans below run on one worker: with two, the peak moves by up to a
# block's temporaries with how the threads' block peaks line up.

def test_direction_scan_with_thresholds_holds_no_rows(monkeypatch):
    # each block is counted at once: the peak does not grow with N (the
    # scan over whole traces read 11.3 MB at 2^18 steps and 17.8 MB at 2^19)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    lad = [10.0, 1000.0]
    small = scan_peak(1 << 18, lad)
    assert scan_peak(1 << 19, lad) <= 1.2 * small


def test_direction_scan_keeps_nine_bytes_a_step(monkeypatch):
    # the automatic ladder keeps each seed's compact rows, a uint8 cell and a
    # float64 norm a step, and nothing else of length N (the scan over whole
    # traces kept about 13 bytes a step)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    small = scan_peak(1 << 18, None)
    assert (scan_peak(1 << 19, None) - small) / ((1 << 18) * 2) <= 10


def test_direction_scan_workers_share_the_callers_error_state(monkeypatch):
    # each seed runs in a copy of the caller's context, on a pool that is
    # gone when the scan returns
    real, seen = dr._sweep, []

    def recorded(*args):
        seen.append((np.geterr(), threading.current_thread() is threading.main_thread()))
        return real(*args)

    monkeypatch.setattr(dr, "_sweep", recorded)
    sysm = cl.iid_shift("gaussian", d=2, seed=3)
    before = threading.active_count()
    with np.errstate(over="raise", invalid="ignore"):
        want = np.geterr()
        cl.direction_scan(sysm, cl.iid_increment("gaussian", 2), 5000, range(4))
    assert threading.active_count() == before
    assert seen == [(want, False)] * 4
    assert want["over"] == "raise" and np.geterr() != want


def test_threads_on_shared_streams_keep_the_serial_bytes(monkeypatch):
    # repeated seeds read one stream's memo of generator states from several
    # threads at once, on a cold memo, with more workers than cores and a
    # short switch interval: a lost or misplaced mark would move the bytes
    sysm, obs = cl.iid_shift("gaussian", d=2, seed=13), cl.iid_increment("gaussian", 2)
    seeds, N = [0, 1, 0, 1, 0, 1, 0, 1], 3 * cl.systems.MARK + 5
    want, want_terms = direction_scan_before(sysm, obs, N, seeds)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            cl.systems._marks.cache_clear()
            est, terms = cl.direction_scan(sysm, obs, N, seeds)
            assert same_histogram(est.histogram, want.histogram)
            assert terms.tobytes() == want_terms.tobytes()
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_rows_with_an_infinite_coordinate_are_dropped(d):
    # an infinite coordinate gives an infinite norm and a NaN unit vector:
    # such a row has no direction, like a zero row
    mesh = dr.make_mesh(d)
    ones = np.ones((3, d))
    want = dr.hist_from_values(ones, mesh, [0.5]).counts
    for j in range(d):
        for bad in (np.inf, -np.inf):
            row = np.ones(d)
            row[j] = bad
            values = np.vstack([ones[:2], row, ones[2:]])
            assert dr.hist_from_values(values, mesh, [0.5]).counts.tobytes() == want.tobytes()
            top = dr.cell_max_norms(values, mesh)
            assert np.isfinite(top).sum() == 1 and top.max() == _norm(ones[0])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(cl.systems.LAWS), st.integers(1, 3), st.integers(0, 2**32),
       st.sampled_from([1, ROWS - 1, ROWS + 1, 2 * ROWS + 37]),
       st.lists(st.tuples(st.integers(0, 10**9), st.integers(0, 2),
                          st.sampled_from([np.inf, -np.inf, np.nan, 1e200, 0.0])),
                max_size=30))
def test_finite_rows_keep_their_cells_and_norms(law, d, seed, n, bad):
    # rows with an infinite coordinate are dropped with zero and NaN rows;
    # every other row keeps the bytes of the kernel before blocking, and a
    # row whose squares overflow (1e200) those of the row at 2^-200 of its
    # scale, with its norm scaled back
    values = walk_values(law, d, seed, n)
    for i, j, x in bad:
        values[i % n, j % d] = x
    mesh = dr.make_mesh(d)
    cells, norms = dr._cells_and_norms(values, mesh)
    finite = np.isfinite(values).all(axis=1)
    big = (np.abs(values[finite]) > 1e154).any(axis=1)
    rows = np.where(big[:, None], np.ldexp(values[finite], -200), values[finite])
    want_cells, want_norms = cells_and_norms_before(rows, mesh)
    want_norms = np.where(big[_norm(rows) > 0.0], np.ldexp(want_norms, 200), want_norms)
    assert norms.tobytes() == want_norms.tobytes()
    assert np.array_equal(cells, want_cells)


def cells_and_norms_broadcast(values, mesh):
    # _cells_and_norms as it was, dividing each block by its norms in one
    # broadcast, kept verbatim as the reference for the column-wise division
    n = len(values)
    cells = np.empty(n, dtype=np.min_scalar_type(mesh.K))
    norms = np.empty(n)
    U = np.empty((min(n, ROWS), values.shape[1]))
    kept = 0
    for lo in range(0, n, ROWS):
        V = values[lo:lo + ROWS]
        nrm = _true_norm(V)
        nz = (nrm > 0.0) & (nrm < np.inf)
        if not nz.all():
            V, nrm = V[nz], nrm[nz]
        k = kept + len(nrm)
        cells[kept:k] = mesh.assign(np.divide(V, nrm[:, None], out=U[:len(nrm)]))
        norms[kept:k] = nrm
        kept = k
    return cells[:kept], norms[:kept]


@pytest.mark.parametrize("law", cl.systems.LAWS)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_columnwise_division_equals_the_broadcast(law, d):
    # rows with a zero, NaN, infinite or overflowing norm, in the first
    # block and across block boundaries
    values = walk_values(law, d, 17 + d, 2 * ROWS + 3)
    values[[3, ROWS - 1]] = 0.0
    values[5, 0] = np.nan
    values[ROWS, d - 1] = np.inf
    values[ROWS + 1] = 1e300
    values[2 * ROWS + 2] = -1e308
    for mesh in (dr.make_mesh(d), dr.make_mesh(d, _MESHES[d][-1])):
        cells, norms = dr._cells_and_norms(values, mesh)
        want_cells, want_norms = cells_and_norms_broadcast(values, mesh)
        assert cells.tobytes() == want_cells.tobytes() and cells.dtype == want_cells.dtype
        assert norms.tobytes() == want_norms.tobytes()
