"""Direction histograms over norm thresholds and recurrence heuristics."""

import numpy as np
import pytest

import cocyclelab as cl
from cocyclelab import directions as dr


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
    tr = cl.ergodic_sums(sysm, cl.constant(1.0), cl.sample_initial(sysm, 0), 100,
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
    tr = cl.ergodic_sums(sysm, cl.constant([1.0, 2.0]), cl.sample_initial(sysm, 0),
                         500, checkpoint_every=None)
    mesh = dr.make_mesh(2)
    h = dr.hist_from_trace(tr, mesh, np.array([1.0, 10.0, 100.0]))
    for i in range(3):
        assert int(h.visited_at(i).sum()) == 1
    assert h.visited_at(0).argmax() == h.visited_at(2).argmax()


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
            assert not np.any(h.visited_at(i) & ~h.visited_at(i - 1))


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


def test_half_circle_visit_frequency():
    # directions sweep the circle: most walks push the running upper-half
    # frequency above 0.8 at some point, yet the final fractions do not
    # settle near 1/2 (occupation has a limit law, not a limit)
    mesh = dr.make_mesh(2)
    mask = mesh.centers[:, 1] > 0.0
    tail_max, final = [], []
    for s in range(20):
        freq = cl.cone_visit_frequency(rademacher_trace(s, s, 100_000), mesh, mask)
        tail_max.append(float(np.max(freq[100:])))
        final.append(float(freq[-1]))
    assert np.mean(np.asarray(tail_max) >= 0.8) >= 0.75
    assert min(final) <= 0.1 and max(final) >= 0.9


def test_whole_circle_frequency_is_one():
    mesh = dr.make_mesh(2)
    freq = cl.cone_visit_frequency(rademacher_trace(3, 3, 2000), mesh,
                                   np.ones(mesh.K, dtype=bool))
    assert np.all(freq == 1.0)


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
            assert int(np.sum(h_x.visited_at(i) != h_tx.visited_at(i))) <= 2


def test_recurrence_verdicts():
    sysm = cl.doubling(seed=1)
    tr = cl.ergodic_sums(sysm, cl.constant(1.0), cl.sample_initial(sysm, 0), 1 << 10,
                         checkpoint_every=None)
    assert cl.recurrence_diagnostic(tr, 0.5).verdict == "transient-like"

    rot = cl.rotation("golden")
    centered = cl.centered_indicator(0.0, 0.5)
    for s in range(5):
        tr = cl.ergodic_sums(rot, centered, cl.sample_initial(rot, s), 1 << 14,
                             checkpoint_every=None)
        assert cl.recurrence_diagnostic(tr, 0.5).verdict == "recurrent-like"


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


def test_antipodal_closure():
    mesh = dr.make_mesh(2)
    mask = np.zeros(mesh.K, dtype=bool)
    mask[0] = True
    closed = cl.antipodal_closure(mesh, mask)
    assert closed.sum() == 2 and closed[36]
    mesh1 = dr.make_mesh(1)
    closed1 = cl.antipodal_closure(mesh1, np.array([True, False]))
    assert closed1.tolist() == [True, True]


def test_arc_connectivity():
    mesh = dr.make_mesh(2)
    mask = np.zeros(mesh.K, dtype=bool)
    assert cl.is_arc_connected(mesh, mask)
    mask[[3, 4, 5]] = True
    assert cl.is_arc_connected(mesh, mask)
    mask[40] = True
    assert not cl.is_arc_connected(mesh, mask)
    assert cl.is_arc_connected(mesh, np.ones(mesh.K, dtype=bool))
    wrap = np.zeros(mesh.K, dtype=bool)
    wrap[[71, 0, 1]] = True
    assert cl.is_arc_connected(mesh, wrap)


def test_transient_top_cells_form_one_arc():
    # bounded steps and a transient-like verdict keep the far field in
    # one angular patch
    tr = rademacher_trace(8, 8, 200_000)
    mesh = dr.make_mesh(2)
    h = dr.hist_from_trace(tr, mesh, np.array([0.75 * float(tr.norms.max())]))
    assert cl.is_arc_connected(mesh, h.visited_at(0))


def test_essential_probe_whole_space_matches_plain_estimate():
    sysm = cl.doubling(seed=2)
    obs = cl.parse_observable("indicator(0.0,0.5)")
    mesh = dr.make_mesh(1)
    lad = np.array([10.0, 100.0, 1000.0])
    tr = cl.ergodic_sums(sysm, obs, cl.sample_initial(sysm, 1), 20_000,
                         checkpoint_every=None)
    plain = cl.direction_set_estimate(dr.hist_from_trace(tr, mesh, lad))
    probe = cl.essential_probe(sysm, obs, [cl.interval(0.0, 1.0)], lad, mesh,
                               20_000, [1])
    assert np.array_equal(probe.cells, plain.cells)
    assert plain.cells.tolist() == [0]


def test_essential_probe_coboundary_is_empty():
    sysm = cl.rotation("golden")
    phi = cl.coboundary_of(cl.parse_observable("sin2pi(frac)"))
    probe = cl.essential_probe(sysm, phi, [cl.interval(0.0, 0.5)],
                               np.array([5.0, 10.0]), dr.make_mesh(1), 2000, [0, 1])
    assert probe.cells.size == 0


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
