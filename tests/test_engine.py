"""Partial-sum engine: additivity, reverse sums, restarts at any step."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cocyclelab as cl
from cocyclelab import engine as eng


def rot_state(x: float) -> cl.SystemState:
    return cl.SystemState(0, coords=np.array([x]), origin=x)


def half_obs() -> cl.ObservableSpec:
    return cl.parse_observable("indicator(0.0,0.5)-0.5")


def rademacher_trace(seed: int, n: int) -> cl.CocycleTrace:
    sysm = cl.iid_shift("rademacher", d=2, seed=seed)
    return cl.ergodic_sums(sysm, cl.iid_increment("rademacher", 2),
                           cl.sample_initial(sysm, seed), n, checkpoint_every=None)


def test_rotation_first_three_sums():
    # orbit of 0 under x -> x + (sqrt(2)-1): 0, 0.41421, 0.82842
    tr = cl.ergodic_sums(cl.rotation("sqrt2m1"), half_obs(), rot_state(0.0), 3,
                         checkpoint_every=None)
    assert np.allclose(tr.values[:, 0], [0.0, 0.5, 1.0, 0.5], atol=1e-12)
    assert tr.values.shape == (4, 1)


def test_iid_sums_equal_increment_resummation():
    sysm = cl.iid_shift("rademacher", d=2, seed=7)
    obs = cl.iid_increment("rademacher", 2)
    st0 = cl.sample_initial(sysm, 0)
    tr = cl.ergodic_sums(sysm, obs, st0, 10, checkpoint_every=None)
    steps = np.array([cl.evaluate_at(sysm, obs, cl.state_at(sysm, st0, k))
                      for k in range(10)])
    resum = np.vstack([np.zeros(2), np.cumsum(steps, axis=0)])
    assert np.max(np.abs(tr.values - resum)) <= 1e-12


def test_additivity_small_rotation():
    tr = cl.ergodic_sums(cl.rotation("sqrt2m1"), half_obs(), rot_state(0.0), 10)
    assert cl.cocycle_identity_check(tr, 1, 2) <= 1e-12


def test_additivity_brute_force_iid():
    # oracle: recompute the tail sum from a fresh trace started at step n
    sysm = cl.iid_shift("gaussian", d=2, seed=11)
    obs = cl.iid_increment("gaussian", 2)
    st0 = cl.sample_initial(sysm, 2)
    tr = cl.ergodic_sums(sysm, obs, st0, 1000, checkpoint_every=None)
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(1, 500))
        p = int(rng.integers(1, 500))
        tail = cl.ergodic_sums(sysm, obs, cl.state_at(sysm, st0, n), p,
                               checkpoint_every=None)
        resid = np.linalg.norm(tr.values[n + p] - tr.values[n] - tail.values[p])
        assert resid <= 1e-9


def test_reverse_sums_constant():
    rev = cl.reverse_sums(cl.rotation("golden"), cl.parse_observable("0.3"), rot_state(0.5), 5)
    assert np.allclose(rev.values[:, 0], -0.3 * np.arange(6), atol=1e-12)


def test_reverse_first_step_rotation():
    # one step back from alpha lands at 0, where the observable is +1/2
    alpha = np.sqrt(2.0) - 1.0
    rev = cl.reverse_sums(cl.rotation("sqrt2m1"), half_obs(), rot_state(alpha), 1)
    assert rev.values[1, 0] == pytest.approx(-0.5, abs=1e-12)


def test_reverse_iid_resummation():
    sysm = cl.iid_shift("gaussian", d=2, seed=9)
    obs = cl.iid_increment("gaussian", 2)
    st0 = cl.sample_initial(sysm, 1)
    rev = cl.reverse_sums(sysm, obs, st0, 8)
    back = st0
    steps = []
    for _ in range(8):
        back = cl.step_back(sysm, back)
        steps.append(cl.evaluate_at(sysm, obs, back))
    resum = np.vstack([np.zeros(2), -np.cumsum(steps, axis=0)])
    assert np.max(np.abs(rev.values - resum)) <= 1e-12


def test_reverse_forward_consistency():
    # reverse sums from T^n x undo the forward sums from x
    for sysm, obs, st0 in (
        (cl.rotation("golden"), half_obs(), rot_state(0.3)),
        (cl.iid_shift("gaussian", d=2, seed=4), cl.iid_increment("gaussian", 2),
         cl.sample_initial(cl.iid_shift("gaussian", d=2, seed=4), 0)),
    ):
        fwd = cl.ergodic_sums(sysm, obs, st0, 64, checkpoint_every=None)
        for n in (1, 7, 64):
            rev = cl.reverse_sums(sysm, obs, cl.state_at(sysm, st0, n), n)
            assert np.max(np.abs(rev.values[n] + fwd.values[n])) <= 1e-12


def test_norm_step_bound():
    # one-step change of the norm is at most the step size
    tr_x = rademacher_trace(3, 2001)
    sysm = tr_x.system
    tx = cl.step(sysm, tr_x.state0)
    tr_tx = cl.ergodic_sums(sysm, tr_x.obs, tx, 2000, checkpoint_every=None)
    step_norm = np.linalg.norm(tr_x.values[1])
    gap = np.abs(tr_x.norms[2:] - tr_tx.norms[1:])
    assert np.max(gap) <= step_norm + 1e-12


def test_norms_of_huge_rows_stay_finite():
    # squares of rows near 1e200 overflow; the norm itself does not
    from cocyclelab.cones import _true_norm
    tr = rademacher_trace(5, 10)
    tr.values = tr.values * 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norms = tr.norms
    assert np.isfinite(norms).all() and norms[1:].min() > 1e199
    assert np.array_equal(norms, np.stack([_true_norm(row) for row in tr.values]))


def test_coboundary_sums_stay_bounded():
    sysm = cl.rotation("golden")
    phi = cl.coboundary_of(cl.parse_observable("sin2pi(frac)"))
    st0 = cl.sample_initial(sysm, 5)
    tr = cl.ergodic_sums(sysm, phi, st0, 10_000, checkpoint_every=None)
    data = cl.orbit_span(sysm, st0, 0, 10_000)
    psi = cl.parse_observable("sin2pi(frac)").evaluate(data, 0, 10_000)[:, 0]
    assert np.max(np.abs(tr.values[:, 0] - (psi - psi[0]))) <= 1e-12
    assert np.max(tr.norms) <= 2.0 + 1e-12


def test_negative_N_is_a_config_error():
    sysm = cl.rotation("golden", seed=3)
    st0 = cl.sample_initial(sysm, 1)
    for sums in (cl.ergodic_sums, cl.reverse_sums):
        with pytest.raises(cl.ConfigInvalid) as err:
            sums(sysm, half_obs(), st0, -3)
        assert err.value.field == "N"
        assert sums(sysm, half_obs(), st0, 0).values.tolist() == [[0.0]]


@pytest.mark.parametrize("sysm, obs", [
    (cl.iid_shift("rademacher", d=2, seed=8), cl.iid_increment("rademacher", 2)),
    (cl.doubling(seed=8), half_obs()),
], ids=["iid-shift", "doubling"])
def test_a_kept_trace_keeps_no_increment_cache(sysm, obs):
    # the sweep reads its draws as a pure function of the key and the index;
    # the trace's state0 is a plain value that holds no rows, and a restart
    # from state_at reads the same draws
    st0 = cl.sample_initial(sysm, 3)
    tr = cl.ergodic_sums(sysm, obs, st0, 2 * eng.BLOCK + 5)
    assert tr.state0 is st0
    assert vars(st0).keys() == {"index", "coords", "origin", "traj_key"}
    assert cl.cocycle_identity_check(tr, 4096 * 5, eng.BLOCK) == 0.0


def test_a_restart_stores_no_checkpoint(monkeypatch):
    # the second pass of the identity check goes through the public entry
    # point of the trace's own direction, and its trace, like every trace,
    # holds no checkpoints (the benchmark's tracer counts them)
    sysm = cl.cat_map(seed=2)
    obs = cl.parse_observable("frac-0.5")
    for sums in ("ergodic_sums", "reverse_sums"):
        tr = getattr(cl, sums)(sysm, obs, cl.sample_initial(sysm, 4), 600)
        real, restarts = getattr(eng, sums), []

        def recorded(*args, **kwargs):
            restarts.append(real(*args, **kwargs))
            return restarts[-1]

        monkeypatch.setattr(eng, sums, recorded)
        for n, p in ((1, 1), (37, 400), (300, 300)):
            res = cl.cocycle_identity_check(tr, n, p)
            kept = real(sysm, obs, cl.state_at(sysm, tr.state0, tr.direction * n), p)
            want = tr.values[n + p] - tr.values[n] - kept.values[p]
            assert res == float(np.linalg.norm(want))
        assert len(restarts) == 3 and all(len(r.checkpoints) == 0 for r in restarts)
        assert len(tr.checkpoints) == 0


@pytest.mark.parametrize("system, text", [
    (cl.rotation("golden", seed=7), "indicator(0.0,0.5)-0.5"),
    (cl.iid_shift("rademacher", d=2, seed=7), "iid(rademacher, d=2)"),
    (cl.cat_map(seed=7), "[indicator(0.0,0.5)-0.5, 2*indicator(0.25,0.75)-1]"),
], ids=["rotation", "iid-shift", "cat-map"])
def test_reverse_traces_satisfy_the_reverse_identity(system, text):
    # R_{n+p}(x) = R_n(x) + R_p(T^{-n} x): the fresh pass runs backwards from
    # T^{-n} x. Lattice sums are exact, so the residual is 0.0 at n, p on
    # either side of block edges (a forward fresh pass read 1.0, 11.7 and
    # 55.5 here at n = 1024, p = 1000)
    obs = cl.parse_observable(text)
    assert eng._exact(obs, 3 * eng.BLOCK)
    tr = cl.reverse_sums(system, obs, cl.sample_initial(system, 2), 2 * eng.BLOCK + 2)
    for n, p in ((1024, 1000), (eng.BLOCK - 1, 2), (1, eng.BLOCK), (eng.BLOCK + 1, eng.BLOCK + 1),
                 (0, 2 * eng.BLOCK + 2), (2 * eng.BLOCK + 2, 0)):
        assert cl.cocycle_identity_check(tr, n, p) == 0.0, (n, p)


def test_identity_check_refuses_steps_outside_the_trace():
    # a negative n or p would read values[-k]; it fails as n + p > N does
    tr = cl.ergodic_sums(cl.rotation("golden"), half_obs(), rot_state(0.2), 50)
    for n, p in ((30, 21), (-1, 5), (5, -1), (-3, 40)):
        with pytest.raises(ValueError, match="n \\+ p <= N = 50"):
            cl.cocycle_identity_check(tr, n, p)
    assert cl.cocycle_identity_check(tr, 0, 50) == 0.0


def test_a_planar_walk_holds_its_values_and_one_block():
    # the sweep keeps no draws behind its latest read: the peak is the
    # (N+1, 2) values, 16 bytes a step, plus block-sized temporaries
    # (a cache that kept every row took about 51 bytes a step at 2^20)
    sysm = cl.iid_shift("rademacher", d=2, seed=9)
    obs = cl.iid_increment("rademacher", 2)
    st0 = cl.sample_initial(sysm, 1)
    N = 1 << 20
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cl.ergodic_sums(sysm, obs, st0, N, checkpoint_every=None)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / N < 30


@pytest.mark.parametrize("law", ["rademacher", "gaussian"])
def test_a_far_start_sweep_holds_no_draws_below_its_start(law):
    # 2^16 steps from 2^22 steps either side of the origin, in both
    # directions, on a cold memo: the rows skipped to reach the start are
    # drawn a scratch block at a time and not kept. The far start adds
    # under 4 MB to the peak of the same sweep from index 0 (it added 64 MB
    # when skipped rows were kept); the Rademacher sweep, summed on the
    # float64 lattice route, peaks under 4 MB in all. The gaussian sweep's
    # own peak, about 7 MB, is its longdouble block accumulation
    sysm = cl.iid_shift(law, d=2, seed=6)
    obs = cl.iid_increment(law, 2)
    origin = cl.sample_initial(sysm, 2)

    def peak(sums, start):
        cl.systems._marks.cache_clear()
        st0 = cl.state_at(sysm, origin, start)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sums(sysm, obs, st0, 1 << 16, checkpoint_every=None)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    for sums in (cl.ergodic_sums, cl.reverse_sums):
        near = peak(sums, 0)
        for start in (1 << 22, -(1 << 22)):
            far = peak(sums, start)
            assert far - near < 4 * 2**20
            if law == "rademacher":
                assert far < 4 * 2**20


def test_a_sweep_below_the_origin_peaks_as_one_above_it():
    # rows below the origin are a stream read backwards, handed on as a
    # reversed view and not copied: with a warm memo, 2^16 steps from -2^22
    # peak within 10% of 2^16 steps from +2^22 (the copy read 3.0 MB
    # against 2.0)
    sysm = cl.iid_shift("rademacher", d=2, seed=6)
    obs = cl.iid_increment("rademacher", 2)
    origin = cl.sample_initial(sysm, 2)

    def peak(start):
        st0 = cl.state_at(sysm, origin, start)
        cl.ergodic_sums(sysm, obs, st0, 1 << 16)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            cl.ergodic_sums(sysm, obs, st0, 1 << 16)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    assert peak(-(1 << 22)) <= 1.1 * peak(1 << 22)


_PROP_TRACE = cl.ergodic_sums(
    cl.iid_shift("rademacher", d=2, seed=21),
    cl.iid_increment("rademacher", 2),
    cl.sample_initial(cl.iid_shift("rademacher", d=2, seed=21), 0),
    1800)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=900), st.integers(min_value=1, max_value=900))
def test_additivity_property(n, p):
    assert cl.cocycle_identity_check(_PROP_TRACE, n, p) <= 1e-9


# Forward and reverse sums share one block loop. These are the two loops it
# replaced, kept as the reference for values.

def separate_forward_loop(system, obs, state0, N):
    values = np.zeros((N + 1, obs.d))
    carry = np.zeros(obs.d, dtype=np.longdouble)
    ext = max(1, obs.lookahead)
    off = 0
    while off < N:
        hi = min(off + eng.BLOCK, N) - 1
        data = cl.orbit_span(system, state0, off, hi + ext)
        phi = obs.evaluate(data, off, hi)
        s = np.cumsum(phi.astype(np.longdouble), axis=0) + carry
        values[off + 1:hi + 2], carry = s.astype(np.float64), s[-1]
        off = hi + 1
    return values


def separate_reverse_loop(system, obs, state0, N):
    values = np.zeros((N + 1, obs.d))
    carry = np.zeros(obs.d, dtype=np.longdouble)
    done = 0
    while done < N:
        m = min(done + eng.BLOCK, N)
        data = cl.orbit_span(system, state0, -m, -done - 1 + obs.lookahead)
        phi = obs.evaluate(data, -m, -done - 1)
        s = np.cumsum((-phi[::-1]).astype(np.longdouble), axis=0) + carry
        values[done + 1:m + 1], carry = s.astype(np.float64), s[-1]
        done = m
    return values


_GAUSS = cl.iid_shift("gaussian", d=2, seed=17)


@pytest.mark.parametrize("system, obs, state0", [
    (cl.rotation("golden", seed=5), half_obs(), rot_state(0.3)),
    (cl.rotation("golden", seed=5), cl.coboundary_of(cl.parse_observable("frac")),
     rot_state(0.3)),                                          # lookahead 1
    (_GAUSS, cl.iid_increment("gaussian", 2), cl.sample_initial(_GAUSS, 2)),
], ids=["rotation", "rotation-lookahead1", "gaussian"])
@pytest.mark.parametrize("every", [None, 1000])
def test_shared_block_loop_matches_separate_loops(system, obs, state0, every):
    # checkpoint_every is accepted and ignored: it moves no byte
    N = 2 * eng.BLOCK + 3
    assert obs.lookahead == (1 if "cob" in obs.text else 0)
    for sums, loop in ((cl.ergodic_sums, separate_forward_loop),
                       (cl.reverse_sums, separate_reverse_loop)):
        tr = sums(system, obs, state0, N, checkpoint_every=every)
        assert tr.values.tobytes() == loop(system, obs, state0, N).tobytes()
        assert len(tr.checkpoints) == 0


_KINDS = {
    "rotation": (cl.rotation("golden", seed=4), half_obs()),
    "doubling": (cl.doubling(seed=4), half_obs()),
    "cat-map": (cl.cat_map(seed=4), cl.parse_observable("frac-0.5")),
    "iid-shift": (cl.iid_shift("rademacher", d=2, seed=4), cl.iid_increment("rademacher", 2)),
}


def test_a_restart_reaches_any_step():
    # no grid of stored states: the check restarts at any n, off the
    # multiples of 1024 and 4096 that checkpoints once sat on and on both
    # sides of a block edge, in either direction; its residual is the one
    # against a fresh sweep from state_at, taken in the trace's direction
    p = eng.BLOCK + 3
    for kind, (sysm, obs) in _KINDS.items():
        state0 = cl.sample_initial(sysm, 5)
        sweeps = [(cl.ergodic_sums, 1)] + ([(cl.reverse_sums, -1)] if sysm.invertible else [])
        for sums, sign in sweeps:
            tr = sums(sysm, obs, state0, 2 * eng.BLOCK + 4)
            for n in (1, 1023, eng.BLOCK - 1, eng.BLOCK + 1):
                fresh = sums(sysm, obs, cl.state_at(sysm, state0, sign * n), p)
                want = np.linalg.norm(tr.values[n + p] - tr.values[n] - fresh.values[p])
                got = cl.cocycle_identity_check(tr, n, p)
                assert got == float(want) and got <= 1e-9, (kind, sign, n)


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_sums_evaluate_each_orbit_row_once(monkeypatch, kind):
    # linear in N: a sweep reads N orbit rows plus a lookahead row per block,
    # counted where the engine and the systems module ask for spans
    sysm, obs = _KINDS[kind]
    real, rows = cl.systems.orbit_span, []

    def counted(system, state, lo, hi):
        rows.append(hi - lo + 1)
        return real(system, state, lo, hi)

    monkeypatch.setattr(eng, "orbit_span", counted)
    monkeypatch.setattr(cl.systems, "orbit_span", counted)
    N = 3 * eng.BLOCK + 5
    blocks = -(-N // eng.BLOCK)
    sums = [cl.ergodic_sums] + ([cl.reverse_sums] if sysm.invertible else [])
    for fn in sums:
        rows.clear()
        tr = fn(sysm, obs, cl.sample_initial(sysm, 1), N, checkpoint_every=None)
        assert tr.N == N
        assert len(rows) == blocks and sum(rows) <= N + 2 * blocks
    assert len(sums) == (1 if kind == "doubling" else 2)


# Lattice observables: every value on 2^-m Z, at most B in size. Within the
# bound n * B * 2^m <= 2^53 the engine sums them in float64, which is exact;
# the longdouble loops above are the reference for their bytes. The last two
# cases stay on the longdouble route: 0.3 is dyadic only with m = 54, and
# 2^52 is one step short of the bound at n = 3.
_ROT = cl.rotation("golden", seed=5)
_DBL = cl.doubling(seed=5)
_LATTICE = {
    "rademacher-d1": (cl.iid_shift("rademacher", d=1, seed=6), "iid(rademacher, d=1)"),
    "rademacher-d2": (cl.iid_shift("rademacher", d=2, seed=6), "iid(rademacher, d=2)"),
    "rademacher-d3": (cl.iid_shift("rademacher", d=3, seed=6), "iid(rademacher, d=3)"),
    "rotation-half": (_ROT, "indicator(0.0,0.5)-0.5"),
    "doubling-half": (_DBL, "indicator(0.0,0.5)-0.5"),
    "negative-zero": (_ROT, "-indicator(0.0,0.5)"),
    "vector": (_ROT, "[indicator(0.0,0.5)-0.5, 2*indicator(0.25,0.75)-1]"),
    "cobdrift": (_ROT, "cobdrift(h=indicator(0.0,0.5),c=[0.25])"),
    "negated-factor": (_ROT, "indicator(0.0,0.5)*-3"),
}
_LONGDOUBLE = {
    "not-dyadic": (_ROT, "indicator(0.0,0.3)-0.3"),
    "past-the-bound": (_ROT, "indicator(0.0,0.5)*4503599627370496"),
}


def _induce_set(system, N):
    # a set and a number of returns whose scan reads about N steps
    if system.kind == "iid-shift":
        return cl.cylinder_positive(0), N // 2
    return cl.interval(0.0, 1.0), N


@pytest.mark.parametrize("name", [*_LATTICE, *_LONGDOUBLE])
def test_lattice_sums_match_the_longdouble_loops(name):
    system, text = {**_LATTICE, **_LONGDOUBLE}[name]
    obs = cl.parse_observable(text)
    N = 3 * eng.BLOCK + 5
    assert eng._exact(obs, N) == (name in _LATTICE)
    if name == "past-the-bound":
        assert eng._exact(obs, 2) and not eng._exact(obs, 3)
    state0 = cl.sample_initial(system, 3)
    runs = [(cl.ergodic_sums, separate_forward_loop)]
    if system.invertible:
        runs.append((cl.reverse_sums, separate_reverse_loop))
    for sums, loop in runs:
        tr = sums(system, obs, state0, N)
        assert tr.values.tobytes() == loop(system, obs, state0, N).tobytes()
    if name == "negative-zero":          # phi is -0.0 off [0, 0.5), the sums +0.0
        zero = cl.evaluate_at(system, obs, rot_state(0.75))
        assert zero[0] == 0.0 and np.signbit(zero[0])
    # induced values are the same sums read at the return times
    B, n_returns = _induce_set(system, N)
    start = cl.first_entry(system, B, state0, 1000)
    it = cl.induced_trace(system, obs, B, start, n_returns, 1000)
    values = separate_forward_loop(system, obs, start, int(it.return_times[-1]))
    assert it.return_times[-1] > 2 * eng.BLOCK
    assert it.values[1:].tobytes() == values[it.return_times].tobytes()


@pytest.mark.parametrize("name", sorted(_LATTICE))
def test_lattice_identity_residual_is_exactly_zero(name):
    system, text = _LATTICE[name]
    obs = cl.parse_observable(text)
    tr = cl.ergodic_sums(system, obs, cl.sample_initial(system, 4), 3 * eng.BLOCK + 5)
    for n, p in ((4096, eng.BLOCK), (15 * 4096, 4096), (16 * 4096, 2 * eng.BLOCK + 5),
                 (17 * 4096, eng.BLOCK + 1)):
        assert cl.cocycle_identity_check(tr, n, p) == 0.0


def _count_routes(monkeypatch):
    # the exact flag of every block the engine accumulates, from sweeps and
    # return-time scans alike: both run the engine's one block loop
    real, flags = eng._accumulate, []

    def counted(phi, carry, out, exact):
        flags.append(exact)
        return real(phi, carry, out, exact)

    monkeypatch.setattr(eng, "_accumulate", counted)
    return flags


@pytest.mark.parametrize("system, text, wide", [
    *((system, text, 0) for system, text in _LATTICE.values()),
    *((system, text, 4) for system, text in _LONGDOUBLE.values()),
    (_ROT, "frac-0.5", 4),
    (_ROT, "indicator(0.0,0.5)/2", 4),
    (cl.iid_shift("gaussian", d=2), "iid(gaussian, d=2)", 4),
], ids=[*_LATTICE, *_LONGDOUBLE, "frac", "division", "gaussian"])
def test_lattice_blocks_skip_the_longdouble_route(monkeypatch, system, text, wide):
    # N spans four blocks: a lattice observable within the bound runs none of
    # them in longdouble, any other observable all four, both ways
    flags = _count_routes(monkeypatch)
    obs = cl.parse_observable(text)
    state0 = cl.sample_initial(system, 2)
    sums = [cl.ergodic_sums] + ([cl.reverse_sums] if system.invertible else [])
    for fn in sums:
        flags.clear()
        fn(system, obs, state0, 3 * eng.BLOCK + 5, checkpoint_every=None)
        assert len(flags) == 4 and flags.count(False) == wide


def test_sums_leave_the_float64_route_where_the_bound_fails(monkeypatch):
    # values 0 or 2^36: sums over 2^17 steps reach 2^53 exactly and no
    # further, so a sweep's third block and the scan block past 2^17 steps
    # (induce has its own block length) take the longdouble route
    flags = _count_routes(monkeypatch)
    obs = cl.parse_observable("indicator(0.0,0.5)*68719476736")
    state0 = cl.sample_initial(_ROT, 1)
    cl.ergodic_sums(_ROT, obs, state0, 4 * eng.BLOCK, checkpoint_every=None)
    assert flags == [True, True, False, False]
    flags.clear()
    it = cl.induced_trace(_ROT, obs, cl.interval(0.0, 1.0), state0, 4 * eng.BLOCK, 10)
    exact = (1 << 17) // cl.induce.BLOCK
    assert flags == [True] * exact + [False] * exact
    values = separate_forward_loop(_ROT, obs, state0, 4 * eng.BLOCK)
    assert it.values.tobytes() == values.tobytes()
