"""Partial-sum engine: additivity, skew product, reverse sums, checkpoints."""

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
    tr = cl.ergodic_sums(cl.rotation("sqrt2m1"), half_obs(), rot_state(0.0), 10,
                         checkpoint_every=1)
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


def test_skew_step_fiber():
    sysm = cl.rotation("sqrt2m1")
    obs = half_obs()
    state = (rot_state(0.0), np.zeros(1))
    for _ in range(3):
        state = cl.skew_step(sysm, obs, state)
    x3, y3 = state
    assert x3.index == 3
    assert y3[0] == pytest.approx(0.5, abs=1e-12)


def test_reverse_sums_constant():
    rev = cl.reverse_sums(cl.rotation("golden"), cl.constant(0.3), rot_state(0.5), 5)
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


def test_coboundary_sums_stay_bounded():
    sysm = cl.rotation("golden")
    phi = cl.coboundary_of(cl.parse_observable("sin2pi(frac)"))
    st0 = cl.sample_initial(sysm, 5)
    tr = cl.ergodic_sums(sysm, phi, st0, 10_000, checkpoint_every=None)
    data = cl.orbit_span(sysm, st0, 0, 10_000)
    psi = cl.parse_observable("sin2pi(frac)").evaluate(data, 0, 10_000)[:, 0]
    assert np.max(np.abs(tr.values[:, 0] - (psi - psi[0]))) <= 1e-12
    assert np.max(tr.norms) <= 2.0 + 1e-12


def test_checkpoints_match_direct_states():
    sysm = cl.cat_map()
    st0 = cl.sample_initial(sysm, 6)
    tr = cl.ergodic_sums(sysm, cl.parse_observable("frac-0.5"), st0, 100,
                         checkpoint_every=16)
    direct = cl.state_at(sysm, st0, 32)
    assert np.all(np.abs(tr.state_at_step(32).coords - direct.coords) <= 1e-12)
    with pytest.raises(cl.MissingCheckpoint):
        tr.state_at_step(33)


_PROP_TRACE = cl.ergodic_sums(
    cl.iid_shift("rademacher", d=2, seed=21),
    cl.iid_increment("rademacher", 2),
    cl.sample_initial(cl.iid_shift("rademacher", d=2, seed=21), 0),
    1800, checkpoint_every=1)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=900), st.integers(min_value=1, max_value=900))
def test_additivity_property(n, p):
    assert cl.cocycle_identity_check(_PROP_TRACE, n, p) <= 1e-9


def test_none_stores_no_checkpoints():
    sysm = cl.rotation("golden", seed=3)
    st0 = cl.sample_initial(sysm, 1)
    bare = cl.ergodic_sums(sysm, half_obs(), st0, 3000, checkpoint_every=None)
    huge = cl.ergodic_sums(sysm, half_obs(), st0, 3000, checkpoint_every=1 << 62)
    assert bare.checkpoints == {} and huge.checkpoints == {}
    assert np.array_equal(bare.values, huge.values)
    back = cl.reverse_sums(sysm, half_obs(), st0, 3000, checkpoint_every=None)
    assert back.checkpoints == {}
    with pytest.raises(cl.MissingCheckpoint):
        bare.state_at_step(1024)


# Forward and reverse sums share one block loop. These are the two loops it
# replaced, kept verbatim as the reference for values and checkpoints.

def separate_forward_loop(system, obs, state0, N, checkpoint_every):
    values = np.zeros((N + 1, obs.d))
    checkpoints = {}
    carry = np.zeros(obs.d, dtype=np.longdouble)
    ext = max(1, obs.lookahead)
    off = 0
    while off < N:
        hi = min(off + eng.BLOCK, N) - 1
        data = cl.orbit_span(system, state0, off, hi + ext)
        phi = obs.evaluate(data, off, hi)
        s = np.cumsum(phi.astype(np.longdouble), axis=0) + carry
        values[off + 1:hi + 2], carry = s.astype(np.float64), s[-1]
        for k in eng._grid(off + 1, hi + 1, checkpoint_every):
            checkpoints[k] = eng._checkpoint_state(system, state0, data, k)
        off = hi + 1
    return values, checkpoints


def separate_reverse_loop(system, obs, state0, N, checkpoint_every):
    values = np.zeros((N + 1, obs.d))
    checkpoints = {}
    carry = np.zeros(obs.d, dtype=np.longdouble)
    done = 0
    while done < N:
        m = min(done + eng.BLOCK, N)
        data = cl.orbit_span(system, state0, -m, -done - 1 + obs.lookahead)
        phi = obs.evaluate(data, -m, -done - 1)
        s = np.cumsum((-phi[::-1]).astype(np.longdouble), axis=0) + carry
        values[done + 1:m + 1], carry = s.astype(np.float64), s[-1]
        for k in eng._grid(done + 1, m, checkpoint_every):
            checkpoints[-k] = eng._checkpoint_state(system, state0, data, -k)
        done = m
    return values, checkpoints


def same_state(a, b):
    return (a.index == b.index and a.origin == b.origin and a.traj_key == b.traj_key
            and (a.coords is None) == (b.coords is None)
            and (a.coords is None or a.coords.tobytes() == b.coords.tobytes()))


_GAUSS = cl.iid_shift("gaussian", d=2, seed=17)


@pytest.mark.parametrize("system, obs, state0", [
    (cl.rotation("golden", seed=5), half_obs(), rot_state(0.3)),
    (cl.rotation("golden", seed=5), cl.coboundary_of(cl.parse_observable("frac")),
     rot_state(0.3)),                                          # lookahead 1
    (_GAUSS, cl.iid_increment("gaussian", 2), cl.sample_initial(_GAUSS, 2)),
], ids=["rotation", "rotation-lookahead1", "gaussian"])
@pytest.mark.parametrize("every", [None, 1000])
def test_shared_block_loop_matches_separate_loops(system, obs, state0, every):
    N = 2 * eng.BLOCK + 3
    assert obs.lookahead == (1 if "cob" in obs.text else 0)
    for sums, loop in ((cl.ergodic_sums, separate_forward_loop),
                       (cl.reverse_sums, separate_reverse_loop)):
        tr = sums(system, obs, state0, N, checkpoint_every=every)
        values, checkpoints = loop(system, obs, state0, N, every)
        assert tr.values.tobytes() == values.tobytes()
        assert list(tr.checkpoints) == list(checkpoints)
        assert all(same_state(tr.checkpoints[k], checkpoints[k]) for k in checkpoints)
