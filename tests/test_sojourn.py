"""Cone occupation times of interpolated partial-sum paths."""

import numpy as np
import pytest

import cocyclelab as cl
from cocyclelab import AngularCone, Complement, HalfSpace, Orthant
from cocyclelab import sojourn as so

HALF_PLANE = HalfSpace([0.0, 1.0])


def rademacher_trace(seed: int, n: int) -> cl.CocycleTrace:
    sysm = cl.iid_shift("rademacher", d=2, seed=seed)
    return cl.ergodic_sums(sysm, cl.iid_increment("rademacher", 2),
                           cl.sample_initial(sysm, seed), n, checkpoint_every=None)


def hand_trace(points) -> cl.CocycleTrace:
    vals = np.asarray(points, dtype=np.float64)
    return cl.CocycleTrace(None, None, None, len(vals) - 1, vals, {}, None)


def quadrature_tau(tr, n, cone, pts=100_000) -> float:
    # independent oracle: midpoint rule along the interpolated path
    s = (np.arange(pts) + 0.5) / pts
    return float(np.mean(cone.contains(cl.interpolated_value(tr, n, s))))


def test_interpolation_endpoints_and_lattice():
    tr = rademacher_trace(2, 64)
    assert np.array_equal(cl.interpolated_value(tr, 64, 0.0), np.zeros(2))
    assert np.array_equal(cl.interpolated_value(tr, 64, 1.0), tr.values[64])
    for k in (1, 13, 40):
        assert np.array_equal(cl.interpolated_value(tr, 64, k / 64), tr.values[k])
    mid = cl.interpolated_value(tr, 64, 10.5 / 64)
    assert np.allclose(mid, 0.5 * (tr.values[10] + tr.values[11]), atol=1e-12)


def test_two_segment_hand_path():
    # (0,0) -> (1,1) stays in the upper half plane, (1,1) -> (1,-1) leaves
    # at the midpoint: fractions 1 and 1/2, so tau = 3/4
    tr = hand_trace([[0.0, 0.0], [1.0, 1.0], [1.0, -1.0]])
    assert cl.tau(tr, 2, HALF_PLANE) == pytest.approx(0.75, abs=1e-12)
    assert cl.tau_discrete(tr, 2, HALF_PLANE) == pytest.approx(0.5, abs=1e-12)


def test_tau_bounds_and_complement_additivity():
    for s in range(5):
        tr = rademacher_trace(s, 300)
        for cone in (HALF_PLANE, AngularCone([1.0, 0.0], 0.9), Orthant([1, -1])):
            t1 = cl.tau(tr, 300, cone)
            t2 = cl.tau(tr, 300, cone.complement())
            assert 0.0 <= t1 <= 1.0
            assert t1 + t2 == pytest.approx(1.0, abs=1e-9)


def test_tau_scaling_is_bit_identical_for_halfspaces():
    tr = rademacher_trace(12, 500)
    base = cl.tau(tr, 500, HALF_PLANE)
    for c in (2.0, 4.0, 0.5, 1.0 / 64.0):
        scaled = cl.CocycleTrace(tr.system, tr.obs, tr.state0, tr.N,
                                 c * tr.values, {}, tr.checkpoint_every)
        assert cl.tau(scaled, 500, HALF_PLANE) == base


def test_tau_matches_quadrature():
    worst = 0.0
    for k in range(20):
        tr = rademacher_trace(300 + k, 30)
        for cone in (HALF_PLANE, AngularCone([1.0, 0.0], 0.7), Orthant([1, 1])):
            worst = max(worst, abs(cl.tau(tr, 30, cone) - quadrature_tau(tr, 30, cone)))
    assert worst <= 1e-3


def test_tau_close_to_discrete_fraction():
    for s in range(3):
        tr = rademacher_trace(s, 10_000)
        gap = abs(cl.tau(tr, 10_000, HALF_PLANE) - cl.tau_discrete(tr, 10_000, HALF_PLANE))
        assert gap <= 0.02


def test_everything_but_a_ray_is_always_occupied():
    cone = Complement(AngularCone([1.0, 0.0], 1e-9))
    ser = cl.sojourn_series(rademacher_trace(7, 4096), cone)
    assert np.all(ser.tau >= 1.0 - 1e-9)


def test_dyadic_grid():
    assert so.dyadic_grid(100).tolist() == [1, 2, 4, 8, 16, 32, 64]
    assert so.dyadic_grid(1).tolist() == [1]
    assert so.dyadic_grid(4096)[-1] == 4096


def test_sojourn_series_fields():
    tr = rademacher_trace(4, 1024)
    ser = cl.sojourn_series(tr, HALF_PLANE)
    assert ser.ns.tolist() == so.dyadic_grid(1024).tolist()
    assert len(ser.tau) == len(ser.ns) == len(ser.tau_disc)
    assert ser.running_max == np.max(ser.tau)
    assert ser.running_min == np.min(ser.tau)
    grid = np.array([10, 100, 1000])
    ser2 = cl.sojourn_series(tr, HALF_PLANE, grid)
    assert np.array_equal(ser2.ns, grid)


def test_ball_visit_frequency_hand_path():
    # interpolated occupation of the radius-1 ball, segment by segment:
    # 0->3 crosses out at 1 (1/3), 3->0.5 re-enters at 1 (0.5/2.5),
    # 0.5->10 leaves at 1 (0.5/9.5); the result averages the fractions
    tr = hand_trace([[0.0, 0.0], [3.0, 0.0], [0.5, 0.0], [10.0, 0.0]])
    expected = (1.0 / 3.0 + 0.5 / 2.5 + 0.5 / 9.5) / 3.0
    assert cl.ball_visit_frequency(tr, 3, 1.0) == pytest.approx(expected)
    assert cl.ball_visit_frequency(tr, 3, 100.0) == 1.0


def test_ball_visit_frequency_decays():
    for s in range(5):
        tr = rademacher_trace(s, 100_000)
        assert cl.ball_visit_frequency(tr, 100_000, 10.0) <= 0.05


def test_occupation_extremes_sweep_both_ends():
    # the dyadic running extremes approach full and zero occupation
    mx = mn = 0
    for s in range(100):
        ser = cl.sojourn_series(rademacher_trace(s, 100_000), HALF_PLANE)
        mx += ser.running_max >= 0.9
        mn += ser.running_min <= 0.1
    assert mx / 100 >= 0.70
    assert mn / 100 >= 0.70


def test_shift_stability_with_inflated_cone():
    # pushing the start one step inflates the cone by eps once points
    # escape the ball of radius M = b(1 + 2/eps); the occupation count
    # can only leak through the ball time plus edge effects
    eps = 0.25
    b = np.sqrt(2.0)
    M = b + 2.0 * b / eps
    n = 10_000
    axis = [1.0, 0.0]
    for s in range(10):
        sysm = cl.iid_shift("rademacher", d=2, seed=200 + s)
        obs = cl.iid_increment("rademacher", 2)
        x0 = cl.sample_initial(sysm, s)
        tr_x = cl.ergodic_sums(sysm, obs, x0, n + 1, checkpoint_every=None)
        tr_tx = cl.ergodic_sums(sysm, obs, cl.step(sysm, x0), n, checkpoint_every=None)
        for t in (0.6, 0.9, 1.2):
            narrow = AngularCone(axis, t)
            wide = AngularCone(axis, t + eps)
            edge = 2.0 / n
            assert cl.tau_discrete(tr_x, n, narrow) <= (
                cl.tau_discrete(tr_tx, n, wide)
                + cl.ball_visit_frequency(tr_x, n, M) + edge + 1e-12)
            assert cl.tau_discrete(tr_tx, n, narrow) <= (
                cl.tau_discrete(tr_x, n, wide)
                + cl.ball_visit_frequency(tr_tx, n, M) + edge + 1e-12)
            assert cl.tau(tr_x, n, narrow) <= (
                cl.tau(tr_tx, n, wide)
                + cl.ball_visit_frequency(tr_x, n, M) + edge + 0.01)
