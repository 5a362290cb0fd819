"""Cone occupation times of interpolated partial-sum paths."""

import tracemalloc

import numpy as np
import pytest

import cocyclelab as cl
from cocyclelab import AngularCone, BallWindow, Complement, HalfSpace, Orthant
from cocyclelab import cli
from cocyclelab import sojourn as so
from cocyclelab.cones import ROWS

HALF_PLANE = HalfSpace([0.0, 1.0])


def rademacher_trace(seed: int, n: int) -> cl.CocycleTrace:
    sysm = cl.iid_shift("rademacher", d=2, seed=seed)
    return cl.ergodic_sums(sysm, cl.iid_increment("rademacher", 2),
                           cl.sample_initial(sysm, seed), n, checkpoint_every=None)


def hand_trace(points) -> cl.CocycleTrace:
    vals = np.asarray(points, dtype=np.float64)
    return cl.CocycleTrace(None, None, None, len(vals) - 1, vals)


def interpolated_value(trace: cl.CocycleTrace, n: int, s) -> np.ndarray:
    """W_n(s); vectorized over s. s = k/n returns S_k exactly."""
    V = so._walk(trace, n)
    P0, P1 = V[:-1], V[1:]
    s = np.asarray(s, dtype=np.float64)
    if np.any((s < 0.0) | (s > 1.0)):
        raise cl.ConfigInvalid("s", "need 0 <= s <= 1")
    k = np.minimum((n * s).astype(np.int64), n - 1)
    frac = n * s - k
    return P0[k] + frac[..., None] * (P1[k] - P0[k])


def quadrature_tau(tr, n, cone, pts=100_000) -> float:
    # independent oracle: midpoint rule along the interpolated path
    s = (np.arange(pts) + 0.5) / pts
    return float(np.mean(cone.contains(interpolated_value(tr, n, s))))


def test_interpolation_endpoints_and_lattice():
    tr = rademacher_trace(2, 64)
    assert np.array_equal(interpolated_value(tr, 64, 0.0), np.zeros(2))
    assert np.array_equal(interpolated_value(tr, 64, 1.0), tr.values[64])
    for k in (1, 13, 40):
        assert np.array_equal(interpolated_value(tr, 64, k / 64), tr.values[k])
    mid = interpolated_value(tr, 64, 10.5 / 64)
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
        scaled = cl.CocycleTrace(tr.system, tr.obs, tr.state0, tr.N, c * tr.values)
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


# sojourn_series before it folded the segments in blocks, kept verbatim as
# the reference: four arrays as long as the top horizon

def sojourn_series_before(trace, cone, grid=None):
    ns = so.dyadic_grid(trace.N) if grid is None else np.asarray(grid, dtype=np.int64)
    if len(ns) == 0 or ns.min() < 1 or ns.max() > trace.N:
        raise cl.ConfigInvalid("grid", "grid horizons must lie in [1, N]")
    top = int(ns.max())
    V = so._walk(trace, top)
    P0, P1 = V[:-1], V[1:]
    frac_cum = np.cumsum(cone.segment_fraction(P0, P1))
    disc_cum = np.cumsum(cone.contains(P1).astype(np.float64))
    taus = frac_cum[ns - 1] / ns
    discs = disc_cum[ns - 1] / ns
    return so.SojournSeries(ns, taus, discs)


def walk_trace(law: str, d: int, seed: int, n: int) -> cl.CocycleTrace:
    sysm = cl.iid_shift(law, d=d, seed=seed)
    return cl.ergodic_sums(sysm, cl.iid_increment(law, d), cl.sample_initial(sysm, seed), n,
                           checkpoint_every=None)


_CONES = {
    2: ["halfspace:0.6,0.8", "angular:1,0,0.5", "angular:1,1,1.7", "!angular:1,0,0.5",
        "!halfspace:0,1", "orthant:1,-1", "!orthant:1,1", "full:2"],
    3: ["halfspace:0.6,0.8,0", "angular:1,0,0,0.5", "angular:0,1,1,1.6", "!angular:1,0,0,0.5",
        "orthant:1,-1,0", "full:3"],
}
_GRIDS = [None, [ROWS - 1], [ROWS], [ROWS + 1], [2 * ROWS + 1], [3 * ROWS + 1],
          [3 * ROWS + 1, 5, ROWS, 5, 1, 2 * ROWS + 1, ROWS + 1, 2 * ROWS, 3 * ROWS + 1],
          list(range(ROWS - 3, ROWS + 4))[::-1]]


@pytest.mark.parametrize("law", ["rademacher", "gaussian", "cauchy"])
@pytest.mark.parametrize("d", [2, 3])
def test_blocked_series_equals_the_series_before(law, d):
    # dyadic, unsorted and repeated grids whose tops end a block, or one row
    # before or after it, including a lone row past two and three blocks
    tr = walk_trace(law, d, 11 + d, 3 * ROWS + 1)
    for text in _CONES[d]:
        cone = cl.parse_cone(text, d)
        for grid in _GRIDS:
            got = cl.sojourn_series(tr, cone, grid)
            want = sojourn_series_before(tr, cone, grid)
            assert got.ns.tobytes() == want.ns.tobytes(), (text, grid)
            assert got.tau.tobytes() == want.tau.tobytes(), (text, grid)
            assert got.tau_disc.tobytes() == want.tau_disc.tobytes(), (text, grid)
    # the CLI's sojourn rows, ball column included, on the same walk: the
    # ball column as it was taken before the path kernels, from one ball
    # segment pass up to the top horizon
    system = {"kind": "iid-shift", "law": law, "d": d, "seed": 11 + d}
    for k, grid in enumerate(_GRIDS):
        M = (1.0, 10.0, 100.0)[k % 3]
        text = _CONES[d][k % len(_CONES[d])]
        ns, taus, discs, ball = cli._sojourn_task(
            cl.parse_system(system), cl.parse_observable(f"iid({law},d={d})"),
            cl.parse_cone(text, d), tr.N, grid, M, 11 + d)
        want = sojourn_series_before(tr, cl.parse_cone(text, d), grid)
        assert (ns.tobytes(), taus.tobytes(), discs.tobytes()) == \
            (want.ns.tobytes(), want.tau.tobytes(), want.tau_disc.tobytes()), (text, grid)
        top = int(ns.max())
        fr = BallWindow(M).segment_fraction(tr.values[:top], tr.values[1:top + 1])
        assert ball.tobytes() == np.array([fr[:n].mean() for n in ns]).tobytes(), (M, grid)


def peak(call) -> int:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def series_peak(tr, cone) -> int:
    return peak(lambda: cl.sojourn_series(tr, cone))


@pytest.mark.parametrize("text, mb", [("halfspace:0,1", 2), ("angular:1,0,0.5", 2),
                                      ("orthant:1,-1", 3)])
def test_series_memory_is_flat_in_the_horizon(text, mb):
    # the fold keeps block-sized buffers (the orthant's unscreened closed form
    # keeps the most); the whole-array series held four arrays of N floats,
    # 8 MB at 2^18 steps and twice that at 2^19, besides the kernel's own
    cone = cl.parse_cone(text, 2)
    small = series_peak(rademacher_trace(5, 1 << 18), cone)
    large = series_peak(rademacher_trace(5, 1 << 19), cone)
    assert small < mb * 2**20
    assert large / small <= 1.2


@pytest.mark.parametrize("text", ["orthant:1,-1", "!orthant:1,1"])
def test_orthant_tau_temporaries_are_bounded_by_the_block(text):
    # the orthant kernel runs in blocks of ROWS segments: beyond the 8-byte
    # fraction a segment it holds block-sized temporaries, so 2^18 steps
    # peak near 15 bytes a segment (112 when it ran over all rows at once)
    n = 1 << 18
    tr = rademacher_trace(5, n)
    cone = cl.parse_cone(text, 2)
    want = cone.segment_fraction(tr.values[:-1], tr.values[1:]).mean()
    assert peak(lambda: cl.tau(tr, n, cone)) / n < 24
    assert cl.tau(tr, n, cone) == float(want)


def normal_walk(d: int, n: int, seed: int) -> np.ndarray:
    return np.cumsum(np.random.default_rng(seed).standard_normal((n + 1, d)), axis=0)


@pytest.mark.parametrize("text", ["halfspace:0,1", "angular:1,0,0.5", "orthant:1,-1",
                                  "!angular:1,0,0.5"])
def test_tau_discrete_counts_by_the_block(text):
    # the points inside are counted ROWS at a time, with the bytes of one
    # mean over all of them (which held 9 to 32 bytes a step at once)
    cone = cl.parse_cone(text, 2)
    tr = hand_trace(normal_walk(2, 1 << 18, 4))
    assert peak(lambda: cl.tau_discrete(tr, tr.N, cone)) < 64 * ROWS
    for n in (1, 5, ROWS, ROWS + 1, 3 * ROWS + 7, tr.N):
        assert cl.tau_discrete(tr, n, cone) == float(cone.contains(tr.values[1:n + 1]).mean())


@pytest.mark.parametrize("text, d", [("orthant:1,-1", 2), ("angular:1,0,0,0.5", 3)])
def test_unscreened_path_kernels_are_bounded_by_the_block(text, d):
    # a kernel with no screen takes its closed form and its end membership
    # ROWS segments at a time: besides the 9 bytes a segment it returns, it
    # holds one block's temporaries (membership over the whole walk held 32
    # to 40 bytes a segment)
    cone = cl.parse_cone(text, d)
    n = 1 << 19
    V = normal_walk(d, n, 6)
    assert peak(lambda: cone.path_fractions(V)) < 9 * n + 256 * ROWS


def trace_2d(n=40):
    return rademacher_trace(3, n)


@pytest.mark.parametrize("field, call", [
    ("ball", lambda: BallWindow(float("nan"))),
    ("ball", lambda: BallWindow(float("inf"))),
    ("ball", lambda: cl.ball_visit_frequency(trace_2d(), 40, float("nan"))),
    ("cone", lambda: HalfSpace([float("nan"), 1.0])),
    ("cone", lambda: HalfSpace([float("inf"), 0.0])),
    ("cone", lambda: AngularCone([float("nan"), 0.0], 0.5)),
    ("cone", lambda: AngularCone([float("inf"), 0.0], 0.5)),
    ("cone", lambda: cl.sojourn_series(trace_2d(), cl.parse_cone("angular:1,0,0,0.5"))),
    ("cone", lambda: cl.tau(trace_2d(), 40, cl.parse_cone("halfspace:0,0,1"))),
    ("cone", lambda: cl.tau_discrete(trace_2d(), 40, Orthant([1, 1, 1]))),
], ids=["ball-nan", "ball-inf", "frequency-nan", "halfspace-nan", "halfspace-inf",
        "angular-nan", "angular-inf", "series-3d-on-2d", "tau-3d-on-2d", "disc-3d-on-2d"])
def test_cone_and_ball_inputs_are_config_errors(field, call):
    # each read a number (0.0, 1.0 or nan) or raised an untyped numpy error
    with pytest.raises(cl.ConfigInvalid) as err:
        call()
    assert err.value.field == field
