"""Reference diffusion: simulated paths and occupation-time laws."""

import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cocyclelab as cl
from cocyclelab import AngularCone, Complement, HalfSpace
from cocyclelab import brownian as br
from cocyclelab.brownian import _check_step, _rng, ks_2samp_statistic, ks_statistic, normal_cdf

HALF_LINE = HalfSpace([1.0])


@dataclass
class BrownianPath:
    d: int
    t: float
    h: float
    seed: object
    values: np.ndarray          # (steps+1, d), starts at the origin

    @property
    def steps(self) -> int:
        return len(self.values) - 1


def simulate(d: int, t: float, h: float, seed) -> BrownianPath:
    """Euler path with exact N(0, h I) increments, from the sampler's streams."""
    _check_step(t, h)
    steps = int(round(t / h))
    inc = _rng(seed).standard_normal((steps, d)) * np.sqrt(h)
    values = np.zeros((steps + 1, d))
    np.cumsum(inc, axis=0, out=values[1:])
    return BrownianPath(d, t, h, seed, values)


def tau_brownian(path: BrownianPath, cone) -> float:
    """Occupation fraction tau_C(t)/t of the piecewise-linear path."""
    V = path.values
    return float(cone.segment_fraction(V[:-1], V[1:]).mean())


def discretization_check(cone, h: float, samples: int, seed: int = 0,
                         t: float = 1.0) -> float:
    """|mean tau at step h - mean tau at step h/2| on coupled paths.

    The coarse path is the fine path at every second vertex, so the
    difference isolates the discretization bias.
    """
    fine_mean = 0.0
    coarse_mean = 0.0
    for i in range(samples):
        path = simulate(cone.d, t, h / 2.0, (seed, i))
        coarse = BrownianPath(cone.d, t, h, (seed, i), path.values[::2].copy())
        fine_mean += tau_brownian(path, cone)
        coarse_mean += tau_brownian(coarse, cone)
    return abs(fine_mean - coarse_mean) / samples


def test_simulate_moments():
    ends = np.array([simulate(1, 2.0, 1e-2, (9, i)).values[-1, 0]
                     for i in range(10_000)])
    assert 0.95 <= ends.var() / 2.0 <= 1.05
    assert abs(ends.mean()) <= 3.0 * np.sqrt(2.0 / 10_000)


def test_simulate_is_deterministic():
    a = simulate(2, 1.0, 1e-2, 42)
    b = simulate(2, 1.0, 1e-2, 42)
    c = simulate(2, 1.0, 1e-2, 43)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert a.steps == 100 and a.values.shape == (101, 2)


def test_step_size_guard():
    with pytest.raises(cl.ConfigInvalid):
        simulate(1, 1.0, 0.02, 0)   # h > t/100
    with pytest.raises(cl.ConfigInvalid):
        simulate(1, 1.0, -1e-3, 0)
    # the sampler checks the same bound, before any step count is formed
    for t, h in [(1.0, 2.0), (1.0, 0.5), (1.0, 0.0), (-1.0, 1e-3)]:
        for cone in (HALF_LINE, cl.AngularCone([1.0, 0.0], 0.5)):
            with pytest.raises(cl.ConfigInvalid) as err:
                cl.tau_samples(cone, t, h, 3)
            assert err.value.field == "h"


def test_tau_of_hand_path():
    path = BrownianPath(1, 2.0, 1.0, None, np.array([[0.0], [1.0], [-1.0]]))
    assert tau_brownian(path, HALF_LINE) == pytest.approx(0.75, abs=1e-12)


def test_full_space_occupation_is_total():
    taus = cl.tau_samples(cl.parse_cone("full:1"), 1.0, 1e-2, 50, seed=1)
    assert np.all(taus == 1.0)


def test_mean_occupation_of_half_line():
    taus = cl.tau_samples(HALF_LINE, 1.0, 1e-3, 10_000, seed=4)
    assert abs(taus.mean() - 0.5) <= 0.01
    assert np.all((taus >= 0.0) & (taus <= 1.0))


def test_half_line_occupation_follows_arcsine_law():
    taus = cl.tau_samples(HALF_LINE, 1.0, 1e-3, 2000, seed=1)
    assert cl.arcsine_ks(taus) <= 0.04


def test_arcsine_cdf_shape():
    grid = np.linspace(0.0, 1.0, 11)
    vals = cl.arcsine_cdf(grid)
    assert vals[0] == 0.0 and vals[-1] == 1.0
    assert cl.arcsine_cdf(0.5) == pytest.approx(0.5)
    assert np.all(np.diff(vals) > 0.0)


def test_occupation_scale_invariance():
    ks = cl.scale_invariance_check(HALF_LINE, 1.0, 4.0, 2000, seed=5)
    assert ks <= 0.06


def test_tail_positivity():
    p_hat, (lo, hi) = cl.positivity_check(HALF_LINE, 0.1, 20_000, seed=2)
    assert abs(p_hat - 0.205) <= 0.01
    assert lo <= p_hat <= hi and lo > 0.0
    p_half, _ = cl.positivity_check(HALF_LINE, 0.5, 20_000, seed=2)
    assert abs(p_half - 0.5) <= 0.02


def test_positivity_alpha_guard():
    with pytest.raises(cl.ConfigInvalid):
        cl.positivity_check(HALF_LINE, 0.0, 100)
    with pytest.raises(cl.ConfigInvalid):
        cl.positivity_check(HALF_LINE, 1.0, 100)


def test_refining_the_grid_barely_moves_tau():
    drift = discretization_check(HalfSpace([0.0, 1.0]), 1e-3, 10_000, seed=3)
    assert drift <= 0.005


def test_fast_and_generic_samplers_agree():
    # a doubled complement routes the half space through the generic path
    # with the same increment stream
    fast = cl.tau_samples(HALF_LINE, 1.0, 1e-2, 500, seed=6)
    generic = cl.tau_samples(Complement(Complement(HALF_LINE)), 1.0, 1e-2, 500, seed=6)
    assert np.max(np.abs(fast - generic)) <= 1e-12


def one_shot_tau_samples(cone, t, h, samples, seed=0, batch=10_000):
    # reference: each batch drawn, summed and reduced in one piece
    steps = int(round(t / h))

    def draw(bi, shape):
        return np.random.default_rng((179, seed, bi)).standard_normal(shape) * np.sqrt(h)

    out = np.empty(samples)
    done = bi = 0
    if isinstance(cone, HalfSpace):
        while done < samples:
            m = min(batch, samples - done)
            a1 = np.cumsum(draw(bi, (m, steps)), axis=1)
            a0 = np.concatenate([np.zeros((m, 1)), a1[:, :-1]], axis=1)
            pos0, pos1 = a0 > 0.0, a1 > 0.0
            den = a0 - a1
            t0 = a0 / np.where(den == 0.0, 1.0, den)
            fr = np.where(pos0 & pos1, 1.0,
                          np.where(~pos0 & ~pos1, 0.0, np.where(pos0, t0, 1.0 - t0)))
            out[done:done + m] = fr.mean(axis=1)
            done += m
            bi += 1
        return out
    d = cone.d
    batch = max(1, min(batch, 2_000_000 // steps))
    while done < samples:
        m = min(batch, samples - done)
        inc = draw(bi, (m, steps, d))
        paths = np.concatenate([np.zeros((m, 1, d)), np.cumsum(inc, axis=1)], axis=1)
        fr = cone.segment_fraction(paths[:, :-1].reshape(-1, d),
                                   paths[:, 1:].reshape(-1, d))
        out[done:done + m] = fr.reshape(m, steps).mean(axis=1)
        done += m
        bi += 1
    return out


@pytest.mark.parametrize("cone, h, samples, batch", [
    (HALF_LINE, 1e-3, 250, 100),                       # 3 batches, 2 row blocks each
    (HalfSpace([0.0, 2.0]), 1e-2, 1500, 700),          # d = 2, 1-D projected stream
    (cl.AngularCone([1.0, 0.0], 0.5), 1e-3, 150, 100),
    (Complement(HALF_LINE), 1e-3, 150, 100),
    (Complement(HALF_LINE), 1e-5, 25, 10_000),         # rows longer than a row block
    (HALF_LINE, 1e-3, 131, 10_000),                    # a last row block of one path
    (HALF_LINE, 1e-5, 3, 10_000),                      # steps > ROW_BLOCK
    (HALF_LINE, 1e-3, 400, 150),                       # a batch of 65 + 65 + 20 rows
    (cl.AngularCone([1.0, 0.0, 0.0], 0.5), 1e-3, 150, 100),
    (cl.parse_cone("orthant:1,-1"), 1e-3, 100, 40),
    (cl.parse_cone("full:2"), 1e-2, 50, 7),
    (Complement(AngularCone([1.0, 0.0], 1.5)), 1e-3, 150, 100),   # non-convex inner cone
    (AngularCone([1.0, 0.0], 0.5), 1e-5, 3, 10_000),   # one path a row block, no separator
])
def test_row_blocks_match_one_shot_batches(monkeypatch, cone, h, samples, batch):
    monkeypatch.setattr(br, "BATCH", batch)
    got = cl.tau_samples(cone, 1.0, h, samples, seed=5)
    assert np.array_equal(got, one_shot_tau_samples(cone, 1.0, h, samples, 5, batch))


def test_repeated_calls_equal_fresh_calls(monkeypatch):
    # each call draws into buffers of its own: a call between two others, or
    # the same call again, leaves every result as a fresh call gives it
    def sample(c, h, n, b):
        monkeypatch.setattr(br, "BATCH", b)
        return cl.tau_samples(c, 1.0, h, n, seed=8)

    calls = [(HALF_LINE, 1e-3, 131, 60), (cl.AngularCone([1.0, 0.0], 0.5), 1e-3, 70, 30),
             (HalfSpace([0.6, 0.8]), 1e-2, 90, 10_000)]
    first = [sample(*call) for call in calls]
    again = [sample(*call) for call in calls[::-1]]
    for (c, h, n, b), x, y in zip(calls, first, again[::-1]):
        assert x.tobytes() == y.tobytes()
        assert x.tobytes() == one_shot_tau_samples(c, 1.0, h, n, 8, b).tobytes()


@pytest.mark.parametrize("call, field", [
    (lambda: cl.tau_samples(HALF_LINE, 1.0, 1e-3, 0), "samples"),
    (lambda: cl.tau_samples(HALF_LINE, 1.0, 1e-3, -1), "samples"),
    (lambda: cl.tau_samples(cl.AngularCone([1.0, 0.0], 0.5), 1.0, 1e-3, 0), "samples"),
    (lambda: cl.positivity_check(HALF_LINE, 0.1, 0), "samples"),
    (lambda: cl.scale_invariance_check(HALF_LINE, 1.0, 2.0, 0), "samples"),
], ids=["zero", "negative", "zero-angular", "positivity", "scale-invariance"])
def test_empty_sample_counts_are_config_errors(call, field):
    with pytest.raises(cl.ConfigInvalid) as err:
        call()
    assert err.value.field == field


@pytest.mark.parametrize("cone, n, mb", [(HALF_LINE, 2_000, 3),
                                         (AngularCone([1.0, 0.0], 0.5), 500, 5)],
                         ids=["half-line", "angular"])
def test_sampler_memory_is_flat_in_sample_count(cone, n, mb):
    # a row block's buffers and the kernel's temporaries, twice as wide in
    # the plane as on the half-line's 1-D stream
    def peak(n):
        tracemalloc.start()
        try:
            cl.tau_samples(cone, 1.0, 1e-3, n, seed=3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(n), peak(10 * n)
    assert large < mb * 2**20
    assert large / small <= 1.2


# The KS statistics are computed in numpy; scipy is the oracle here and is
# imported only inside these tests.

@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3000), st.integers(0, 2**32 - 1), st.sampled_from([0, 4, 50]))
def test_one_sample_ks_equals_scipy(n, seed, levels):
    from scipy import stats

    rng = np.random.default_rng(seed)
    x = rng.beta(0.5, 0.5, n)
    if levels:                                   # ties, and the end points 0 and 1
        x = np.round(x * levels) / levels
    assert ks_statistic(x, cl.arcsine_cdf) == stats.kstest(x, cl.arcsine_cdf).statistic


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 10_000), st.integers(1, 10_000), st.integers(0, 2**32 - 1),
       st.sampled_from([0, 3, 40]), st.booleans())
def test_two_sample_ks_equals_scipy(n1, n2, seed, levels, same_size):
    from scipy import stats

    rng = np.random.default_rng(seed)
    a = rng.random(n1)
    b = rng.random(n1 if same_size else n2) * 1.2
    if levels:                                   # ties within and across samples
        a, b = np.round(a * levels) / levels, np.round(b * levels) / levels
    assert ks_2samp_statistic(a, b) == stats.ks_2samp(a, b).statistic


def test_normal_cdf_matches_scipy():
    from scipy import stats

    x = np.concatenate([np.linspace(-40.0, 40.0, 20_001),
                        np.random.default_rng(2).standard_normal(20_000) * 3.0,
                        [0.0, -0.0, np.inf, -np.inf]])
    assert np.max(np.abs(normal_cdf(x) - stats.norm.cdf(x))) <= 1e-15
    assert normal_cdf(0.0) == 0.5 and normal_cdf(np.zeros((2, 3))).shape == (2, 3)
