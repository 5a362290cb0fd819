"""Running-minimum decomposition of scalar ergodic sums and growth labels."""

import numpy as np
import pytest

import cocyclelab as cl

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def rot_state(x: float) -> cl.SystemState:
    return cl.SystemState(0, coords=np.array([x]), origin=x)


def test_constant_positive_min_is_flat():
    mp = cl.min_process(cl.rotation("golden"), cl.parse_observable("0.3"), rot_state(0.1), 50)
    assert np.all(mp.m[1:] == 0.3)
    assert mp.phi0 == 0.3


def test_constant_negative_min_is_linear():
    mp = cl.min_process(cl.rotation("golden"), cl.parse_observable("-1.0"), rot_state(0.1), 50)
    assert np.array_equal(mp.m[1:], -np.arange(1.0, 52.0))


def test_min_process_matches_direct_oracle():
    # oracle: rebuild the orbit and partial sums from the closed form
    obs = cl.centered_indicator(0.0, 0.5)
    for x0 in np.linspace(0.05, 0.95, 10):
        mp = cl.min_process(cl.rotation("golden"), obs, rot_state(x0), 200)
        n = np.arange(202)
        xs = (x0 + GOLDEN * n) % 1.0
        S = np.cumsum((xs[:-1] < 0.5) - 0.5)
        want = np.minimum.accumulate(S)
        assert np.max(np.abs(mp.m[1:] - want)) <= 1e-12


def test_min_is_monotone_and_split_is_disjoint():
    sysm = cl.doubling(seed=2)
    mp = cl.min_process(sysm, cl.centered_indicator(0.2, 0.9),
                        cl.sample_initial(sysm, 1), 500)
    m = mp.m[1:]
    assert np.all(np.diff(m) <= 0.0)
    m_plus, m_minus = np.maximum(mp.m, 0.0), np.maximum(-mp.m, 0.0)
    assert np.array_equal(m, m_plus[1:] - m_minus[1:])
    assert np.all(m_plus[1:] * m_minus[1:] == 0.0)


def test_decomposition_residual_vanishes():
    rot = cl.rotation("golden")
    cob = cl.coboundary_of(cl.parse_observable("sin2pi(frac)"))
    drift = cl.coboundary_of(cl.parse_observable("frac"), drift=[1.0])
    for obs in (cob, drift, cl.centered_indicator(0.0, 0.5)):
        for s in range(5):
            for N in (10, 100, 347):
                resid = cl.min_process(rot, obs, cl.sample_initial(rot, s),
                                       N).decomposition_residual()
                assert resid <= 1e-12


def test_vector_observables_are_rejected():
    with pytest.raises(cl.ConfigInvalid):
        cl.min_process(cl.iid_shift("gaussian", d=2),
                       cl.iid_increment("gaussian", 2),
                       cl.sample_initial(cl.iid_shift("gaussian", d=2), 0), 10)


_ROT = cl.rotation("golden")
_HALF = cl.centered_indicator(0.0, 0.5)
_DEGENERATE = {
    "classify-no-seeds": ("seeds", lambda: cl.classify_oscillation(_ROT, _HALF, [], 64)),
    "kac-no-seeds": ("seeds", lambda: cl.kac_statistic(_ROT, cl.interval(0.0, 0.5), 10, [])),
    "kac-no-returns": ("returns",
                       lambda: cl.kac_statistic(_ROT, cl.interval(0.0, 0.5), 0, [1])),
    "kesten-N0": ("N", lambda: cl.kesten_rate(_ROT, _HALF, [1], 0)),
    "min-N-1": ("N", lambda: cl.min_process(_ROT, _HALF, rot_state(0.1), -1)),
    "min-N0": ("N", lambda: cl.min_process(_ROT, _HALF, rot_state(0.1), 0)),
}


@pytest.mark.parametrize("name", sorted(_DEGENERATE))
def test_degenerate_inputs_are_config_errors(name):
    # each once gave a verdict from no data, a nan, or an IndexError or
    # ValueError from deep inside; now a typed error names the field
    field, call = _DEGENERATE[name]
    with pytest.raises(cl.ConfigInvalid) as err:
        call()
    assert err.value.field == field


def test_classify_series_synthetic():
    assert cl.classify_series(0.1 * np.arange(2000.0)) == "to+inf"
    assert cl.classify_series(-0.1 * np.arange(2000.0)) == "to-inf"
    assert cl.classify_series(np.zeros(100)) == "inconclusive"
    with pytest.raises(cl.ConfigInvalid):
        cl.classify_series(np.zeros(7))   # below the N >= 8 floor


def test_classify_centered_rotation_oscillates():
    report = cl.classify_oscillation(cl.rotation("golden"),
                                     cl.centered_indicator(0.0, 0.5),
                                     range(16), 1 << 14)
    assert report.verdict == "oscillates"
    # a few short seeds stay inconclusive at this length; none drift off
    assert report.per_seed.count("oscillates") >= 12
    assert "to+inf" not in report.per_seed and "to-inf" not in report.per_seed


def test_classify_drift_goes_up():
    drift = cl.coboundary_of(cl.parse_observable("frac"), drift=[1.0])
    report = cl.classify_oscillation(cl.rotation("golden"), drift, range(6), 1 << 13)
    assert report.verdict == "to+inf"
    assert report.per_seed.count("to+inf") == 6


def test_kesten_rate_matches_drift():
    drift = cl.coboundary_of(cl.parse_observable("frac"), drift=[1.0])
    rates = cl.kesten_rate(cl.rotation("golden"), drift, range(3), 10_000)
    assert np.all(np.abs(rates - 1.0) <= 0.05)


def test_heavy_tail_witness_separates_full_from_induced():
    # the transfer term is heavy near 1: full-orbit sums keep dipping
    # below any level, while sums induced on [0, 1/2) ride the drift up
    wobs = cl.parse_observable("cobdrift(h=-pow(floor(1/(1-frac)),2)*indicator(0.5,1),c=[1])")
    rot = cl.rotation("golden")
    B = cl.interval(0.0, 0.5)
    for s in range(6):
        st0 = cl.sample_initial(rot, s)
        full = cl.ergodic_sums(rot, wobs, st0, 1 << 15, checkpoint_every=None)
        assert cl.classify_series(full.values[:, 0], level=100.0) == "oscillates"
        stB = cl.first_entry(rot, B, st0, 10_000_000)
        induced = cl.induced_trace(rot, wobs, B, stB, 2000, 10_000_000)
        assert cl.classify_series(induced.values[:, 0]) == "to+inf"
