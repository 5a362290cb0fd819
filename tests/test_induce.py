"""First-return sampling: return times, induced sums, Kac statistics."""

import numpy as np
import pytest

import cocyclelab as cl

CAP = 10_000_000


def dbl_state(x: float) -> cl.SystemState:
    return cl.SystemState(0, coords=np.array([x]), traj_key=(0, 0))


def slow_return_time(x: float, a: float, b: float) -> int:
    # independent oracle: iterate the doubling map directly; only valid
    # within the exact-orbit window, so bail out well before its end
    y = x
    for k in range(1, 40):
        y = (2.0 * y) % 1.0
        if a <= y < b:
            return k
    raise AssertionError("no return inside the exact window")


def test_return_time_examples():
    sysm = cl.doubling()
    B = cl.interval(0.0, 0.5)
    # orbit of 0.3: 0.6 (out), 0.2 (in)
    assert cl.return_time(sysm, B, dbl_state(0.3), CAP) == 2
    assert cl.return_time(sysm, B, dbl_state(0.1), CAP) == 1
    for x in (0.3, 0.1, 0.42, 0.07):
        assert cl.return_time(sysm, B, dbl_state(x), CAP) == slow_return_time(x, 0.0, 0.5)


def test_cap_exceeded():
    sysm = cl.doubling()
    B = cl.interval(0.0, 0.01)
    with pytest.raises(cl.CapExceeded):
        cl.return_time(sysm, B, dbl_state(0.005), cap=5)
    with pytest.raises(cl.CapExceeded):
        cl.induced_trace(sysm, cl.constant(1.0), B, dbl_state(0.005), 3, cap=5)


def test_base_point_must_lie_inside():
    with pytest.raises(ValueError):
        cl.induced_trace(cl.doubling(), cl.constant(1.0), cl.interval(0.0, 0.5),
                         dbl_state(0.7), 3, CAP)


def test_whole_space_reduces_to_plain_trace():
    sysm = cl.doubling(seed=1)
    obs = cl.centered_indicator(0.0, 0.5)
    st0 = cl.sample_initial(sysm, 2)
    it = cl.induced_trace(sysm, obs, cl.interval(0.0, 1.0), st0, 50, CAP)
    tr = cl.ergodic_sums(sysm, obs, st0, 50, checkpoint_every=None)
    assert np.array_equal(it.return_times, np.arange(1, 51))
    assert np.allclose(it.values, tr.values, atol=1e-12)


def test_unit_observable_sums_to_return_times():
    sysm = cl.doubling(seed=3)
    B = cl.interval(0.0, 0.5)
    st0 = cl.first_entry(sysm, B, cl.sample_initial(sysm, 0), CAP)
    it = cl.induced_trace(sysm, cl.constant(1.0), B, st0, 200, CAP)
    assert np.array_equal(it.values[1:, 0], it.return_times.astype(np.float64))


def test_sampling_identity():
    # induced sums are the full sums read at the return times
    for sysm in (cl.rotation("golden"), cl.doubling(seed=4),
                 cl.iid_shift("rademacher", d=2, seed=5)):
        if sysm.kind == "iid-shift":
            obs, B = cl.iid_increment("rademacher", 2), cl.cylinder_positive(0)
        else:
            obs, B = cl.centered_indicator(0.0, 0.5), cl.interval(0.0, 0.5)
        st0 = cl.first_entry(sysm, B, cl.sample_initial(sysm, 1), CAP)
        it = cl.induced_trace(sysm, obs, B, st0, 100, CAP)
        full = cl.ergodic_sums(sysm, obs, st0, int(it.return_times[-1]),
                               checkpoint_every=None)
        assert np.max(np.abs(full.values[it.return_times] - it.values[1:])) <= 1e-12


def test_induced_sums_are_additive():
    sysm = cl.doubling(seed=6)
    B = cl.interval(0.0, 0.5)
    obs = cl.centered_indicator(0.25, 0.75)
    st0 = cl.first_entry(sysm, B, cl.sample_initial(sysm, 0), CAP)
    it = cl.induced_trace(sysm, obs, B, st0, 60, CAP)
    for n, p in ((1, 2), (10, 25), (30, 30)):
        tail = cl.induced_trace(sysm, obs, B, it.return_state(n), p, CAP)
        resid = np.abs(it.values[n + p] - it.values[n] - tail.values[p])
        assert np.max(resid) <= 1e-12


def test_coboundary_heredity():
    # induced sums of psi(Tx) - psi(x) telescope too, so 2 sup|psi| bounds them
    sysm = cl.doubling(seed=0)
    phi = cl.coboundary_of(cl.parse_observable("sin2pi(frac)"))
    B = cl.interval(0.0, 0.5)
    st0 = cl.first_entry(sysm, B, cl.sample_initial(sysm, 3), CAP)
    it = cl.induced_trace(sysm, phi, B, st0, 500, CAP)
    assert np.max(np.abs(it.values)) <= 2.0 + 1e-9


def test_kac_whole_space_is_exact():
    mean, per_seed = cl.kac_statistic(cl.doubling(seed=1), cl.interval(0.0, 1.0),
                                      100, range(3))
    assert mean == 1.0
    assert np.all(per_seed == 1.0)


def test_kac_mean_return_times():
    mean_d, _ = cl.kac_statistic(cl.doubling(seed=0), cl.interval(0.0, 0.5),
                                 10_000, range(4))
    assert 1.9 <= mean_d <= 2.1
    mean_r, _ = cl.kac_statistic(cl.rotation("sqrt2m1"), cl.interval(0.0, 0.25),
                                 10_000, range(4))
    assert 3.9 <= mean_r <= 4.1


def test_first_entry():
    sysm = cl.doubling()
    st = cl.first_entry(sysm, cl.interval(0.0, 0.5), dbl_state(0.7), CAP)
    assert st.index == 1
    assert st.coords[0] == pytest.approx(0.4, abs=1e-12)
    inside = cl.first_entry(sysm, cl.interval(0.0, 0.5), dbl_state(0.2), CAP)
    assert inside.index == 0


def test_parse_set():
    B = cl.parse_set("interval:0,0.5")
    assert B.kind == "interval" and B.measure == pytest.approx(0.5)
    R = cl.parse_set("rect:0,0.5,0,0.5")
    assert R.kind == "rect" and R.measure == pytest.approx(0.25)
    C = cl.parse_set("cylpos:0")
    assert C.kind == "cylpos" and C.measure == pytest.approx(0.5)
    for bad in ("interval:0.5", "interval:0.7,0.2", "rect:0,1", "nonsense:1", ""):
        with pytest.raises(cl.ConfigInvalid) as err:
            cl.parse_set(bad)
        assert err.value.field == "set"


def test_set_validation_against_system():
    with pytest.raises(cl.ConfigInvalid):
        cl.cylinder_positive(0).validate_for(cl.doubling())
    with pytest.raises(cl.ConfigInvalid):
        cl.parse_set("rect:0,0.5,0,0.5").validate_for(cl.rotation("golden"))
    with pytest.raises(cl.ConfigInvalid):
        cl.interval(0.0, 0.5).validate_for(cl.iid_shift("gaussian", d=1))
    cl.parse_set("rect:0,0.5,0,0.5").validate_for(cl.cat_map())


def test_bootstrap_ci_brackets_mean():
    rng = np.random.default_rng(1)
    per_seed = 2.0 + 0.1 * rng.standard_normal(40)
    lo, hi = cl.bootstrap_ci(per_seed)
    assert lo < per_seed.mean() < hi
    assert hi - lo < 0.2
