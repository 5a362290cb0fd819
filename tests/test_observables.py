"""Observable grammar, evaluation, and the coboundary constructor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cocyclelab as cl

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def rot_state(x: float) -> cl.SystemState:
    return cl.SystemState(0, coords=np.array([x]), origin=x)


def eval_rot(text: str, x: float) -> np.ndarray:
    return cl.evaluate_at(cl.rotation("golden"), cl.parse_observable(text), rot_state(x))


def test_grammar_point_values():
    # oracles are the directly coded formulas
    assert eval_rot("indicator(0.25,0.75)-0.5", 0.3)[0] == pytest.approx(0.5)
    assert eval_rot("indicator(0.25,0.75)-0.5", 0.8)[0] == pytest.approx(-0.5)
    assert eval_rot("frac*2", 0.3)[0] == pytest.approx(0.6)
    assert eval_rot("sin2pi(frac)", 0.25)[0] == pytest.approx(1.0)
    assert eval_rot("cos2pi(frac)", 0.5)[0] == pytest.approx(-1.0)
    assert eval_rot("floor(1/(1-frac))", 0.75)[0] == pytest.approx(4.0)
    assert eval_rot("pow(frac,2)", 0.5)[0] == pytest.approx(0.25)
    assert eval_rot("frac**2", 0.5)[0] == pytest.approx(0.25)
    v = eval_rot("[frac, 1-frac]", 0.2)
    assert np.allclose(v, [0.2, 0.8])


def test_dimensions_and_lookahead():
    assert cl.parse_observable("frac").d == 1
    assert cl.parse_observable("[frac, frac, frac]").d == 3
    assert cl.parse_observable("frac").lookahead == 0
    # reading h at Tx needs one extra orbit point
    assert cl.parse_observable("cobdrift(h=frac,c=[0])").lookahead == 1


@pytest.mark.parametrize("text", [
    "indicator(0.5)",          # wrong arity
    "bogus(frac)",             # unknown function
    "frac +",                  # syntax error
    "import os",               # not an expression
    "indicator(0.7,0.2)",      # empty interval
    "[frac, frac] + [frac, frac, frac]",   # dimension mismatch
    "iid(bogus)",              # unknown law
])
def test_malformed_observables(text):
    with pytest.raises(cl.ConfigInvalid) as err:
        cl.parse_observable(text)
    assert err.value.field == "observable"


def test_validate_for_system():
    with pytest.raises(cl.ConfigInvalid):
        cl.parse_observable("frac").validate_for(cl.iid_shift("gaussian", d=1))
    with pytest.raises(cl.ConfigInvalid):
        cl.parse_observable("iid(gaussian, d=2)").validate_for(cl.rotation("golden"))
    with pytest.raises(cl.ConfigInvalid):
        cl.parse_observable("y").validate_for(cl.rotation("golden"))
    cl.parse_observable("y").validate_for(cl.cat_map())


def test_centered_indicator_is_centered():
    obs = cl.centered_indicator(0.0, 0.5)
    sysm = cl.rotation("golden")
    tr = cl.ergodic_sums(sysm, obs, cl.sample_initial(sysm, 1), 100_000,
                         checkpoint_every=None)
    assert abs(tr.values[-1, 0]) / 100_000 <= 0.01
    _, _, ok = cl.verify_centered(sysm, obs)
    assert ok


def test_iid_increment_reads_cached_sequence():
    sysm = cl.iid_shift("rademacher", d=2, seed=7)
    obs = cl.iid_increment("rademacher", 2)
    st0 = cl.sample_initial(sysm, 0)
    tr = cl.ergodic_sums(sysm, obs, st0, 10, checkpoint_every=None)
    steps = np.array([cl.evaluate_at(sysm, obs, cl.state_at(sysm, st0, k))
                      for k in range(10)])
    assert np.allclose(np.diff(tr.values, axis=0), steps, atol=1e-12)
    assert np.all(np.abs(np.abs(steps) - 1.0) <= 1e-15)


def test_coboundary_sums_telescope():
    sysm = cl.rotation("golden")
    phi = cl.coboundary_of(cl.parse_observable("sin2pi(frac)"))
    st0 = rot_state(0.2)
    tr = cl.ergodic_sums(sysm, phi, st0, 1000, checkpoint_every=None)
    n = np.arange(1001)
    xs = (0.2 + GOLDEN * n) % 1.0
    psi = np.sin(2 * np.pi * xs)
    assert np.max(np.abs(tr.values[:, 0] - (psi - psi[0]))) <= 1e-12


def test_coboundary_with_drift():
    sysm = cl.rotation("golden")
    phi = cl.coboundary_of(cl.parse_observable("frac"), drift=[0.25])
    st0 = rot_state(0.6)
    tr = cl.ergodic_sums(sysm, phi, st0, 500, checkpoint_every=None)
    n = np.arange(501)
    xs = (0.6 + GOLDEN * n) % 1.0
    assert np.max(np.abs(tr.values[:, 0] - (xs - xs[0] + 0.25 * n))) <= 1e-12


def test_constant_observable():
    v = cl.evaluate_at(cl.rotation("golden"), cl.constant([1.5, -2.0]), rot_state(0.1))
    assert np.array_equal(v, [1.5, -2.0])


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.0, max_value=0.49),
       st.floats(min_value=0.51, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
def test_centered_indicator_formula(a, b, x):
    got = cl.evaluate_at(cl.rotation("golden"), cl.centered_indicator(a, b),
                         rot_state(x))[0]
    want = float(a <= x < b) - (b - a)
    assert got == pytest.approx(want, abs=1e-12)
