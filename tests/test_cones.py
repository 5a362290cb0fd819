"""Cone membership, segment occupation fractions, and the cone grammar."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cocyclelab as cl
from cocyclelab import AngularCone, BallWindow, Complement, HalfSpace, Orthant

coord = st.floats(min_value=-50.0, max_value=50.0)


def midpoint_fraction(cone, p0, p1, pts=200_001) -> float:
    # independent oracle: dense midpoint quadrature along the segment
    s = (np.arange(pts) + 0.5) / pts
    seg = np.asarray(p0)[None, :] + s[:, None] * (np.asarray(p1) - np.asarray(p0))[None, :]
    return float(np.mean(cone.contains(seg)))


def test_halfspace_membership():
    hp = HalfSpace([0.0, 1.0])
    got = hp.contains(np.array([[1.0, 2.0], [1.0, -2.0], [1.0, 0.0]]))
    assert got.tolist() == [True, False, False]   # boundary is outside


def test_halfspace_fraction_exact_crossings():
    hp = HalfSpace([0.0, 1.0])
    P0 = np.array([[-1.0, -1.0], [1.0, 1.0], [-1.0, -1.0], [0.0, -3.0]])
    P1 = np.array([[1.0, 1.0], [3.0, 1.0], [-3.0, -5.0], [0.0, 1.0]])
    assert np.allclose(hp.segment_fraction(P0, P1), [0.5, 1.0, 0.0, 0.25], atol=1e-12)


def test_orthant_membership():
    q = Orthant([1, -1])
    got = q.contains(np.array([[2.0, -3.0], [2.0, 3.0], [-1.0, -1.0]]))
    assert got.tolist() == [True, False, False]


def test_angular_membership_formula():
    cone = AngularCone([1.0, 0.0], 0.7)
    V = np.array([[5.0, 0.0], [0.0, 5.0], [5.0, 1.0], [-5.0, 0.0]])
    U = V / np.linalg.norm(V, axis=1)[:, None]
    want = np.linalg.norm(U - np.array([1.0, 0.0]), axis=1) < 0.7
    assert np.array_equal(cone.contains(V), want)


def test_ball_window_chord():
    ball = BallWindow(1.0)
    frac = ball.segment_fraction(np.array([[-2.0, 0.0]]), np.array([[2.0, 0.0]]))
    assert frac[0] == pytest.approx(0.5, abs=1e-9)


def test_fractions_match_quadrature():
    rng = np.random.default_rng(3)
    cones = (HalfSpace([0.3, -1.0]), Orthant([1, 1]),
             AngularCone([1.0, 1.0], 0.8), BallWindow(2.0),
             Complement(AngularCone([0.0, 1.0], 0.5)))
    for _ in range(25):
        p0, p1 = rng.normal(scale=3.0, size=(2, 2))
        for cone in cones:
            got = float(cone.segment_fraction(p0[None, :], p1[None, :])[0])
            assert abs(got - midpoint_fraction(cone, p0, p1)) <= 2e-4


def test_complement_fractions_sum_to_one():
    rng = np.random.default_rng(4)
    for cone in (HalfSpace([1.0, 2.0]), AngularCone([0.0, 1.0], 0.9), Orthant([-1, 1])):
        p0, p1 = rng.normal(scale=2.0, size=(2, 2))
        a = cone.segment_fraction(p0[None, :], p1[None, :])[0]
        b = cone.complement().segment_fraction(p0[None, :], p1[None, :])[0]
        assert a + b == pytest.approx(1.0, abs=1e-9)


def test_halfspace_scaling_is_bit_identical():
    hp = HalfSpace([0.2, 1.0])
    rng = np.random.default_rng(5)
    P0, P1 = rng.normal(size=(2, 40, 2))
    base = hp.segment_fraction(P0, P1)
    for c in (2.0, 4.0, 0.5):
        assert np.array_equal(hp.segment_fraction(c * P0, c * P1), base)


def test_parse_cone():
    assert isinstance(cl.parse_cone("halfspace:0,1"), HalfSpace)
    orth = cl.parse_cone("orthant:1,-1")
    assert isinstance(orth, Orthant)
    assert list(orth.contains(np.array([[2.0, -3.0], [2.0, 3.0]]))) == [True, False]
    ang = cl.parse_cone("angular:1,0,0.5")
    assert isinstance(ang, AngularCone) and ang.aperture == pytest.approx(0.5)
    assert isinstance(cl.parse_cone("!halfspace:0,1"), Complement)
    full = cl.parse_cone("full:2")
    assert bool(full.contains(np.array([[0.5, -12.0]]))[0])
    for bad in ("halfspace:", "angular:1,0", "orthant:+x", "wedge:1", ""):
        with pytest.raises(cl.ConfigInvalid) as err:
            cl.parse_cone(bad)
        assert err.value.field == "cone"
    # the d hint only sizes "full:"; it defaults the dimension rather than validating it
    assert cl.parse_cone("full:", d=3).contains(np.ones((1, 3)))[0]


def test_angular_aperture_bounds():
    with pytest.raises(cl.ConfigInvalid):
        AngularCone([1.0, 0.0], 0.0)
    with pytest.raises(cl.ConfigInvalid):
        AngularCone([1.0, 0.0], 2.0)
    with pytest.raises(cl.ConfigInvalid):
        AngularCone([0.0, 0.0], 0.5)


@settings(max_examples=80, deadline=None)
@given(coord, coord, coord, coord)
def test_fraction_bounds_and_additivity(x0, y0, x1, y1):
    p0 = np.array([[x0, y0]])
    p1 = np.array([[x1, y1]])
    for cone in (HalfSpace([1.0, -0.5]), AngularCone([1.0, 0.0], 1.1), Orthant([1, 1])):
        f = float(cone.segment_fraction(p0, p1)[0])
        g = float(cone.complement().segment_fraction(p0, p1)[0])
        assert -1e-12 <= f <= 1.0 + 1e-12
        assert f + g == pytest.approx(1.0, abs=1e-9)


def three_where_fraction(normal, P0, P1):
    # the half-space kernel as first written: three nested full-length wheres
    a0 = P0 @ normal
    a1 = P1 @ normal
    pos0 = a0 > 0.0
    pos1 = a1 > 0.0
    den = a0 - a1
    t0 = a0 / np.where(den == 0.0, 1.0, den)
    return np.where(pos0 & pos1, 1.0,
                    np.where(~pos0 & ~pos1, 0.0, np.where(pos0, t0, 1.0 - t0)))


edge = st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e-300, -1e300])
value = st.one_of(coord, edge)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(value, value, value, value), min_size=1, max_size=40),
       st.booleans())
def test_halfspace_kernel_matches_three_where_formula(rows, flat):
    R = np.array(rows)
    P0, P1 = R[:, :2], R[:, 2:]
    if flat:                                       # a0 == a1 on every row
        P1 = P0.copy()
    for normal in ([1.0, 0.0], [0.3, -1.0]):
        hp = HalfSpace(normal)
        got = hp.segment_fraction(P0, P1)
        want = three_where_fraction(hp.normal, P0, P1)
        assert got.tobytes() == want.tobytes()


def test_halfspace_kernel_edge_rows_bit_for_bit():
    pairs = [(1.0, -1.0), (-1.0, 1.0), (0.0, 1.0), (1.0, 0.0), (-0.0, 2.0),
             (3.0, -0.0), (2.0, 2.0), (0.0, 0.0), (-0.0, -0.0), (-3.0, -3.0),
             (5e-324, -5e-324), (-5e-324, 5e-324), (0.25, -0.75)]
    a = np.array(pairs)
    hp = HalfSpace([1.0])
    got = hp.segment_fraction(a[:, :1], a[:, 1:])
    assert got.tobytes() == three_where_fraction(hp.normal, a[:, :1], a[:, 1:]).tobytes()
    assert got[:4].tolist() == [0.5, 0.5, 1.0, 1.0]
