"""Cone membership, segment occupation fractions, and the cone grammar."""

import tracemalloc

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


# The angular and orthant kernels as they were when every segment took the
# full midpoint path: clip and sort the candidate crossings, then test the
# midpoint of every piece. Segments that cross no boundary now take one
# membership test instead, and the bytes must not move.

def full_midpoint_fractions(contains, d, P0, P1, ts):
    n = len(P0)
    ts = np.concatenate([np.zeros((n, 1)), np.clip(ts, 0.0, 1.0),
                         np.ones((n, 1))], axis=1)
    ts.sort(axis=1)
    mids = 0.5 * (ts[:, 1:] + ts[:, :-1])
    seg = (P1 - P0)[:, None, :]
    pts = P0[:, None, :] + mids[..., None] * seg
    inside = contains(pts.reshape(-1, d)).reshape(mids.shape)
    return ((ts[:, 1:] - ts[:, :-1]) * inside).sum(axis=1)


def norm_angular_contains(cone, V):
    V = np.asarray(V)
    dots = V @ cone.axis
    nrms = np.linalg.norm(V, axis=-1)
    return dots > cone.cos_threshold * nrms


def angular_coefficients(cone, P0, P1):
    c2 = cone.cos_threshold * cone.cos_threshold
    q = P1 - P0
    pu = P0 @ cone.axis
    qu = q @ cone.axis
    pp = np.einsum("ij,ij->i", P0, P0)
    pq = np.einsum("ij,ij->i", P0, q)
    qq = np.einsum("ij,ij->i", q, q)
    return qu * qu - c2 * qq, pu * qu - c2 * pq, pu * pu - c2 * pp


def full_angular_fraction(cone, P0, P1):
    A, Bh, C = angular_coefficients(cone, P0, P1)
    ts = np.full((len(P0), 2), 1.0)
    quad = np.abs(A) > 1e-30
    disc = Bh * Bh - A * C
    ok = quad & (disc > 0.0)
    sq = np.sqrt(np.where(ok, disc, 0.0))
    As = np.where(ok, A, 1.0)
    ts[ok, 0] = (-Bh[ok] - sq[ok]) / As[ok]
    ts[ok, 1] = (-Bh[ok] + sq[ok]) / As[ok]
    lin = ~quad & (np.abs(Bh) > 1e-30)
    ts[lin, 0] = -0.5 * C[lin] / Bh[lin]
    return full_midpoint_fractions(lambda V: norm_angular_contains(cone, V), cone.d,
                                   P0, P1, ts)


def full_orthant_fraction(cone, P0, P1):
    if len(cone._active) == 0:
        return np.ones(len(P0))
    p = P0[:, cone._active]
    q = (P1 - P0)[:, cone._active]
    qs = np.where(q == 0.0, 1.0, q)
    ts = np.where(q == 0.0, 1.0, -p / qs)
    return full_midpoint_fractions(cone.contains, cone.d, P0, P1, ts)


SQRT2 = float(np.sqrt(2.0))        # aperture with cos_threshold ~ 1e-16: |A| <= 1e-30 rows
KERNEL_CONES = {
    2: (AngularCone([1.0, 0.0], 0.5), AngularCone([1.0, 1.0], 1.1),
        AngularCone([-0.3, 2.0], 1.9), AngularCone([1.0, 0.0], SQRT2),
        Orthant([1, -1]), Orthant([0, 1]), Orthant([0, 0])),
    3: (AngularCone([1.0, 0.0, 0.0], 1.0), AngularCone([1.0, 1.0, 1.0], 0.7),
        AngularCone([0.2, -1.0, 0.5], 1.6), AngularCone([0.0, 0.0, 1.0], SQRT2),
        Orthant([1, -1, 1]), Orthant([0, 1, 0])),
}


def full_path(cone, P0, P1):
    if isinstance(cone, AngularCone):
        return full_angular_fraction(cone, P0, P1)
    return full_orthant_fraction(cone, P0, P1)


def assert_matches_full_path(cone, P0, P1):
    with np.errstate(all="ignore"):
        want = full_path(cone, P0, P1)
        got = cone.segment_fraction(P0, P1)
        pts = np.concatenate([P0, P1, P0 + 0.5 * (P1 - P0)])
        if isinstance(cone, AngularCone):
            assert np.array_equal(cone.contains(pts), norm_angular_contains(cone, pts))
    assert got.tobytes() == want.tobytes()
    return want


wide = st.one_of(coord, st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e-16,
                                         1e154, -1e154, 3e154, 1e300, -1e300]))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3]),
       st.lists(st.lists(wide, min_size=6, max_size=6), min_size=1, max_size=40),
       st.booleans())
def test_midpoint_kernels_match_full_path(d, rows, flat):
    R = np.array(rows)
    P0 = np.ascontiguousarray(R[:, :d])
    P1 = P0.copy() if flat else np.ascontiguousarray(R[:, 3:3 + d])
    for cone in KERNEL_CONES[d]:
        assert_matches_full_path(cone, P0, P1)


def special_segments(d):
    # rows the closed forms treat separately, for the cones of KERNEL_CONES
    e = np.eye(d)
    b = 0.5 * e[0] + np.sqrt(0.75) * e[1]          # boundary ray of aperture 1 about e0
    t = e[2] if d == 3 else -e[0]
    segs = [(e[0], e[0]), (np.zeros(d), np.zeros(d)),          # zero length
            (-e[0] - e[1], e[0] + e[1]), (-2 * e[0], 2 * e[0]),  # through the origin
            (-e[1], e[1]), (np.zeros(d), e[0]), (e[0], np.zeros(d)),
            (b, 3 * b), (-b, b), (e[0], b),                    # along or onto the boundary
            (b - t, b + t),                                    # tangent (d = 3) or chord
            (e[0] + 0.3 * e[1], e[0] + (0.3 + 1e-16) * e[1]),   # |A| <= 1e-30
            (e[1] - e[0], e[1] + e[0]), (e[0] + e[1], e[1] - e[0])]
    P0, P1 = (np.array(x) for x in zip(*segs))
    scale = np.array([1.0, 1e-160, 1e-310, 1e150, 1e154, 1e300])[:, None, None]
    return (scale * P0).reshape(-1, d), (scale * P1).reshape(-1, d)


@pytest.mark.parametrize("d", [2, 3])
def test_midpoint_kernels_match_full_path_on_edge_rows(d):
    values = [0.0, -0.0, 5e-324, -5e-324, 1e-16, 0.5, -1.0, 2.0,
              1e154, -1e154, 1e300, -1e300]
    if d == 3:
        values = values[1::2]
    grid = np.array(np.meshgrid(*[values] * d, indexing="ij")).reshape(d, -1).T
    i, j = np.meshgrid(np.arange(len(grid)), np.arange(len(grid)), indexing="ij")
    S0, S1 = special_segments(d)
    P0 = np.concatenate([grid[i.ravel()], S0])
    P1 = np.concatenate([grid[j.ravel()], S1])
    lin_rows = 0
    for cone in KERNEL_CONES[d]:
        want = assert_matches_full_path(cone, P0, P1)
        if isinstance(cone, AngularCone):
            assert np.isnan(want).any()                # overflow rows: NaN, as before
            with np.errstate(all="ignore"):
                A, Bh, _ = angular_coefficients(cone, P0, P1)
            lin_rows += int(np.sum((np.abs(A) <= 1e-30) & (np.abs(Bh) > 1e-30)))
    assert lin_rows > 0


@pytest.mark.parametrize("d", [1, 2, 3, 5, 7])
def test_norm_helper_matches_numpy_norm(d):
    rng = np.random.default_rng(d)
    V = rng.standard_normal((4000, d)) * 10.0 ** rng.integers(-160, 160, size=(4000, d))
    V[::7, 0] = -0.0
    for W in (V, V.reshape(-1, 5, d), V[0]):
        with np.errstate(all="ignore"):
            got, want = cl.cones._norm(W), np.linalg.norm(W, axis=-1)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    with np.errstate(all="ignore"):
        assert np.array_equal(BallWindow(3.0).contains(V), np.linalg.norm(V, axis=-1) < 3.0)


def test_angular_axis_is_normalised_as_before():
    for u in ([1.0, 0.0], [1.0, 1.0], [-0.3, 2.0], [0.2, -1.0, 0.5], [1e-160, 3e-160],
              [3.0, 4.0, 12.0]):
        want = np.asarray(u) / np.linalg.norm(u)
        assert AngularCone(u, 0.5).axis.tobytes() == want.tobytes()


@pytest.mark.parametrize("d", [2, 3])
def test_midpoint_kernels_match_full_path_across_blocks(d):
    rng = np.random.default_rng(7 + d)
    n = 2 * cl.cones.ROWS + 37
    P = np.cumsum(rng.standard_normal((n + 1, d)), axis=0)
    for cone in KERNEL_CONES[d]:
        assert_matches_full_path(cone, P[:-1], P[1:])
        assert_matches_full_path(cone, 0.01 * P[:-1], 0.01 * P[1:])


def test_angular_kernel_work_on_a_rademacher_walk():
    # deterministic performance check: on a 2^16-step walk only the segments
    # that cross the cone boundary (0.12% at 2^20) take the full midpoint
    # path, and the kernel's temporaries stay a small multiple of its output
    n = 1 << 16
    sysm = cl.iid_shift("rademacher", d=2, seed=1)
    tr = cl.ergodic_sums(sysm, cl.iid_increment("rademacher", 2),
                         cl.sample_initial(sysm, 1), n, checkpoint_every=None)
    P0, P1 = tr.values[:-1], tr.values[1:]
    cone = cl.parse_cone("angular:1,0,0.5")
    assert_matches_full_path(cone, P0, P1)
    tested = []
    contains = cone.contains
    cone.contains = lambda V: (tested.append(len(V)), contains(V))[1]
    cone.segment_fraction(P0, P1)
    del cone.contains
    # one membership test per segment, plus one per piece (three) per crossing
    crossing = (sum(tested) - n) / 3
    assert 0 < crossing < 0.01 * n
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cone.segment_fraction(P0, P1)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / n < 240
