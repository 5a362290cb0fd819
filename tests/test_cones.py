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
    # d sizes "full:" and rejects a cone of any other dimension
    assert cl.parse_cone("full:", d=3).contains(np.ones((1, 3)))[0]
    assert cl.parse_cone("!angular:1,0,0,0.5", d=3).d == 3
    for bad in ("angular:1,0,0.5", "!halfspace:0,1", "orthant:1,1,1,1", "full:2"):
        with pytest.raises(cl.ConfigInvalid) as err:
            cl.parse_cone(bad, d=3)
        assert err.value.field == "cone"


@pytest.mark.parametrize("text", ["halfspace:nan,1", "halfspace:inf,1", "angular:nan,0,1",
                                  "angular:1,0,-inf", "orthant:1,nan", "!halfspace:0,inf",
                                  "full:inf"])
def test_parse_cone_refuses_numbers_that_are_not_finite(text):
    with pytest.raises(cl.ConfigInvalid) as err:
        cl.parse_cone(text)
    assert err.value.field == "cone"


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


def rows_dot(V, u):
    # V @ u, each row with the bytes it has among two or more C-ordered rows:
    # the rounding of <v, u> the kernels keep whatever rows come with v
    V = np.ascontiguousarray(V)
    return (np.concatenate([V, V]) @ u)[:len(V)]


def three_where_fraction(normal, P0, P1):
    # the half-space kernel as first written: three nested full-length wheres
    a0 = rows_dot(P0, normal)
    a1 = rows_dot(P1, normal)
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
# membership test instead, and the bytes must not move. The angular cone
# first moves rows scaled outside [LO, HI] into [0.5, 1) by a power of
# two, and so does its reference (band=False takes rows as given).

LO, HI = 2.0 ** -40, 2.0 ** 200


def into_band(*Ps):
    # nonzero rows (of Ps taken together) scaled outside [LO, HI] -> [0.5, 1)
    m = np.abs(np.concatenate(Ps, axis=-1)).max(axis=-1)
    e = np.where((m > HI) | ((m < LO) & (m > 0.0)), np.frexp(m)[1], 0)
    return tuple(np.ldexp(P, -e[..., None]) for P in Ps)


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


def norm_angular_contains(cone, V, band=True):
    V = np.asarray(V)
    if band:
        (V,) = into_band(V)
    dots = rows_dot(V, cone.axis)
    nrms = np.linalg.norm(V, axis=-1)
    return dots > cone.cos_threshold * nrms


def angular_coefficients(cone, P0, P1):
    c2 = cone.cos_threshold * cone.cos_threshold
    q = P1 - P0
    pu = rows_dot(P0, cone.axis)
    qu = rows_dot(q, cone.axis)
    pp = np.einsum("ij,ij->i", P0, P0)
    pq = np.einsum("ij,ij->i", P0, q)
    qq = np.einsum("ij,ij->i", q, q)
    return qu * qu - c2 * qq, pu * qu - c2 * pq, pu * pu - c2 * pp


def full_angular_fraction(cone, P0, P1, band=True):
    if band:
        P0, P1 = into_band(P0, P1)
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
    return full_midpoint_fractions(lambda V: norm_angular_contains(cone, V, band), cone.d,
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
    m = np.abs(np.concatenate([P0, P1], axis=1)).max(axis=1)
    in_band = (m == 0.0) | ((m >= LO) & (m <= HI))
    lin_rows = 0
    for cone in KERNEL_CONES[d]:
        want = assert_matches_full_path(cone, P0, P1)
        if isinstance(cone, AngularCone):
            with np.errstate(all="ignore"):
                given = full_angular_fraction(cone, P0, P1, band=False)
                A, Bh, _ = angular_coefficients(cone, P0, P1)
            # rows as given overflow to NaN; moved rows do not, and in-band
            # rows keep the bytes of the kernel without the band
            assert np.isnan(given).any() and not np.isnan(want).any()
            assert want[in_band].tobytes() == given[in_band].tobytes()
            lin_rows += int(np.sum(in_band & (np.abs(A) <= 1e-30) & (np.abs(Bh) > 1e-30)))
    assert lin_rows > 0


def test_angular_fractions_at_extreme_scales():
    # membership is positively homogeneous: (s,-s) -> (s,s) spends the same
    # fraction in the cone at every scale, where squares overflow or underflow too
    cone = cl.parse_cone("angular:1,0,0.5")
    true = np.sqrt(1.0 - 0.875 ** 2) / 0.875           # tan of the half-angle
    for s in (1e-100, 1e77, 1e154, 1e200, 1e300, 1e-300, 5e-324):
        got = cone.segment_fraction(np.array([[s, -s]]), np.array([[s, s]]))[0]
        assert got == pytest.approx(true, abs=1e-15)
    got = cone.segment_fraction(np.array([[2e154, 0.0]]), np.array([[3e154, 1.0]]))
    assert got.tolist() == [1.0]
    assert cone.contains(np.array([[3e154, 1.0], [1e-320, 0.0], [1e-320, 1e-320]])).tolist() \
        == [True, True, False]


@pytest.mark.parametrize("d", [2, 3])
def test_angular_bytes_are_the_same_at_every_power_of_two(d):
    rng = np.random.default_rng(20 + d)
    P0, P1 = rng.standard_normal((2, 4000, d))
    pts = np.concatenate([P0, P1])
    for cone in KERNEL_CONES[d][:4]:
        base, inside = cone.segment_fraction(P0, P1), cone.contains(pts)
        for k in (-1000, -300, -60, -42, 100, 254, 300, 900):
            c = 2.0 ** k
            assert cone.segment_fraction(c * P0, c * P1).tobytes() == base.tobytes()
            assert np.array_equal(cone.contains(c * pts), inside)


@pytest.mark.parametrize("d", [1, 2, 3, 5, 7, 8, 9, 12])
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


def closed_form_rows(kernel):
    # count the rows that reach kernel._fractions (the closed form)
    rows = []
    fractions = kernel._fractions
    kernel._fractions = lambda P0, P1: (rows.append(len(P0)), fractions(P0, P1))[1]
    return rows


def test_angular_kernel_work_on_a_rademacher_walk():
    # deterministic performance check: on a 2^16-step walk the screen decides
    # all but the segments near a boundary (0.25% angular, 0.29% ball here),
    # and only those take the closed form; the kernel's temporaries stay a
    # small multiple of its output
    n = 1 << 16
    sysm = cl.iid_shift("rademacher", d=2, seed=1)
    tr = cl.ergodic_sums(sysm, cl.iid_increment("rademacher", 2),
                         cl.sample_initial(sysm, 1), n, checkpoint_every=None)
    P0, P1 = tr.values[:-1], tr.values[1:]
    cone = cl.parse_cone("angular:1,0,0.5")
    ball = BallWindow(10.0)
    assert_matches_full_path(cone, P0, P1)
    assert ball.segment_fraction(P0, P1).tobytes() == \
        unblocked_ball_fraction(10.0, P0, P1).tobytes()
    for kernel, bound in ((cone, 0.01), (ball, 0.02)):
        rows = closed_form_rows(kernel)
        kernel.segment_fraction(P0, P1)
        del kernel._fractions
        assert 0 < sum(rows) < bound * n
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cone.segment_fraction(P0, P1)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / n < 240


def unblocked_ball_fraction(M, P0, P1):
    # BallWindow.segment_fraction over all rows at once, as it ran before it
    # took ROWS-row blocks; kept as the byte reference
    q = P1 - P0
    pp = np.einsum("ij,ij->i", P0, P0)
    pq = np.einsum("ij,ij->i", P0, q)
    qq = np.einsum("ij,ij->i", q, q)
    M2 = M * M
    still = qq == 0.0
    qs = np.where(still, 1.0, qq)
    disc = pq * pq - qs * (pp - M2)
    sq = np.sqrt(np.maximum(disc, 0.0))
    r0 = np.clip((-pq - sq) / qs, 0.0, 1.0)
    r1 = np.clip((-pq + sq) / qs, 0.0, 1.0)
    frac = np.where(disc > 0.0, r1 - r0, 0.0)
    return np.where(still, (pp < M2).astype(np.float64), frac)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_ball_kernel_in_blocks_matches_the_unblocked_formula(d):
    rng = np.random.default_rng(20 + d)
    n = 2 * cl.cones.ROWS + 37
    P = np.cumsum(rng.standard_normal((n + 1, d)), axis=0)
    # edge rows: zero length, through the centre, tangent to and ending on
    # the unit sphere, far outside, tiny, and past the 1e154 limit
    e = np.eye(d)[0]
    t = np.eye(d)[-1] if d > 1 else e
    edges0 = np.array([e, 0 * e, -2 * e, e + t, 0.5 * e, 1e100 * e, 1e-300 * e, 2e154 * e])
    edges1 = np.array([e, 0 * e, 2 * e, e - t, e, 2e100 * e, -1e-300 * e, 3e154 * e])
    P0 = np.concatenate([edges0, P[:-1], edges0])
    P1 = np.concatenate([edges1, P[1:], edges1])
    for M in (1.0, 3.0, 40.0):
        with np.errstate(all="ignore"):
            got = BallWindow(M).segment_fraction(P0, P1)
            want = unblocked_ball_fraction(M, P0, P1)
        assert got.tobytes() == want.tobytes()


def test_ball_kernel_temporaries_are_bounded_by_the_block():
    # the kernel's temporaries scale with ROWS, not with the walk: beyond its
    # 8-byte output per segment it holds about 1.7 MB at any length, so 2^18
    # segments peak near 15 bytes each (105 when it ran over all rows at once)
    n = 1 << 18
    P = np.cumsum(np.random.default_rng(5).choice([-1.0, 1.0], size=(n + 1, 2)), axis=0)
    P0, P1 = P[:-1], P[1:]
    ball = BallWindow(30.0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ball.segment_fraction(P0, P1)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / n < 24


def test_complement_writes_over_its_inner_kernels_arrays():
    # the complement's fractions and membership are 1 - fr and ~inside of its
    # inner kernel, bytes included, written over the inner kernel's arrays:
    # past the outputs' 9 bytes a segment the peak holds only the kernel's
    # block temporaries, about 1.1 MB at any length (2^18 segments peaked at
    # 18 bytes each when the complement copied both outputs, 13.2 now)
    n = 1 << 18
    P = np.cumsum(np.random.default_rng(5).standard_normal((n + 1, 2)), axis=0)
    cone = cl.parse_cone("!angular:1,0,0.5")
    fr, inside = cone.inner.path_fractions(P)
    got, got_inside = cone.path_fractions(P)
    assert got.tobytes() == (1.0 - fr).tobytes()
    assert np.array_equal(got_inside, ~inside)
    assert cone.segment_fraction(P[:-1], P[1:]).tobytes() == got.tobytes()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cone.path_fractions(P)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 9 * n + (3 << 19)


# Rows the screen must decide right, or leave to the closed form: ends a
# hair inside or outside a boundary, segments through the apex or nearly
# along a boundary ray, and every row scale the band treats apart. The
# screened kernels (planar angular cones and the ball) must give the bytes
# of the unscreened references above; the unscreened ones (angular cones
# in d >= 3, orthants) keep them too.

APERTURES = (0.1, 0.5, 1.0, 1.4, SQRT2, 1.6, 1.9)
SCALES = (2.0 ** -40, 2.0 ** -40 * (1 - 2.0 ** -53), 2.0 ** 200,
          2.0 ** 200 * (1 + 2.0 ** -52), 1e300, 1e-310, 5e-324)


def unit(V):
    return V / np.linalg.norm(V, axis=-1, keepdims=True)


def near_rays(rng, axis, aperture, n):
    # ends within 1e-16 to 1e-3 rad of a boundary ray (or its mirror, which
    # the squared closed form also crosses), or a quarter at any angle, at
    # radii 1e-3 to 1e6
    d = len(axis)
    u = unit(np.asarray(axis, dtype=np.float64))
    e = unit(rng.standard_normal((n, d)))
    e = unit(e - (e @ u)[:, None] * u)                         # unit, normal to u
    theta = np.arccos(1.0 - 0.5 * aperture * aperture)
    theta = theta + rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-16, -3, n)
    theta = np.where(rng.random(n) < 0.2, np.pi - theta, theta)
    theta = np.where(rng.random(n) < 0.25, rng.uniform(0.0, np.pi, n), theta)
    r = 10.0 ** rng.uniform(-3, 6, n)
    return r[:, None] * (np.cos(theta)[:, None] * u + np.sin(theta)[:, None] * e)


def adversarial_segments(rng, ends):
    # ends(n) draws n points; segments between two of them, a seventh
    # through the apex, and short ones nearly along the ray of their start
    n = 6000
    P0, P1 = ends(n), ends(n)
    k = n // 7
    P1[:k] = -10.0 ** rng.uniform(-3, 3, k)[:, None] * P0[:k]
    tilt = 1.0 + 1e-9 * rng.standard_normal(P0[k:2 * k].shape)
    P1[k:2 * k] = P0[k:2 * k] * (tilt + 10.0 ** rng.uniform(-12, 0, k)[:, None])
    P1[2 * k:3 * k] = P0[2 * k:3 * k] + 1e-6 * ends(k)
    return P0, P1


def band_rows(P0, P1):
    # the segments as drawn, then scaled to a largest |coordinate| of each
    # value in SCALES, then with one end at 1e300 and the other at 1e-300
    m = np.abs(np.concatenate([P0, P1], axis=1)).max(axis=1, keepdims=True)
    Q0, Q1 = P0 / m, P1 / m
    return (np.concatenate([P0] + [s * Q0 for s in SCALES] + [Q0, 1e300 * Q0]),
            np.concatenate([P1] + [s * Q1 for s in SCALES] + [1e-300 * Q1, Q1]))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("aperture", APERTURES)
def test_screened_angular_kernel_matches_the_reference(d, aperture):
    rng = np.random.default_rng(int(1000 * aperture) + d)
    u = rng.standard_normal(d)
    cone = AngularCone(u, aperture)
    P0, P1 = band_rows(*adversarial_segments(rng, lambda n: near_rays(rng, u, aperture, n)))
    rows = closed_form_rows(cone)
    with np.errstate(all="ignore"):
        got = cone.segment_fraction(P0, P1)
        want = full_angular_fraction(cone, P0, P1)
        assert np.array_equal(cone.contains(P1), norm_angular_contains(cone, P1))
    assert got.tobytes() == want.tobytes()
    if d == 2:
        assert 0 < sum(rows) < len(P0)                 # the screen decided some rows
    else:
        assert sum(rows) == len(P0)                    # no screen in d >= 3


def test_a_lone_undecided_row_keeps_its_bytes():
    # a segment of a planar Cauchy walk, nearly tangent to the cone's
    # boundary: matmul over this one row rounds <P0,u> another way than over
    # many, and the fraction moves from 0.031 to 0. When it is the only row
    # of its block the screen leaves open, it reaches the closed form alone
    # and must still get the reference bytes
    cone = AngularCone([1.0, 0.3], SQRT2)
    p0 = np.array([-49176.45038244226, 188389.36737619896])
    p1 = np.array([-304737.23264893104, 250639.89443084013])
    inside = np.array([[1.0, 0.0], [2.0, 0.1]])
    for k in (0, 1, 5, cl.cones.ROWS - 1):
        P0 = np.concatenate([np.tile(inside[0], (k, 1)), [p0],
                             np.tile(inside[0], (7, 1))])
        P1 = np.concatenate([np.tile(inside[1], (k, 1)), [p1],
                             np.tile(inside[1], (7, 1))])
        rows = closed_form_rows(cone)
        got = cone.segment_fraction(P0, P1)
        del cone._fractions
        assert got.tobytes() == full_angular_fraction(cone, P0, P1).tobytes()
        assert got[k] > 0.03 and sum(rows) == 1


@pytest.mark.parametrize("signs", [[1, -1], [1, -1, 1]])
def test_orthant_kernel_matches_the_reference_near_its_faces(signs):
    d = len(signs)
    rng = np.random.default_rng(d)
    cone = Orthant(signs)

    def near_faces(n):
        # some coordinates within 1e-16 to 1e-3 (relative) of a face, of either sign
        P = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 6, (n, 1))
        near = rng.random((n, d)) < 0.5
        tiny = rng.choice([-1.0, 1.0], (n, d)) * 10.0 ** rng.uniform(-16, -3, (n, d))
        return np.where(near, tiny * np.abs(P).max(axis=1, keepdims=True), P)

    P0, P1 = band_rows(*adversarial_segments(rng, near_faces))
    with np.errstate(all="ignore"):
        got = cone.segment_fraction(P0, P1)
        want = full_orthant_fraction(cone, P0, P1)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("M", [1.0, 10.0, 1e3])
def test_screened_ball_kernel_matches_the_reference(d, M):
    rng = np.random.default_rng(int(M) + d)

    def near_sphere(n):
        # norms within 1e-16 to 1e-3 (relative) of M, inside or out; a fifth
        # at 1e-3 to 1e3 times M
        eta = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-16, -3, n)
        r = np.where(rng.random(n) < 0.2, 10.0 ** rng.uniform(-3, 3, n), 1.0 + eta)
        return M * r[:, None] * unit(rng.standard_normal((n, d)))

    P0, P1 = adversarial_segments(rng, near_sphere)
    # tangent to the sphere, touching it near an end
    k = len(P0) // 7
    t = unit(rng.standard_normal((k, d)))
    t = unit(t - np.einsum("ij,ij->i", t, unit(P0[:k]))[:, None] * unit(P0[:k]))
    P1[3 * k:4 * k] = P0[:k] + M * 10.0 ** rng.uniform(-8, 1, k)[:, None] * t
    P0, P1 = band_rows(P0, P1)
    ball = BallWindow(M)
    rows = closed_form_rows(ball)
    with np.errstate(all="ignore"):
        got = ball.segment_fraction(P0, P1)
        want = unblocked_ball_fraction(M, P0, P1)
    assert got.tobytes() == want.tobytes()
    assert 0 < sum(rows) < len(P0)


# The path kernel: a walk's points V give the fractions of its segments
# V[k] -> V[k+1] and the membership of V[1:], with the bytes of the segment
# kernel and of contains, for every kind, at every edge scale and across
# the edges of the path kernel's blocks

ROWS = cl.cones.ROWS
PATH_KERNELS = {
    d: KERNEL_CONES[d] + (
        HalfSpace(np.eye(d)[1]), HalfSpace(np.arange(1.0, d + 1.0)),
        Complement(KERNEL_CONES[d][0]), Complement(KERNEL_CONES[d][2]),
        Complement(HalfSpace(np.eye(d)[0])), Complement(Orthant(np.eye(d)[0])),
        BallWindow(1.0), BallWindow(40.0), BallWindow(1e250))
    for d in (2, 3)}


def assert_path_matches_segments(kernel, V):
    with np.errstate(all="ignore"):
        want = kernel.segment_fraction(V[:-1], V[1:]), kernel.contains(V[1:])
        runs = [kernel.path_fractions(V)]
        if isinstance(kernel, BallWindow):     # with the norms a trace caches
            runs.append(kernel.path_fractions(V, cl.cones._true_norm(V)))
        alone = kernel.path_fractions(V, ends=False)[0]    # no membership asked
    assert alone.tobytes() == want[0].tobytes(), kernel
    for fr, inside in runs:
        assert fr.tobytes() == want[0].tobytes(), kernel
        assert inside.dtype == bool and inside.tobytes() == want[1].tobytes(), kernel


def edge_path(d):
    # the special segments of every scale, end to end, then their scale-1
    # rows at each scale of SCALES (just inside and outside BAND), inside a
    # walk so that they straddle the path kernel's first block edge
    S0, S1 = special_segments(d)
    E = np.empty((2 * len(S0), d))
    E[0::2], E[1::2] = S0, S1
    Q = E[:len(E) // 6]                             # the scale-1 rows
    m = np.abs(Q).max(axis=1, keepdims=True)
    Q = np.divide(Q, m, out=np.zeros_like(Q), where=m > 0.0)
    E = np.concatenate([E] + [s * Q for s in SCALES])
    walk = np.cumsum(np.random.default_rng(d).standard_normal((2 * ROWS, d)), axis=0)
    k = ROWS - len(E) // 2
    return np.concatenate([walk[:k], E, walk[k:], E])


@pytest.mark.parametrize("d", [2, 3])
def test_path_kernel_matches_the_segment_kernels_on_edge_rows(d):
    V = edge_path(d)
    for kernel in PATH_KERNELS[d]:
        # one and two segments; a lone segment past the first block edge;
        # the whole path, which ends on the edge rows
        for n in (1, 2, ROWS + 1, len(V) - 1):
            assert_path_matches_segments(kernel, V[:n + 1])


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([1, 2, 3, 17, ROWS - 1, ROWS, ROWS + 1, 2 * ROWS + 1]),
       st.sampled_from([1.0, 1e-160, 2.0 ** -40, 2.0 ** 200, 1e154, 1e300]),
       st.lists(st.tuples(st.integers(0, 2 * ROWS + 1),
                          st.lists(wide, min_size=3, max_size=3)), max_size=8))
def test_path_kernel_matches_the_segment_kernels(d, seed, n, scale, rows):
    # a Gaussian walk at one scale, some of its points replaced by edge rows
    V = scale * np.cumsum(np.random.default_rng(seed).standard_normal((n + 1, d)), axis=0)
    for k, row in rows:
        V[k % (n + 1)] = row[:d]
    for kernel in PATH_KERNELS[d]:
        assert_path_matches_segments(kernel, V)


def test_series_work_on_a_rademacher_walk():
    # deterministic performance check on the walk of
    # test_angular_kernel_work_on_a_rademacher_walk: the series takes each
    # point's face heights once a block, and tests against the cone only the
    # ends of the segments that take the closed form, and one point a block
    # (the midpoints that the closed form tests are not counted)
    n = 1 << 16
    sysm = cl.iid_shift("rademacher", d=2, seed=1)
    tr = cl.ergodic_sums(sysm, cl.iid_increment("rademacher", 2),
                         cl.sample_initial(sysm, 1), n, checkpoint_every=None)
    cone = cl.parse_cone("angular:1,0,0.5")
    want = cl.sojourn_series(tr, cone)
    heights, ends, closing = [], [], []
    points, contains, fractions = cone._points, cone.contains, cone._fractions

    def closed_form(P0, P1):
        closing.append(True)
        try:
            return fractions(P0, P1)
        finally:
            closing.pop()

    cone._points = lambda V: (heights.append(len(V)), points(V))[1]
    cone.contains = lambda V: (closing or ends.append(len(V)), contains(V))[1]
    cone._fractions = closed_form
    got = cl.sojourn_series(tr, cone)
    blocks = -(-n // ROWS)
    assert sum(heights) <= n + blocks
    assert 0 < sum(ends) <= 0.01 * n
    assert (got.tau.tobytes(), got.tau_disc.tobytes()) == \
        (want.tau.tobytes(), want.tau_disc.tobytes())


LAYOUT_KERNELS = {
    "halfspace": (2, HalfSpace([0.6, 0.8])), "halfspace-3d": (3, HalfSpace([0.6, 0.8, -0.3])),
    "right": (2, AngularCone([1.0, 0.3], SQRT2)), "wide": (2, AngularCone([-0.3, 2.0], 1.9)),
    "narrow": (2, AngularCone([1.0, 1.0], 1.1)),
    "wide-3d": (3, AngularCone([0.2, -1.0, 0.5], 1.6)),
    "narrow-3d": (3, AngularCone([1.0, 1.0, 1.0], 0.7)),
    "orthant": (2, Orthant([1, -1])), "orthant-3d": (3, Orthant([1, -1, 1])),
    "complement": (2, Complement(AngularCone([1.0, 0.0], 0.5))),
    "complement-3d": (3, Complement(HalfSpace([0.2, -1.0, 0.5]))),
    "ball": (2, BallWindow(10.0)), "ball-3d": (3, BallWindow(1e3))}


def layout_walk(kernel, d, n):
    # a walk of points near the kernel's boundary: within 1e-16 to 1e-3 rad
    # of a boundary ray of an angular cone, or of a half-space's plane; a
    # ball's or an orthant's walk takes those of an angular cone about the
    # first axis, at radii 1e-3 to 1e6
    rng = np.random.default_rng(d)
    inner = kernel.inner if isinstance(kernel, Complement) else kernel
    if isinstance(inner, AngularCone):
        axis, ap = inner.axis, inner.aperture
    elif isinstance(inner, HalfSpace):
        axis, ap = inner.normal, SQRT2
    else:
        axis, ap = np.eye(d)[0], 1.0
    return near_rays(rng, axis, ap, n)


@pytest.mark.parametrize("d, kernel", LAYOUT_KERNELS.values(), ids=LAYOUT_KERNELS.keys())
def test_a_row_has_its_bytes_in_every_layout(d, kernel):
    # a row passed alone (one row, one segment, or a 1-d point) or in Fortran
    # order gets the bytes it has among many C-ordered rows, although BLAS
    # rounds <v, u> for those another way (a third of planar Cauchy rows)
    n = 3000
    V = layout_walk(kernel, d, n + 1)
    P0, P1 = V[:-1], V[1:]
    F = np.asfortranarray
    fr, inside = kernel.segment_fraction(P0, P1), kernel.contains(P1)
    for got in (kernel.segment_fraction(F(P0), F(P1)), kernel.path_fractions(V)[0],
                kernel.path_fractions(F(V))[0]):
        assert got.tobytes() == fr.tobytes()
    for got in (kernel.contains(F(P1)), kernel.path_fractions(V)[1],
                kernel.path_fractions(F(V))[1]):
        assert got.tobytes() == inside.tobytes()
    for k in range(0, n, 7):
        one = slice(k, k + 1)
        assert kernel.segment_fraction(P0[one], P1[one]).tobytes() == fr[one].tobytes()
        path, ends = kernel.path_fractions(V[k:k + 2])
        assert (path.tobytes(), ends.tobytes()) == (fr[one].tobytes(), inside[one].tobytes())
        assert kernel.contains(P1[one]).tobytes() == inside[one].tobytes()
        assert kernel.contains(P1[k]) == inside[k]
