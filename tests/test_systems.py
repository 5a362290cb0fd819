"""Base dynamics: stepping, inversion, initial sampling, invariance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cocyclelab as cl

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
SQRT2M1 = np.sqrt(2.0) - 1.0


def ks_uniform(xs: np.ndarray) -> float:
    xs = np.sort(np.asarray(xs))
    n = len(xs)
    i = np.arange(1, n + 1)
    return max(np.max(i / n - xs), np.max(xs - (i - 1) / n))


def rot_state(x: float) -> cl.SystemState:
    return cl.SystemState(0, coords=np.array([x]), origin=x)


def test_doubling_step():
    sysm = cl.doubling()
    st0 = cl.SystemState(0, coords=np.array([0.3]), traj_key=(0, 0))
    assert cl.step(sysm, st0).coords[0] == pytest.approx(0.6, abs=1e-15)


def test_rotation_step_from_zero():
    sysm = cl.rotation("sqrt2m1")
    st1 = cl.step(sysm, rot_state(0.0))
    assert st1.coords[0] == pytest.approx(0.41421356237, abs=1e-11)
    assert st1.index == 1


def test_cat_map_step():
    sysm = cl.cat_map()
    st1 = cl.step(sysm, cl.SystemState(0, coords=np.array([0.5, 0.5])))
    assert np.allclose(st1.coords, [0.5, 0.0], atol=1e-12)


def test_rotation_step_back():
    sysm = cl.rotation("golden")
    back = cl.step_back(sysm, rot_state(0.9))
    assert back.coords[0] == pytest.approx((0.9 - GOLDEN) % 1.0, abs=1e-12)
    assert back.index == -1


def test_iid_shift_two_sided_indexing():
    sysm = cl.iid_shift("gaussian", d=2, seed=5)
    obs = cl.iid_increment("gaussian", 2)
    st0 = cl.sample_initial(sysm, 0)
    inc0 = cl.evaluate_at(sysm, obs, st0).copy()
    fwd = cl.step(sysm, st0)
    assert fwd.index == 1
    back = cl.step_back(sysm, fwd)
    assert back.index == 0
    # the realized sequence is cached: rereads are bit-identical
    assert np.array_equal(cl.evaluate_at(sysm, obs, back), inc0)
    neg = cl.step_back(sysm, back)
    assert neg.index == -1
    assert np.array_equal(cl.evaluate_at(sysm, obs, neg),
                          cl.evaluate_at(sysm, obs, neg))


def test_doubling_is_not_invertible():
    sysm = cl.doubling()
    with pytest.raises(cl.NotInvertible):
        cl.step_back(sysm, cl.sample_initial(sysm, 0))


def test_sample_initial_uniform_doubling():
    sysm = cl.doubling(seed=0)
    xs = np.array([cl.sample_initial(sysm, i).coords[0] for i in range(10_000)])
    assert ks_uniform(xs) <= 0.02


def test_sample_initial_iid_shift_origin():
    sysm = cl.iid_shift("rademacher", d=1, seed=3)
    st0 = cl.sample_initial(sysm, 0)
    # a state is a value: the index and the key its increments are drawn from
    assert st0 == cl.SystemState(0, traj_key=(3, 0))


def test_invertible_roundtrip():
    for sysm in (cl.rotation("golden"), cl.cat_map(), cl.iid_shift("gaussian", d=2)):
        for i in range(1000):
            st0 = cl.sample_initial(sysm, i)
            rt = cl.step_back(sysm, cl.step(sysm, st0))
            assert rt.index == st0.index
            if st0.coords is not None:
                assert np.all(np.abs(rt.coords - st0.coords) <= 1e-12)


def test_measure_preservation_under_iteration():
    # empirical pushforward after 100 steps stays uniform per coordinate
    for sysm in (cl.rotation("golden"), cl.doubling(), cl.cat_map()):
        pts = []
        for i in range(2000):
            st0 = cl.sample_initial(sysm, i)
            pts.append(cl.state_at(sysm, st0, 100).coords.copy())
        pts = np.array(pts)
        for j in range(pts.shape[1]):
            assert ks_uniform(pts[:, j]) <= 0.03


def test_state_at_matches_repeated_step():
    sysm = cl.cat_map()
    st0 = cl.sample_initial(sysm, 7)
    walked = st0
    for _ in range(17):
        walked = cl.step(sysm, walked)
    jumped = cl.state_at(sysm, st0, 17)
    assert jumped.index == walked.index
    assert np.all(np.abs(jumped.coords - walked.coords) <= 1e-12)


def test_parse_system():
    sysm = cl.parse_system({"kind": "rotation", "alpha": "golden"}, seed=4)
    assert sysm.kind == "rotation" and sysm.seed == 4
    sysm = cl.parse_system({"kind": "iid-shift", "law": "cauchy", "d": 2})
    assert sysm.law == "cauchy" and sysm.d == 2
    with pytest.raises(cl.ConfigInvalid):
        cl.parse_system({"kind": "banana"})


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
def test_step_formulas(x):
    assert cl.step(cl.doubling(), cl.SystemState(0, coords=np.array([x]), traj_key=(0, 1))
                   ).coords[0] == pytest.approx((2.0 * x) % 1.0, abs=1e-12)
    assert cl.step(cl.rotation("golden"), rot_state(x)
                   ).coords[0] == pytest.approx((x + GOLDEN) % 1.0, abs=1e-12)


# The cache before it appended: every growth drew its stream again from the
# start, and reads gathered rows by index. Kept verbatim as the reference
# for the realized increments, with the draw expressions of that time.

class RedrawingIncrementCache:
    def __init__(self, key: tuple, law: str, d: int):
        self.key = key
        self.law = law
        self.d = d
        self._fwd = np.empty((0, d))
        self._bwd = np.empty((0, d))

    def _draw(self, stream: int, count: int) -> np.ndarray:
        rng = np.random.default_rng((*self.key, stream))
        d = self.d
        if self.law == "rademacher":
            flat = np.where(rng.random(count * d) < 0.5, -1.0, 1.0)
        elif self.law == "gaussian":
            flat = rng.standard_normal(count * d)
        else:
            # cauchy: isotropic, gaussian vector over an independent |gaussian|.
            # d+1 draws per row keeps the stream prefix-stable under regrowth.
            block = rng.standard_normal(count * (d + 1)).reshape(count, d + 1)
            return block[:, :d] / np.abs(block[:, d])[:, None]
        return flat.reshape(count, d)

    def _ensure(self, side: str, n: int):
        arr = self._fwd if side == "fwd" else self._bwd
        if len(arr) >= n:
            return
        n2 = max(2 * len(arr), n, 1024)
        fresh = self._draw(0 if side == "fwd" else 1, n2)
        if side == "fwd":
            self._fwd = fresh
        else:
            self._bwd = fresh

    def get(self, lo: int, hi: int) -> np.ndarray:
        """Increments for absolute indices lo..hi inclusive."""
        if hi >= 0:
            self._ensure("fwd", hi + 1)
        if lo < 0:
            self._ensure("bwd", -lo)
        idx = np.arange(lo, hi + 1)
        out = np.empty((len(idx), self.d))
        pos = idx >= 0
        out[pos] = self._fwd[idx[pos]]
        out[~pos] = self._bwd[-1 - idx[~pos]]
        return out


_SPANS = st.tuples(st.integers(-6000, 6000), st.integers(0, 2500)).map(
    lambda t: (t[0], t[0] + t[1]))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(cl.systems.LAWS), st.integers(1, 3), st.integers(0, 2**32),
       st.lists(_SPANS, min_size=1, max_size=8))
def test_increment_cache_reads_equal_the_redrawing_cache(law, d, seed, spans):
    # any order of two-sided reads, across growth steps, gives the bytes the
    # redrawing cache gave; each read is a fresh array, not a view of the cache
    cache = cl.systems.IncrementCache((seed, 1), law, d)
    ref = RedrawingIncrementCache((seed, 1), law, d)
    for lo, hi in spans:
        got = cache.get(lo, hi)
        assert got.shape == (hi - lo + 1, d) and got.flags.c_contiguous
        assert got.tobytes() == ref.get(lo, hi).tobytes()
        got[:] = np.nan
        assert cache.get(lo, hi).tobytes() == ref.get(lo, hi).tobytes()


def test_increment_cache_draws_each_row_once(monkeypatch):
    # the chunks handed out by _draw, laid end to end, are exactly the draws
    # of each stream from its start: a sweep draws no row twice, and each
    # read draws once, what it lacks
    drawn = {0: [], 1: []}
    draw = cl.systems.IncrementCache._draw

    def recorded(self, stream, count, out=None):
        drawn[stream].append(draw(self, stream, count, out).copy())
        return drawn[stream][-1]

    monkeypatch.setattr(cl.systems.IncrementCache, "_draw", recorded)
    cache = cl.systems.IncrementCache((4, 2), "gaussian", 2)
    fwd_reads = range(0, 1 << 20, 1 << 16)                # the engine's forward blocks
    bwd_reads = range(-1, -100_000, -8192)                # backward blocks
    for lo in fwd_reads:
        cache.get(lo, lo + (1 << 16))
    for lo in bwd_reads:
        cache.get(lo - 8191, lo)
    assert len(drawn[0]) == len(fwd_reads) and len(drawn[1]) == len(bwd_reads)
    # the sweep holds about its latest read in each stream
    assert len(cache._rows[0]) <= (1 << 16) + 1 and len(cache._rows[1]) <= 8192
    fwd, bwd = np.concatenate(drawn[0]), np.concatenate(drawn[1])
    fresh = cl.systems.IncrementCache((4, 2), "gaussian", 2)
    assert fresh.get(0, len(fwd) - 1).tobytes() == fwd.tobytes()
    assert fresh.get(-len(bwd), -1)[::-1].tobytes() == bwd.tobytes()


# draw counts around the edges of the cache's appends (1024 rows) and of the
# engine's blocks (2^16 rows), and arbitrary ones
_COUNTS = st.lists(st.sampled_from([1, 2, 1023, 1024, 1025, 65535, 65536, 65537])
                   | st.integers(1, 3000), min_size=1, max_size=5)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(cl.systems.LAWS), st.integers(1, 3), st.integers(0, 2**32),
       st.integers(0, 1), _COUNTS)
def test_draws_equal_the_expressions_before(law, d, seed, stream, counts):
    # the in-place Rademacher sign and the column-wise Cauchy quotient give
    # the bytes of the np.where and broadcast expressions of the reference
    # cache, and draws in chunks give the bytes of one draw of their total
    cache = cl.systems.IncrementCache((seed, 1), law, d)
    chunks = [cache._draw(stream, count) for count in counts]
    assert [c.shape for c in chunks] == [(count, d) for count in counts]
    total = sum(counts)
    once = cl.systems.IncrementCache((seed, 1), law, d)._draw(stream, total)
    ref = RedrawingIncrementCache((seed, 1), law, d)._draw(stream, total)
    assert once.dtype == ref.dtype == np.float64
    assert np.concatenate(chunks).tobytes() == once.tobytes() == ref.tobytes()


# a sweep's reads: from a start anywhere in either stream, blocks of any
# length, each a gap away from the last (a negative gap overlaps it by a few
# rows), forward or backward
_SWEEP_READS = st.lists(st.tuples(st.integers(4, 3000), st.integers(-3, 4000)),
                        min_size=1, max_size=10)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(cl.systems.LAWS + ("words",)), st.integers(1, 3),
       st.integers(0, 2**32), st.integers(-5000, 5000), _SWEEP_READS, st.booleans())
def test_a_sweep_cache_holds_one_read_and_restarts_behind_it(law, d, seed, start, reads,
                                                             backward):
    # a sweep's reads give the bytes of a fresh cache's. In the stream whose
    # draws the sweep reads in order, from its second read there it keeps
    # about one read; a read below the rows it kept draws the stream again
    # from the key and still gives the fresh cache's bytes
    if law == "words":              # the doubling map's digits: forward only
        d, start, backward = 1, abs(start), False

    def fresh(lo, hi):
        return cl.systems.IncrementCache((seed, 1), law, d).get(lo, hi).tobytes()

    sweep = cl.systems.IncrementCache((seed, 1), law, d)
    up = 1 if backward else 0
    edge, longest, reads_up = start, 0, 0
    for length, gap in reads:
        lo, hi = (edge - gap - length, edge - gap) if backward else \
            (edge + gap, edge + gap + length)
        if law == "words":
            lo = max(lo, 0)
        assert sweep.get(lo, hi).tobytes() == fresh(lo, hi)
        longest = max(longest, hi - lo + 1)
        reads_up += bool(lo < 0 if up else hi >= 0)
        if reads_up >= 2:
            assert len(sweep._rows[up]) <= longest + 1028
        edge = lo if backward else hi
    if reads_up >= 2 and sweep._base[up] > 0:
        i = sweep._base[up] - 1                  # the last draw it dropped
        behind = (-1 - i, -1 - i) if up else (i, i)
        assert sweep.get(*behind).tobytes() == fresh(*behind)
        assert sweep._base[up] == 0              # the stream starts again


@pytest.mark.parametrize("index", [200_000, -200_000])
def test_sweeps_from_either_side_of_the_origin(index):
    # a reverse sweep from a positive index reads the forward stream
    # downwards, a forward sweep from a negative one the backward stream:
    # both keep that stream's rows and give the sums of a fresh cache's reads
    sysm = cl.iid_shift("gaussian", d=2, seed=4)
    obs = cl.iid_increment("gaussian", 2)
    st0 = cl.state_at(sysm, cl.sample_initial(sysm, 1), index)
    N = 150_000

    def fresh(lo, hi):
        return cl.systems.increment_cache(sysm, st0).get(lo, hi)

    for sums, inc in ((cl.ergodic_sums, fresh(index, index + N - 1)),
                      (cl.reverse_sums, -fresh(index - N, index - 1)[::-1])):
        got = sums(sysm, obs, st0, N, checkpoint_every=None).values
        want = np.concatenate([np.zeros((1, 2)), np.cumsum(inc, axis=0)])
        assert np.max(np.abs(got - want)) <= 1e-9


# Python-int references for the lattice orbits, written from the definitions:
# a position is X * 2^-53 with X the nearest integer to x * 2^53, mod 2^53.
# The cat map is A^k X mod 2^53. The doubling map reads digits k+1 .. k+53
# of one big integer: the state's 53 digits, then the words drawn from the
# key (*traj_key, 2), from stream bit `index` on.

M53 = (1 << 53) - 1


def lattice(v: float) -> int:
    return round(v * 2.0 ** 53) & M53


def mat_mul(P, Q):
    return [[(P[i][0] * Q[0][j] + P[i][1] * Q[1][j]) & M53 for j in (0, 1)] for i in (0, 1)]


def cat_reference(coords, k: int) -> np.ndarray:
    M = [[2, 1], [1, 1]] if k >= 0 else [[1, -1], [-1, 2]]
    R = [[1, 0], [0, 1]]
    for bit in bin(abs(k))[2:]:
        R = mat_mul(R, R)
        if bit == "1":
            R = mat_mul(R, M)
    X, Y = (lattice(v) for v in coords)
    return np.array([(R[0][0] * X + R[0][1] * Y) & M53,
                     (R[1][0] * X + R[1][1] * Y) & M53]) * 2.0 ** -53


def doubling_reference(state: cl.SystemState, k: int) -> np.ndarray:
    i = state.index
    n = (i + k) // 64 + 2
    words = np.random.default_rng((*state.traj_key, 2)).bit_generator.random_raw(n)
    tail_bits = 64 * n - i
    tail = int.from_bytes(words.astype(">u8").tobytes(), "big") & ((1 << tail_bits) - 1)
    x = (lattice(state.coords[0]) << tail_bits) | tail
    return np.array([(x >> (tail_bits - k)) & M53]) * 2.0 ** -53


@pytest.mark.parametrize("sysm", [cl.rotation("sqrt3m1", seed=2), cl.doubling(seed=3),
                                  cl.cat_map(seed=4)], ids=lambda s: s.kind)
def test_state_at_reads_the_span_row_bit_for_bit(sysm):
    sy = cl.systems
    origin = cl.sample_initial(sysm, 5)
    st0 = sy.state_at(sysm, origin, 50)
    lo = 0 if sysm.kind == "doubling" else -50
    for k in (lo, lo + 1, 1, 2, 47, 48, 49, 131, 1000):
        got = sy.state_at(sysm, st0, k)
        idx = st0.index + k
        if sysm.kind == "rotation":
            want = np.array([np.mod(st0.origin + sysm.alpha_value * np.float64(idx), 1.0)])
        elif sysm.kind == "doubling":
            want = doubling_reference(origin, idx)
        else:
            want = cat_reference(origin.coords, idx)
        assert got.index == idx and got.coords.tobytes() == want.tobytes()
    if sysm.kind == "doubling":
        with pytest.raises(cl.NotInvertible):
            sy.state_at(sysm, st0, -1)


# span starts near the edges of a 64-bit word and of an engine block, or anywhere
_STARTS = st.one_of(st.integers(0, 70_000),
                    st.sampled_from([64, 128, 1 << 16]).flatmap(
                        lambda e: st.integers(e - 60, e + 60)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.integers(-2**40, 2**40), _STARTS,
       st.integers(0, 200), st.booleans())
def test_cat_map_spans_match_the_integer_reference(seed, index, lo, length, backward):
    # jump to a random index, forward or backward, then read a span there
    sysm = cl.cat_map(seed=seed % 7)
    origin = cl.sample_initial(sysm, seed)
    st0 = cl.state_at(sysm, origin, index)
    lo = -lo - length if backward else lo
    span = cl.orbit_span(sysm, st0, lo, lo + length).positions
    want = np.array([cat_reference(origin.coords, index + r)
                     for r in range(lo, lo + length + 1)])
    assert np.ascontiguousarray(span).tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 20_000), _STARTS, st.integers(0, 200))
def test_doubling_spans_match_the_integer_reference(seed, index, lo, length):
    # a state read off the orbit at `index` continues the orbit of x0 digit
    # for digit, so spans from it match the reference from the origin
    sysm = cl.doubling(seed=seed % 7)
    origin = cl.sample_initial(sysm, seed)
    st0 = cl.state_at(sysm, origin, index)
    span = cl.orbit_span(sysm, st0, lo, lo + length).positions
    want = np.array([doubling_reference(origin, index + r) for r in range(lo, lo + length + 1)])
    assert span.tobytes() == want.tobytes()


def test_cat_map_state_at_jumps_ahead_by_squaring():
    # 10^12 steps in either direction in O(log k) work, from a sampled state
    # and from a hand-built one off the lattice (0.3 * 2^53 ends in .6)
    sysm = cl.cat_map(seed=9)
    for origin in (cl.sample_initial(sysm, 2), cl.SystemState(0, coords=np.array([0.3, 0.1]))):
        for k in (10**12, -10**12, 2**40 + 3):
            got = cl.state_at(sysm, origin, k)
            assert got.index == k
            assert got.coords.tobytes() == cat_reference(origin.coords, k).tobytes()
            back = cl.state_at(sysm, got, -k).coords
            assert back.tobytes() == cat_reference(origin.coords, 0).tobytes()
