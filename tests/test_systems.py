"""Base dynamics: stepping, inversion, initial sampling, invariance."""

import sys
from concurrent.futures import ThreadPoolExecutor

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
    # the realized sequence is a function of the index: rereads are bit-identical
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
    # d and seed follow the config schema's integer rule, with typed errors
    sysm = cl.parse_system({"kind": "iid-shift", "law": "gaussian", "d": 3.0, "seed": -2.0})
    assert (sysm.d, sysm.seed) == (3, -2) and type(sysm.d) is type(sysm.seed) is int
    assert cl.parse_system({"kind": "doubling", "seed": np.int64(5)}).seed == 5
    for field, bad in (("d", "x"), ("d", None), ("d", 2.7), ("d", True), ("d", float("inf")),
                       ("d", [2]), ("seed", "s"), ("seed", 0.5), ("seed", False),
                       ("seed", float("nan"))):
        with pytest.raises(cl.ConfigInvalid) as err:
            cl.parse_system({"kind": "iid-shift", "law": "gaussian", field: bad})
        assert err.value.field == f"system.{field}"


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
    # any order of two-sided reads, across marks, gives the bytes the
    # redrawing cache gave; each read is a fresh array (a read wholly below
    # the origin is a reversed view of one, not a copy)
    ref = RedrawingIncrementCache((seed, 1), law, d)
    for lo, hi in spans:
        got = cl.systems.increments((seed, 1), law, d, lo, hi)
        assert got.shape == (hi - lo + 1, d)
        assert got.flags.c_contiguous == (hi >= 0 or lo == hi)
        assert got.tobytes() == ref.get(lo, hi).tobytes()
        got[:] = np.nan
        assert cl.systems.increments((seed, 1), law, d, lo, hi).tobytes() == \
            ref.get(lo, hi).tobytes()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32),
       st.lists(st.tuples(st.integers(0, 40_000), st.integers(0, 20_000)), min_size=1,
                max_size=6))
def test_word_reads_are_the_raw_stream(seed, spans):
    # the doubling map's digit words, read in any order and across marks,
    # are the raw outputs of the generator keyed (*key, 2)
    raw = np.random.default_rng((seed, 1, 2)).bit_generator.random_raw(60_001)
    for lo, n in spans:
        got = cl.systems.increments((seed, 1), "words", 1, lo, lo + n)
        assert got.dtype == np.uint64 and got.shape == (n + 1, 1)
        assert got[:, 0].tobytes() == raw[lo:lo + n + 1].tobytes()


# draw counts around the edges of the marks (8192 rows) and of the engine's
# blocks (2^16 rows), and arbitrary ones
_COUNTS = st.lists(st.sampled_from([1, 2, 8191, 8192, 8193, 65535, 65536, 65537])
                   | st.integers(1, 3000), min_size=1, max_size=5)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(cl.systems.LAWS), st.integers(1, 3), st.integers(0, 2**32),
       st.integers(0, 1), _COUNTS)
def test_draws_equal_the_expressions_before(law, d, seed, stream, counts):
    # the in-place Rademacher sign and the column-wise Cauchy quotient give
    # the bytes of the np.where and broadcast expressions of the reference
    # cache, and draws in chunks give the bytes of one draw of their total
    def draw(rng, count):
        return cl.systems._draw(rng, law, d, np.empty((count, d)))

    rng = np.random.default_rng((seed, 1, stream))
    chunks = [draw(rng, count) for count in counts]
    assert [c.shape for c in chunks] == [(count, d) for count in counts]
    total = sum(counts)
    once = draw(np.random.default_rng((seed, 1, stream)), total)
    ref = RedrawingIncrementCache((seed, 1), law, d)._draw(stream, total)
    assert once.dtype == ref.dtype == np.float64
    assert np.concatenate(chunks).tobytes() == once.tobytes() == ref.tobytes()


@pytest.mark.parametrize("start", [0, -(1 << 18)])
def test_a_sweep_draws_its_rows_and_at_most_a_mark_more_per_read(start, monkeypatch):
    # a sweep draws the rows it skips to reach its start, its own rows, and
    # per block its lookahead, the row past the block and at most MARK rows
    # up from a mark, counted without a clock. The memo changes no byte, and it
    # keeps only the latest 64 streams
    sy = cl.systems
    drawn = []
    draw = sy._draw

    def counted(rng, law, d, out):
        drawn.append(len(out))
        return draw(rng, law, d, out)

    monkeypatch.setattr(sy, "_draw", counted)
    sysm = cl.iid_shift("gaussian", d=2, seed=4)
    obs = cl.iid_increment("gaussian", 2)
    st0 = cl.state_at(sysm, cl.sample_initial(sysm, 1), start)
    N, BLOCK = 1 << 20, cl.engine.BLOCK
    assert sy.MARK == cl.induce.BLOCK and BLOCK % sy.MARK == 0
    sy._marks.cache_clear()
    cold = cl.ergodic_sums(sysm, obs, st0, N, checkpoint_every=None).values
    assert sum(drawn) <= abs(start) + N + -(-N // BLOCK) * (obs.lookahead + 1 + sy.MARK)
    warm = cl.ergodic_sums(sysm, obs, st0, N, checkpoint_every=None).values
    assert warm.tobytes() == cold.tobytes()
    for seed in range(100):
        sy.increments((seed, 7), "rademacher", 2, -3, 3)
    assert sy._marks.cache_info().currsize <= 64


def test_consecutive_doubling_reads_draw_about_the_words_they_read(monkeypatch):
    # a read of 8192 orbit steps takes about 129 digit words; the next read
    # restores a mark at most MARK // 64 words below its start, not MARK
    # words (which redrew some 30 times the words read). Counted without a
    # clock; the words are the raw stream either way
    sy = cl.systems
    drawn, read = [], []
    draw, increments = sy._draw, sy.increments

    def counted(rng, law, d, out):
        drawn.append(len(out) if law == "words" else 0)
        return draw(rng, law, d, out)

    def reads(key, law, d, lo, hi):
        read.append(hi - lo + 1)
        return increments(key, law, d, lo, hi)

    monkeypatch.setattr(sy, "_draw", counted)
    monkeypatch.setattr(sy, "increments", reads)
    sysm = cl.doubling(seed=21)
    st0 = cl.sample_initial(sysm, 5)
    spans = [sy.orbit_span(sysm, st0, k * 8192, (k + 1) * 8192 - 1) for k in range(128)]
    assert sum(read) >= 128 * 128 and sum(drawn) < 2 * sum(read)
    whole = sy.orbit_span(sysm, st0, 0, 128 * 8192 - 1)
    assert np.concatenate([sp.positions for sp in spans]).tobytes() == whole.positions.tobytes()


def test_concurrent_reads_of_a_cold_stream_give_its_bytes():
    # threads that read one stream from a cold memo, each in its own order,
    # save the same marks and read the bytes of a single reader
    sy = cl.systems
    key, law, d = (3, 8), "rademacher", 2
    spans = [(lo, lo + 5000) for lo in range(-60_000, 60_000, 7919)]
    want = [sy.increments(key, law, d, lo, hi).tobytes() for lo, hi in spans]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            sy._marks.cache_clear()
            with ThreadPoolExecutor(6) as pool:
                orders = [(spans[k:] + spans[:k])[::(-1) ** k] for k in range(6)]
                futures = [pool.submit(lambda o: {s: sy.increments(key, law, d, *s).tobytes()
                                                  for s in o}, o) for o in orders]
                for future in futures:
                    got = future.result(timeout=60)
                    assert [got[s] for s in spans] == want
    finally:
        sys.setswitchinterval(switch)


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
        return cl.systems.increments(st0.traj_key, "gaussian", 2, lo, hi)

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
