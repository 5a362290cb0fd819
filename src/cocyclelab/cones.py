"""Cones with apex at the origin and exact segment-occupation kernels.

Membership is strict (open cones): the boundary counts as outside.
Every cone here has a boundary of Lebesgue measure zero, so the
convention cannot move any occupation time beyond crossing tolerance.

`segment_fraction(P0, P1)` returns, per segment, the length fraction of
{s in [0,1]: P0 + s (P1 - P0) in C}, in closed form:

- half-space: one linear crossing per segment;
- orthant: one candidate crossing per constrained coordinate;
- angular cone (axis u, aperture ap, i.e. membership
  ||v/||v|| - u|| < ap, equivalently <v,u> > c||v|| with
  c = 1 - ap^2/2): the squared condition is a quadratic in s whose
  roots are the only possible crossings.

For the last two, a segment with no candidate strictly inside (0, 1)
takes one membership test, at its midpoint. Only crossing segments
(about 0.1% of a long walk's) split [0,1] at their sorted candidates and
test each piece's midpoint with the exact (unsquared) membership, so
spurious roots and tangencies drop out without bisection.

The angular, orthant and ball kernels run in blocks of ROWS segments,
through the two methods `Cone` defines once (`segment_fraction` and
`path_fractions`; the half-space and `Complement` have their own).
In the plane and for the ball a convexity screen decides most rows
before any closed form. With m a segment's largest |coordinate| and a
margin of MARGIN * m:

- planar angular cone: the screen works on K, the cone itself if its
  cos_threshold is positive, else the closure of its complement, and
  on K's two boundary lines: both ends inside both lines give 1.0 for
  K, both ends beyond one line give 0.0;
- ball: both ends inside M / (1 + MARGIN) give 1.0; both ends at least
  (M + segment length)(1 + MARGIN) from the centre give 0.0.

On these rows the closed form returns exactly 1.0 or 0.0. The rest, and
rows whose m is 0 or lies outside BAND, take the closed form; on a long
walk that is under 1% of the rows. Angular cones in d >= 3 and orthants
have no screen: every row takes the closed form. The screen moves no
byte.

A row's bytes depend on the row alone, not on the rows passed with it
or on their layout: every <P,u> that reaches an output goes through
`_dot`, which gives each row the bytes it has among two or more
C-ordered rows, and the closed forms' row-wise sums take C-ordered rows.

A kernel's `path_fractions` reads a walk: each point ends one segment
and starts the next, so the screened kernels take its screen inputs
(face heights, or the ball's norm) and its scale once, and a half-space
its height. A row the screen decides gives its end's membership too
(inside exactly when the segment is); only the ends of rows that take
the closed form run `contains`, which takes every end of a kernel with
no screen, block by block.

Membership is positively homogeneous. The angular closed forms square
coordinates, so the angular cone first moves each nonzero row (a point,
or a segment's two ends together) whose largest |coordinate| lies
outside BAND into [0.5, 1) by an exact power of two; other rows are
taken as given. The ball window is not homogeneous and its closed form
squares coordinates as given: its fractions hold up to coordinates of
about 1e154, where the squares overflow (a row beyond that is outside
BAND, so the screen leaves it to the closed form). _true_norm takes a
row's norm at every finite scale.
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigInvalid, _spec, _whole

ROWS = 1 << 14          # segments per kernel block: temporaries stay in cache
BAND = (2.0 ** -40, 2.0 ** 200)     # row scales taken as given (else moved, or not screened)
MARGIN = 1e-9           # relative margin by which the screen decides a segment


class Cone:
    d: int
    _screen = None                  # no screen: every row takes the closed form

    def contains(self, V: np.ndarray) -> np.ndarray:
        """Strict membership for points, vectorized over rows."""
        raise NotImplementedError

    def segment_fraction(self, P0: np.ndarray, P1: np.ndarray) -> np.ndarray:
        """Each segment's fraction inside, in blocks of ROWS independent
        segments (temporaries scale with ROWS, not N), through the screen
        unless there is none."""
        out = np.empty(len(P0))
        for k in range(0, len(P0), ROWS):
            p0, p1 = P0[k:k + ROWS], P1[k:k + ROWS]
            if self._screen is None:
                out[k:k + ROWS] = self._fractions(p0, p1)
                continue
            with np.errstate(over="ignore", invalid="ignore"):
                g0, g1 = self._points(p0), self._points(p1)
            out[k:k + ROWS] = _screened(self, p0, p1, g0, g1, _scale(p0, p1))[0]
        return out

    def complement(self) -> "Cone":
        return Complement(self)

    def path_fractions(self, V, known=None, ends=True):
        """``segment_fraction(V[:-1], V[1:])`` and ``contains(V[1:])`` of a
        walk's points V, bytes included, in blocks of ROWS segments.

        A screened kernel takes a block's screen inputs (or known's) and
        scales once a point; only the ends of rows that took the closed
        form run contains. known may hold the norms of V, which only a
        BallWindow reads. Without ends the caller needs no membership,
        which may then be None.
        """
        n = len(V) - 1
        fr, inside = np.empty(n), np.empty(n, dtype=bool) if ends else None
        for lo in range(0, n, ROWS):
            pts = V[lo:lo + ROWS + 1]
            if self._screen is None:
                fr[lo:lo + ROWS] = self._fractions(pts[:-1], pts[1:])
                if ends:
                    inside[lo:lo + ROWS] = self.contains(pts[1:])
                continue
            with np.errstate(over="ignore", invalid="ignore"):
                g = self._points(pts) if known is None else known[lo:lo + ROWS + 1]
            m = _scale(pts)
            fr[lo:lo + ROWS], ins, i = _screened(self, pts[:-1], pts[1:], g[..., :-1],
                                                 g[..., 1:], np.maximum(m[:-1], m[1:]))
            if ends:
                if len(i):
                    ins[i] = self.contains(pts[i + 1])
                inside[lo:lo + ROWS] = ins
        return fr, inside


def _dot(V, u) -> np.ndarray:
    # np.dot(V, u), each row with the bytes it has among two or more
    # C-ordered rows: BLAS rounds a lone row, or another layout, its own way
    # (a third of a planar Cauchy walk's lone rows move by a bit). np.dot
    # gives the bytes @ gives, and is several times faster when d == 1
    V = np.ascontiguousarray(V)
    W = V.reshape(-1, V.shape[-1])
    if len(W) == 1:                         # a lone row, beside a copy of itself
        return np.dot(np.concatenate([W, W]), u)[:1].reshape(V.shape[:-1])
    return np.dot(W, u).reshape(V.shape[:-1])


def _norm(V) -> np.ndarray:
    # np.linalg.norm(V, axis=-1), bytes included: np.add.reduce sums d <= 7
    # squares in order, which a column-wise sum repeats without its per-row
    # cost; from d = 8 on it keeps eight partial sums, so it runs itself
    V = np.asarray(V)
    if V.shape[-1] >= 8:
        return np.sqrt(np.add.reduce(V * V, axis=-1))
    return np.sqrt(sum(V[..., k] * V[..., k] for k in range(V.shape[-1])))


def _scale(*Ps) -> np.ndarray:
    # largest |coordinate| of each row of Ps taken together (NaN if any is NaN)
    m = np.zeros(Ps[0].shape[:-1])
    for P in Ps:
        for k in range(P.shape[-1]):
            np.maximum(m, np.abs(P[..., k]), out=m)
    return m


def _band_exponent(*Ps):
    # rows of Ps taken together: e such that ldexp(row, -e) has its largest
    # |coordinate| in [0.5, 1) for a nonzero row whose largest |coordinate|
    # lies outside BAND, and 0 for every other row; None if no row lies outside
    m = _scale(*Ps)
    out = (m > BAND[1]) | ((m < BAND[0]) & (m > 0.0))
    if not out.any():
        return None
    return np.where(out, np.frexp(m)[1], 0)[..., None]


def _into_band(*Ps):
    # rows of Ps taken together, scaled by 2^-e (ldexp, exact)
    e = _band_exponent(*Ps)
    return Ps if e is None else tuple(np.ldexp(P, -e) for P in Ps)


def _true_norm(V):
    # _norm(V), bytes included, except where the squares overflow: there the
    # norm of the row moved into BAND, scaled back, which is inf only where
    # the true norm lies past the float64 range
    V = np.asarray(V)
    with np.errstate(over="ignore"):
        nrm = np.asarray(_norm(V))
        big = nrm == np.inf
        if big.any():
            W = V[big]                      # a 1-d V and 0-d nrm give one row
            e = _band_exponent(W)[:, 0]
            nrm[big] = np.ldexp(_norm(np.ldexp(W, -e[:, None])), e)
    return nrm[()]


def _screened(kernel, P0, P1, g0, g1, m):
    # one block: kernel._screen, from its inputs g0, g1 at the ends and the
    # scale m, decides the rows on one side of the boundary throughout, where
    # the closed form gives exactly 1.0 or 0.0; the rest, and rows of scale 0
    # or outside BAND, take it. Returns the fractions, the rows decided
    # inside and the rows that took the closed form
    with np.errstate(over="ignore", invalid="ignore"):    # rows outside BAND
        inside, outside = kernel._screen(P0, P1, g0, g1, m)
    fr = inside.astype(np.float64)
    i = np.flatnonzero(~((inside | outside) & (m >= BAND[0]) & (m <= BAND[1])))
    if len(i):
        fr[i] = kernel._fractions(P0[i], P1[i])
    return fr, inside, i


def _crossing_fraction(a0, a1) -> np.ndarray:
    # a0, a1: signed heights of the ends of segments that cross 0 (one end
    # above 0, the other not, so a0 != a1): the fraction of each above 0
    t0 = a0 / (a0 - a1)
    return np.where(a0 > 0.0, t0, 1.0 - t0)


def _faces(A0, A1, tol):
    # A0, A1: (k, n) heights of the segments' ends over the k faces of a
    # convex cone, along the faces' inward normals. Both ends inside every
    # face, or both beyond one face, by tol: the segment lies inside, or
    # outside, throughout
    lo, hi = np.minimum(A0[0], A1[0]), np.maximum(A0[0], A1[0])
    for j in range(1, len(A0)):
        np.minimum(lo, np.minimum(A0[j], A1[j]), out=lo)
        np.minimum(hi, np.maximum(A0[j], A1[j]), out=hi)
    return lo > tol, hi < -tol


def _midpoint_fractions(cone: Cone, P0, P1, ts) -> np.ndarray:
    # ts: (m, n), m candidate crossings per segment. A segment with none
    # strictly inside (0, 1) (NaN counts as inside) lies on one side: one
    # test at its midpoint. The rest test every piece between sorted breakpoints
    fr = cone.contains(P0 + 0.5 * (P1 - P0)).astype(np.float64)
    i = np.flatnonzero((~((ts <= 0.0) | (ts >= 1.0))).any(axis=0))
    P0, P1, k = P0[i], P1[i], len(i)
    ts = np.concatenate([np.zeros((k, 1)), np.clip(ts[:, i].T, 0.0, 1.0),
                         np.ones((k, 1))], axis=1)
    ts.sort(axis=1)
    mids = 0.5 * (ts[:, 1:] + ts[:, :-1])                       # (k, m+1)
    seg = (P1 - P0)[:, None, :]
    pts = P0[:, None, :] + mids[..., None] * seg                # (k, m+1, d)
    inside = cone.contains(pts.reshape(-1, cone.d)).reshape(mids.shape)
    fr[i] = ((ts[:, 1:] - ts[:, :-1]) * inside).sum(axis=1)
    return fr


class HalfSpace(Cone):
    """{v: <v, normal> > 0}."""

    def __init__(self, normal):
        u = np.asarray(normal, dtype=np.float64)
        if u.ndim != 1 or not np.any(u != 0.0) or not np.all(np.isfinite(u)):
            raise ConfigInvalid("cone", "half-space needs a nonzero finite normal")
        self.normal = u
        self.d = len(u)

    def contains(self, V):
        return _dot(V, self.normal) > 0.0

    def segment_fraction(self, P0, P1):
        a0, a1 = _dot(P0, self.normal), _dot(P1, self.normal)
        return self._above(a0, a1, a0 > 0.0, a1 > 0.0)

    def path_fractions(self, V, known=None, ends=True):
        # one height and one side a point
        a = _dot(V, self.normal)
        pos = a > 0.0
        return self._above(a[:-1], a[1:], pos[:-1], pos[1:]), pos[1:]

    @staticmethod
    def _above(a0, a1, pos0, pos1):
        # fractions above 0 of segments with end heights a0, a1 (above 0 at
        # pos), written over a1: no array besides the heights is as long
        i = np.flatnonzero(pos0 != pos1)
        cross = _crossing_fraction(a0[i], a1[i])
        a1[...] = pos1
        a1[i] = cross
        return a1


class Orthant(Cone):
    """{v: sign_i * v_i > 0 for every i with sign_i != 0}.

    All-zero signs give the whole space (the degenerate full cone used
    by trivial baselines).
    """

    def __init__(self, signs):
        s = np.asarray(signs, dtype=np.float64)
        if s.ndim != 1 or not len(s) or not np.all(np.isin(s, (-1.0, 0.0, 1.0))):
            raise ConfigInvalid("cone", "an orthant needs one or more signs, each -1, 0 or 1")
        self.signs = s
        self.d = len(s)
        self._active = np.flatnonzero(s != 0.0)

    def contains(self, V):
        V = np.asarray(V)
        if len(self._active) == 0:
            return np.ones(V.shape[:-1], dtype=bool)
        act = self.signs[self._active] * V[..., self._active]
        return np.all(act > 0.0, axis=-1)

    def _fractions(self, P0, P1):
        if len(self._active) == 0:
            return np.ones(len(P0))
        p = P0[:, self._active]
        q = (P1 - P0)[:, self._active]
        qs = np.where(q == 0.0, 1.0, q)
        ts = np.where(q == 0.0, 1.0, -p / qs)                   # crossing per face
        return _midpoint_fractions(self, P0, P1, ts.T)


class AngularCone(Cone):
    """{v != 0: ||v/||v|| - axis|| < aperture}."""

    def __init__(self, axis, aperture: float):
        u = np.asarray(axis, dtype=np.float64)
        nrm = np.sqrt(u.ravel().dot(u.ravel()))
        if u.ndim != 1 or nrm == 0.0 or not np.all(np.isfinite(u)):
            raise ConfigInvalid("cone", "angular cone needs a nonzero finite axis")
        if not 0.0 < aperture < 2.0:
            raise ConfigInvalid("cone", "aperture must lie in (0, 2)")
        self.axis = u / nrm
        self.aperture = float(aperture)
        # ||v/||v|| - u||^2 = 2 - 2 cos(angle) < ap^2  <=>  cos > 1 - ap^2/2
        self.cos_threshold = 1.0 - 0.5 * aperture * aperture
        self.d = len(u)
        # the screen's convex cone K in d = 2: this cone if cos_threshold > 0,
        # else the closure of its complement; its two boundary lines, by
        # their inward unit normals. No screen in d >= 3
        self._convex = self.cos_threshold > 0.0
        if self.d == 2:
            c = abs(self.cos_threshold)
            s = np.sqrt(1.0 - c * c)
            w = self.axis if self._convex else -self.axis
            w_perp = np.array([-w[1], w[0]])
            self._normals = np.stack([s * w - c * w_perp, s * w + c * w_perp])
        else:
            self._screen = None         # every row takes the closed form

    def contains(self, V):
        (V,) = _into_band(np.asarray(V))
        return _dot(V, self.axis) > self.cos_threshold * _norm(V)

    def _points(self, V):
        # the screen's inputs: each point's heights over K's two faces
        return self._normals @ V.T

    def _screen(self, P0, P1, A0, A1, m):
        in_k, out_k = _faces(A0, A1, MARGIN * m)
        return (in_k, out_k) if self._convex else (out_k, in_k)

    def _fractions(self, P0, P1):
        P0, P1 = _into_band(np.ascontiguousarray(P0), np.ascontiguousarray(P1))
        c2 = self.cos_threshold * self.cos_threshold
        q = P1 - P0
        pu = _dot(P0, self.axis)
        qu = _dot(q, self.axis)
        pp = np.einsum("ij,ij->i", P0, P0)
        pq = np.einsum("ij,ij->i", P0, q)
        qq = np.einsum("ij,ij->i", q, q)
        # sign-squared membership g(s) = <v,u>^2 - c^2 ||v||^2, v = P0 + s q
        A = qu * qu - c2 * qq
        Bh = pu * qu - c2 * pq                                  # half of the s coefficient
        C = pu * pu - c2 * pp
        quad = np.abs(A) > 1e-30
        disc = Bh * Bh - A * C
        ok = quad & (disc > 0.0)
        sq = np.sqrt(np.where(ok, disc, 0.0))
        As = np.where(ok, A, 1.0)
        lin = ~quad & (np.abs(Bh) > 1e-30)
        # roots of the quadratic, or of its linear remainder; 1.0 (no crossing) elsewhere
        r0 = np.where(ok, (-Bh - sq) / As,
                      np.where(lin, -0.5 * C / np.where(lin, Bh, 1.0), 1.0))
        r1 = np.where(ok, (-Bh + sq) / As, 1.0)
        return _midpoint_fractions(self, P0, P1, np.stack([r0, r1]))


class Complement(Cone):
    """Strict complement; occupation fractions add to 1 exactly."""

    def __init__(self, inner: Cone):
        self.inner = inner
        self.d = inner.d

    def contains(self, V):
        return ~self.inner.contains(V)

    # 1 - fr and the negated membership, written over the inner kernel's arrays
    def segment_fraction(self, P0, P1):
        fr = self.inner.segment_fraction(P0, P1)
        return np.subtract(1.0, fr, out=fr)

    def path_fractions(self, V, known=None, ends=True):
        fr, inside = self.inner.path_fractions(V, ends=ends)
        np.subtract(1.0, fr, out=fr)
        return fr, None if inside is None else np.logical_not(inside, out=inside)

    def complement(self) -> Cone:
        return self.inner


class BallWindow:
    """Open ball {||v|| < M}; same kernel interface as cones (not a cone)."""

    def __init__(self, M: float):
        if not 0.0 < M < np.inf:
            raise ConfigInvalid("ball", "radius must be positive and finite")
        self.M = float(M)

    def contains(self, V):
        return _norm(V) < self.M

    segment_fraction = Cone.segment_fraction
    path_fractions = Cone.path_fractions
    _points = staticmethod(_norm)           # the screen's inputs: each point's norm

    def _screen(self, P0, P1, n0, n1, m):
        # both ends inside the convex ball, or both farther from the centre
        # than M plus the segment's length, by the relative MARGIN
        inside = np.maximum(n0, n1) * (1.0 + MARGIN) < self.M
        far = np.minimum(n0, n1) >= (self.M + _norm(P1 - P0)) * (1.0 + MARGIN)
        return inside, far

    def _fractions(self, P0, P1):
        # ||P0 + s q||^2 < M^2 is convex in s: inside exactly between roots
        P0, P1 = np.ascontiguousarray(P0), np.ascontiguousarray(P1)
        q = P1 - P0
        pp = np.einsum("ij,ij->i", P0, P0)
        pq = np.einsum("ij,ij->i", P0, q)
        qq = np.einsum("ij,ij->i", q, q)
        M2 = self.M * self.M
        still = qq == 0.0
        qs = np.where(still, 1.0, qq)
        disc = pq * pq - qs * (pp - M2)
        sq = np.sqrt(np.maximum(disc, 0.0))
        r0 = np.clip((-pq - sq) / qs, 0.0, 1.0)
        r1 = np.clip((-pq + sq) / qs, 0.0, 1.0)
        frac = np.where(disc > 0.0, r1 - r0, 0.0)
        return np.where(still, (pp < M2).astype(np.float64), frac)


def parse_cone(text: str, d: int | None = None) -> Cone:
    """Parse CLI cone strings through `errors._spec`; every value is finite.

    "halfspace:0,1" (normal) and "orthant:1,-1,0" (signs) take 1+ values,
    "angular:u1,..,ud,ap" (axis then aperture) 3+, and "full:d" or "full:"
    (whole space, of dimension d, else the given d or 2) 0 or 1; a leading
    "!" takes the complement. Given d, a cone of another dimension is rejected.
    """
    if text.startswith("!"):
        return parse_cone(text[1:], d).complement()
    kind, nums = _spec("cone", text, {"halfspace": (1, None, 0), "orthant": (1, None, 0),
                                      "angular": (3, None, 0), "full": (0, 1, 0)})
    if kind == "halfspace":
        cone = HalfSpace(nums)
    elif kind == "orthant":
        cone = Orthant(nums)
    elif kind == "angular":
        cone = AngularCone(nums[:-1], nums[-1])
    else:
        cone = Orthant([0.0] * _whole("cone", nums[0] if nums else (d or 2), 1))
    if d is not None and cone.d != d:
        raise ConfigInvalid("cone", f"cone {text!r} has dimension {cone.d}, need {d}")
    return cone
