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
spurious roots and tangencies drop out without bisection. Angular
fractions of segments whose squared coordinates overflow (about 1e154
and above) come out NaN, or 0 where the norm itself overflows.
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigInvalid

ROWS = 1 << 14          # segments per angular-kernel block: temporaries stay in cache


class Cone:
    d: int

    def contains(self, V: np.ndarray) -> np.ndarray:
        """Strict membership for points, vectorized over rows."""
        raise NotImplementedError

    def segment_fraction(self, P0: np.ndarray, P1: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def complement(self) -> "Cone":
        return Complement(self)


def _norm(V) -> np.ndarray:
    # sqrt(v0*v0 + v1*v1 + ...) over the last axis, summed in the order
    # np.add.reduce takes for d <= 7 (same bytes), without its per-row cost
    V = np.asarray(V)
    return np.sqrt(sum(V[..., k] * V[..., k] for k in range(V.shape[-1])))


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
        if u.ndim != 1 or not np.any(u != 0.0):
            raise ConfigInvalid("cone", "half-space needs a nonzero normal")
        self.normal = u
        self.d = len(u)

    def contains(self, V):
        return np.asarray(V) @ self.normal > 0.0

    def segment_fraction(self, P0, P1):
        # np.dot gives the bytes @ gives, and is several times faster when d == 1
        a0 = np.dot(P0, self.normal)
        a1 = np.dot(P1, self.normal)
        pos0 = a0 > 0.0
        pos1 = a1 > 0.0
        fr = pos1.astype(np.float64)
        # only segments whose ends differ in sign cross; there a0 != a1
        i = np.flatnonzero(pos0 != pos1)
        t0 = a0[i] / (a0[i] - a1[i])
        fr[i] = np.where(pos0[i], t0, 1.0 - t0)
        return fr


class Orthant(Cone):
    """{v: sign_i * v_i > 0 for every i with sign_i != 0}.

    All-zero signs give the whole space (the degenerate full cone used
    by trivial baselines).
    """

    def __init__(self, signs):
        s = np.asarray(signs, dtype=np.float64)
        if s.ndim != 1 or not np.all(np.isin(s, (-1.0, 0.0, 1.0))):
            raise ConfigInvalid("cone", "orthant signs must be -1, 0 or 1")
        self.signs = s
        self.d = len(s)
        self._active = np.flatnonzero(s != 0.0)

    def contains(self, V):
        V = np.asarray(V)
        if len(self._active) == 0:
            return np.ones(V.shape[:-1], dtype=bool)
        act = self.signs[self._active] * V[..., self._active]
        return np.all(act > 0.0, axis=-1)

    def segment_fraction(self, P0, P1):
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
        if u.ndim != 1 or nrm == 0.0:
            raise ConfigInvalid("cone", "angular cone needs a nonzero axis")
        if not 0.0 < aperture < 2.0:
            raise ConfigInvalid("cone", "aperture must lie in (0, 2)")
        self.axis = u / nrm
        self.aperture = float(aperture)
        # ||v/||v|| - u||^2 = 2 - 2 cos(angle) < ap^2  <=>  cos > 1 - ap^2/2
        self.cos_threshold = 1.0 - 0.5 * aperture * aperture
        self.d = len(u)

    def contains(self, V):
        return np.asarray(V) @ self.axis > self.cos_threshold * _norm(V)

    def segment_fraction(self, P0, P1):
        out = np.empty(len(P0))
        for k in range(0, len(P0), ROWS):
            out[k:k + ROWS] = self._fractions(P0[k:k + ROWS], P1[k:k + ROWS])
        return out

    def _fractions(self, P0, P1):
        c2 = self.cos_threshold * self.cos_threshold
        q = P1 - P0
        pu = P0 @ self.axis
        qu = q @ self.axis
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

    def segment_fraction(self, P0, P1):
        return 1.0 - self.inner.segment_fraction(P0, P1)

    def complement(self) -> Cone:
        return self.inner


class BallWindow:
    """Open ball {||v|| < M}; same kernel interface as cones (not a cone)."""

    def __init__(self, M: float):
        if M <= 0.0:
            raise ConfigInvalid("ball", "radius must be positive")
        self.M = float(M)

    def contains(self, V):
        return _norm(V) < self.M

    def segment_fraction(self, P0, P1):
        # ||P0 + s q||^2 < M^2 is convex in s: inside exactly between roots
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
    """Parse CLI cone strings.

    "halfspace:0,1" (normal), "orthant:1,-1,0" (signs),
    "angular:u1,..,ud,ap" (axis then aperture), "full:d" (whole space);
    a leading "!" takes the complement.
    """
    if text.startswith("!"):
        return parse_cone(text[1:], d).complement()
    kind, _, rest = text.partition(":")
    try:
        nums = [float(v) for v in rest.split(",")] if rest else []
        if kind == "halfspace":
            return HalfSpace(nums)
        if kind == "orthant":
            return Orthant(nums)
        if kind == "angular":
            if len(nums) < 3:
                raise ConfigInvalid("cone", "angular needs d axis components + aperture")
            return AngularCone(nums[:-1], nums[-1])
        if kind == "full":
            return Orthant([0.0] * int(nums[0] if nums else (d or 2)))
    except ConfigInvalid:
        raise
    except (ValueError, TypeError):
        pass
    raise ConfigInvalid("cone", f"cannot parse cone {text!r}")
