"""Exact finite-n laws of the half-plane sojourn statistics.

Two classical theorems give the law of a walk's half-plane occupation at
every n, so the kernels meet a reference with no error of its own:

- Chung-Feller (Chung & Feller, PNAS 35, 1949): over a simple walk of 2m
  steps, the number of edges above the axis is 2k with probability
  u_{2k} u_{2m-2k}, where u_{2j} = C(2j, j) 4^-j. The second coordinate
  of the planar Rademacher walk is a simple walk, and the path kernel
  gives an edge that touches 0 its other end's side (fraction 1 or 0),
  so tau(trace, 2m, halfspace:0,1) * m is that k.
- Sparre Andersen (Math. Scand. 1, 1953 and 2, 1954): for a walk with
  symmetric continuous increments, the number N_n of k <= n with S_k > 0
  is k with probability u_{2k} u_{2n-2k}. A planar Gaussian or isotropic
  Cauchy walk projected on a normal is such a walk, so
  tau_discrete(trace, n, halfspace) * n is N_n.

Each KS gate sits at the null law's 99.9% point, about 1.95 / sqrt(seeds)
(conservative for a discrete law). One length, 3 * ROWS + 2, runs the
blocked kernels across block edges.
"""

import math

import numpy as np
import pytest

import cocyclelab as cl
from cocyclelab.cones import ROWS

SYSTEM_SEED = 141
Z = 3.29                      # two-sided 99.9% normal point


def exact_law(n: int) -> np.ndarray:
    """P(K = k) = u_{2k} u_{2n-2k} for k = 0..n, u by its recursion."""
    j = np.arange(n, dtype=np.float64)
    u = np.concatenate([[1.0], np.cumprod((2 * j + 1) / (2 * j + 2))])
    return u * u[::-1]


def counts(law: str, normal, n: int, seeds: int, discrete: bool) -> np.ndarray:
    """The whole-number statistic of each seed: N_n, or k of tau = k/m."""
    system = cl.iid_shift(law, d=2, seed=SYSTEM_SEED)
    obs, cone = cl.iid_increment(law, 2), cl.HalfSpace(normal)
    out = np.empty(seeds)
    for s in range(seeds):
        tr = cl.ergodic_sums(system, obs, cl.sample_initial(system, s), n)
        out[s] = cl.tau_discrete(tr, n, cone) * n if discrete else cl.tau(tr, n, cone) * n / 2
    whole = np.rint(out)
    assert np.all(np.abs(out - whole) <= 1e-9 * n), "statistic is not a whole number"
    return whole.astype(np.int64)


def ks_discrete(k: np.ndarray, pmf: np.ndarray) -> float:
    # both cdfs are steps on 0..len(pmf)-1, so the sup is taken there
    emp = np.cumsum(np.bincount(k, minlength=len(pmf))) / len(k)
    return float(np.abs(emp - np.cumsum(pmf)).max())


def binomial_interval(trials: int, p: float, tail: float = 5e-4):
    """Least lo and hi with P(X < lo), P(X > hi) <= tail, X ~ Bin(trials, p)."""
    logs = [math.lgamma(trials + 1) - math.lgamma(x + 1) - math.lgamma(trials - x + 1)
            + x * math.log(p) + (trials - x) * math.log1p(-p) for x in range(trials + 1)]
    cdf = np.cumsum(np.exp(logs))
    return int(np.searchsorted(cdf, tail, "right")), int(np.searchsorted(cdf, 1.0 - tail))


# (law, normal, walk statistic): tau on the simple walk, tau_discrete on the
# continuous ones (a simple walk returns to 0, which Sparre Andersen excludes)
WALKS = {"chung-feller": ("rademacher", [0.0, 1.0], False),
         "sparre-andersen-gaussian": ("gaussian", [0.6, 0.8], True),
         "sparre-andersen-cauchy": ("cauchy", [0.0, 1.0], True)}


CASES = [(walk, 1000, 2000) for walk in WALKS] + [
    (walk, 3 * ROWS + 2, 200) for walk in ("chung-feller", "sparre-andersen-gaussian")]


@pytest.mark.parametrize("walk, n, seeds", CASES, ids=[f"{w}-{n}" for w, n, _ in CASES])
def test_half_plane_counts_follow_the_exact_law(walk, n, seeds):
    law, normal, discrete = WALKS[walk]
    k = counts(law, normal, n, seeds, discrete)
    m = n if discrete else n // 2
    pmf = exact_law(m)
    assert ks_discrete(k, pmf) <= 1.95 / math.sqrt(seeds)
    # the exact mean 1/2 of K/m, against the law's own spread
    sd = math.sqrt(float(pmf @ (np.arange(m + 1) / m - 0.5) ** 2) / seeds)
    assert abs(k.mean() / m - 0.5) <= Z * sd
    # P(K = 0) = u_{2m}: the seeds whose walk never enters the half-plane
    lo, hi = binomial_interval(seeds, float(pmf[0]))
    assert lo <= np.count_nonzero(k == 0) <= hi


def test_exact_law_is_a_symmetric_distribution():
    for n in (1, 2, 7, 1000):
        pmf = exact_law(n)
        assert math.isclose(pmf.sum(), 1.0, rel_tol=1e-12)
        assert np.array_equal(pmf, pmf[::-1])
    # u_{2j} = C(2j, j) 4^-j, from Python integers
    assert exact_law(3)[0] == pytest.approx(math.comb(6, 3) / 4 ** 3, rel=1e-15)
