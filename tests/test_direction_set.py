"""Known-answer models for the limit-direction set D(Phi).

Each model's D is known in closed form, so the estimator is checked for
what it leaves out as well as for what it finds: a rank-1 covariance
walk has D = {+-(1,1)/sqrt2}, and a coboundary over the rotation has
bounded sums, so D is empty.
"""

import numpy as np

import cocyclelab as cl

N = 1 << 14
SEEDS = range(5)
MESH = cl.make_mesh(2, 72)


def test_a_rank_one_walk_finds_exactly_its_two_directions():
    # S_n = k (1, 1) with k a Rademacher walk, so every visit above the
    # threshold lies in the cell of (1,1)/sqrt2 or of its antipode; the
    # seeds together reach both, and the estimate keeps a part of them
    sysm = cl.iid_shift("rademacher", d=1, seed=0)
    obs = cl.parse_observable("iid(rademacher,d=1)*[1,1]")
    est, terms = cl.direction_scan(sysm, obs, N, SEEDS, mesh=MESH, thresholds=[10.0],
                                   quorum=0.9)
    answer = set(MESH.assign(np.array([[1.0, 1.0], [-1.0, -1.0]]) / np.sqrt(2.0)).tolist())
    assert answer == {9, 45}
    hist = est.histogram
    assert set(np.flatnonzero(hist.counts[-1]).tolist()) == answer
    assert set(np.flatnonzero(hist.visited_traces[-1]).tolist()) == answer
    assert est.cells.size > 0 and set(est.cells.tolist()) <= answer
    assert len(terms) == len(SEEDS) and np.all(terms > 10.0)


def test_a_coboundary_has_no_limit_direction():
    # S_n = h(T^n x) - h(x) with both coordinates of h in [-1, 1], so
    # ||S_n|| <= 2 sup ||h|| <= 2 sqrt2 < 10: no visit above the threshold,
    # and the estimate is empty
    sysm = cl.rotation("golden", seed=0)
    obs = cl.parse_observable("cobdrift(h=[frac,sin2pi(frac)],c=[0,0])")
    est, terms = cl.direction_scan(sysm, obs, N, SEEDS, mesh=MESH, thresholds=[10.0],
                                   quorum=0.9)
    bound = 2.0 * np.sqrt(2.0)
    assert est.cells.size == 0
    assert est.histogram.counts.sum() == 0 and est.histogram.n_traces == len(SEEDS)
    assert np.all(terms <= bound)
    for s in SEEDS:
        tr = cl.ergodic_sums(sysm, obs, cl.sample_initial(sysm, s), N, checkpoint_every=None)
        assert tr.norms.max() <= bound
