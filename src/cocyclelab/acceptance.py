"""Acceptance suite: sixteen statistical gates at pinned seeds.

Each criterion builds its own data end to end and reports the measured
quantity next to its gate, so a failure shows the distance, not just a
boolean. Seeds are fixed: the suite is deterministic and a fresh
checkout reproduces these numbers bit for bit.

Three gates (9, 10, and the joint clause of 14) encode asymptotic
coverage statements whose finite-sample rates at the stated N sit far
below the stated quorums; the capabilities are implemented faithfully
and the measured rates are reported by the failing criteria. The
project notes carry the analysis.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import brownian as br
from . import directions as dr
from . import filling as fl
from . import induce as ind
from . import sojourn as so
from . import systems as sy
from .cones import HalfSpace, _norm, _true_norm
from .engine import _sweep, cocycle_identity_check, ergodic_sums
from .observables import (centered_indicator, coboundary_of, iid_increment,
                          parse_observable)


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    measured: dict
    gate: str
    seconds: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        shown = ", ".join(f"{k}={v}" for k, v in self.measured.items())
        return f"{status}  {self.cid:2d}  {self.name:<24s} {shown}  [gate: {self.gate}]"


def _rademacher_walk(seed_sys: int = 21):
    return sy.iid_shift("rademacher", d=2, seed=seed_sys), iid_increment("rademacher", 2)


def _c1_chain_rule():
    cases = [
        (sy.rotation("golden", seed=11), centered_indicator(0.0, 0.5)),
        (sy.doubling(seed=12), centered_indicator(0.0, 0.3)),
        (sy.cat_map(seed=13), parse_observable("[frac-0.5,y-0.5]")),
        (sy.iid_shift("gaussian", d=2, seed=14), iid_increment("gaussian", 2)),
    ]
    rng = np.random.default_rng((77, 1))
    worst = 0.0
    for system, obs in cases:
        for s in range(10):
            tr = ergodic_sums(system, obs, sy.sample_initial(system, s), 2000)
            for _ in range(25):
                n = int(rng.integers(0, 1001))
                p = int(rng.integers(0, 1001))
                worst = max(worst, cocycle_identity_check(tr, n, p))
    return worst <= 1e-9, {"max_residual": f"{worst:.2e}"}, \
        "max residual <= 1e-9, 1000 triples"


def _c2_triangle():
    cases = [(sy.rotation("golden", seed=31), centered_indicator(0.0, 0.5), 4),
             (sy.iid_shift("gaussian", d=2, seed=32), iid_increment("gaussian", 2), 3),
             (sy.doubling(seed=33), centered_indicator(0.0, 0.5), 3)]
    N = 100_000
    rng = np.random.default_rng((77, 2))
    worst = -np.inf
    for system, obs, reps in cases:
        for s in range(reps):
            st = sy.sample_initial(system, 100 + s)
            tr = ergodic_sums(system, obs, st, N)
            n = rng.integers(0, N + 1, size=20_000)
            p = rng.integers(0, N + 1 - n)
            whole = _norm(tr.values[n + p])
            head = _norm(tr.values[n])
            rest = _norm(tr.values[n + p] - tr.values[n])
            worst = max(worst, float((whole - head - rest).max()))
    return worst <= 1e-12, {"max_excess": f"{worst:.2e}"}, \
        "excess <= 1e-12 on 10 traces of 1e5"


def _c3_telescoping_bound():
    system = sy.rotation("golden", seed=41)
    phi = coboundary_of(parse_observable("sin2pi(frac)"))
    tr = ergodic_sums(system, phi, sy.sample_initial(system, 7), 1_000_000)
    sup = float(tr.norms.max())
    return sup <= 2.0 + 1e-9, {"sup_norm": round(sup, 6)}, "sup <= 2 + 1e-9 at N=1e6"


def _c4_mean_return_times():
    m1, _ = ind.kac_statistic(sy.doubling(seed=51), ind.interval(0.0, 0.5),
                              100_000, seeds=range(8))
    m2, _ = ind.kac_statistic(sy.rotation("sqrt2m1", seed=52), ind.interval(0.0, 0.25),
                              100_000, seeds=range(8))
    ok = 1.96 <= m1 <= 2.04 and 3.9 <= m2 <= 4.1
    return ok, {"doubling": round(m1, 4), "rotation": round(m2, 4)}, \
        "in [1.96, 2.04] and [3.9, 4.1]"


def _c5_sampling_identity():
    cases = [
        (sy.rotation("golden", seed=61), centered_indicator(0.0, 0.5),
         ind.interval(0.0, 0.5)),
        (sy.doubling(seed=62), centered_indicator(0.0, 0.3), ind.interval(0.0, 0.5)),
        (sy.iid_shift("rademacher", d=2, seed=63), iid_increment("rademacher", 2),
         ind.cylinder_positive(0)),
    ]
    worst = 0.0
    per = 334
    for system, obs, B in cases:
        st = ind.first_entry(system, B, sy.sample_initial(system, 3), 10_000)
        it = ind.induced_trace(system, obs, B, st, per, cap=100_000)
        full = ergodic_sums(system, obs, st, int(it.return_times[-1]))
        gap = np.abs(full.values[it.return_times] - it.values[1:]).max()
        worst = max(worst, float(gap))
    return worst <= 1e-12, {"max_gap": f"{worst:.2e}"}, "gap <= 1e-12, 1002 samples"


def _c6_min_recursion():
    cases = [(sy.rotation("golden", seed=71), centered_indicator(0.0, 0.5), 50),
             (sy.iid_shift("gaussian", d=1, seed=72), iid_increment("gaussian", 1), 50)]
    worst_gap = 0.0
    worst_res = 0.0
    for system, obs, reps in cases:
        for s in range(reps):
            st = sy.sample_initial(system, 200 + s)
            mp = fl.min_process(system, obs, st, 1000)
            S = ergodic_sums(system, obs, st, 1000).values[:, 0]
            direct = np.minimum.accumulate(S[1:])
            worst_gap = max(worst_gap, float(np.abs(mp.m[1:1001] - direct).max()))
            worst_res = max(worst_res, mp.decomposition_residual())
    ok = worst_gap <= 1e-12 and worst_res <= 1e-12
    return ok, {"max_route_gap": f"{worst_gap:.2e}",
                "max_residual": f"{worst_res:.2e}"}, "both <= 1e-12, 100 points"


def _c7_drift_rates():
    system = sy.rotation("golden", seed=81)
    drift = coboundary_of(parse_observable("frac"), drift=[1.0])
    k1 = fl.kesten_rate(system, drift, range(10), 100_000)
    centered = centered_indicator(0.0, 0.5)
    k2 = fl.kesten_rate(system, centered, range(10), 1_000_000)
    hits = 0
    n_seeds = 100
    for s in range(n_seeds):
        tr = ergodic_sums(system, centered, sy.sample_initial(system, 300 + s),
                          1_000_000)
        rep = dr.recurrence_diagnostic(tr, 0.5)
        hits += rep.verdict == "recurrent-like"
    ok = (np.all((k1 >= 0.9) & (k1 <= 1.1)) and np.abs(k2).max() <= 0.01
          and hits >= 0.9 * n_seeds)
    return ok, {"drift_rate": f"[{k1.min():.3f},{k1.max():.3f}]",
                "centered_max": f"{np.abs(k2).max():.2e}",
                "recurrent_rate": hits / n_seeds}, \
        "rate in [0.9,1.1]; centered <= 0.01; verdict rate >= 0.9"


def _c8_gaussian_limits():
    system, obs = _rademacher_walk(91)
    n = 10_000
    reps = 2000
    ends = np.empty((reps, 2))
    for s in range(reps):
        tr = ergodic_sums(system, obs, sy.sample_initial(system, s), n)
        ends[s] = tr.values[n]
    ends /= np.sqrt(n)
    ks = max(br.ks_statistic(ends[:, j], br.normal_cdf) for j in (0, 1))

    B = ind.cylinder_positive(0)
    nr = 5000
    ind_ends = np.empty((reps, 2))
    for s in range(reps):
        st = ind.first_entry(system, B, sy.sample_initial(system, 10_000 + s), 1000)
        it = ind.induced_trace(system, obs, B, st, nr, cap=1000)
        ind_ends[s] = it.values[nr]
    cov = np.cov(ind_ends.T / np.sqrt(nr))
    cov_err = float(np.abs(cov - 2.0 * np.eye(2)).max())
    ok = ks <= 0.05 and cov_err <= 0.2
    return ok, {"per_coord_ks": round(float(ks), 4),
                "cov": np.round(cov, 3).tolist(),
                "cov_err": round(cov_err, 3)}, \
        "KS <= 0.05; |cov - 2I| <= 0.2 elementwise"


def _c9_full_coverage():
    system, obs = _rademacher_walk(101)
    mesh = dr.make_mesh(2)
    N = 1_000_000
    M = 100.0
    n_seeds = 50
    full = 0
    cells_seen = []
    for s in range(n_seeds):
        _, _, h = dr._scan_seed(system, obs, s, N, mesh, np.array([M]), None)
        k = int((h.counts[0] > 0).sum())
        cells_seen.append(k)
        full += k == mesh.K
    rate = full / n_seeds
    return rate >= 0.9, {"full_coverage_rate": rate,
                         "mean_cells": round(float(np.mean(cells_seen)), 1),
                         "N": N, "M": M}, "all 72 cells in >= 90% of 50 seeds"


def _c10_antipodal_coverage():
    system = sy.iid_shift("cauchy", d=2, seed=111)
    obs = iid_increment("cauchy", 2)
    mesh = dr.make_mesh(2)
    N = 1_000_000
    n_seeds = 50
    terms = np.empty(n_seeds)
    tops = np.full((n_seeds, mesh.K), -np.inf)
    for s in range(n_seeds):
        # the maximum of the blocks' per-cell maxima is the per-cell maximum
        for _, _, S in _sweep(system, obs, sy.sample_initial(system, s), N, 1):
            np.maximum(tops[s], dr.cell_max_norms(S, mesh), out=tops[s])
        terms[s] = _true_norm(S[-1])
    # the ladder needs every terminal norm; the per-cell maxima answer each rung
    ladder = dr.default_m_ladder(float(np.median(terms)))
    rates = np.zeros(len(ladder))
    for top in tops:
        for i, M in enumerate(ladder):
            closed = dr.antipodal_closure(mesh, top > M)
            rates[i] += closed.all()
    rates /= n_seeds
    best = float(rates.max())
    return best >= 0.9, {"best_rate": best,
                         "per_rung": rates.tolist(),
                         "ladder_mid": f"{ladder[2]:.3g}"}, \
        "cells + antipodes cover all 72 in >= 90% of 50 seeds (best rung)"


def _c11_arcsine():
    samples = br.tau_samples(HalfSpace([0.0, 1.0]), 1.0, 1e-3, 10_000, seed=0)
    ks = br.arcsine_ks(samples)
    return ks <= 0.02, {"ks": round(ks, 4)}, "KS <= 0.02, 1e4 paths, h=1e-3"


def _c12_scale_invariance():
    ks = br.scale_invariance_check(HalfSpace([0.0, 1.0]), 1.0, 4.0, 10_000, seed=5)
    return ks <= 0.03, {"ks": round(ks, 4)}, "KS <= 0.03, 1e4 samples"


def _c13_positivity():
    p, (lo, hi) = br.positivity_check(HalfSpace([0.0, 1.0]), 0.1, 100_000, seed=6)
    ok = 0.19 <= p <= 0.22
    return ok, {"p": round(float(p), 4),
                "wilson": (round(float(lo), 4), round(float(hi), 4))}, \
        "P(tau > 0.9) in [0.19, 0.22] at 1e5 samples"


def _c14_sojourn_extremes():
    system, obs = _rademacher_walk(141)
    cone = HalfSpace([0.0, 1.0])
    N = 100_000
    n_seeds = 100
    joint = 0
    for s in range(n_seeds):
        tr = ergodic_sums(system, obs, sy.sample_initial(system, s), N)
        ser = so.sojourn_series(tr, cone)
        joint += (ser.running_max >= 0.9) and (ser.running_min <= 0.1)
    joint_rate = joint / n_seeds
    # KS clause at matched sample sizes; 100-vs-2000 has a null median
    # KS of ~0.085, which no correct implementation could beat
    reps = 2000
    n = 10_000
    tau_walk = np.empty(reps)
    for s in range(reps):
        tr = ergodic_sums(system, obs, sy.sample_initial(system, s), n)
        tau_walk[s] = so.tau(tr, n, cone)
    brown = br.tau_samples(cone, 1.0, 1e-3, reps, seed=14)
    ks = br.ks_2samp_statistic(tau_walk, brown)
    ok = joint_rate >= 0.7 and ks <= 0.05
    return ok, {"joint_rate": joint_rate, "ks_vs_brownian": round(ks, 4)}, \
        "max>=0.9 and min<=0.1 for >= 70%; KS <= 0.05"


def _c15_ball_escape():
    system, obs = _rademacher_walk(151)
    N = 1_000_000
    n_seeds = 50
    vals = np.empty(n_seeds)
    for s in range(n_seeds):
        tr = ergodic_sums(system, obs, sy.sample_initial(system, s), N)
        vals[s] = so.ball_visit_frequency(tr, N, 10.0)
    rate = float((vals <= 0.05).mean())
    return rate >= 0.9, {"rate": rate, "max_freq": f"{vals.max():.4f}"}, \
        "freq <= 0.05 in >= 90% of 50 seeds"


def _c16_grid_vs_path():
    system, obs = _rademacher_walk(161)
    cone = HalfSpace([0.0, 1.0])
    n = 10_000
    worst = 0.0
    for s in range(50):
        tr = ergodic_sums(system, obs, sy.sample_initial(system, s), n)
        worst = max(worst, abs(so.tau(tr, n, cone) - so.tau_discrete(tr, n, cone)))
    return worst <= 0.02, {"max_diff": round(worst, 4)}, "|tau - tau_disc| <= 0.02, 50 seeds"


CRITERIA = [
    (1, "chain-rule", _c1_chain_rule),
    (2, "triangle-inequality", _c2_triangle),
    (3, "telescoping-bound", _c3_telescoping_bound),
    (4, "mean-return-times", _c4_mean_return_times),
    (5, "sampling-identity", _c5_sampling_identity),
    (6, "min-recursion", _c6_min_recursion),
    (7, "drift-rates", _c7_drift_rates),
    (8, "gaussian-limits", _c8_gaussian_limits),
    (9, "full-coverage", _c9_full_coverage),
    (10, "antipodal-coverage", _c10_antipodal_coverage),
    (11, "arcsine-law", _c11_arcsine),
    (12, "scale-invariance", _c12_scale_invariance),
    (13, "tail-positivity", _c13_positivity),
    (14, "sojourn-extremes", _c14_sojourn_extremes),
    (15, "ball-escape", _c15_ball_escape),
    (16, "grid-vs-path", _c16_grid_vs_path),
]


def run_criterion(cid: int) -> CriterionResult:
    for c, name, fn in CRITERIA:
        if c == cid:
            t0 = time.time()
            passed, measured, gate = fn()
            return CriterionResult(c, name, bool(passed), measured, gate,
                                   round(time.time() - t0, 2))
    raise KeyError(f"no criterion {cid}")


def run_all(ids=None) -> list:
    ids = list(ids) if ids is not None else [c for c, _, _ in CRITERIA]
    return [run_criterion(c) for c in ids]


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer, np.bool_)):
        return v.item()
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    return v


def report_dict(results) -> dict:
    return {
        "criteria": [{"id": r.cid, "name": r.name, "passed": r.passed,
                      "measured": _jsonable(r.measured), "gate": r.gate,
                      "seconds": r.seconds} for r in results],
        "passed": sum(r.passed for r in results),
        "failed": sum(not r.passed for r in results),
    }


def format_report(results) -> str:
    lines = [r.line() for r in results]
    lines.append(f"{sum(r.passed for r in results)}/{len(results)} criteria passed")
    return "\n".join(lines)
