"""The benchmark's three workloads: their inputs, their passes, their checks.

A workload is a fixed *pass* of operations. Its inputs are derived from
the workload seed alone, so the same seed gives the same pass; `build`
parses and schema-validates them (that is set-up, not timed), and the
pass function runs the operations through a `Runner` (see `runner.py`),
which times each one and checks its output.

Sizes come in two scales. "full" is what a timed run measures. "small"
is the reference pass at the default seed, whose rotation and iid-shift
outputs are compared with the SHA-256 digests recorded in
`digests.json`; the smoke check and the traced run's layer probe use it
too. The small sizes still span more than one engine block (2^16 steps)
wherever the full sizes do, so block carries are digest-checked.

The doubling-map and cat-map outputs are checked by invariants only:
their realized orbits are expected to change when those orbits are made
exact, while rotation and iid-shift orbits are not.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import cocyclelab as cl
from cocyclelab import cli

NO_CP = 1 << 62            # "no checkpoints", as the library's bulk callers pass it
DEFAULT_SEED = 0
LABELS = ("to+inf", "to-inf", "oscillates", "inconclusive")

SIZES = {
    "walk-stats": {
        "full": {"N": 1 << 20, "walks": 2, "cauchy_seeds": 2},
        "small": {"N": 1 << 17, "walks": 1, "cauchy_seeds": 1},
    },
    "deterministic-orbits": {
        "full": {"cat_N": 1 << 18, "long_N": 1 << 21, "chain_seeds": 4,
                 "chain_checks": 25, "chain_len": 2000, "rev_rot_N": 1 << 20,
                 "rev_cat_N": 1 << 16, "kac_seeds": 4, "kac_returns": 100_000,
                 "fill_seeds": 2, "fill_N": 1 << 20},
        "small": {"cat_N": 1 << 16, "long_N": 1 << 17, "chain_seeds": 1,
                  "chain_checks": 10, "chain_len": 2000, "rev_rot_N": 1 << 17,
                  "rev_cat_N": 1 << 12, "kac_seeds": 1, "kac_returns": 20_000,
                  "fill_seeds": 1, "fill_N": 1 << 17},
    },
    "cli-export": {
        "full": {"rot_rows": 200_000, "dbl_rows": 100_000, "returns": 150_000,
                 "fill_seeds": 2, "fill_N": 50_000, "angular_samples": 1000,
                 "half_samples": 20_000},
        "small": {"rot_rows": 70_000, "dbl_rows": 20_000, "returns": 20_000,
                  "fill_seeds": 2, "fill_N": 5000, "angular_samples": 100,
                  "half_samples": 2000},
    },
}


def derive(seed: int, *tags) -> int:
    """A 31-bit seed derived from the workload seed and a tag path."""
    blob = ":".join(str(t) for t in (seed, *tags)).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:4], "little") >> 1


@dataclass
class Inputs:
    """Parsed, validated inputs of one workload at one seed and size."""

    name: str
    seed: int
    size: dict
    configs: list = field(default_factory=list)   # validated config dicts
    p: dict = field(default_factory=dict)         # parsed specs and seeds


def _validated(inp: Inputs, cfg: dict) -> dict:
    cli.validate_config(cfg)
    inp.configs.append(cfg)
    return cfg


def _system(inp: Inputs, cfg: dict):
    return cl.parse_system(cfg["system"]), cl.parse_observable(cfg["observable"])


def build(name: str, seed: int, scale: str = "full") -> Inputs:
    """Derive, schema-validate and parse a workload's inputs from its seed."""
    if name not in SIZES:
        raise KeyError(name)
    inp = Inputs(name, seed, SIZES[name][scale])
    _INPUT_MAKERS[name](inp)
    return inp


# ------------------------------------------------------------ walk-stats

def _build_walk_stats(inp: Inputs):
    z, s = inp.size, inp.seed
    N = z["N"]
    ladder = sorted({100.0, *(float(m) for m in cl.default_m_ladder(math.sqrt(N)))})
    walk = _validated(inp, {
        "operation": "directions",
        "system": {"kind": "iid-shift", "law": "rademacher", "d": 2,
                   "seed": derive(s, "walk-system")},
        "observable": "iid(rademacher,d=2)",
        "parameters": {"N": N, "thresholds": ladder, "epsilon": 0.5,
                       "seeds": z["walks"]},
        "seed": derive(s, "walk-trajectory")})
    cones = [_validated(inp, {"operation": "sojourn", "seed": walk["seed"],
                              "parameters": {"N": N, "cone": c, "M": 10.0}})
             for c in ("angular:1,0,0.5", "halfspace:0,1")]
    cauchy = _validated(inp, {
        "operation": "directions",
        "system": {"kind": "iid-shift", "law": "cauchy", "d": 2,
                   "seed": derive(s, "cauchy-system")},
        "observable": "iid(cauchy,d=2)",
        "parameters": {"N": N, "seeds": z["cauchy_seeds"]},
        "seed": derive(s, "cauchy-trajectory")})
    inp.p.update(
        N=N, ladder=ladder, mesh=cl.make_mesh(2),
        walk=_system(inp, walk),
        walk_seeds=[walk["seed"] + i for i in range(z["walks"])],
        cones={c["parameters"]["cone"].split(":")[0]: cl.parse_cone(c["parameters"]["cone"], 2)
               for c in cones},
        cauchy=_system(inp, cauchy),
        cauchy_seeds=[cauchy["seed"] + i for i in range(z["cauchy_seeds"])])


def _view_trace(tr):
    return {"values": tr.values}


def _check_rademacher(tr):
    # every coordinate moves by +-1 per step: integer, |S_n| <= n, S_n = n mod 2
    v = tr.values
    n = np.arange(len(v))[:, None]
    out = []
    if not np.array_equal(v, np.round(v)):
        out.append("non-integer Rademacher sums")
    elif np.any(np.abs(v) > n) or np.any((v.astype(np.int64) - n) % 2):
        out.append("Rademacher sums break |S_n| <= n or the parity of n")
    return out


def _check_nested(counts) -> list:
    if np.any(counts[1:] > counts[:-1]):
        return ["histogram counts not nested across thresholds"]
    return []


def _check_hist(h, tr, ladder):
    out = _check_nested(h.counts)
    nrm = np.linalg.norm(tr.values[1:], axis=1)
    above = [(nrm > m).sum() for m in ladder]
    if not np.array_equal(h.counts.sum(axis=1), above):
        out.append("histogram totals differ from the count of ||S_n|| above each threshold")
    return out


def _check_recurrence(rep, tr):
    nrm = np.linalg.norm(tr.values, axis=1)
    mins = [nrm[1 << j:min((1 << (j + 1)) - 1, tr.N) + 1].min()
            for j in range(tr.N.bit_length())]
    out = [] if rep.verdict in ("recurrent-like", "transient-like", "inconclusive") \
        else [f"unknown verdict {rep.verdict!r}"]
    if not np.array_equal(rep.window_minima, mins):
        out.append("dyadic window minima differ from the trace")
    return out


def _check_unit(name, *arrays):
    for a in arrays:
        a = np.asarray(a)
        if not np.all((a >= 0.0) & (a <= 1.0)):
            return [f"{name} outside [0, 1]"]
    return []


def walk_stats(rt, inp: Inputs):
    p = inp.p
    N, mesh, ladder = p["N"], p["mesh"], p["ladder"]
    system, obs = p["walk"]
    for j, s in enumerate(p["walk_seeds"]):
        tr = rt.op(f"walk{j}.ergodic_sums",
                   lambda: cl.ergodic_sums(system, obs, cl.sample_initial(system, s), N,
                                           checkpoint_every=NO_CP),
                   steps=N, view=_view_trace, check=_check_rademacher, ref=True)
        rt.op(f"walk{j}.hist", lambda: cl.hist_from_trace(tr, mesh, ladder),
              view=lambda h: {"counts": h.counts},
              check=lambda h: _check_hist(h, tr, ladder), ref=True)
        rt.op(f"walk{j}.recurrence", lambda: cl.recurrence_diagnostic(tr, 0.5),
              view=lambda r: {"minima": r.window_minima, "verdict": r.verdict},
              check=lambda r: _check_recurrence(r, tr), ref=True)
        for kind, cone in p["cones"].items():
            rt.op(f"walk{j}.sojourn.{kind}", lambda: cl.sojourn_series(tr, cone),
                  view=lambda ser: {"ns": ser.ns, "tau": ser.tau, "disc": ser.tau_disc},
                  check=lambda ser: _check_unit("tau", ser.tau, ser.tau_disc), ref=True)
            if j == 0 and kind == "angular":
                # traced runs only: the same kernel at half the horizon, for
                # the memory scaling ratio
                rt.extra(f"walk{j}.sojourn.{kind}.half",
                         lambda: cl.sojourn_series(tr, cone, grid=cl.dyadic_grid(N // 2)))
        rt.op(f"walk{j}.ball", lambda: cl.ball_visit_frequency(tr, N, 10.0),
              view=lambda f: {"freq": f}, check=lambda f: _check_unit("ball frequency", f),
              ref=True)
        del tr
    c_sys, c_obs = p["cauchy"]
    seeds = p["cauchy_seeds"]
    rt.op("cauchy.direction_scan", lambda: cl.direction_scan(c_sys, c_obs, N, seeds),
          steps=N * len(seeds),
          view=lambda r: {"counts": r[0].histogram.counts, "cells": r[0].cells,
                          "terms": r[1]},
          check=lambda r: _check_scan(r, len(seeds)), ref=True)


def _check_scan(result, n_seeds):
    est, terms = result
    out = _check_nested(est.histogram.counts)
    if est.histogram.n_traces != n_seeds:
        out.append("direction scan merged the wrong number of traces")
    if not np.all(np.isfinite(terms) & (terms > 0.0)):
        out.append("terminal norms not finite and positive")
    return out


# -------------------------------------------------- deterministic-orbits

def _build_deterministic(inp: Inputs):
    z, s = inp.size, inp.seed

    def cfg(tag, system, observable, operation="trace", **params):
        return _validated(inp, {"operation": operation,
                                "system": dict(system, seed=derive(s, tag, "system")),
                                "observable": observable, "parameters": params,
                                "seed": derive(s, tag, "trajectory")})

    cat = cfg("cat", {"kind": "cat-map"}, "[frac-0.5,y-0.5]", N=2 * z["cat_N"])
    rot = cfg("rotation", {"kind": "rotation", "alpha": "golden"},
              "cobdrift(h=sin2pi(frac),c=[0.0])", N=z["long_N"])
    dbl = cfg("doubling", {"kind": "doubling"}, "indicator(0.0,0.3)-0.3", N=z["long_N"])
    chains = {k: cfg(f"chain-{k}", sysd, o, N=z["chain_len"], checkpoint_every=1)
              for k, sysd, o in (
                  ("rotation", {"kind": "rotation", "alpha": "golden"},
                   "indicator(0.0,0.5)-0.5"),
                  ("doubling", {"kind": "doubling"}, "indicator(0.0,0.3)-0.3"),
                  ("cat-map", {"kind": "cat-map"}, "[frac-0.5,y-0.5]"))}
    rev_rot = cfg("reverse-rotation", {"kind": "rotation", "alpha": "golden"},
                  "indicator(0.0,0.5)-0.5", N=z["rev_rot_N"])
    rev_cat = cfg("reverse-cat", {"kind": "cat-map"}, "[frac-0.5,y-0.5]",
                  N=z["rev_cat_N"])
    kac_dbl = cfg("kac-doubling", {"kind": "doubling"}, "frac", "induce",
                  set="interval:0,0.5", returns=z["kac_returns"], seeds=z["kac_seeds"])
    kac_rot = cfg("kac-rotation", {"kind": "rotation", "alpha": "sqrt2m1"}, "frac", "induce",
                  set="interval:0,0.25", returns=z["kac_returns"], seeds=z["kac_seeds"])
    fill = cfg("filling", {"kind": "rotation", "alpha": "golden"},
               "indicator(0.0,0.5)-0.5", "filling", N=z["fill_N"], seeds=z["fill_seeds"])

    def seeds(c):
        return [c["seed"] + i for i in range(c["parameters"]["seeds"])]

    inp.p.update(
        cat=(*_system(inp, cat), cat["seed"], z["cat_N"]),
        rot=(*_system(inp, rot), rot["seed"], z["long_N"]),
        dbl=(*_system(inp, dbl), dbl["seed"], z["long_N"]),
        chains={k: (*_system(inp, c), [c["seed"] + i for i in range(z["chain_seeds"])])
                for k, c in chains.items()},
        chain_len=z["chain_len"], chain_checks=z["chain_checks"],
        chain_rng=derive(s, "chain-points"),
        rev_rot=(*_system(inp, rev_rot), rev_rot["seed"], z["rev_rot_N"]),
        rev_cat=(*_system(inp, rev_cat), rev_cat["seed"], z["rev_cat_N"]),
        kac_dbl=(cl.parse_system(kac_dbl["system"]),
                 cl.parse_set(kac_dbl["parameters"]["set"]), seeds(kac_dbl)),
        kac_rot=(cl.parse_system(kac_rot["system"]),
                 cl.parse_set(kac_rot["parameters"]["set"]), seeds(kac_rot)),
        kac_returns=z["kac_returns"],
        fill=(*_system(inp, fill), seeds(fill), z["fill_N"]))


def _check_mean(name, tr, limit=0.01):
    if np.any(np.abs(tr.values[-1]) > limit * tr.N):
        return [f"{name}: |S_N|/N above {limit}"]
    return []


def _chain(system, obs, seeds, length, checks, rng_seed, kind):
    """Checkpoint-every-step traces, each restarted at random (n, p)."""
    rng = np.random.default_rng((rng_seed, cl.systems.KINDS.index(kind)))
    out = []
    half = length // 2
    for s in seeds:
        tr = cl.ergodic_sums(system, obs, cl.sample_initial(system, s), length,
                             checkpoint_every=1)
        for _ in range(checks):
            n, p = (int(v) for v in rng.integers(0, half + 1, size=2))
            out.append(cl.cocycle_identity_check(tr, n, p))
    return np.asarray(out)


def _check_reverse_rotation(rev, system, obs, state0):
    # R_N(x) = -S_N(T^{-N} x)
    back = cl.state_at(system, state0, -rev.N)
    fwd = cl.ergodic_sums(system, obs, back, rev.N, checkpoint_every=NO_CP)
    gap = float(np.abs(rev.values[-1] + fwd.values[-1]).max())
    return [] if gap <= 1e-9 else [f"R_N + S_N(T^-N x) = {gap:.2e} > 1e-9"]


def _check_reverse_cat(rev, system, obs, state0):
    first = -cl.evaluate_at(system, obs, cl.step_back(system, state0))
    out = [] if np.abs(rev.values[1] - first).max() <= 1e-12 else \
        ["R_1 differs from -phi(T^-1 x)"]
    return out + _check_mean("reverse cat map", rev)


def deterministic_orbits(rt, inp: Inputs):
    p = inp.p
    system, obs, s, N = p["cat"]
    short = rt.op("cat.ergodic_sums.N",
                  lambda: cl.ergodic_sums(system, obs, cl.sample_initial(system, s), N,
                                          checkpoint_every=NO_CP),
                  steps=N, view=_view_trace, check=lambda tr: _check_mean("cat map", tr))
    rt.op("cat.ergodic_sums.2N",
          lambda: cl.ergodic_sums(system, obs, cl.sample_initial(system, s), 2 * N,
                                  checkpoint_every=NO_CP),
          steps=2 * N, view=_view_trace,
          check=lambda tr: _check_mean("cat map", tr) + (
              [] if np.abs(tr.values[:N + 1] - short.values).max() <= 1e-9
              else ["cat-map trace at 2N does not extend the trace at N"]))
    del short

    system, obs, s, N = p["rot"]
    rt.op("rotation.ergodic_sums",
          lambda: cl.ergodic_sums(system, obs, cl.sample_initial(system, s), N,
                                  checkpoint_every=NO_CP),
          steps=N, view=_view_trace, ref=True,
          check=lambda tr: [] if tr.norms.max() <= 2.0 + 1e-9
          else ["coboundary sums exceed the telescoping bound 2"])
    system, obs, s, N = p["dbl"]
    rt.op("doubling.ergodic_sums",
          lambda: cl.ergodic_sums(system, obs, cl.sample_initial(system, s), N,
                                  checkpoint_every=NO_CP),
          steps=N, view=_view_trace, check=lambda tr: _check_mean("doubling map", tr))

    for kind, (system, obs, seeds) in p["chains"].items():
        rt.op(f"chain.{kind}",
              lambda: _chain(system, obs, seeds, p["chain_len"], p["chain_checks"],
                             p["chain_rng"], kind),
              steps=len(seeds) * p["chain_len"],
              view=lambda r: {"residuals": r}, ref=kind == "rotation",
              check=lambda r: [] if r.max() <= 1e-9
              else [f"cocycle identity residual {r.max():.2e} > 1e-9"])

    system, obs, s, N = p["rev_rot"]
    st = cl.sample_initial(system, s)
    rt.op("rotation.reverse_sums",
          lambda: cl.reverse_sums(system, obs, st, N, checkpoint_every=NO_CP),
          steps=N, view=_view_trace, ref=True,
          check=lambda rev: _check_reverse_rotation(rev, system, obs, st))
    system, obs, s, N = p["rev_cat"]
    st_cat = cl.sample_initial(system, s)
    rt.op("cat.reverse_sums",
          lambda: cl.reverse_sums(system, obs, st_cat, N, checkpoint_every=NO_CP),
          steps=N, view=_view_trace,
          check=lambda rev: _check_reverse_cat(rev, system, obs, st_cat))

    n_ret = p["kac_returns"]
    for kind, key, band in (("doubling", "kac_dbl", (1.96, 2.04)),
                            ("rotation", "kac_rot", (3.9, 4.1))):
        system, B, seeds = p[key]
        rt.op(f"{kind}.kac_statistic",
              lambda: cl.kac_statistic(system, B, n_ret, seeds),
              steps=int(n_ret * len(seeds) / B.measure),
              view=lambda r: {"per_seed": r[1]}, ref=kind == "rotation",
              check=lambda r: [] if band[0] <= r[0] <= band[1]
              else [f"Kac mean {r[0]:.4f} outside [{band[0]}, {band[1]}]"])

    system, obs, seeds, N = p["fill"]
    rt.op("rotation.kesten_rate", lambda: cl.kesten_rate(system, obs, seeds, N),
          steps=N * len(seeds), view=lambda r: {"rates": r}, ref=True,
          check=lambda r: [] if np.abs(r).max() <= 0.01
          else [f"centered Kesten rate {np.abs(r).max():.2e} > 0.01"])
    rt.op("rotation.classify_oscillation",
          lambda: cl.classify_oscillation(system, obs, seeds, N),
          steps=N * len(seeds), view=lambda r: {"labels": ",".join(r.per_seed)},
          ref=True, check=lambda r: [] if set(r.per_seed) <= set(LABELS)
          else ["unknown growth label"])
    st = cl.sample_initial(system, seeds[0])
    rt.op("rotation.min_process", lambda: cl.min_process(system, obs, st, N),
          steps=N + 1, view=lambda m: {"m": m.m[1:]}, ref=True,
          check=lambda m: [] if np.all(np.diff(m.m[1:]) <= 0.0)
          else ["running minimum increases"])


# ------------------------------------------------------------ cli-export

def _build_cli(inp: Inputs):
    z = inp.size
    seed = derive(inp.seed, "cli")
    ops = [
        ("trace.rotation", {"operation": "trace",
                            "system": {"kind": "rotation", "alpha": "golden"},
                            "observable": "indicator(0.0,0.5)-0.5",
                            "parameters": {"N": z["rot_rows"]}}, True),
        ("trace.doubling", {"operation": "trace", "system": {"kind": "doubling"},
                            "observable": "indicator(0.0,0.5)-0.5",
                            "parameters": {"N": z["dbl_rows"]}}, False),
        ("induce.rotation", {"operation": "induce",
                             "system": {"kind": "rotation", "alpha": "sqrt2m1"},
                             "observable": "frac-0.5",
                             "parameters": {"set": "interval:0,0.25",
                                            "returns": z["returns"]}}, True),
        ("filling.rotation", {"operation": "filling",
                              "system": {"kind": "rotation", "alpha": "golden"},
                              "observable": "indicator(0.0,0.5)-0.5",
                              "parameters": {"N": z["fill_N"],
                                             "seeds": z["fill_seeds"]}}, True),
        ("brownian.angular", {"operation": "brownian",
                              "parameters": {"cone": "angular:1,0,0.5",
                                             "samples": z["angular_samples"]}}, False),
        ("brownian.halfspace", {"operation": "brownian",
                                "parameters": {"cone": "halfspace:0,1",
                                               "samples": z["half_samples"]}}, False),
    ]
    parser = cli.build_parser()
    inp.p["ops"] = []
    for i, (label, cfg, ref) in enumerate(ops):
        cfg = _validated(inp, dict(cfg, seed=seed + i, jobs=1))
        argv = _argv(cfg)
        parser.parse_args(argv)
        inp.p["ops"].append((label, cfg, argv, ref))


def _argv(cfg: dict) -> list:
    argv = [cfg["operation"], "--seed", str(cfg["seed"]), "--jobs", "1"]
    if "system" in cfg:
        sysd = cfg["system"]
        text = {"rotation": f"rotation:{sysd.get('alpha')}"}.get(sysd["kind"], sysd["kind"])
        argv += ["--system", text, "--obs", cfg["observable"]]
    for k, v in cfg["parameters"].items():
        argv += [f"--{k}", str(v)]
    return argv


def _csv(path, usecols) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=usecols, ndmin=2)


def _check_half_steps(table, rows):
    # columns n, phi_0, norm; each step adds +-1/2, so 2 S_n = n mod 2
    n, s, nrm = table[:, 0], table[:, 1], table[:, 2]
    out = []
    if len(n) != rows or not np.array_equal(n, np.arange(1, rows + 1)):
        out.append("trace rows are not n = 1..N")
    twice = 2.0 * s
    if not np.array_equal(twice, np.round(twice)) \
            or np.any((twice.astype(np.int64) - n.astype(np.int64)) % 2):
        out.append("trace values break 2 S_n = n mod 2")
    if not np.array_equal(nrm, np.abs(s)):
        out.append("norm column differs from |phi_0|")
    return out


def _check_cli(cfg, out_dir):
    op = cfg["operation"]
    params = cfg["parameters"]
    csv_path = os.path.join(out_dir, f"{op}.csv")
    with open(os.path.join(out_dir, "summary.json")) as f:
        summary = json.load(f)
    problems = []
    if op == "trace":
        problems += _check_half_steps(_csv(csv_path, (2, 3, 4)), params["N"])
    elif op == "induce":
        table = _csv(csv_path, (2, 3, 4))
        rt, vals = table[:, 1].astype(np.int64), table[:, 2]
        system = cl.parse_system(cfg["system"])
        obs = cl.parse_observable(cfg["observable"])
        B = cl.parse_set(params["set"])
        st = cl.first_entry(system, B, cl.sample_initial(system, cfg["seed"]), 10_000_000)
        full = cl.ergodic_sums(system, obs, st, int(rt[-1]), checkpoint_every=NO_CP)
        if np.any(np.diff(rt) <= 0):
            problems.append("return times not strictly increasing")
        elif np.abs(full.values[rt, 0] - vals).max() > 1e-12:
            problems.append("induced values differ from the full-orbit sums by > 1e-12")
        if not 3.9 <= summary["mean_return_time"] <= 4.1:
            problems.append("mean return time outside the Kac band [3.9, 4.1]")
    elif op == "filling":
        table = _csv(csv_path, (0, 2, 3, 4))
        for s in np.unique(table[:, 0]):
            m = table[table[:, 0] == s, 2]
            if np.any(np.diff(m) > 0.0):
                problems.append("running minimum increases")
        if table[:, 3].max() > 1e-10 or summary["max_decomposition_residual"] > 1e-12:
            problems.append("min-process residuals above 1e-10 / 1e-12")
    elif op == "brownian":
        tau = _csv(csv_path, (3,))[:, 0]
        if len(tau) != params["samples"]:
            problems.append("wrong number of Brownian samples")
        problems += _check_unit("tau", tau)
    if summary.get("rows") != _rows(op, params):
        problems.append("summary row count is wrong")
    return problems


def _rows(op, params):
    if op == "trace":
        return params["N"]
    if op == "induce":
        return params["returns"]
    if op == "filling":
        return params["N"] * params["seeds"]
    return params["samples"]


def _steps(op, params, out_dir) -> tuple[int, int]:
    """(orbit steps, Brownian path steps) one CLI operation computed."""
    if op == "trace":
        return params["N"], 0
    if op == "filling":
        return params["N"] * params["seeds"], 0
    if op == "induce":
        with open(os.path.join(out_dir, "summary.json")) as f:
            return round(json.load(f)["mean_return_time"] * params["returns"]), 0
    # the CLI's defaults t = 1, h = 1e-3: 1000 steps per path
    return 0, params["samples"] * 1000


def _view_files(out_dir):
    return {p.name: p.read_bytes() for p in Path(out_dir).iterdir()}


def cli_export(rt, inp: Inputs):
    for label, cfg, argv, ref in inp.p["ops"]:
        out_dir = rt.fresh_dir(label)
        params = cfg["parameters"]
        rt.op(label, lambda: cli.main(argv + ["--out", out_dir]),
              view=lambda _: _view_files(out_dir), ref=ref,
              check=lambda rc: [f"exit code {rc}"] if rc != 0
              else _check_cli(cfg, out_dir),
              after=lambda _: rt.count_output(out_dir, *_steps(cfg["operation"], params,
                                                               out_dir)))


_INPUT_MAKERS = {"walk-stats": _build_walk_stats,
             "deterministic-orbits": _build_deterministic,
             "cli-export": _build_cli}
PASSES = {"walk-stats": walk_stats,
          "deterministic-orbits": deterministic_orbits,
          "cli-export": cli_export}
