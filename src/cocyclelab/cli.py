"""Experiment runner.

Subcommands mirror the library modules: trace, induce, directions,
filling, sojourn, brownian, accept. A run is described by a JSON config
(--config) overlaid with command-line flags; the merged config is
schema-validated and then fingerprinted. Each operation but accept
returns its rows and summary fields, and `run` writes them: the CSV,
every row led by the seed and fingerprint that produced it, and
summary.json beside it. Output bytes are a function of config + seed
alone (summaries carry no timestamps), so identical runs diff clean.
The seeds of directions, filling and sojourn run on up to --jobs threads
(`directions._map`) that share the parsed specs; --jobs moves no byte.

Exit codes: 0 on success, 1 on configuration errors, 2 on declared
runtime errors such as a return-time cap overflow.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
from importlib import resources

import numpy as np

from . import acceptance as acc
from . import brownian as br
from . import directions as dr
from . import filling as fl
from . import induce as ind
from . import sojourn as so
from . import systems as sy
from .cones import BallWindow, parse_cone
from .engine import _check, ergodic_sums
from .errors import CocycleLabError, ConfigInvalid, _spec, _whole
from .observables import parse_observable

WRITE_ROWS = 1 << 14       # CSV rows encoded per write


# ---------------------------------------------------------------- config

# The schema files are the contract. They use a subset of JSON Schema draft
# 2020-12, checked below with the reference validator's paths and messages; a
# schema with any other keyword is refused on load, not left unenforced.
_TYPES = {"object": dict, "string": str, "array": list, "boolean": bool,
          "number": (int, float), "integer": int}
_KEYWORDS = {"$schema", "title", "type", "enum", "const", "minimum", "maximum",
             "exclusiveMinimum", "minLength", "minItems", "items", "properties",
             "required", "additionalProperties", "oneOf"}
_BOUNDS = {"minimum": (lambda x, b: x < b, "less than the minimum"),
           "exclusiveMinimum": (lambda x, b: x <= b, "less than or equal to the minimum"),
           "maximum": (lambda x, b: x > b, "greater than the maximum")}
_SIZED = {"minLength": "string", "minItems": "array"}


def _supported(schema: dict) -> dict:
    if (set(schema) - _KEYWORDS or schema.get("additionalProperties") not in (None, False)
            or schema.get("type", "object") not in [*_TYPES]):
        raise ValueError(f"schema uses what the validator does not check: {schema}")
    for sub in [*schema.get("properties", {}).values(), *schema.get("oneOf", []),
                *([schema["items"]] if "items" in schema else [])]:
        _supported(sub)
    return schema


@functools.cache
def _load_schema(name: str) -> dict:
    text = resources.files("cocyclelab").joinpath("schemas", name).read_text()
    return _supported(json.loads(text))


def _is(x, kind: str) -> bool:
    # a bool is no number, and an integral float is an integer
    if isinstance(x, bool):
        return kind == "boolean"
    return isinstance(x, _TYPES[kind]) or (kind == "integer" and isinstance(x, float)
                                           and x.is_integer())


def _same(x, y) -> bool:
    return x == y and isinstance(x, bool) == isinstance(y, bool)


def _schema_errors(schema: dict, x, path: str = "$"):
    """(JSON path, message) of each rule x breaks, in schema order."""
    for key, v in schema.items():
        if key == "type" and not _is(x, v):
            yield path, f"{x!r} is not of type {v!r}"
        elif key == "enum" and not any(_same(x, e) for e in v):
            yield path, f"{x!r} is not one of {v!r}"
        elif key == "const" and not _same(x, v):
            yield path, f"{v!r} was expected"
        elif key in _BOUNDS and _is(x, "number") and _BOUNDS[key][0](x, v):
            yield path, f"{x!r} is {_BOUNDS[key][1]} of {v!r}"
        elif key in _SIZED and _is(x, _SIZED[key]) and len(x) < v:
            yield path, f"{x!r} " + ("should be non-empty" if v == 1 else "is too short")
        elif key == "items" and _is(x, "array"):
            for i, item in enumerate(x):
                yield from _schema_errors(v, item, f"{path}[{i}]")
        elif key == "properties" and _is(x, "object"):
            for name, sub in v.items():
                if name in x:
                    yield from _schema_errors(sub, x[name], f"{path}.{name}")
        elif key == "required" and _is(x, "object"):
            yield from ((path, f"{name!r} is a required property") for name in v
                        if name not in x)
        elif key == "additionalProperties" and _is(x, "object"):
            extra = sorted(k for k in x if k not in schema.get("properties", {}))
            if extra:
                yield path, "Additional properties are not allowed (%s %s unexpected)" % (
                    ", ".join(map(repr, extra)), "was" if len(extra) == 1 else "were")
        elif key == "oneOf":
            ok = [sub for sub in v if next(_schema_errors(sub, x), None) is None]
            if not ok:
                yield path, f"{x!r} is not valid under any of the given schemas"
            elif len(ok) > 1:
                shown = ", ".join(map(repr, ok[1:] + ok[:1]))
                yield path, f"{x!r} is valid under each of {shown}"


def validate_config(cfg: dict) -> None:
    # the first error in JSON-path order names the field
    error = min(_schema_errors(_load_schema("config.schema.json"), cfg),
                key=lambda e: e[0], default=None)
    if error:
        path, message = error
        raise ConfigInvalid(path[2:] or "config", message)


def config_fingerprint(cfg: dict) -> str:
    """12-hex digest of the numerics-determining part of the config."""
    body = {k: v for k, v in cfg.items() if k not in ("out", "jobs")}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _system_from_string(text: str) -> dict:
    # "rotation:<alpha>", "iid-shift:<law>:<d>", "doubling" and "cat-map"
    kind, values = _spec("system", text, {"rotation": (1, 1, 1), "iid-shift": (2, 2, 1),
                                          "doubling": (0, 0, 0), "cat-map": (0, 0, 0)}, ":")
    if kind == "rotation":
        return {"kind": kind, "alpha": values[0]}
    if kind == "iid-shift":
        return {"kind": kind, "law": values[0], "d": _whole("system", values[1], 1)}
    return {"kind": kind}


def _param(cfg: dict, name: str, default=None, required: bool = False):
    params = cfg.get("parameters") or {}
    if name in params:
        return params[name]
    if required:
        raise ConfigInvalid(f"parameters.{name}", "required parameter is missing")
    return default


def _require(cfg: dict, key: str):
    if key not in cfg or cfg[key] in (None, ""):
        raise ConfigInvalid(key, f"{key} is required for this operation")
    return cfg[key]


# ---------------------------------------------------------------- output

def _write_csv(path: str, header, blocks) -> int:
    """Write the header and every block of columns; return the row count.

    A block is a list of columns: 1-D numpy arrays of one length, or
    constants (ints and strings) repeated on every row. Float columns
    print as %.17g and integer columns (bool included) as %d; lines end
    in \r\n. No field needs quoting: fields are numbers and hex
    fingerprints. Rows are encoded WRITE_ROWS at a time in numpy (see
    `_encode_rows`); the bytes are those of formatting each row with
    Python's `%` operator.
    """
    n = 0
    with open(path, "wb") as f:
        f.write((",".join(header) + "\r\n").encode())
        for block in blocks:
            rows = len(next(c for c in block if isinstance(c, np.ndarray)))
            for lo in range(0, rows, WRITE_ROWS):
                f.write(_encode_rows([c[lo:lo + WRITE_ROWS] if isinstance(c, np.ndarray)
                                      else c for c in block]))
            n += rows
    return n


def _encode_rows(block) -> np.ndarray:
    # the CSV lines of one block as flat uint8 text: every field becomes a
    # NUL-padded byte matrix, one row per line, and the constants with the
    # separators between them become literal runs; the matrices sit side by
    # side and the NULs (which CSV text never holds) are squeezed out
    parts, text = [], ""
    for j, c in enumerate(block):
        text += "," if j else ""
        if isinstance(c, np.ndarray):
            parts += [np.frombuffer(text.encode(), np.uint8),
                      _float_field(c) if c.dtype.kind == "f" else _int_field(c)]
            text = ""
        else:
            text += str(c)
    parts.append(np.frombuffer((text + "\r\n").encode(), np.uint8))
    rows = max(len(p) for p in parts if p.ndim == 2)
    M = np.zeros((rows, sum(p.shape[-1] for p in parts)), np.uint8)
    at = 0
    for p in parts:
        M[:, at:at + p.shape[-1]] = p
        at += p.shape[-1]
    return M[M != 0]


def _float_field(col: np.ndarray) -> np.ndarray:
    # %.17g of each distinct bit pattern once (so -0.0 and every NaN keep
    # their own text), all in one `%` call: %-24.17g left-justifies each in
    # the 24 places %.17g never exceeds, and the blank tail becomes NUL
    bits, inv = np.unique(col.astype(np.float64, copy=False).view(np.uint64),
                          return_inverse=True)
    text = ("%-24.17g" * len(bits)) % tuple(bits.view(np.float64).tolist())
    table = np.frombuffer(text.encode(), np.uint8).reshape(len(bits), 24)
    width = 24
    while (table[:, width - 1] == ord(" ")).all():
        width -= 1
    table = table[:, :width]
    return np.where(table == ord(" "), np.uint8(0), table)[inv]


_POW10 = 10 ** np.arange(20, dtype=np.uint64)


def _int_field(col: np.ndarray) -> np.ndarray:
    # %d in numpy: the magnitude as uint64 (two's complement for negatives,
    # so int64's minimum is exact), its digits right-aligned behind a sign
    # column, leading places NUL
    mag = col.astype(np.uint64)
    neg = col < 0
    np.negative(mag, out=mag, where=neg)
    ndig = np.maximum(np.searchsorted(_POW10, mag, side="right"), 1)
    width = int(ndig.max())
    out = np.empty((len(col), width + 1), np.uint8)
    rest = mag
    for j in range(width, 0, -1):
        rest, digit = np.divmod(rest, 10)
        out[:, j] = digit
    out += ord("0")
    lead = width + 1 - ndig
    out[np.arange(width + 1) < lead[:, None]] = 0
    out[neg, lead[neg] - 1] = ord("-")
    return out


def _resolve_out(cfg: dict, default_name: str):
    """--out may be a directory or a .csv path; summary.json sits next to it."""
    out = cfg.get("out") or "."
    if out.endswith(".csv"):
        csv_path, base = out, os.path.dirname(out) or "."
    else:
        base, csv_path = out, os.path.join(out, default_name)
    os.makedirs(base, exist_ok=True)
    return csv_path, os.path.join(base, "summary.json")


def _write_summary(path: str, payload: dict) -> None:
    try:        # strict JSON (RFC 8259), checked before the file is opened
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as e:
        raise CocycleLabError(f"summary is not strict JSON: {e}") from None
    with open(path, "w") as f:
        f.write(text)


def _base_summary(cfg: dict, fp: str, **extra) -> dict:
    out = {"operation": cfg["operation"], "seed": cfg["seed"],
           "fingerprint": fp, "parameters": dict(cfg.get("parameters") or {})}
    if "system" in cfg:
        out["system"] = cfg["system"]
        if cfg["system"].get("kind") in ("doubling", "cat-map"):
            # lattice orbits: the literal orbit of the state's 53-bit point
            out["orbit_mode"] = "exact"
    if "observable" in cfg:
        out["observable"] = cfg["observable"]
    out.update(extra)
    return out


def _seed_list(cfg: dict) -> list:
    n = int(_param(cfg, "seeds", 1))
    if n < 1:
        raise ConfigInvalid("parameters.seeds", "seed count must be >= 1")
    return [cfg["seed"] + i for i in range(n)]


# ------------------------------------------------------------- operations
# Each operation returns its CSV header after seed,fingerprint, its rows as
# (seed, columns) blocks and its summary fields; `run` writes them.

def _op_trace(cfg: dict):
    system = sy.parse_system(_require(cfg, "system"))
    obs = parse_observable(_require(cfg, "observable"))
    N = int(_param(cfg, "N", required=True))
    ce = int(_param(cfg, "checkpoint_every", 1024))
    seed = cfg["seed"]
    # traces store no orbit states; the summary still echoes the setting
    tr = ergodic_sums(system, obs, sy.sample_initial(system, seed), N)
    header = ["n"] + [f"phi_{j}" for j in range(obs.d)] + ["norm"]
    return header, [(seed, [np.arange(1, N + 1), *tr.values[1:].T, tr.norms[1:]])], \
        dict(d=obs.d, checkpoint_every=ce, final_norm=float(tr.norms[N]))


def _op_induce(cfg: dict):
    system = sy.parse_system(_require(cfg, "system"))
    obs = parse_observable(_require(cfg, "observable"))
    set_text = _param(cfg, "set", required=True)
    B = ind.parse_set(set_text)
    n_returns = int(_param(cfg, "returns", required=True))
    cap = int(_param(cfg, "cap", 10_000_000))
    seed = cfg["seed"]
    st = ind.first_entry(system, B, sy.sample_initial(system, seed), cap)
    it = ind.induced_trace(system, obs, B, st, n_returns, cap)
    header = ["n", "R_n"] + [f"phiB_{j}" for j in range(obs.d)]
    cols = [np.arange(1, n_returns + 1), it.return_times[:n_returns],
            *it.values[1:n_returns + 1].T]
    return header, [(seed, cols)], dict(
        set=set_text, cap=cap, measure=B.measure,
        mean_return_time=float(it.return_times[-1]) / n_returns)


def _dir_task(system, obs, N: int, mesh, ladder, epsilon: float, seed: int):
    _, mins, h = dr._scan_seed(system, obs, seed, N, mesh, ladder, None)
    return h, dr._verdict(mins, epsilon) if N >= 1024 else "inconclusive"


def _cell_angles(mesh) -> np.ndarray:
    """Angle rows per cell center: () for d=1 signs, polar for d=2/3."""
    c = mesh.centers
    if mesh.d == 1:
        return np.where(c[:, :1] > 0, 0.0, np.pi)
    if mesh.d == 2:
        return np.arctan2(c[:, 1:2], c[:, 0:1]) % (2.0 * np.pi)
    th = np.arctan2(c[:, 1], c[:, 0]) % (2.0 * np.pi)
    return np.column_stack([th, np.arccos(np.clip(c[:, 2], -1.0, 1.0))])


def _op_directions(cfg: dict):
    system = sy.parse_system(_require(cfg, "system"))
    obs = parse_observable(_require(cfg, "observable"))
    N = int(_param(cfg, "N", required=True))
    seeds = _seed_list(cfg)
    quorum = float(_param(cfg, "quorum", 0.9))
    epsilon = float(_param(cfg, "epsilon", 0.5))
    thresholds = _param(cfg, "thresholds")
    if thresholds is None:
        # one-pass default: ladder centered on the diffusive norm scale
        thresholds = dr.default_m_ladder(float(np.sqrt(N))).tolist()
    thresholds = [float(t) for t in thresholds]
    mesh = dr.make_mesh(obs.d)
    _check(system, obs, N)
    ladder = dr._ladder(thresholds)
    results = dr._map(_dir_task, [(system, obs, N, mesh, ladder, epsilon, s) for s in seeds],
                      cfg["jobs"])

    hist = functools.reduce(dr.DirectionHistogram.merge, [h for h, _ in results])
    est = dr.direction_set_estimate(hist, quorum)

    angles = _cell_angles(mesh)
    header = ["threshold", "cell"] + [f"angle_{j}" for j in range(angles.shape[1])] + ["count"]
    T = len(thresholds)
    grid = [np.repeat(np.asarray(thresholds), mesh.K), np.tile(np.arange(mesh.K), T),
            *np.tile(angles, (T, 1)).T]
    verdicts = [v for _, v in results]
    return header, [(s, [*grid, h.counts.ravel()]) for s, (h, _) in zip(seeds, results)], dict(
        mesh={"d": mesh.d, "K": mesh.K}, thresholds=thresholds, quorum=quorum,
        epsilon=epsilon, estimate_cells=[int(k) for k in est.cells],
        estimate_angles=[[float(a) for a in angles[k]] for k in est.cells],
        coverage_per_threshold=[int(c) for c in (hist.counts > 0).sum(axis=1)],
        recurrence={v: verdicts.count(v) for v in sorted(set(verdicts))})


def _filling_task(system, obs, N: int, seed: int):
    st = sy.sample_initial(system, seed)
    # the N+1-step trace behind mp holds the N-step trace as an exact prefix
    mp = fl.min_process(system, obs, st, N)
    m = mp.m[1:N + 1]
    # independent route: m_{n+1} = S_1 + min(m_n o T, 0)
    m_rec = np.concatenate([[mp.phi0], mp.phi0 + np.minimum(mp.m_shift[1:N], 0.0)])
    return m, np.abs(m - m_rec), mp.decomposition_residual()


def _op_filling(cfg: dict):
    N = int(_param(cfg, "N", required=True))
    seeds = _seed_list(cfg)
    system, obs = _require(cfg, "system"), parse_observable(_require(cfg, "observable"))
    system = sy.parse_system(system)             # parsed after the observable
    results = dr._map(_filling_task, [(system, obs, N, s) for s in seeds], cfg["jobs"])
    n = np.arange(1, N + 1)
    return ["n", "m_n", "residual"], [(s, [n, m, r]) for s, (m, r, _) in zip(seeds, results)], \
        dict(max_route_residual=float(max(r.max() for _, r, _ in results)),
             max_decomposition_residual=float(max(f for _, _, f in results)))


def _sojourn_task(system, obs, cone, N: int, grid, M: float, seed: int):
    tr = ergodic_sums(system, obs, sy.sample_initial(system, seed), N)
    ser = so.sojourn_series(tr, cone, grid=grid)
    # one ball pass up to the top horizon; each horizon takes a prefix mean
    top = int(ser.ns.max())
    fr, _ = BallWindow(M).path_fractions(tr.values[:top + 1], tr.norms[:top + 1], ends=False)
    ball = np.array([fr[:n].mean() for n in ser.ns])
    return ser.ns, ser.tau, ser.tau_disc, ball


def _op_sojourn(cfg: dict):
    N = int(_param(cfg, "N", required=True))
    cone_text = _param(cfg, "cone", required=True)
    grid = _param(cfg, "grid", "dyadic")
    grid_list = None if grid == "dyadic" else [int(n) for n in grid]
    M = float(_param(cfg, "M", 10.0))
    seeds = _seed_list(cfg)
    obs = parse_observable(_require(cfg, "observable"))
    system = sy.parse_system(_require(cfg, "system"))
    cone = parse_cone(cone_text, obs.d)
    results = dr._map(_sojourn_task, [(system, obs, cone, N, grid_list, M, s) for s in seeds],
                      cfg["jobs"])
    hi = [float(t.max()) for _, t, _, _ in results]
    lo = [float(t.min()) for _, t, _, _ in results]
    return ["n", "tau", "tau_discrete", "ball_freq"], list(zip(seeds, results)), dict(
        cone=cone_text, grid=grid, ball_radius=M, running_max=hi, running_min=lo,
        extreme_rate=float(np.mean([(a >= 0.9) and (b <= 0.1) for a, b in zip(hi, lo)])))


def _op_brownian(cfg: dict):
    cone_text = _param(cfg, "cone", required=True)
    t = float(_param(cfg, "t", 1.0))
    h = float(_param(cfg, "h", 1e-3))
    samples = int(_param(cfg, "samples", required=True))
    seed = cfg["seed"]
    taus = br.tau_samples(parse_cone(cone_text), t, h, samples, seed=seed)
    return ["i", "tau"], [(seed, [np.arange(samples), taus])], dict(
        cone=cone_text, t=t, h=h, samples=samples, mean_tau=float(taus.mean()))


def _op_accept(cfg: dict, fp: str) -> int:
    ids = _param(cfg, "criteria")
    results = acc.run_all([int(c) for c in ids] if ids else None)
    print(acc.format_report(results))
    report = acc.report_dict(results)
    report["fingerprint"] = fp
    for path, message in _schema_errors(_load_schema("accept_report.schema.json"), report):
        raise RuntimeError(f"accept report breaks its schema at {path}: {message}")
    base = cfg.get("out") or "."
    os.makedirs(base, exist_ok=True)
    _write_summary(os.path.join(base, "accept_report.json"), report)
    return 0


_DISPATCH = {"trace": _op_trace, "induce": _op_induce, "directions": _op_directions,
             "filling": _op_filling, "sojourn": _op_sojourn, "brownian": _op_brownian}


def run(cfg: dict) -> int:
    """Validate and execute a fully-assembled config.

    Every operation but accept writes <operation>.csv, each row led by
    its seed and the config fingerprint, and summary.json beside it.
    """
    validate_config(cfg)
    op, fp = cfg["operation"], config_fingerprint(cfg)
    if op == "accept":
        return _op_accept(cfg, fp)
    header, blocks, fields = _DISPATCH[op](cfg)
    csv_path, summary_path = _resolve_out(cfg, f"{op}.csv")
    rows = _write_csv(csv_path, ["seed", "fingerprint", *header],
                      [[seed, fp, *cols] for seed, cols in blocks])
    _write_summary(summary_path, _base_summary(cfg, fp, rows=rows, **fields))
    return 0


# ------------------------------------------------------------------ argv

class _Parser(argparse.ArgumentParser):
    def error(self, message):                    # exit 1, not argparse's 2
        raise ConfigInvalid("args", message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="cocycle-lab",
                description="Cocycle trajectory experiments over ergodic systems.")
    sub = p.add_subparsers(dest="operation", required=True)

    def add(name, **flags):
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--out")
        sp.add_argument("--jobs", type=int)
        if name not in ("brownian", "accept"):
            sp.add_argument("--system", help="e.g. rotation:golden, doubling, "
                                             "cat-map, iid-shift:gaussian:2")
            sp.add_argument("--obs", help="observable expression")
        for flag, typ in flags.items():
            sp.add_argument(f"--{flag}", type=typ)
        return sp

    add("trace", N=int, **{"checkpoint-every": int})
    add("induce", set=str, returns=int, cap=int)
    add("directions", N=int, seeds=int, thresholds=str, quorum=float,
        epsilon=float)
    add("filling", N=int, seeds=int)
    add("sojourn", cone=str, N=int, grid=str, seeds=int, M=float)
    add("brownian", cone=str, t=float, h=float, samples=int)
    add("accept", criteria=str)
    return p


_LIST_PARAMS = {"thresholds": float, "criteria": int, "grid": int}


def _finite(field: str, v):
    # NaN passes every schema bound (each comparison with it is false), and
    # json and argparse's float read NaN and infinities: refuse them on entry
    if isinstance(v, float) and not math.isfinite(v):
        raise ConfigInvalid(field, f"{v!r} is not a finite number")
    return v


def _json_number(text: str) -> float:
    return _finite("config", float(text))


def _object(field: str, v) -> dict:
    if not isinstance(v, dict):
        raise ConfigInvalid(field, f"{v!r} is not of type 'object'")
    return v


def _assemble(args: argparse.Namespace) -> dict:
    cfg = {}
    if args.config:
        try:
            with open(args.config) as f:
                cfg = _object("config", json.load(f, parse_float=_json_number,
                                                  parse_constant=_json_number))
        except OSError as e:
            raise ConfigInvalid("config", str(e)) from None
        except json.JSONDecodeError as e:
            raise ConfigInvalid("config", f"invalid JSON: {e}") from None
    cfg["operation"] = args.operation
    if getattr(args, "system", None):
        cfg["system"] = _system_from_string(args.system)
    if getattr(args, "obs", None):
        cfg["observable"] = args.obs
    params = dict(_object("parameters", cfg.get("parameters", {})))
    for flag in _load_schema("config.schema.json")["properties"]["parameters"]["properties"]:
        v = getattr(args, flag, None)
        if v is None:
            continue
        field = f"parameters.{flag}"
        if flag in _LIST_PARAMS and isinstance(v, str) and v != "dyadic":
            try:
                v = [_LIST_PARAMS[flag](x) for x in v.split(",")]
            except ValueError:
                raise ConfigInvalid(field, f"{v!r} is not a comma-separated list "
                                           f"of {_LIST_PARAMS[flag].__name__}s") from None
            for x in v:
                _finite(field, x)
        params[flag] = _finite(field, v)
    if params:
        cfg["parameters"] = params
    if args.seed is not None:
        cfg["seed"] = args.seed
    elif "COCYCLE_LAB_SEED" in os.environ:
        try:
            cfg["seed"] = int(os.environ["COCYCLE_LAB_SEED"])
        except ValueError:
            raise ConfigInvalid("seed", "COCYCLE_LAB_SEED must be an integer") \
                from None
    cfg.setdefault("seed", 0)
    if args.out is not None:
        cfg["out"] = args.out
    if args.jobs is not None:
        cfg["jobs"] = args.jobs
    cfg.setdefault("jobs", os.cpu_count() or 1)
    return cfg


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return run(_assemble(args))
    except ConfigInvalid as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except CocycleLabError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
