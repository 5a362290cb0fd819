"""Spans around the program's public functions, and the per-layer metrics.

A traced run wraps, from the benchmark's side, the public functions of
each layer (the layers are the package's modules):

- systems: `orbit_span`;
- observables: `ObservableSpec.evaluate`;
- engine: `ergodic_sums`, `reverse_sums`, `cocycle_identity_check`;
- cones: every `segment_fraction` (the cone classes and `BallWindow`);
- induce, filling, directions, sojourn, brownian, cli: every public
  function the module defines.

A wrapped name is replaced in every loaded `cocyclelab` module that
holds it (so `from .engine import ergodic_sums` copies are caught too),
and restored by `uninstall`.

Each call becomes a span: name, layer, start, end, parent span, the id
of the run (pass) it belongs to, and a few counts read from its arguments
and result. With `memory` on (and `tracemalloc` started), a span also
records its peak traced allocation above the memory live at entry; numpy
reports its buffers to `tracemalloc`. Spans stay in memory until the run
writes them out. A span's self time is its duration minus its direct
children's.
"""
from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("systems", "observables", "engine", "induce", "filling", "directions",
          "sojourn", "cones", "brownian", "cli")
PUBLIC_MODULES = ("induce", "filling", "directions", "sojourn", "brownian", "cli")
CONE_KINDS = {"HalfSpace": "halfspace", "AngularCone": "angular", "BallWindow": "ball",
              "Orthant": "orthant", "Complement": "complement"}
MB = float(1 << 20)


class Span:
    __slots__ = ("sid", "name", "layer", "run", "parent", "start", "end",
                 "attrs", "base", "peak", "self_s")

    def as_dict(self) -> dict:
        return {"id": self.sid, "name": self.name, "run": self.run,
                "parent": self.parent, "start": self.start, "end": self.end,
                "attrs": self.attrs, "peak_alloc_bytes": self.peak - self.base}


def _kind(obj) -> str:
    return CONE_KINDS.get(type(obj).__name__, type(obj).__name__.lower())


def _orbit_key(system, state) -> tuple:
    coords = None if state.coords is None else state.coords.tobytes()
    return (repr(system), state.index, state.origin, state.traj_key, coords)


# Counts read from a call: f(arguments by name, result) -> dict.
def _orbit_attrs(a, r):
    return {"rows": a["hi"] - a["lo"] + 1, "kind": a["system"].kind}


def _rows_attrs(a, r):
    return {"rows": a["hi"] - a["lo"] + 1}


def _engine_attrs(a, r):
    return {"steps": a["N"], "checkpoints": len(r.checkpoints),
            "kind": a["system"].kind, "orbit": _orbit_key(a["system"], a["state0"])}


def _segment_attrs(a, r):
    return {"segments": len(a["P0"]), "d": a["P0"].shape[1], "kind": _kind(a["self"])}


def _hist_attrs(a, r):
    return {"rows": len(a["values"])}


def _sojourn_attrs(a, r):
    return {"horizon": int(r.ns.max()), "kind": _kind(a["cone"])}


def _tau_samples_attrs(a, r):
    t = a.get("t", 1.0)
    h = a.get("h", 1e-3)
    return {"path_steps": a["samples"] * int(round(t / h)), "kind": _kind(a["cone"])}


def _cli_attrs(a, r):
    argv = a.get("argv") or [None]
    return {"op": argv[0]}


ATTRS = {"engine.ergodic_sums": _engine_attrs, "engine.reverse_sums": _engine_attrs,
         "directions.hist_from_values": _hist_attrs,
         "sojourn.sojourn_series": _sojourn_attrs,
         "brownian.tau_samples": _tau_samples_attrs, "cli.main": _cli_attrs}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.run = None
        self.op = None
        self._stack: list = []
        self._patched: list = []
        self._attrs = dict(ATTRS)
        self.memory = False        # track allocations (tracemalloc must be on)

    # ------------------------------------------------------------ spans

    def _enter(self, name, layer) -> Span:
        sp = Span()
        sp.sid, sp.name, sp.layer, sp.run = len(self.spans), name, layer, self.run
        sp.attrs = {"op": self.op}
        sp.parent = self._stack[-1].sid if self._stack else None
        sp.base = sp.peak = 0
        if self.memory:
            cur, peak = tracemalloc.get_traced_memory()
            if self._stack:
                self._stack[-1].peak = max(self._stack[-1].peak, peak)
            tracemalloc.reset_peak()
            sp.base = sp.peak = cur
        self.spans.append(sp)
        self._stack.append(sp)
        sp.start = time.perf_counter()
        return sp

    def _exit(self, sp):
        sp.end = time.perf_counter()
        self._stack.pop()
        if self.memory:
            sp.peak = max(sp.peak, tracemalloc.get_traced_memory()[1])
        if self._stack:
            self._stack[-1].peak = max(self._stack[-1].peak, sp.peak)

    def _wrap(self, name, layer, fn):
        tracer, sig, attrs = self, inspect.signature(fn), self._attrs.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sp = tracer._enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(sp)
            if attrs is not None:
                sp.attrs.update(attrs(sig.bind(*args, **kwargs).arguments, result))
            return result
        return traced

    # --------------------------------------------------------- patching

    def install(self):
        from cocyclelab import cones, engine, observables, systems
        self._patch_function(systems, "orbit_span", "systems", _orbit_attrs)
        self._patch_class(observables.ObservableSpec, "evaluate", "observables",
                          _rows_attrs)
        for name in ("ergodic_sums", "reverse_sums", "cocycle_identity_check"):
            self._patch_function(engine, name, "engine")
        for cls in vars(cones).values():
            if isinstance(cls, type) and "segment_fraction" in vars(cls):
                self._patch_class(cls, "segment_fraction", "cones", _segment_attrs)
        for layer in PUBLIC_MODULES:
            mod = sys.modules[f"cocyclelab.{layer}"]
            for name, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    self._patch_function(mod, name, layer)

    def _patch_function(self, mod, name, layer, attrs=None):
        orig = getattr(mod, name)
        full = f"{layer}.{name}"
        if attrs is not None:
            self._attrs[full] = attrs
        traced = self._wrap(full, layer, orig)
        for m in list(sys.modules.values()):
            if getattr(m, "__name__", "").split(".")[0] != "cocyclelab":
                continue
            for k, v in list(vars(m).items()):
                if v is orig:
                    setattr(m, k, traced)
                    self._patched.append((m, k, orig))

    def _patch_class(self, cls, name, layer, attrs):
        full = f"{layer}.{cls.__name__}.{name}"
        self._attrs[full] = attrs
        orig = vars(cls)[name]
        setattr(cls, name, self._wrap(full, layer, orig))
        self._patched.append((cls, name, orig))

    def uninstall(self):
        for owner, name, orig in reversed(self._patched):
            setattr(owner, name, orig)
        self._patched.clear()


# ------------------------------------------------------------- metrics

def _index(spans):
    by_id = {s.sid: s for s in spans}
    child = defaultdict(float)
    for s in spans:
        if s.parent in by_id:
            child[s.parent] += s.end - s.start
    for s in spans:
        s.self_s = (s.end - s.start) - child[s.sid]
    return by_id


def _ancestors(s, by_id):
    while s.parent in by_id:
        s = by_id[s.parent]
        yield s


def _traces_per_orbit(spans, by_id, in_context) -> float | None:
    """Traces built per distinct orbit, grouped by the outermost context span."""
    traces = defaultdict(int)
    orbits = defaultdict(set)
    for s in spans:
        if s.name != "engine.ergodic_sums":
            continue
        ctx = [a for a in _ancestors(s, by_id) if in_context(a)]
        if ctx:
            traces[ctx[-1].sid] += 1
            orbits[ctx[-1].sid].add(s.attrs["orbit"])
    n = sum(len(o) for o in orbits.values())
    return sum(traces.values()) / n if n else None


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else None


def memory_values(spans: list) -> dict:
    """Peak traced allocations, from one pass made with `memory` on."""
    def peak(test):
        return max((s.peak - s.base for s in spans if test(s)), default=0) / MB

    v = {"engine.peak_alloc_mb": peak(lambda s: s.name in ("engine.ergodic_sums",
                                                            "engine.reverse_sums")),
         "sojourn.peak_alloc_mb": peak(lambda s: s.layer == "sojourn"),
         "brownian.peak_alloc_mb": peak(lambda s: s.layer == "brownian"),
         "sojourn.alloc_scaling_2n": None}
    # the same kernel at horizons N and N/2 (the walk-stats extra operation)
    series = [s for s in spans if s.name == "sojourn.sojourn_series"
              and s.attrs.get("kind") == "angular"]
    if series:
        top = max(s.attrs["horizon"] for s in series)
        alloc = {h: max((s.peak - s.base for s in series if s.attrs["horizon"] == h),
                        default=0) for h in (top, top // 2)}
        v["sojourn.alloc_scaling_2n"] = _ratio(alloc[top], alloc[top // 2])
    return v


def layer_values(spans: list, passes: int) -> dict:
    """Per-layer time and count metrics of a set of passes; sums are per pass."""
    by_id = _index(spans)
    per = float(passes)
    self_s = defaultdict(float)
    for s in spans:
        self_s[s.layer] += s.self_s
    v = {f"{layer}.self_s": self_s[layer] / per for layer in LAYERS}

    def total(name_test, key="self_s", attr=None):
        t = c = 0.0
        for s in spans:
            if name_test(s):
                t += s.self_s if key == "self_s" else s.end - s.start
                c += s.attrs.get(attr, 0) if attr else 0
        return t, c

    for kind in ("rotation", "doubling", "cat-map", "iid-shift"):
        t, rows = total(lambda s: s.name == "systems.orbit_span" and s.attrs["kind"] == kind,
                        attr="rows")
        v[f"systems.ns_per_step.{kind}"] = _ratio(t, rows, 1e9)
    t, rows = total(lambda s: s.layer == "observables", attr="rows")
    v["observables.ns_per_step"] = _ratio(t, rows, 1e9)

    engine = [s for s in spans if s.name in ("engine.ergodic_sums", "engine.reverse_sums")]
    steps = sum(s.attrs["steps"] for s in engine)
    v["engine.steps"] = steps / per
    v["engine.ns_per_step"] = _ratio(self_s["engine"], steps, 1e9)
    v["engine.checkpoints"] = sum(s.attrs["checkpoints"] for s in engine) / per
    v["engine.restart_s"] = sum(
        s.end - s.start for s in engine
        if by_id.get(s.parent) is not None
        and by_id[s.parent].name == "engine.cocycle_identity_check") / per

    scanned = sum(s.attrs["rows"] for s in spans if s.name == "systems.orbit_span"
                  and by_id.get(s.parent) is not None
                  and by_id[s.parent].layer == "induce")
    v["induce.steps_scanned"] = scanned / per
    v["induce.ns_per_step"] = _ratio(self_s["induce"], scanned, 1e9)

    v["filling.traces_per_call"] = _traces_per_orbit(
        spans, by_id, lambda a: a.layer == "filling"
        or (a.name == "cli.main" and a.attrs.get("op") == "filling"))
    v["directions.traces_per_seed"] = _traces_per_orbit(
        spans, by_id, lambda a: a.layer == "directions")
    t, rows = total(lambda s: s.name == "directions.hist_from_values", key="dur",
                    attr="rows")
    v["directions.hist.ns_per_step"] = _ratio(t, rows, 1e9)

    # outermost kernel calls only: a complement's inner cone is not new work
    kernels = [s for s in spans if s.layer == "cones"
               and (by_id.get(s.parent) is None or by_id[s.parent].layer != "cones")]
    outer = {s.sid for s in kernels}
    segments = sum(s.attrs["segments"] for s in kernels)
    v["cones.segments"] = segments / per
    v["cones.bytes_in_mb"] = sum(s.attrs["segments"] * 2 * s.attrs["d"] * 8
                                 for s in kernels) / MB / per
    for kind in ("halfspace", "angular", "ball"):
        t, n = total(lambda s: s.sid in outer and s.attrs["kind"] == kind, key="dur",
                     attr="segments")
        v[f"cones.ns_per_segment.{kind}"] = _ratio(t, n, 1e9)

    for kind in ("halfspace", "angular"):
        t, n = total(lambda s: s.name == "brownian.tau_samples"
                     and s.attrs["kind"] == kind, key="dur", attr="path_steps")
        v[f"brownian.ns_per_path_step.{kind}"] = _ratio(t, n, 1e9)
    v["cli.validate_s"] = sum(s.end - s.start for s in spans
                              if s.name == "cli.validate_config") / per
    return v


def shares(spans: list, wall: float) -> dict:
    """Each layer's self time as a share of the passes' timed wall time."""
    self_s = defaultdict(float)
    for s in spans:
        self_s[s.layer] += s.self_s
    return {f"{layer}.share": self_s[layer] / wall if wall else 0.0 for layer in LAYERS}


def median_ratio(op_times: list, num: str, den: str) -> float | None:
    r = [t[num] / t[den] for t in op_times if num in t and den in t and t[den] > 0]
    return statistics.median(r) if r else None
