"""One fresh interpreter of a benchmark run (started by `run.py`).

    python3 bench/worker.py MODE WORKLOAD SEED SECONDS SCALE

MODE is one of
- `setup`: import the package and the CLI, then derive, parse and
  schema-validate the workload's inputs; report the monotonic clock at
  that point, which `run.py` turns into one `setup_s` sample;
- `measure`: set up, then run timed passes of the workload until
  SECONDS are used, then the reference pass at the default seed;
- `trace`: set up, then alternate untraced and traced passes until
  SECONDS are used, then traced small passes of `deterministic-orbits`
  at the default seed (the layer probe), then one pass with allocation
  tracking too, then the reference pass.

It prints one JSON object on its last line of standard output.
"""
from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import cocyclelab  # noqa: E402
import cocyclelab.cli  # noqa: E402,F401

if Path(cocyclelab.__file__).resolve().parent != ROOT / "src" / "cocyclelab":
    sys.exit(f"cocyclelab was imported from {cocyclelab.__file__}, not from this checkout")

import workloads as wl  # noqa: E402
from runner import PassAborted, Runner  # noqa: E402


def _record(rt) -> dict:
    return {"wall_s": rt.wall, "op_s": rt.op_times, "orbit_steps": rt.orbit_steps,
            "path_steps": rt.path_steps, "csv_bytes": rt.csv_bytes}


def _passes(rt, inp, seconds, run_prefix):
    """Timed passes (at least one) until `seconds` would be exceeded."""
    out = []
    t_loop = time.monotonic()
    while True:
        t_pass = time.monotonic()
        rt.begin(inp.name, "timed", f"{run_prefix}{len(out)}")
        try:
            wl.PASSES[inp.name](rt, inp)
        except PassAborted:
            break
        finally:
            rt.end()
        out.append(_record(rt))
        spent = time.monotonic() - t_loop
        if spent + (time.monotonic() - t_pass) > seconds:
            break
    return out


def _reference(rt, name, run_id) -> dict:
    """The small pass at the default seed, whose digests are recorded."""
    inp = wl.build(name, wl.DEFAULT_SEED, "small")
    rt.begin(name, "reference", run_id)
    try:
        wl.PASSES[name](rt, inp)
    except PassAborted:
        pass
    finally:
        rt.end()
    return _record(rt)


def _environment() -> dict:
    import numpy
    import scipy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "threads": {k: os.environ.get(k) for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}


def main(argv):
    mode, name, seed, seconds, scale = argv[0], argv[1], int(argv[2]), float(argv[3]), argv[4]
    inp = wl.build(name, seed, scale)
    ready = time.monotonic()
    if mode == "setup":
        return {"ready": ready}

    recorded = json.loads(Path(__file__).with_name("digests.json").read_text())
    workdir = ROOT / "bench" / "_work" / f"{os.getpid()}"
    rt = Runner(str(workdir), recorded)
    out = {"ready": ready, "env": _environment(),
           "inputs": {"sizes": inp.size, "configs": inp.configs}}
    try:
        if mode == "measure":
            out["passes"] = _passes(rt, inp, seconds, f"{name}/pass")
            out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            _reference(rt, name, f"reference/{name}")
        else:
            out.update(_traced(rt, inp, seconds))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out.update(attempted=rt.attempted, failed=rt.failed, problems=rt.problems,
               reference_digests=rt.reference)
    return out


PROBE = "deterministic-orbits"
PROBE_PASSES = 5                 # its small pass takes about 0.3 s
# figures that neither bounded workload produces; the probe reports them
PROBE_METRICS = ("systems.ns_per_step.cat-map", "systems.cat-map.scaling_2n",
                 "engine.restart_s")


def _traced(rt, inp, seconds) -> dict:
    """Untraced and traced passes in turn, so that the tracing overhead is
    a median of paired differences; then the layer probe; then one pass
    with allocation tracking too, which slows Python-heavy layers too much
    to time them.

    Every per-layer figure is the workload's own, and reads 0 for a layer
    it never calls. The layer probe, traced small passes of `PROBE` at the
    default seed, adds the `PROBE_METRICS` as `probe.<name>`.
    """
    import tracemalloc

    import tracer as tr

    t = tr.Tracer()
    rt.tracer = t
    plain, traced = [], []
    t0 = time.monotonic()
    while True:
        t_pair = time.monotonic()
        plain += _passes(rt, inp, 0.0, f"{inp.name}/plain{len(plain)}/")
        t.install()
        try:
            traced += _passes(rt, inp, 0.0, f"{inp.name}/pass{len(traced)}/")
        finally:
            t.uninstall()
        if len(plain) != len(traced) or (time.monotonic() - t0) + (
                time.monotonic() - t_pair) > seconds:
            break
    t.install()
    try:
        probe = [_reference(rt, PROBE, f"probe/{i}") for i in range(PROBE_PASSES)]
        tracemalloc.start()
        rt.extras = t.memory = True
        memory = _passes(rt, inp, 0.0, f"{inp.name}/memory")
    finally:
        tracemalloc.stop()
        rt.extras = t.memory = False
        t.uninstall()
    _reference(rt, inp.name, f"reference/{inp.name}")
    if not traced or len(plain) != len(traced) or not memory:
        return {"plain_passes": plain, "traced_passes": []}

    def spans(prefix):
        return [s for s in t.spans if (s.run or "").startswith(prefix)]

    main = spans(f"{inp.name}/pass")
    values = tr.layer_values(main, len(traced))
    values.update(tr.memory_values(spans(f"{inp.name}/memory")))
    values["systems.cat-map.scaling_2n"] = tr.median_ratio(
        [p["op_s"] for p in plain], "cat.ergodic_sums.2N", "cat.ergodic_sums.N")
    values["cli.csv_bytes"] = plain[0]["csv_bytes"]
    values["cli.csv_mb_per_s"] = (values["cli.csv_bytes"] / tr.MB / values["cli.self_s"]
                                  if values["cli.self_s"] else None)
    values.update(tr.shares(main, sum(p["wall_s"] for p in traced)))
    values["trace.overhead_s"] = statistics.median(
        b["wall_s"] - a["wall_s"] for a, b in zip(plain, traced))

    probe_values = tr.layer_values(spans("probe/"), PROBE_PASSES)
    probe_values["systems.cat-map.scaling_2n"] = tr.median_ratio(
        [p["op_s"] for p in probe], "cat.ergodic_sums.2N", "cat.ergodic_sums.N")
    values.update((f"probe.{k}", probe_values[k]) for k in PROBE_METRICS)

    spans_path = ROOT / "bench" / "results" / f"spans-{inp.name}-{inp.seed}.json"
    spans_path.parent.mkdir(exist_ok=True)
    spans_path.write_text(json.dumps([s.as_dict() for s in t.spans], default=str))
    return {"plain_passes": plain, "traced_passes": traced, "memory_pass": memory[0],
            "per_layer": values, "spans_file": str(spans_path.relative_to(ROOT))}


if __name__ == "__main__":
    result = main(sys.argv[1:])
    print(json.dumps(result, default=float))
