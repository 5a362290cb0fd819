"""cocycle-lab benchmark: one run of one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src/`.
Every measured process is a fresh interpreter with BLAS/OpenMP threads
pinned to 1; the CLI runs with `--jobs 1`.

`--trace 0` measures the end-to-end metrics:
- `wall_s`: median over the run's passes of one pass's timed calls (the
  work per pass is fixed; set-up and output checks are not timed);
- `setup_s`: median of several fresh starts (half of them before the
  measuring process, half after, so the median spans the run), each from
  process launch through importing `cocyclelab` and `cocyclelab.cli`
  and deriving, parsing and schema-validating the workload's inputs;
- `peak_rss_mb`: `ru_maxrss` of the process that ran the passes.

`--trace 1` runs the workload again with spans around each layer's
public functions and reports the per-layer metrics (see `tracer.py`),
plus `python -X importtime` figures for the CLI and scipy imports.

Outputs are checked in both modes (see `runner.py`). The last line of
standard output is the result object; the line before it, and
`bench/results/`, hold the details: environment, steps per pass,
per-operation times, failures and the spans file.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("walk-stats", "deterministic-orbits", "cli-export")
SETUP_SAMPLES = 6          # fresh starts before and again after the measuring one
DEADLINE_S = 170.0         # a run ends within this, or fails
PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
        "NUMEXPR_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1"}


class BenchError(Exception):
    pass


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), **PINS)


def _child(argv: list, deadline: float) -> subprocess.CompletedProcess:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time before starting a child process")
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=_env(), capture_output=True,
                              text=True, timeout=left)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{argv[1:3]} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"{argv[1:3]} exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return proc


def _worker(mode: str, args, deadline: float) -> tuple[float, dict]:
    t0 = time.monotonic()
    proc = _child([sys.executable, str(BENCH / "worker.py"), mode, args.workload,
                   str(args.seed), str(args.seconds), args.scale], deadline)
    return t0, json.loads(proc.stdout.strip().splitlines()[-1])


def _import_times(deadline: float) -> dict:
    """Cumulative import times from `python -X importtime` in a fresh interpreter.

    `cli.import_s` is what `import cocyclelab, cocyclelab.cli` costs;
    `brownian.import_scipy_s` adds up every outermost scipy import (scipy
    loads `scipy.stats` lazily, so its submodules are reported at the
    level of the module that asked for them).
    """
    proc = _child([sys.executable, "-X", "importtime", "-c",
                   "import cocyclelab, cocyclelab.cli"], deadline)
    rows = []
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 \
                and parts[1].strip().isdigit():
            name = parts[2].rstrip()
            rows.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1]) / 1e6))
    # children are printed before their parent, one level deeper
    top, scipy_s, parent_at = {}, 0.0, {}
    for level, name, cum in reversed(rows):
        parent = parent_at.get(level - 2, "")
        if level == 1:
            top[name] = cum
        if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            scipy_s += cum
        parent_at[level] = name
    if "cocyclelab" not in top:
        raise BenchError("importtime did not report cocyclelab")
    return {"cli.import_s": top["cocyclelab"] + top.get("cocyclelab.cli", 0.0),
            "brownian.import_scipy_s": scipy_s}


def _source() -> dict:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file() and p.suffix in (".py", ".json"):
            h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True)
        commit = git.stdout.strip() or None
    return {"commit": commit, "source_sha256": h.hexdigest()}


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def measure(args, deadline) -> tuple[dict, dict]:
    def fresh_starts():
        for _ in range(SETUP_SAMPLES):
            t0, out = _worker("setup", args, deadline)
            ready.append(out["ready"] - t0)

    ready = []
    fresh_starts()
    t0, main = _worker("measure", args, deadline)
    ready.append(main["ready"] - t0)
    fresh_starts()
    walls = [p["wall_s"] for p in main["passes"]]
    if not walls:
        raise BenchError(f"no pass completed: {main['problems']}")
    first = main["passes"][0]
    wall = statistics.median(walls)
    metrics = {"wall_s": _metric(wall, "s"),
               "setup_s": _metric(statistics.median(ready), "s"),
               "peak_rss_mb": _metric(main["peak_rss_mb"], "MB")}
    detail = {"setup_s_samples": ready, "wall_s_per_pass": walls,
              "orbit_steps_per_pass": first["orbit_steps"],
              "orbit_steps_per_s": first["orbit_steps"] / wall,
              "brownian_path_steps_per_pass": first["path_steps"],
              "csv_bytes_per_pass": first["csv_bytes"],
              "op_s_per_pass": [p["op_s"] for p in main["passes"]]}
    return metrics, dict(main, **detail)


def traced(args, deadline) -> tuple[dict, dict]:
    imports = _import_times(deadline)
    _, main = _worker("trace", args, deadline)
    if not main["plain_passes"] or not main["traced_passes"]:
        raise BenchError(f"no pass completed: {main['problems']}")
    values = dict(main["per_layer"], **imports)
    units = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    missing = [m["name"] for m in units if m["name"] not in values]
    if missing:
        raise BenchError(f"per-layer metrics not produced: {missing}")
    metrics = {m["name"]: _metric(values[m["name"]] or 0.0, m["unit"]) for m in units}
    return metrics, main


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "small"), default="full",
                   help="workload size; 'small' is for the smoke check")
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "cocyclelab" / "__init__.py").is_file():
        print(f"no cocyclelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    try:
        metrics, main_out = (traced if args.trace else measure)(args, deadline)
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    attempted, failed = main_out["attempted"], main_out["failed"]
    detail = dict(main_out, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, scale=args.scale,
                  error_rate=failed / attempted if attempted else None,
                  env=dict(main_out["env"], **_source()))
    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1))
    print(json.dumps({"detail": {k: v for k, v in detail.items()
                                 if k not in ("inputs", "op_s_per_pass")}}))
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
