"""Smoke check of the benchmark itself.

    python3 bench/smoke.py

Runs all three workloads (the two in BENCHMARK.json and
`deterministic-orbits`) at the small size in both modes and asserts that each
metric named in BENCHMARK.json is emitted once, with its unit and a finite
value, and that no operation failed (error rate 0). Then checks that a
copy holding only BENCHMARK.json and bench/ refuses to run: it must exit
non-zero without printing a result.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(cwd: Path, workload: str, trace: int, scale: str = "small"):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--scale", scale],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, w, trace)
            if proc.returncode != 0:
                problems.append(f"{w} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            detail = json.loads(lines[-2])["detail"]
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = result["metrics"]
            if set(got) != set(want):
                problems.append(f"{w} trace={trace}: metrics {sorted(set(got) ^ set(want))}"
                                " missing or unexpected")
            for name, m in got.items():
                if m.get("unit") != want.get(name) or not math.isfinite(m["value"]):
                    problems.append(f"{w} trace={trace}: {name} = {m}")
            if not result["correct"] or result["failed"] or detail["error_rate"] != 0:
                problems.append(f"{w} trace={trace}: failures {detail['problems']}")
            print(f"{w} trace={trace}: {len(got)} metrics, "
                  f"{result['attempted']} operations checked", flush=True)

    bare = BENCH / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns(
        "_work", "results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("a copy without the sources did not fail cleanly")
    else:
        print("copy without sources: exit", proc.returncode)

    for p in problems:
        print("FAIL", p)
    print("smoke ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
