"""Times and checks the operations of a workload pass.

`Runner.op` is the only place a timed call happens. It times the call,
then, outside the timed interval, turns the result into a canonical view
and checks it:

- on the first pass of each kind, the workload's own invariant check;
- on every later pass of the same kind, that the view's SHA-256 digest
  equals the first pass's (same inputs, same bytes);
- on a reference pass, for operations marked `ref`, that the digest
  equals the one recorded in `digests.json`.

An operation that raises or fails a check counts as failed; a raise also
ends the pass.
"""
from __future__ import annotations

import hashlib
import os
import shutil
import time
from collections import defaultdict

import numpy as np


class PassAborted(Exception):
    pass


def digest(obj) -> str:
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def _feed(h, obj):
    if isinstance(obj, dict):
        for k in sorted(obj):
            h.update(k.encode() + b"\0")
            _feed(h, obj[k])
    elif isinstance(obj, bytes):
        h.update(len(obj).to_bytes(8, "little") + obj)
    elif isinstance(obj, str):
        _feed(h, obj.encode())
    else:
        a = np.ascontiguousarray(obj)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())


class Runner:
    def __init__(self, workdir: str, recorded: dict | None):
        self.workdir = workdir
        self.recorded = recorded or {}   # workload -> label -> digest
        self.tracer = None
        self.extras = False              # run `extra` operations (traced runs)
        self.attempted = 0
        self.failed = 0
        self.problems: dict = {}         # "workload:label" -> [messages]
        self.reference: dict = defaultdict(dict)   # workload -> label -> digest seen
        self._first: dict = {}           # (kind, workload, label) -> digest
        self._checked: set = set()
        self._n = 0

    # ------------------------------------------------------------ passes

    def begin(self, workload: str, kind: str, run_id: str):
        """Start a pass; kind is 'timed' or 'reference'."""
        self.workload, self.kind = workload, kind
        self.wall = 0.0
        self.op_times: dict = {}
        self.orbit_steps = 0
        self.path_steps = 0
        self.csv_bytes = 0
        self._dir = os.path.join(self.workdir, f"pass{self._n}")
        self._n += 1
        if self.tracer is not None:
            self.tracer.run = run_id

    def end(self):
        shutil.rmtree(self._dir, ignore_errors=True)
        if self.tracer is not None:
            self.tracer.run = None

    def fresh_dir(self, label: str) -> str:
        path = os.path.join(self._dir, label)
        if os.path.exists(path):
            raise RuntimeError(f"output directory {path} is not fresh")
        return path

    def count_output(self, out_dir: str, orbit_steps: int, path_steps: int):
        self.csv_bytes += sum(os.path.getsize(os.path.join(out_dir, f))
                              for f in os.listdir(out_dir) if f.endswith(".csv"))
        self.orbit_steps += orbit_steps
        self.path_steps += path_steps

    # -------------------------------------------------------- operations

    def op(self, label, fn, *, view, check=None, ref=False, steps=0, after=None):
        self.attempted += 1
        result, dt = self._call(label, fn)
        self.wall += dt
        self.op_times[label] = dt
        self.orbit_steps += steps
        key = (self.kind, self.workload, label)
        problems = []
        try:
            if after is not None:
                after(result)
            if key not in self._checked:
                self._checked.add(key)
                if check is not None:
                    problems += check(result)
            d = digest(view(result))
        except Exception as e:       # malformed output, e.g. a missing CSV
            self._fail(label, problems + [f"checking raised {type(e).__name__}: {e}"])
            return result
        first = self._first.setdefault(key, d)
        if d != first:
            problems.append("output differs from the first pass with the same inputs")
        if ref and self.kind == "reference":
            self.reference[self.workload][label] = d
            want = self.recorded.get(self.workload, {}).get(label)
            if d != want:
                problems.append(f"digest {d[:12]} differs from the recorded "
                                f"{(want or 'none')[:12]}")
        if problems:
            self._fail(label, problems)
        return result

    def extra(self, label, fn):
        """An untimed operation that only traced runs make."""
        if not self.extras:
            return
        self.attempted += 1
        run_id = self.tracer.run
        self.tracer.run = f"{run_id}/scaling"
        try:
            self._call(label, fn)
        finally:
            self.tracer.run = run_id

    def _call(self, label, fn):
        if self.tracer is not None:
            self.tracer.op = label
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as e:       # any failure of the program counts against it
            self._fail(label, [f"{type(e).__name__}: {e}"])
            raise PassAborted(label) from e
        return result, time.perf_counter() - t0

    def _fail(self, label, problems):
        self.failed += 1
        self.problems.setdefault(f"{self.workload}:{label}", []).extend(problems)
