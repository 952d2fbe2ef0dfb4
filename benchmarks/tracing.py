"""Spans around the calls into each pairkey layer, recorded from outside.

The tracer rebinds names in `pairkey.montecarlo` (for example
`montecarlo.sample_gamma_matrix`) to wrappers that time each call, so the
package itself is not edited. A name the module no longer has marks its
layer absent: its metrics are left out and the run still succeeds.

Spans are kept in memory as (layer, start, end, parent, trial, alloc_mb)
and turned into per-layer metrics, or written out, when the run ends. A
layer's self time is its spans' durations minus the time covered by their
child spans. Start and end read the process CPU clock, so a span's length
leaves out time the hypervisor stole (see measure.py).
"""

from __future__ import annotations

import functools
import json
import tracemalloc
from contextlib import contextmanager
from time import process_time
from typing import NamedTuple

MB = 2.0 ** 20

# (name in pairkey.montecarlo, layer, measure allocation, starts a trial)
HOOKS = (
    ("rng_from_entropy", "seed", False, False),
    ("sample_gamma_matrix", "scheme.sample", True, False),
    ("toroidal_distance_matrix", "channels.distance", True, False),
    ("run_trial", "trial", False, True),
    ("csr_matrix", "components.csr", False, False),
    ("_sparse_components", "components", False, False),
    ("_run_cell", "cell", False, False),
)


class Span(NamedTuple):
    layer: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at the top
    trial: int  # run_trial call number, -1 outside a trial
    alloc_mb: float  # tracemalloc peak during the call, -1 if not measured


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._trial = -1
        self._trials = 0

    def call(self, layer, fn, args, kwargs, alloc=False, new_trial=False):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        outer_trial = self._trial
        if new_trial:
            self._trial = self._trials
            self._trials += 1
        self._stack.append(idx)
        # tracemalloc runs only inside allocation spans, which never nest,
        # so it slows no other layer
        if alloc:
            tracemalloc.start()
        t0 = process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = process_time()
            mb = -1.0
            if alloc:
                mb = tracemalloc.get_traced_memory()[1] / MB
                tracemalloc.stop()
            self._stack.pop()
            self.spans[idx] = Span(layer, t0, t1, parent, self._trial, mb)
            self._trial = outer_trial

    def wrap(self, fn, layer, alloc=False, new_trial=False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(layer, fn, args, kwargs, alloc, new_trial)
        return traced

    @contextmanager
    def installed(self, module):
        """Rebind every hooked name of `module` while the block runs."""
        saved = {}
        for name, layer, alloc, new_trial in HOOKS:
            fn = getattr(module, name, None)
            if fn is None:
                self.absent.append(layer)
                continue
            saved[name] = fn
            setattr(module, name, self.wrap(fn, layer, alloc, new_trial))
        try:
            yield self
        finally:
            for name, fn in saved.items():
                setattr(module, name, fn)

    def write(self, path) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s._asdict()) + "\n")

    def layer_totals(self) -> dict[str, dict]:
        """Calls, self time, largest allocation and span durations per layer."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out: dict[str, dict] = {}
        for i, s in enumerate(self.spans):
            t = out.setdefault(s.layer, {"calls": 0, "self_s": 0.0,
                                         "alloc_mb": 0.0, "durations": []})
            dur = s.end - s.start
            t["calls"] += 1
            t["self_s"] += dur - child[i]
            t["alloc_mb"] = max(t["alloc_mb"], s.alloc_mb)
            t["durations"].append(dur)
        return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced run; absent layers are left out."""
    tot = tracer.layer_totals()
    absent = set(tracer.absent)

    def get(layer, key):
        return tot.get(layer, {}).get(key, 0)

    m: dict[str, float] = {}
    for layer in ("seed", "scheme.sample", "channels.distance", "trial"):
        if layer not in absent:
            m[f"{layer}.calls"] = get(layer, "calls")
            m[f"{layer}.self_s"] = get(layer, "self_s")
    for layer in ("scheme.sample", "channels.distance"):
        if layer not in absent:
            m[f"{layer}.alloc_mb"] = get(layer, "alloc_mb")
    if not absent & {"components", "components.csr"}:
        m["components.calls"] = get("components", "calls")
        m["components.self_s"] = (get("components", "self_s")
                                  + get("components.csr", "self_s"))
        if "trial" not in absent:
            trials = get("trial", "calls")
            m["components.skip_frac"] = (
                1.0 - get("components", "calls") / trials if trials else 0.0)
    if "cell" not in absent:
        cells = tot.get("cell", {}).get("durations", [])
        m["sweep.cells"] = len(cells)
        m["sweep.overhead_s"] = get("sweep", "self_s")
        m["sweep.max_cell_share"] = max(cells) / sum(cells) if cells else 0.0
    m["validate.self_s"] = get("validate", "self_s")
    m["validate.alloc_mb"] = get("validate", "alloc_mb")
    m["edge_prob.self_s"] = get("edge_prob", "self_s")
    return m
