"""Run one workload in this fresh process and print its measurements.

run.py starts this script once per workload, with PYTHONPATH pointing at
the checkout's `src`, and passes the resolved run as one JSON argument:

    {"workload": ..., "kind": "sweep" | "validate", "params": {...},
     "seed": N, "seconds": S, "trace": 0 | 1, "workers": W, "spans": path}

("spans" only with trace 1: where the traced run's spans are written.)

The last line of stdout is a JSON object with the metrics this process can
measure, the output checks it made, and diagnostics that are not checks.
Sweeps use `workers` processes and never more; their peak RSS is the larger
of this process's and the largest worker's high-water mark.

Times leave out CPU time the hypervisor stole for other guests, which on a
shared virtual machine swings wall times by tens of percent between runs
and no program change can affect. Work done in this process is timed by its
own CPU time, which the kernel counts without steal. A pooled sweep keeps
every CPU busy, so it is timed by wall time minus the steal of /proc/stat
(summed over CPUs) divided by the number of workers. The steal is recorded.
The end-to-end times are then scaled to reference machine speed (see
reference.py): the reference kernel runs before every repetition. The
unscaled figures are recorded next to them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import sys
import time
from statistics import median

from pairkey import montecarlo as mc
from pairkey import theory

from reference import Speed
from tracing import Tracer, layer_metrics

MIN_SWEEP_REPS = 3  # workers, 1, workers: covers both byte-identity checks
MIN_VALIDATE_REPS = 2
MIN_TRACE_PAIRS = 3
VALIDATE_CHECK_NAMES = frozenset({
    "edge_prob", "pairing_prob", "isolation_prob", "b_leq_u_squared",
    "cross_moment_ratio", "estar_mean", "estar_tail", "edge_covariance",
})


class Checks:
    """Output checks a correct change cannot fail by chance."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)


def steal_s() -> float:
    """CPU seconds the hypervisor ran other guests while this machine's CPUs
    were ready to run: the `steal` column of /proc/stat, all CPUs summed."""
    with open("/proc/stat") as f:
        return int(f.readline().split()[8]) / os.sysconf("SC_CLK_TCK")


def timed(fn, *args, **kwargs):
    """Output of a call in this process, and the CPU seconds it took."""
    t0 = time.process_time()
    out = fn(*args, **kwargs)
    return out, time.process_time() - t0


def timed_pool(cpus: int, fn, *args, **kwargs):
    """Output of a call that keeps `cpus` CPUs busy, its wall seconds less
    the steal per CPU, and the steal."""
    s0, t0 = steal_s(), time.perf_counter()
    out = fn(*args, **kwargs)
    wall, stolen = time.perf_counter() - t0, steal_s() - s0
    return out, wall - stolen / cpus, stolen


def traced_pairs(call, seconds: float):
    """Alternate untraced and traced runs of `call(tracer)` (tracer None for
    untraced) for `seconds`, and at least MIN_TRACE_PAIRS times, so machine
    drift hits both alike. Returns the last untraced and traced outputs, the
    last tracer, the median untraced seconds and the tracing overhead: the
    median over pairs of traced time over untraced time, minus 1."""
    plain_s, ratios = [], []
    deadline = time.perf_counter() + seconds
    while len(ratios) < MIN_TRACE_PAIRS or time.perf_counter() < deadline:
        plain, dt = timed(call, None)
        plain_s.append(dt)
        tracer = Tracer()
        with tracer.installed(mc):
            traced, dt = timed(call, tracer)
        ratios.append(dt / plain_s[-1])
    return plain, traced, tracer, median(plain_s), median(ratios) - 1.0


def peak_rss_mb() -> float:
    """Largest high-water RSS of this process and its waited-for children."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# --------------------------------------------------------------------------
# sweep workloads
# --------------------------------------------------------------------------

def check_table(checks: Checks, table: mc.EstimateTable,
                cfg: mc.ExperimentConfig) -> None:
    rows = table.rows
    checks.check("cells_complete",
                 len(rows) == len(cfg.K_grid) * len(cfg.p_grid)
                 and all(r.trials == cfg.trials for r in rows))
    for r in rows:
        checks.check(f"connected_le_no_isolated[K={r.K},p={r.p}]",
                     0 <= r.count_connected <= r.count_no_isolated <= r.trials)
        if cfg.channel == "on_off" and r.p == 1.0:
            checks.check(f"no_isolated_at_p1[K={r.K}]",
                         r.count_no_isolated == r.trials)


def run_sweep(spec: dict, checks: Checks) -> dict:
    cfg = mc.ExperimentConfig(**spec["params"], seed=spec["seed"])
    workers = spec["workers"]
    total = len(cfg.K_grid) * len(cfg.p_grid) * cfg.trials
    # fill lazy imports and per-n caches before timing
    mc.sweep(mc.ExperimentConfig(n=cfg.n, K_grid=cfg.K_grid[:1],
                                 p_grid=cfg.p_grid[:1], trials=1,
                                 seed=cfg.seed, channel=cfg.channel))

    if spec["trace"]:
        def call(tracer):
            if tracer is None:
                return mc.sweep(cfg, workers=1)
            return tracer.call("sweep", mc.sweep, (cfg,), {"workers": 1})

        pooled, t_pool, _ = timed_pool(workers, mc.sweep, cfg,
                                       workers=workers)
        plain, traced, tracer, t_plain, overhead = traced_pairs(
            call, spec["seconds"])
        csv = plain.to_csv_text()
        for t in (pooled, plain, traced):
            check_table(checks, t, cfg)
        checks.check(f"csv_identical[workers={workers}]",
                     pooled.to_csv_text() == csv)
        checks.check("csv_identical[traced]", traced.to_csv_text() == csv)
        tracer.write(spec["spans"])
        metrics = layer_metrics(tracer)
        metrics["sweep.pool_efficiency"] = t_plain / (workers * t_pool)
        metrics["trace.overhead_frac"] = overhead
        return {"metrics": metrics, "absent_layers": tracer.absent,
                "diagnostics": {"csv_sha256": digest(csv)}}

    pooled_s, plain_s, texts = [], [], []
    stolen = 0.0
    speed = Speed()
    deadline = time.perf_counter() + spec["seconds"]
    while (len(texts) < MIN_SWEEP_REPS
           or time.perf_counter() < deadline):
        speed.keep_pace(sum(pooled_s) + sum(plain_s))
        if len(texts) % 2 == 0:
            table, dt, st = timed_pool(workers, mc.sweep, cfg, workers=workers)
            pooled_s.append(dt)
            stolen += st
        else:
            table, dt = timed(mc.sweep, cfg, workers=1)
            plain_s.append(dt)
        texts.append(table.to_csv_text())
        check_table(checks, table, cfg)
    csv = texts[0]
    for i, text in enumerate(texts[1:], start=1):
        w = workers if i % 2 == 0 else 1
        checks.check(f"csv_identical[workers={w}]", text == csv)
    raw = {"trials_per_s": total / median(pooled_s),
           "trials_per_s_1w": total / median(plain_s)}
    return {
        "metrics": {**{k: v / speed.scale() for k, v in raw.items()},
                    "peak_rss_mb": peak_rss_mb()},
        "rep_s": {f"workers={workers}": pooled_s, "workers=1": plain_s},
        "diagnostics": {"csv_sha256": digest(csv),
                        "pooled_steal_s": stolen,
                        "speed_scale": speed.scale(), "unscaled": raw},
    }


# --------------------------------------------------------------------------
# validate_small_n
# --------------------------------------------------------------------------

def validate_once(params: dict, seed: int, tracer: Tracer | None = None):
    v_kw = {**params["validate"], "seed": seed}
    e_kw = {**params["edge_prob"], "seed": seed}
    if tracer is None:
        return mc.validate_bounds(**v_kw), mc.estimate_edge_prob(**e_kw)
    return (tracer.call("validate", mc.validate_bounds, (), v_kw, alloc=True),
            tracer.call("edge_prob", mc.estimate_edge_prob, (), e_kw))


def validate_text(report, edge) -> str:
    return json.dumps({"validate": report.to_dict(), "edge_prob": list(edge)},
                      sort_keys=True)


def check_validate(checks: Checks, report, edge) -> None:
    names = {c.name for c in report.checks}
    checks.check("validate_named_checks", names == VALIDATE_CHECK_NAMES)
    q, se = edge
    checks.check("edge_prob_range", 0.0 <= q <= 1.0 and math.isfinite(se))


def validate_diagnostics(params: dict, report, edge) -> dict:
    """3-sigma z-scores: a random-stream change may move them, so they are
    reported but never counted as failures."""
    zs = [abs(c.empirical - c.reference) / c.sigma for c in report.checks
          if c.kind == "two_sided" and c.status == "checked" and c.sigma > 0]
    e = params["edge_prob"]
    q, se = edge
    ref = theory.edge_prob(e["n"], e["K"], e["p"])
    return {"validate_max_abs_z": max(zs, default=0.0),
            "validate_all_passed": report.all_passed,
            "edge_prob_z": (q - ref) / se if se > 0 else 0.0}


def run_validate(spec: dict, checks: Checks) -> dict:
    params, seed = spec["params"], spec["seed"]
    samples = params["validate"]["samples"] + params["edge_prob"]["trials"]
    # fill lazy imports and the allocator's pools before timing
    validate_once(params, seed)

    if spec["trace"]:
        (report, edge), (t_report, t_edge), tracer, _, overhead = traced_pairs(
            lambda tracer: validate_once(params, seed, tracer), spec["seconds"])
        text = validate_text(report, edge)
        check_validate(checks, report, edge)
        check_validate(checks, t_report, t_edge)
        checks.check("validate_identical[traced]",
                     validate_text(t_report, t_edge) == text)
        tracer.write(spec["spans"])
        metrics = layer_metrics(tracer)
        metrics["sweep.pool_efficiency"] = 0.0  # no sweep runs here
        metrics["trace.overhead_frac"] = overhead
        return {"metrics": metrics, "absent_layers": tracer.absent,
                "diagnostics": {"output_sha256": digest(text),
                                **validate_diagnostics(params, report, edge)}}

    reps = []
    speed = Speed()
    deadline = time.perf_counter() + spec["seconds"]
    while len(reps) < MIN_VALIDATE_REPS or time.perf_counter() < deadline:
        speed.keep_pace(sum(dt for dt, _ in reps))
        (report, edge), dt = timed(validate_once, params, seed)
        reps.append((dt, validate_text(report, edge)))
        check_validate(checks, report, edge)
    text = reps[0][1]
    for _, t in reps[1:]:
        checks.check("validate_identical[repeat]", t == text)
    raw = samples / median(dt for dt, _ in reps)
    rate = raw / speed.scale()
    return {
        # validate_bounds has no worker count: it always runs in one process
        "metrics": {"trials_per_s": rate, "trials_per_s_1w": rate,
                    "peak_rss_mb": peak_rss_mb()},
        "rep_s": [dt for dt, _ in reps],
        "diagnostics": {"output_sha256": digest(text),
                        "speed_scale": speed.scale(),
                        "unscaled": {"trials_per_s": raw},
                        **validate_diagnostics(params, report, edge)},
    }


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    checks = Checks()
    run = run_sweep if spec["kind"] == "sweep" else run_validate
    out = run(spec, checks)
    out["checks"] = {"attempted": checks.attempted,
                     "failed": len(checks.failures),
                     "failures": checks.failures[:20]}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
