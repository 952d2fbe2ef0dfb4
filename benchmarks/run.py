"""pairkey benchmark: time and memory to finish Monte Carlo sweeps and the
bound-validation samplers, with output checks.

Run from the repository root (no install needed; it uses `src/`):

    python3 benchmarks/run.py --workload fig2_onoff --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --trace 1
    python3 benchmarks/run.py --workload all --seed 1 --smoke --trace 1

Each workload runs in its own fresh process (measure.py), so its peak RSS
is its own. `--trace 0` reports the end-to-end metrics; `--trace 1` makes a
separate traced run at workers=1, reports the per-layer metrics and writes
that run's spans to benchmarks/out/spans/<workload>.jsonl. Set-up
time is the CPU time of a fresh interpreter (probe.py) until the workload's
first call is ready, measured several times per run and reported as the
median. Times leave out what the hypervisor stole (see measure.py), and
end-to-end times are scaled to reference machine speed (see reference.py).
Metric names and units, and the default measuring time, are read from
BENCHMARK.json at the repository root.

For one workload, stdout ends with a line holding the run record (manifest,
checks, diagnostics) and then the result line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
`attempted` and `failed` count output checks. With `--workload all` the last
line sums them and prefixes each metric name with its workload.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import subprocess
import sys
from pathlib import Path
from statistics import median

from manifest import ROOT, SRC, nproc, run_manifest
from reference import Speed
from workloads import WORKLOADS, resolve

HERE = Path(__file__).resolve().parent
SPANS = HERE / "out" / "spans"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
IMPORT_OWNERS = {"numpy": "setup.import_numpy_s",
                 "scipy": "setup.import_scipy_s",
                 "pairkey": "setup.import_pairkey_self_s"}
PROBES, SMOKE_PROBES = 9, 2
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The program under test failed or could not be run."""


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(
        description="pairkey benchmark (see the module docstring)")
    ap.add_argument("--workload", required=True,
                    choices=[*(w["name"] for w in BENCHMARK["workloads"]),
                             "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float,
                    default=float(BENCHMARK["run_seconds"]),
                    help="measuring time per workload "
                         "(default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny parameters: every workload in seconds")
    ap.add_argument("--trials", type=int,
                    help="trials per cell (samples for validate_small_n)")
    ap.add_argument("--workers", type=int,
                    help="sweep worker processes, 1..nproc (default nproc)")
    ap.add_argument("--out", type=Path, help="also write the records here")
    args = ap.parse_args(argv)
    cpus = nproc()
    if args.seed < 0:
        ap.error(f"--seed must be >= 0, got {args.seed}")
    if not args.seconds > 0:
        ap.error(f"--seconds must be > 0, got {args.seconds}")
    if args.trials is not None and args.trials < 1:
        ap.error(f"--trials must be >= 1, got {args.trials}")
    if args.workers is None:
        args.workers = cpus
    elif not 1 <= args.workers <= cpus:
        ap.error(f"--workers must be in 1..{cpus} (nproc), got {args.workers}")
    return args


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(cmd: list[str]) -> subprocess.CompletedProcess:
    """Run a child in its own process group and wait for it; on timeout the
    whole group (a sweep's pool workers too) is killed and reaped."""
    with subprocess.Popen(cmd, cwd=ROOT, env=child_env(), text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired as e:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{Path(cmd[-2]).name} timed out after "
                             f"{CHILD_TIMEOUT_S} s") from e
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:-1])} exited with "
                         f"{proc.returncode}:\n{err}")
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def import_times(stderr: str) -> dict[str, float]:
    """Seconds of `-X importtime` self time owned by numpy, scipy and
    pairkey. A module's self time goes to the innermost import around it
    (itself included) of one of those packages, so e.g. the stdlib modules
    that pairkey.cli pulls in count for pairkey."""
    pending: list[tuple[int, str, int, list]] = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        children = []
        while pending and pending[-1][0] > depth:
            children.append(pending.pop())
        pending.append((depth, name.strip(), int(self_us), children))
    totals = dict.fromkeys(IMPORT_OWNERS, 0)
    stack = [(node, None) for node in pending]
    while stack:
        (_, name, self_us, children), owner = stack.pop()
        top = name.split(".")[0]
        owner = top if top in IMPORT_OWNERS else owner
        if owner:
            totals[owner] += self_us
        stack.extend((c, owner) for c in children)
    return {IMPORT_OWNERS[k]: us / 1e6 for k, us in totals.items()}


def children_cpu_s() -> float:
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def setup_probes(spec: dict, count: int, importtime: bool):
    """Median CPU time of a fresh interpreter from its start to the
    workload's first call being ready, at reference machine speed and
    unscaled, and (with importtime) the median import times. CPU time
    leaves out time the hypervisor stole."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           str(HERE / "probe.py"),
           json.dumps({k: spec[k] for k in ("kind", "params", "seed")})]
    run_child(cmd)  # untimed: compiles bytecode and warms the file cache
    times, imports = [], []
    speed = Speed()
    for _ in range(count):
        speed.keep_pace(sum(times))
        t0 = children_cpu_s()
        proc = run_child(cmd)
        times.append(children_cpu_s() - t0)
        if importtime:
            imports.append(import_times(proc.stderr))
    layers = {k: median(d[k] for d in imports) for k in imports[0]} \
        if imports else {}
    return median(times) * speed.scale(), median(times), layers


def run_workload(name: str, args: argparse.Namespace) -> dict:
    spec = {
        "workload": name,
        "kind": WORKLOADS[name]["kind"],
        "params": resolve(name, smoke=args.smoke, trials=args.trials),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": args.workers,
    }
    if args.trace:
        SPANS.mkdir(parents=True, exist_ok=True)
        spec["spans"] = str(SPANS / f"{name}.jsonl")
    setup_s, setup_raw, imports = setup_probes(spec, SMOKE_PROBES if args.smoke else PROBES,
                                    importtime=bool(args.trace))
    proc = run_child([sys.executable, str(HERE / "measure.py"),
                      json.dumps(spec)])
    measured = json.loads(proc.stdout.splitlines()[-1])
    checks = measured.pop("checks")
    values = dict(measured.pop("metrics"))
    if args.trace:
        values.update(imports)
        values["check_fail_frac"] = checks["failed"] / checks["attempted"]
        units = PER_LAYER
    else:
        values["setup_s"] = setup_s
        measured["diagnostics"]["unscaled_setup_s"] = setup_raw
        units = END_TO_END
    result = {
        "correct": checks["failed"] == 0,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in units.items() if k in values},
    }
    manifest = {**run_manifest(), "workload": name, "seed": args.seed,
                "workers": args.workers, "trace": args.trace,
                "smoke": args.smoke, "seconds": args.seconds,
                "params": spec["params"]}
    return {"manifest": manifest, "check_failures": checks["failures"],
            **measured, "result": result}


def print_table(records: list[dict]) -> None:
    for rec in records:
        res, name = rec["result"], rec["manifest"]["workload"]
        for metric, v in res["metrics"].items():
            print(f"{name:18s} {metric:30s} {v['value']:>14.6g} {v['unit']}",
                  file=sys.stderr)
        print(f"{name:18s} {'checks failed/attempted':30s} "
              f"{res['failed']:>7d}/{res['attempted']:<6d} "
              f"(check_fail_frac {res['failed'] / res['attempted']:.6g})",
              file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pairkey" / "__init__.py").is_file():
        print(f"run.py: no pairkey sources under {SRC}", file=sys.stderr)
        return 2
    names = ([w["name"] for w in BENCHMARK["workloads"]]
             if args.workload == "all" else [args.workload])
    try:
        records = [run_workload(name, args) for name in names]
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    print_table(records)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(records, indent=2) + "\n")
    for rec in records:
        print(json.dumps({k: v for k, v in rec.items() if k != "result"}))
    if len(records) == 1:
        final = records[0]["result"]
    else:
        final = {
            "correct": all(r["result"]["correct"] for r in records),
            "attempted": sum(r["result"]["attempted"] for r in records),
            "failed": sum(r["result"]["failed"] for r in records),
            "metrics": {f"{r['manifest']['workload']}.{k}": v
                        for r in records
                        for k, v in r["result"]["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
