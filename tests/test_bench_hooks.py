"""The benchmark's own code, run against this package.

The tracer (benchmarks/tracing.py) times each layer by rebinding a name in
pairkey.montecarlo; a name the module no longer has only marks its layer
absent in a traced run. The output checks (benchmarks/measure.py) reject a
run whose tables or reports are wrong. Both are exercised here, so a rename
or a broken result fails the test suite before it reaches the benchmark."""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from pairkey import montecarlo as mc

BENCH = Path(__file__).parents[1] / "benchmarks"
WORKLOAD_NAMES = [w["name"] for w in
                  json.loads((BENCH.parent / "BENCHMARK.json").read_text())["workloads"]]


def load_tracing():
    """benchmarks/tracing.py as a module, read in place (standard library only)."""
    path = BENCH / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hooked_name_is_a_montecarlo_callable():
    hooks = load_tracing().HOOKS
    assert hooks
    missing = [name for name, *_ in hooks if not callable(getattr(mc, name, None))]
    assert missing == []


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_benchmark_output_checks_pass(name, monkeypatch):
    # measure.py imports its siblings by plain name, so it is imported in place
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    measure = importlib.import_module("measure")
    workloads = importlib.import_module("workloads")
    params, checks = workloads.resolve(name, smoke=True), measure.Checks()
    if workloads.WORKLOADS[name]["kind"] == "sweep":
        cfg = mc.ExperimentConfig(**params, seed=1)
        measure.check_table(checks, mc.sweep(cfg), cfg)
    else:
        measure.check_validate(checks, *measure.validate_once(params, 1))
    assert checks.attempted > 0 and checks.failures == []


def test_traced_disk_sweep_sees_every_layer():
    # the traced benchmark run is one process: one `cell` span per cell, and
    # one distance call per trial, which holds less than an n x n matrix
    tracing = load_tracing()
    cfg = mc.ExperimentConfig(n=20, K_grid=(1, 3), p_grid=(0.5, 1.0), trials=3,
                              seed=1, channel="disk_forced")
    tracer = tracing.Tracer()
    with tracer.installed(mc):
        mc.sweep(cfg, workers=1)
    m = tracing.layer_metrics(tracer)
    assert tracer.absent == []
    assert m["channels.distance.calls"] == m["trial.calls"] == 4 * cfg.trials
    assert m["sweep.cells"] == 4
    assert 0 < m["channels.distance.alloc_mb"] < cfg.n * cfg.n * 8 / tracing.MB
