"""Smoke tests of the benchmark harness.

    python3 -m pytest benchmarks -q
"""

import json
import shutil
import subprocess
import sys
import types

import pytest

import run
import tracing
from manifest import ROOT, nproc
from workloads import WORKLOADS

RUN = [sys.executable, str(ROOT / "benchmarks" / "run.py")]
SWEEPS = [w for w, d in WORKLOADS.items() if d["kind"] == "sweep"]


def smoke(trace: int) -> dict:
    proc = subprocess.run(
        RUN + ["--workload", "all", "--seed", "3", "--seconds", "0.2",
               "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    records = [json.loads(ln) for ln in lines[:-1]]
    return {"records": {r["manifest"]["workload"]: r for r in records},
            "final": json.loads(lines[-1])}


@pytest.fixture(scope="module")
def untraced():
    return smoke(0)


@pytest.fixture(scope="module")
def traced():
    shutil.rmtree(run.SPANS, ignore_errors=True)
    return smoke(1)


def metric(out, workload, name):
    return out["final"]["metrics"][f"{workload}.{name}"]["value"]


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_present_with_unit(untraced, traced, trace):
    out, table = (traced, run.PER_LAYER) if trace else (untraced, run.END_TO_END)
    assert out["final"]["correct"] and out["final"]["failed"] == 0
    for workload in WORKLOADS:
        for name, unit in table.items():
            got = out["final"]["metrics"][f"{workload}.{name}"]
            assert got["unit"] == unit
            assert isinstance(got["value"], (int, float))


def test_end_to_end_metrics_are_positive(untraced):
    for workload in WORKLOADS:
        for name in run.END_TO_END:
            assert metric(untraced, workload, name) > 0, (workload, name)


def test_manifest_records_the_run(untraced):
    for workload, rec in untraced["records"].items():
        m = rec["manifest"]
        assert m["nproc"] == nproc() and m["workers"] == nproc()
        assert m["seed"] == 3 and m["workload"] == workload
        for key in ("python", "numpy", "scipy", "git_commit", "params"):
            assert key in m
        assert rec["check_failures"] == []



def test_times_are_scaled_to_reference_speed(untraced):
    for workload, rec in untraced["records"].items():
        d = rec["diagnostics"]
        got = metric(untraced, workload, "trials_per_s")
        assert d["speed_scale"] > 0
        assert got == pytest.approx(d["unscaled"]["trials_per_s"]
                                    / d["speed_scale"]), workload
        assert d["unscaled_setup_s"] > 0


def test_predicted_zeros(traced):
    for workload in WORKLOADS:
        distance = metric(traced, workload, "channels.distance.calls")
        assert (distance > 0) == (workload == "fig4_disk"), workload
        assert metric(traced, workload, "check_fail_frac") == 0
    for workload in SWEEPS:
        trials = metric(traced, workload, "trial.calls")
        p = WORKLOADS[workload]["smoke"]
        cells = len(p["K_grid"]) * len(p["p_grid"])
        assert trials == cells * p["trials"]
        assert metric(traced, workload, "sweep.cells") == cells
        assert metric(traced, workload, "seed.calls") == trials
        assert metric(traced, workload, "scheme.sample.calls") == trials
        assert metric(traced, workload, "scheme.sample.alloc_mb") > 0
        assert metric(traced, workload, "validate.self_s") == 0
        assert metric(traced, workload, "edge_prob.self_s") == 0
    v = "validate_small_n"
    for name in ("trial.calls", "scheme.sample.calls", "components.calls",
                 "sweep.cells"):
        assert metric(traced, v, name) == 0, name
    assert metric(traced, v, "seed.calls") == 2
    assert metric(traced, v, "validate.self_s") > 0
    assert metric(traced, v, "validate.alloc_mb") > 0
    assert metric(traced, v, "edge_prob.self_s") > 0


def test_traced_run_writes_its_spans(traced):
    for workload in WORKLOADS:
        lines = (run.SPANS / f"{workload}.jsonl").read_text().splitlines()
        spans = [json.loads(ln) for ln in lines]
        assert spans, workload
        for s in spans:
            assert set(s) == set(tracing.Span._fields)
            assert s["start"] <= s["end"] and -1 <= s["parent"] < len(spans)
        trials = sum(s["layer"] == "trial" for s in spans)
        assert trials == metric(traced, workload, "trial.calls"), workload


@pytest.mark.parametrize("args", [
    ["--workload", "nope"],
    ["--workload", "fig2_onoff", "--trials", "0"],
    ["--workload", "fig2_onoff", "--workers", "0"],
    ["--workload", "fig2_onoff", "--workers", str(nproc() + 1)],
    ["--workload", "fig2_onoff", "--seed", "-1"],
])
def test_bad_arguments_are_rejected(args):
    argv = ["--seed", "1", "--smoke"] + args
    proc = subprocess.run(RUN + argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "fig2_onoff",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_import_times_attribute_to_innermost_owner():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 | site",
        "import time:         5 |          5 |     pickle",
        "import time:       100 |        105 |   numpy",
        "import time:        40 |         40 |     scipy._lib",
        "import time:        60 |        100 |   scipy.sparse",
        "import time:         7 |        212 | pairkey",
    ])
    got = run.import_times(text)
    assert got == pytest.approx({"setup.import_numpy_s": 105e-6,
                                 "setup.import_scipy_s": 100e-6,
                                 "setup.import_pairkey_self_s": 7e-6})


def test_absent_layers_are_left_out():
    def sweep_like(x):
        return x + 1
    module = types.SimpleNamespace(rng_from_entropy=sweep_like)
    tracer = tracing.Tracer()
    with tracer.installed(module):
        assert module.rng_from_entropy(1) == 2
    assert module.rng_from_entropy is sweep_like
    m = tracing.layer_metrics(tracer)
    assert m["seed.calls"] == 1
    assert "scheme.sample.calls" not in m and "components.calls" not in m
    assert "sweep.cells" not in m and "trial.calls" not in m
