"""Pins of the random stream: sha256 digests of small fixed-seed outputs.

A refactor that keeps the stream leaves these unchanged. A deliberate change
to how random numbers are drawn must update them, and say so in CHANGES.md.
"""

import hashlib
import json

import pytest

from pairkey import cli
from pairkey import montecarlo as mc

SEED = 2026

SWEEP_DIGESTS = {
    "on_off": ((0.2, 0.5, 0.9),
               "a9db0ca115b62ccf6387db68e01b21825440a4b2a3728d977d609bab0b0bba6b"),
    "disk": ((0.2, 0.5),
             "95e468ad0ed2c2d5b5b3e1849aecb4abb97cfead002a9374d31d0da034c5c0d4"),
    "disk_forced": ((0.2, 0.5, 0.9),
                    "a9fe2309b4d0aafbdbf589ad45be37504e0c128475faf56e16309c44bfbaa522"),
}

DUMP_FILES = ("pairing.txt", "pairwise.edges", "channel.edges",
              "intersection.edges", "intersection.components")

# (n, K, p, seed) -> sha256 over DUMP_FILES' bytes, in that order
DUMP_DIGESTS = {
    (2, 1, 0.5, 3): "f8ee49fe446d91c2230b451d673a1409c62a66e9ce36aaa28e6cd0db6a5805ad",
    (6, 5, 0.7, 4): "0433244d4ba0a9bc2fc80ecf65794213bd92cc9630dffb04f84c54fc28a39691",
    (30, 3, 0.4, 5): "951be88456710b8b00ab1b010ef0ad88a9065b5ab81a28978a07eb5f752e8b89",
    (50, 5, 0.2, 42): "04332a1d75224223a3d677e1fb5839e9f18ee3b49282dae53b0bae584d6cb179",
}


# (n, K, p, trials, seed) -> estimate_edge_prob's (estimate, stderr)
EDGE_PROB = {
    (200, 12, 0.2, 20000, 1): (0.02375, 0.001076706494361393),
    (5, 2, 0.5, 20000, 3): (0.36885, 0.0034117420586849763),
}


# simulate --format json on an on/off sweep with 12 boundary notes
SIMULATE_JSON = (["--n", "20", "--K", "1,2,3,6", "--p", "0.3,1.0", "--trials", "40",
                  "--seed", "5", "--workers", "1"],
                 "a4d2ec0842262311b9eb92f4235da77a181a0d0006ae0784a57f2bccfa08bff1")

# (n, K, p, samples, seed) -> sha256 of `validate --out`; both skip reasons,
# whose NaN fields are written as null
VALIDATE_JSON = {
    (5, 2, 1.0, 5000, 1): "2c46a61cc8bc9c44809efbb17cf14ac7691614682568d65020ce57bffff397c2",
    (12, 11, 0.5, 2000, 4): "9cf0a5060fa6e3bc85bdbe19e4b97ea4e0c8f88d4c88edf61ffb1022d2113323",
}


def sha256_file(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_simulate_json_digest(tmp_path):
    argv, digest = SIMULATE_JSON
    out = tmp_path / "t.json"
    assert cli.main(["simulate", *argv, "--format", "json", "--out", str(out)]) == 0
    assert sum(len(row["notes"]) for row in json.loads(out.read_text())) == 12
    assert sha256_file(out) == digest


@pytest.mark.parametrize("args", sorted(VALIDATE_JSON))
def test_validate_json_digest(args, tmp_path):
    out = tmp_path / "v.json"
    argv = [f"--{k}={v}" for k, v in zip(("n", "K", "p", "samples", "seed"), args)]
    assert cli.main(["validate", *argv, "--out", str(out)]) == 0
    assert sha256_file(out) == VALIDATE_JSON[args]


def test_json_notes_are_derived_from_counts():
    cfg = mc.ExperimentConfig(n=20, K_grid=(1, 19), p_grid=(1.0,), trials=10, seed=SEED)
    table = mc.sweep(cfg, workers=1)
    stale = [row | {"notes": ["stale"]} for row in table.to_json_obj()]
    loaded = mc.EstimateTable.from_json_obj(stale)
    assert loaded == table
    assert loaded.to_json_obj() == table.to_json_obj()
    assert all("rule-of-three" in note for row in loaded.rows for note in row.notes)


@pytest.mark.parametrize("channel", sorted(SWEEP_DIGESTS))
def test_sweep_csv_digest(channel):
    p_grid, digest = SWEEP_DIGESTS[channel]
    cfg = mc.ExperimentConfig(n=20, K_grid=(1, 3, 19), p_grid=p_grid,
                              trials=8, seed=SEED, channel=channel)
    text = mc.sweep(cfg, workers=1).to_csv_text()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("instance", sorted(DUMP_DIGESTS))
def test_dump_instance_digest(instance, tmp_path):
    cli.dump_instance(*instance, outdir=str(tmp_path))
    h = hashlib.sha256()
    for name in DUMP_FILES:
        h.update((tmp_path / name).read_bytes())
    assert h.hexdigest() == DUMP_DIGESTS[instance]


@pytest.mark.parametrize("args", sorted(EDGE_PROB))
def test_estimate_edge_prob_values(args):
    n, K, p, trials, seed = args
    assert mc.estimate_edge_prob(n, K, p, trials, seed) == EDGE_PROB[args]
