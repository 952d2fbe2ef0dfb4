"""Pins of the random stream: sha256 digests of small fixed-seed outputs.

A refactor that keeps the stream leaves these unchanged. A deliberate change
to how random numbers are drawn must update them, and say so in CHANGES.md.
Run as a script, this module prints every pin as the current code computes
it, to be copied in after such a change:

    PYTHONPATH=src python tests/test_stream_pins.py
"""

import hashlib
import json

import pytest

from pairkey import cli
from pairkey import montecarlo as mc

SEED = 2026

SWEEP_DIGESTS = {
    "on_off": ((0.2, 0.5, 0.9),
               "6100b06bad7fdb14b7eadd75ad0288add03d53664bf498e04962bdc70c328b3b"),
    "disk": ((0.2, 0.5),
             "a36d7f01929c3b33f1334b6203adbb7625540770614d7c07062b5290635a848f"),
    "disk_forced": ((0.2, 0.5, 0.9),
                    "9e0dd28e998f9c9c170993edd2be5cd6859b3ca4650f0bc89d221fc1b49ba36f"),
}

DUMP_FILES = ("pairing.txt", "pairwise.edges", "channel.edges",
              "intersection.edges", "intersection.components")

# (n, K, p, seed) -> sha256 over DUMP_FILES' bytes, in that order
DUMP_DIGESTS = {
    (2, 1, 0.5, 3): "4ee29b67003ea2daae874ba269bfde10a2490884d828f7f8ca637e88b848fced",
    (6, 5, 0.7, 4): "b52ce00573ee3ea2f2431e505d445d90d900c3db5454cb69299b785f6c8931d5",
    (30, 3, 0.4, 5): "0dc643be7c3217e3e6dd20e6cefb16406df2d9c9e1268389c3ce8a2a35f28cd4",
    (50, 5, 0.2, 42): "dc0c9e180893af5eb935904f0f0d6d890b9b038a65f3dc55d829f304f5c6c07d",
}


# (n, K, p, trials, seed) -> estimate_edge_prob's (estimate, stderr)
EDGE_PROB = {
    (200, 12, 0.2, 20000, 1): (0.02375, 0.001076706494361393),
    (5, 2, 0.5, 20000, 3): (0.36885, 0.0034117420586849763),
}


# simulate --format json on an on/off sweep: its argv, the number of
# boundary notes in the output, and the output's sha256
SIMULATE_JSON = (["--n", "20", "--K", "1,2,3,6", "--p", "0.3,1.0", "--trials", "40",
                  "--seed", "5", "--workers", "1"], 11,
                 "3d746e7c5f69bae8b5a3394fc3286d0e643365112ce8aa2ab3832068e857a7fb")

# (n, K, p, samples, seed) -> sha256 of `validate --out`; both skip reasons,
# whose NaN fields are written as null
VALIDATE_JSON = {
    (5, 2, 1.0, 5000, 1): "2c46a61cc8bc9c44809efbb17cf14ac7691614682568d65020ce57bffff397c2",
    (12, 11, 0.5, 2000, 4): "9cf0a5060fa6e3bc85bdbe19e4b97ea4e0c8f88d4c88edf61ffb1022d2113323",
}


def sha256_file(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def simulate_json(argv, outdir):
    """(boundary notes, sha256) of `simulate --format json` with argv."""
    out = outdir / "t.json"
    assert cli.main(["simulate", *argv, "--format", "json", "--out", str(out)]) == 0
    return sum(len(row["notes"]) for row in json.loads(out.read_text())), sha256_file(out)


def validate_json(args, outdir):
    out = outdir / "v.json"
    argv = [f"--{k}={v}" for k, v in zip(("n", "K", "p", "samples", "seed"), args)]
    assert cli.main(["validate", *argv, "--out", str(out)]) == 0
    return sha256_file(out)


def sweep_digest(channel, p_grid):
    cfg = mc.ExperimentConfig(n=20, K_grid=(1, 3, 19), p_grid=p_grid,
                              trials=8, seed=SEED, channel=channel)
    text = mc.sweep(cfg, workers=1).to_csv_text()
    return hashlib.sha256(text.encode()).hexdigest()


def dump_digest(instance, outdir):
    cli.dump_instance(*instance, outdir=str(outdir))
    h = hashlib.sha256()
    for name in DUMP_FILES:
        h.update((outdir / name).read_bytes())
    return h.hexdigest()


def test_simulate_json_digest(tmp_path):
    argv, notes, digest = SIMULATE_JSON
    assert simulate_json(argv, tmp_path) == (notes, digest)


@pytest.mark.parametrize("args", sorted(VALIDATE_JSON))
def test_validate_json_digest(args, tmp_path):
    assert validate_json(args, tmp_path) == VALIDATE_JSON[args]


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
    assert sweep_digest(channel, p_grid) == digest


@pytest.mark.parametrize("instance", sorted(DUMP_DIGESTS))
def test_dump_instance_digest(instance, tmp_path):
    assert dump_digest(instance, tmp_path) == DUMP_DIGESTS[instance]


@pytest.mark.parametrize("args", sorted(EDGE_PROB))
def test_estimate_edge_prob_values(args):
    n, K, p, trials, seed = args
    assert mc.estimate_edge_prob(n, K, p, trials, seed) == EDGE_PROB[args]


def current_pins(outdir):
    """Lines of every pin as the current code computes it."""
    lines = ["SWEEP_DIGESTS"]
    lines += [f"  {channel!r}: {sweep_digest(channel, p_grid)!r}"
              for channel, (p_grid, _) in SWEEP_DIGESTS.items()]
    lines.append("DUMP_DIGESTS")
    lines += [f"  {instance}: {dump_digest(instance, outdir)!r}"
              for instance in DUMP_DIGESTS]
    lines.append("EDGE_PROB")
    lines += [f"  {args}: {mc.estimate_edge_prob(*args)!r}" for args in EDGE_PROB]
    lines.append(f"SIMULATE_JSON (notes, digest)\n  "
                 f"{simulate_json(SIMULATE_JSON[0], outdir)!r}")
    lines.append("VALIDATE_JSON")
    lines += [f"  {args}: {validate_json(args, outdir)!r}" for args in VALIDATE_JSON]
    return lines


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()):  # the CLI's own output
        pins = current_pins(Path(tmp))
    print("\n".join(pins))
