"""Every public entry point rejects the same out-of-domain (n, K, p, channel)
with ValueError, before any trial runs. The CLI reports it as one
"error: ..." line and exit status 1."""

import pytest

from pairkey import cli, theory
from pairkey import montecarlo as mc
from pairkey.scheme import sample_gamma_matrix
from pairkey.theory import match_rho

# (rule broken, n, K, p, channel); each is in the domain but for that rule.
# A grid entry point runs K grid (1, K) and p grid (0.2, p), so K=1 or p=0.2
# repeats a grid value.
BAD = {
    "K=0": ("nk", 10, 0, 0.5, "on_off"),
    "K=n": ("nk", 10, 10, 0.5, "on_off"),
    "n=10.5": ("nk", 10.5, 3, 0.5, "on_off"),
    "K=2.5": ("nk", 10, 2.5, 0.5, "on_off"),
    "p=0": ("p", 10, 3, 0.0, "on_off"),
    "p=1.5": ("p", 10, 3, 1.5, "on_off"),
    "p=-0.2": ("p", 10, 3, -0.2, "on_off"),
    "p=nan": ("p", 10, 3, float("nan"), "on_off"),
    "channel": ("channel", 10, 3, 0.5, "wifi"),
    "disk range": ("channel", 10, 3, 0.9, "disk"),
    "repeated K": ("grid", 10, 1, 0.5, "on_off"),
    "repeated p": ("grid", 10, 3, 0.2, "on_off"),
    # cells are found by p within math.isclose, so this is a repeat too
    "near-repeated p": ("grid", 10, 3, 0.2 + 1e-12, "on_off"),
}


def cli_exit(*argv):
    """Run the CLI; its exit status 1 stands for the ValueError here."""
    if cli.main([str(a) for a in argv]) == 1:
        raise ValueError("exit status 1")


def simulate(out, n, K, p, channel):
    cli_exit("simulate", "--n", n, "--K", f"1,{K}", "--p", f"0.2,{p}",
             "--channel", channel, "--trials", 1, "--seed", 1, "--workers", 1,
             "--out", out / "x.csv")


# entry point -> (rules it checks, call(tmp_path, n, K, p, channel))
ENTRY_POINTS = {
    "ExperimentConfig": ("nk p channel grid", lambda out, n, K, p, c: mc.ExperimentConfig(
        n=n, K_grid=(1, K), p_grid=(0.2, p), trials=1, seed=1, channel=c)),
    "run_trial": ("nk p channel", lambda out, n, K, p, c: mc.run_trial(n, K, p, c, 0)),
    "match_rho": ("p channel", lambda out, n, K, p, c: match_rho(p, c)),
    "sample_gamma_matrix": ("nk", lambda out, n, K, p, c: sample_gamma_matrix(
        n, K, mc.rng_from_entropy(0))),
    "estimate_edge_prob": ("nk p", lambda out, n, K, p, c: mc.estimate_edge_prob(
        n, K, p, trials=100, seed=1)),
    "validate_bounds": ("nk p", lambda out, n, K, p, c: mc.validate_bounds(
        n, K, p, samples=1000, seed=1)),
    "dump_instance": ("nk p", lambda out, n, K, p, c: cli.dump_instance(
        n, K, p, seed=1, outdir=str(out / "d"))),
    "lambda_n": ("nk", lambda out, n, K, p, c: theory.lambda_n(n, K)),
    "edge_prob": ("nk p", lambda out, n, K, p, c: theory.edge_prob(n, K, p)),
    "isolation_prob": ("nk p", lambda out, n, K, p, c: theory.isolation_prob(n, K, p)),
    "u_n": ("nk p", lambda out, n, K, p, c: theory.u_n(n, K, p)),
    "scaling_c_n": ("nk p", lambda out, n, K, p, c: theory.scaling_c_n(n, K, p)),
    "theory_report": ("nk p", lambda out, n, K, p, c: theory.theory_report(n, K, p)),
    "cli simulate": ("nk p channel grid", simulate),
    "cli validate": ("nk p", lambda out, n, K, p, c: cli_exit(
        "validate", "--n", n, "--K", K, "--p", p, "--samples", 1000, "--seed", 1)),
    "cli theory": ("nk p", lambda out, n, K, p, c: cli_exit(
        "theory", "--n", n, "--K", K, "--p", p)),
    "cli dump-instance": ("nk p", lambda out, n, K, p, c: cli_exit(
        "dump-instance", "--n", n, "--K", K, "--p", p, "--seed", 1,
        "--outdir", out / "d")),
}

CASES = [(entry, case) for entry, (rules, _) in ENTRY_POINTS.items()
         for case, (rule, *_) in BAD.items() if rule in rules.split()]


@pytest.mark.parametrize("entry,case", CASES)
def test_out_of_domain_rejected(entry, case, tmp_path, monkeypatch):
    def no_cell(*args):
        raise AssertionError("a sweep cell ran")

    monkeypatch.setattr(mc, "_run_cell", no_cell)
    with pytest.raises(ValueError):
        ENTRY_POINTS[entry][1](tmp_path, *BAD[case][1:])
    assert list(tmp_path.iterdir()) == []


def test_allow_large_rho_is_gone(tmp_path, capsys):
    # --channel disk_forced runs the disk model at any p
    with pytest.raises(ValueError):
        cli_exit("simulate", "--n", 10, "--K", 2, "--p", 0.5, "--channel",
                 "on_off", "--allow-large-rho", "--out", tmp_path / "x.csv")
    assert "--allow-large-rho" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# entry point -> call with seed -1, every other input in the domain
NEGATIVE_SEED = {
    "validate_bounds": lambda out: mc.validate_bounds(5, 2, 0.5, samples=1000, seed=-1),
    "estimate_edge_prob": lambda out: mc.estimate_edge_prob(10, 3, 0.5, trials=100,
                                                            seed=-1),
    "dump_instance": lambda out: cli.dump_instance(10, 3, 0.5, seed=-1,
                                                   outdir=str(out / "d")),
    "_effective_seed": lambda out: cli._effective_seed(-1),
}


@pytest.mark.parametrize("entry", NEGATIVE_SEED)
def test_negative_seed_rejected(entry, tmp_path):
    with pytest.raises(ValueError, match="seed"):
        NEGATIVE_SEED[entry](tmp_path)
    assert list(tmp_path.iterdir()) == []


# run_trial hands its seed to numpy, which would take True as 1 and raise
# its own TypeError or message for the others
@pytest.mark.parametrize("trial_seed", [-1, True, "7", 2.0, None, [1, 2],
                                        (1, True), (1, -1), (1, "7")])
def test_bad_trial_seed_rejected(trial_seed):
    with pytest.raises(ValueError, match="trial_seed"):
        mc.run_trial(10, 3, 0.5, "on_off", trial_seed)


@pytest.mark.parametrize("trial_seed", [0, 7, (), (1, 2, 3), (0, 2**70)])
def test_good_trial_seed_accepted(trial_seed):
    mc.run_trial(10, 3, 0.5, "on_off", trial_seed)
