"""End-to-end acceptance checks, one test per criterion.

Each test prints a single "[criterion N] PASS/FAIL" line. The sweep-based
criteria share two fixed-seed 500-trial runs of the standard grid (n=200,
K=1..25, p in {0.2, 0.4, 0.6, 0.8, 1.0}): one under the on/off channel and
one under the disk channel with the matched (forced where needed) radius.

SEED is pinned: the p=0.2 crossover sits within a fraction of a unit of the
tolerance edge, so an arbitrary seed would make this suite flaky rather than
a deterministic gate.
"""

import math
from fractions import Fraction

import pytest

from pairkey import cli, theory
from pairkey import montecarlo as mc

from oracles import exact_isolation_probability_full_enumeration

SEED = 20260823
GATED_PS = (0.2, 0.4, 0.6, 0.8)


def report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def onoff_table():
    return mc.sweep(cli._sweep_config(seed=SEED), workers=2)


@pytest.fixture(scope="module")
def disk_table():
    return mc.sweep(cli._sweep_config(seed=SEED, channel="disk_forced"), workers=2)


def test_criterion_1_phase_transition(onoff_table):
    details = []
    ok = True
    for p in GATED_PS:
        k_star = mc.find_crossover(onoff_table, p)
        pred = theory.predicted_threshold_K(200, p)
        ok &= k_star is not None and abs(k_star - pred) <= 2
        details.append(f"p={p}: K*={k_star} vs {pred:.2f}")
    report(1, ok, "connectivity crossover within 2 of prediction; "
           + "; ".join(details))


def test_criterion_2_isolation_tracks_connectivity(onoff_table):
    worst = -1.0
    for r in onoff_table.rows:
        if r.p == 1.0:
            continue
        gap = abs(r.prob_no_isolated - r.prob_connected)
        slack = 0.05 + 3.0 * (r.stderr_connected + r.stderr_no_isolated)
        worst = max(worst, gap - slack)
    report(2, worst <= 0.0,
           f"max |no-isolated - connected| excess over tolerance = {worst:.4f}")


def test_criterion_3_full_visibility(onoff_table):
    col = onoff_table.column(1.0)
    by_k = {r.K: r for r in col}
    min_k2 = min(r.prob_connected for r in col if r.K >= 2)
    drop = by_k[2].prob_connected - by_k[1].prob_connected
    iso_exact = all(r.prob_no_isolated == 1.0 for r in col)
    ok = min_k2 >= 0.98 and drop >= 0.3 and iso_exact
    report(3, ok, f"p=1: min prob_connected(K>=2)={min_k2:.3f}, "
           f"K=1 deficit={drop:.3f}, prob_no_isolated==1 for all K: {iso_exact}")


def test_criterion_4_small_instance_oracle():
    oracle = exact_isolation_probability_full_enumeration(3, 1, 0.5)
    formula = theory.isolation_prob(3, 1, 0.5)
    val = mc.validate_bounds(3, 1, 0.5, samples=100_000, seed=SEED)
    iso = next(c for c in val.checks if c.name == "isolation_prob")
    ok = (oracle == Fraction(3, 8)
          and abs(formula - 0.375) <= 1e-12
          and iso.passed)
    report(4, ok, f"enumeration={oracle}, formula={formula!r}, "
           f"MC={iso.empirical:.4f} (3-sigma={3 * iso.sigma:.4f})")


def test_criterion_5_edge_probability():
    details = []
    ok = True
    for n, K, p in ((5, 2, 0.5), (200, 12, 0.2)):
        q = theory.edge_prob(n, K, p)
        est, se = mc.estimate_edge_prob(n, K, p, trials=100_000, seed=SEED)
        ok &= abs(est - q) <= 3 * math.sqrt(q * (1 - q) / 100_000)
        details.append(f"(n={n},K={K},p={p}): {est:.4f} vs {q:.4f}")
    report(5, ok, "pair edge probability within 3 sigma; " + "; ".join(details))


def test_criterion_6_bound_suite(monkeypatch, capsys):
    val = mc.validate_bounds(5, 2, 0.5, samples=100_000, seed=SEED)
    by_name = {c.name: c for c in val.checks}
    tail = by_name["estar_tail"].empirical
    # the stated gate for the outside-pick tail at t=0.5
    tail_ok = tail <= math.exp(-0.75)

    # exit-code contract: 0 when the suite passes, 2 when any check fails
    exit_pass = cli.main(["validate", "--n", "5", "--K", "2", "--p", "0.5",
                          "--samples", str(100_000), "--seed", str(SEED)])
    failing = mc.ValidationReport(
        n=5, K=2, p=0.5, samples=1000, seed=1,
        checks=(mc.BoundCheck(name="edge_prob", empirical=1.0, reference=0.0,
                              sigma=1e-9, kind="two_sided", passed=False),))
    monkeypatch.setattr(mc, "validate_bounds", lambda *a, **k: failing)
    exit_fail = cli.main(["validate", "--samples", "1000", "--seed", "1"])
    capsys.readouterr()

    ok = (val.all_passed and tail_ok
          and by_name["b_leq_u_squared"].passed
          and by_name["cross_moment_ratio"].passed
          and by_name["estar_mean"].passed
          and by_name["edge_covariance"].passed
          and exit_pass == 0 and exit_fail == 2)
    report(6, ok, f"all bounds hold at 3 sigma; tail={tail:.4f} <= "
           f"{math.exp(-0.75):.4f}; exit codes pass={exit_pass}, "
           f"fail={exit_fail}")


def test_criterion_7_disk_resemblance(onoff_table, disk_table):
    details = []
    ok = True
    for p in GATED_PS:
        k_on = mc.find_crossover(onoff_table, p)
        k_disk = mc.find_crossover(disk_table, p)
        if p == 0.8:
            # forced radius (rho >= 0.5): reported, not gated
            details.append(f"p=0.8 (forced radius, ungated): on/off={k_on}, "
                           f"disk={k_disk}")
            continue
        ok &= k_on is not None and k_disk is not None and abs(k_on - k_disk) <= 2
        details.append(f"p={p}: on/off={k_on}, disk={k_disk}")
    report(7, ok, "crossover deltas within 2; " + "; ".join(details))


def test_criterion_8_constant_parameter_divergence():
    ns = (200, 400, 800)
    expected = [n * theory.isolation_prob(n, 2, 0.5) for n in ns]
    increasing = all(a < b for a, b in zip(expected, expected[1:]))
    cfg = mc.ExperimentConfig(n=800, K_grid=(2,), p_grid=(0.5,),
                              trials=500, seed=SEED)
    q = mc.sweep(cfg, workers=2).rows[0].prob_no_isolated
    ok = increasing and q < 0.1
    report(8, ok, "expected isolated count "
           + " < ".join(f"{e:.2f}" for e in expected)
           + f" over n={ns}; empirical prob_no_isolated(n=800)={q:.3f} < 0.1")


def test_criterion_9_determinism(onoff_table, tmp_path):
    out = tmp_path / "sweep_w1.csv"
    rc = cli.main(["figure", "fig2", "--seed", str(SEED), "--workers", "1",
                   "--out", str(out)])
    same = out.read_bytes() == onoff_table.to_csv_text().encode()
    report(9, rc == 0 and same,
           "standard-grid CSV byte-identical across workers=1 and workers=2")
