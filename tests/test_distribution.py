"""The trial kernel's distribution, beyond its random stream: the sampled
graphs must follow the law of the model, whatever numbers it draws.

- Cell by cell, the kernel's P(connected) and P(no isolated node) on reduced
  fig2 (on/off) and fig4 (disk_forced) grids agree at 3 sigma with those of
  the earlier ranked-uniform kernel (oracles.ranked_intersection_edges),
  which drew all n(n-1) pairing and C(n,2) link uniforms.
- At n = 4000 and n = 2*10^4, the mean isolated-node count and edge count
  agree at 3 sigma with n * theory.isolation_prob and C(n,2) *
  theory.edge_prob.

The exact connectivity at n <= 5 is checked in test_montecarlo.py
(TestExactConnectivity), the uniformity of the ordered partner sequences
in test_scheme.py (TestOrderedUniformity)."""

import math

import numpy as np
import pytest

from pairkey import montecarlo as mc
from pairkey import theory

import oracles

# fig2's and fig4's n and two of their p values, each at the K values
# around its threshold, where neither rate is near 0 or 1
REDUCED_GRIDS = {0.2: (10, 12, 14, 16), 0.6: (3, 4, 5, 6)}
TWO_SAMPLE_TRIALS = 300


def ranked_counts(cfg: mc.ExperimentConfig, K: int, p: float, tag: int):
    """(count_connected, count_no_isolated) of the earlier kernel over
    cfg.trials trials of one cell, trial t seeded by
    (cfg.seed, tag, K, round(100 p), t)."""
    conn = noiso = 0
    for t in range(cfg.trials):
        rng = mc.rng_from_entropy((cfg.seed, tag, K, round(p * 100), t))
        a, b = oracles.ranked_intersection_edges(cfg.n, K, p, cfg.channel, rng)
        iso = np.count_nonzero(mc.degrees(cfg.n, a, b) == 0)
        noiso += iso == 0
        conn += iso == 0 and mc.components(cfg.n, a, b) == 1
    return conn, noiso


def same_rate(x: int, y: int, trials: int) -> bool:
    """Two counts over `trials` Bernoulli trials each within 3 sigma of
    each other, sigma from the pooled rate."""
    q = (x + y) / (2 * trials)
    return abs(x - y) / trials <= 3 * math.sqrt(2 * q * (1 - q) / trials)


@pytest.mark.parametrize("channel,tag", [("on_off", 301), ("disk_forced", 302)],
                         ids=["fig2_on_off", "fig4_disk_forced"])
def test_cells_match_the_ranked_uniform_kernel(channel, tag):
    for p, K_grid in REDUCED_GRIDS.items():
        cfg = mc.ExperimentConfig(n=200, K_grid=K_grid, p_grid=(p,),
                                  trials=TWO_SAMPLE_TRIALS, seed=20261020,
                                  channel=channel)
        for r in mc.sweep(cfg).rows:
            conn, noiso = ranked_counts(cfg, r.K, p, tag)
            assert same_rate(r.count_connected, conn, cfg.trials), (r.K, p, "connected")
            assert same_rate(r.count_no_isolated, noiso, cfg.trials), \
                (r.K, p, "no_isolated")


@pytest.mark.parametrize("n,K,p,channel,trials", [
    (4000, 6, 0.3, "on_off", 60),
    (4000, 6, 0.3, "disk", 60),
    (4000, 20, 0.1, "on_off", 60),
    (20_000, 8, 0.25, "on_off", 20),
    (20_000, 8, 0.25, "disk", 20),
])
def test_isolation_and_edge_rates_at_large_n(n, K, p, channel, trials):
    # trial means against the closed forms, sigma from the trials' spread
    outs = [mc.run_trial(n, K, p, channel,
                         mc.trial_entropy(20261021, channel, n, K, 0, t))
            for t in range(trials)]
    isolated = [o.isolated_count for o in outs]
    edges = [o.edge_count for o in outs]
    for got, want in ((isolated, n * theory.isolation_prob(n, K, p)),
                      (edges, n * (n - 1) / 2 * theory.edge_prob(n, K, p))):
        got = np.asarray(got, dtype=float)
        sigma = got.std(ddof=1) / math.sqrt(trials)
        assert sigma > 0
        assert abs(got.mean() - want) <= 3 * sigma, (got.mean(), want, sigma)
