import math
import time
import tracemalloc
from dataclasses import asdict, replace
from itertools import combinations, product

import numpy as np
import pytest

from pairkey import montecarlo as mc
from pairkey import scheme
from pairkey import theory as th
from pairkey.theory import match_rho

import oracles
from test_acceptance import SEED


def object_path_trial(n, K, p, channel, entropy):
    """The trial composed from Python sets of pairs and a breadth-first
    search on the same random numbers; must agree with run_trial given the
    same entropy."""
    return mc.TrialOutcome(*oracles.trial(n, K, p, channel,
                                          mc.rng_from_entropy(entropy)))


def peak_mb(fn):
    """tracemalloc's peak, in MB, over one call of fn, after a first call
    has paid any one-time allocation."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


class TestRunTrial:
    def test_deterministic(self):
        e = mc.trial_entropy(42, "on_off", 50, 2, 1, 7)
        assert mc.run_trial(50, 5, 0.3, "on_off", e) == \
            mc.run_trial(50, 5, 0.3, "on_off", e)

    def test_complete_intersection(self):
        out = mc.run_trial(20, 19, 1.0, "on_off", 5)
        assert out.connected and out.edge_count == 190

    def test_containment_invariant(self):
        for t in range(100):
            out = mc.run_trial(30, 2, 0.3, "on_off",
                               mc.trial_entropy(3, "on_off", 30, 0, 0, t))
            if out.connected:
                assert out.isolated_count == 0

    @pytest.mark.parametrize("channel", ["on_off", "disk"])
    def test_matches_object_path(self, channel):
        for t in range(25):
            e = mc.trial_entropy(11, channel, 25, 0, 0, t)
            assert mc.run_trial(25, 4, 0.4, channel, e) == \
                object_path_trial(25, 4, 0.4, channel, e)

    def test_forced_channel_matches_object_path(self):
        for t in range(10):
            e = mc.trial_entropy(11, "disk_forced", 25, 0, 0, t)
            assert mc.run_trial(25, 4, 0.9, "disk_forced", e) == \
                object_path_trial(25, 4, 0.9, "disk_forced", e)

    @pytest.mark.parametrize("n,K,p", [(2, 1, 0.5), (5, 4, 0.3), (6, 2, 1.0),
                                       (30, 29, 0.1), (40, 1, 0.7)])
    def test_edge_cases_match_object_path(self, n, K, p):
        for channel in ("on_off", "disk_forced"):
            for t in range(8):
                e = mc.trial_entropy(5, channel, n, K, 0, t)
                assert mc.run_trial(n, K, p, channel, e) == \
                    object_path_trial(n, K, p, channel, e)

    @pytest.mark.parametrize("channel", ["on_off", "disk_forced"])
    def test_trial_is_order_nk(self, channel):
        # n = 10^5: drawing n(n-1) pairing uniforms to rank would take about
        # a minute; an O(nK) trial takes about 0.1 s and 140 MB (x86-64, numpy 2.4)
        def trial():
            return mc.run_trial(100_000, 36, 0.2, channel, 3)

        start = time.process_time()
        trial()
        assert time.process_time() - start < 2.0
        assert peak_mb(trial) < 300

    def test_disk_trial_holds_no_distance_matrix(self):
        # the all-pairs distance matrix alone is 69 MB at n=3000; the
        # matrix form peaked at 206 MB here
        assert peak_mb(lambda: mc.run_trial(3000, 10, 0.5, "disk_forced", 1)) < 16

    def test_full_visibility_connected(self):
        hits = sum(
            mc.run_trial(50, 5, 1.0, "on_off",
                         mc.trial_entropy(9, "on_off", 50, 0, 0, t)).connected
            for t in range(200))
        assert hits / 200 >= 0.99

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            mc.run_trial(10, 10, 0.5, "on_off", 1)
        with pytest.raises(ValueError):
            mc.run_trial(10, 2, 0.0, "on_off", 1)
        with pytest.raises(ValueError):
            mc.run_trial(10, 2, 0.5, "nope", 1)


class TestRngFromEntropy:
    @pytest.mark.parametrize("entropy", [7, np.int64(3), (0,), (2 ** 62, 0, 5),
                                         mc.trial_entropy(42, "disk", 50, 2, 1, 7)])
    def test_stream_is_pcg64_of_seed_sequence(self, entropy):
        # the explicit chain every recorded stream was drawn from
        seq = list(entropy) if isinstance(entropy, tuple) else [int(entropy)]
        want = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seq)))
        got = mc.rng_from_entropy(entropy)
        assert got.bit_generator.state == want.bit_generator.state
        assert got.random(1000).tobytes() == want.random(1000).tobytes()


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            mc.ExperimentConfig(n=10, K_grid=(10,), p_grid=(0.5,), trials=5, seed=1)
        with pytest.raises(ValueError):
            mc.ExperimentConfig(n=10, K_grid=(2,), p_grid=(), trials=5, seed=1)
        with pytest.raises(ValueError):
            mc.ExperimentConfig(n=10, K_grid=(2,), p_grid=(0.5,), trials=0, seed=1)
        with pytest.raises(ValueError):
            mc.ExperimentConfig(n=10, K_grid=(2,), p_grid=(0.5,), trials=5,
                                seed=1, channel="bogus")

    @pytest.mark.parametrize("bad,message", [
        ({"trials": 2.5}, "trials must be an integer"),
        ({"K_grid": (2.7,)}, "K must be an integer"),
        ({"seed": True}, "seed must be an integer"),
        ({"p_grid": (True,)}, "p must be a real number"),
    ])
    def test_values_checked_not_coerced(self, bad, message):
        # a non-integral trials or K is an error, not truncated to an int
        with pytest.raises(ValueError, match=message):
            mc.ExperimentConfig(**{"n": 10, "K_grid": (2,), "p_grid": (0.5,),
                                   "trials": 5, "seed": 1, **bad})

    def test_grids_normalised_after_checks(self):
        cfg = mc.ExperimentConfig(n=10, K_grid=[np.int64(2)], p_grid=[1],
                                  trials=5, seed=1)
        assert cfg.K_grid == (2,) and type(cfg.K_grid[0]) is int
        assert cfg.p_grid == (1.0,) and type(cfg.p_grid[0]) is float


SMALL = mc.ExperimentConfig(n=25, K_grid=(2, 4, 6), p_grid=(0.3, 0.8),
                            trials=40, seed=77)


class TestSweep:
    def test_shape_and_order(self):
        t = mc.sweep(SMALL)
        assert len(t.rows) == 6
        keys = [(r.channel, r.p, r.K) for r in t.rows]
        assert keys == sorted(keys)

    def test_workers_below_one_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            mc.sweep(SMALL, workers=0)

    def test_pool_size_clamped_to_cells(self):
        assert mc.pool_size(64, 6) == 6
        assert mc.pool_size(3, 6) == 3
        assert mc.pool_size(1, 6) == 1
        with pytest.raises(ValueError):
            mc.pool_size(0, 6)

    def test_workers_bit_identical(self):
        t1 = mc.sweep(SMALL, workers=1)
        t2 = mc.sweep(SMALL, workers=3)
        assert t1 == t2
        assert t1.to_csv_text() == t2.to_csv_text()

    @pytest.mark.parametrize("K_grid,p_grid,trials", [
        pytest.param((3,), (0.5,), 7, id="K_grid0-7"),
        pytest.param((2, 3, 4), (0.5,), 2, id="K_grid1-2"),
        pytest.param((2, 3, 4), (0.3, 0.7), 3, id="two_p_three_K"),
        pytest.param((2, 3, 4, 5, 6), (0.3, 0.7), 3, id="ranges_span_cells"),
    ])
    def test_trial_blocks_match_a_plain_loop(self, K_grid, p_grid, trials):
        # at 2 and 3 workers the (p, K, trial) units are cut into at most 8
        # or 12 ranges: one trial each for the first two grids, ranges that
        # cut cells for the third, and for the last, ranges that take one
        # cell whole and part of the next; with two p values a sum that took
        # K for p would give other counts
        cfg = mc.ExperimentConfig(n=25, K_grid=K_grid, p_grid=p_grid,
                                  trials=trials, seed=77)
        tables = [mc.sweep(cfg, workers=w) for w in (1, 2, 3)]
        assert {t.to_csv_text() for t in tables} == {tables[0].to_csv_text()}
        for (pi, p), (ki, K) in product(enumerate(p_grid), enumerate(K_grid)):
            outs = [mc.run_trial(cfg.n, K, p, cfg.channel,
                                 mc.trial_entropy(cfg.seed, cfg.channel, cfg.n, ki, pi, t))
                    for t in range(trials)]
            for table in tables[1:]:
                r = table.cell(cfg.channel, K, p)
                assert r.count_connected == sum(o.connected for o in outs)
                assert r.count_no_isolated == sum(o.isolated_count == 0 for o in outs)

    @pytest.mark.parametrize("workers", [2, 3, 5])
    @pytest.mark.parametrize("K_grid,p_grid,trials", [
        ((3,), (0.5,), 7), ((2, 3, 4, 5, 6), (0.3, 0.7), 3),
        (tuple(range(1, 13)), (0.2, 0.6), 2)])
    def test_pool_runs_each_unit_once_in_few_jobs(self, monkeypatch, workers,
                                                   K_grid, p_grid, trials):
        # an in-process stand-in for the pool records its jobs, and a
        # wrapped _run_cell the trials they run; no process is started
        pools, jobs, ran = [], [], []

        class RecordingPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                jobs.extend(zip(*iterables))
                return map(fn, *iterables)

        run_cell = mc._run_cell

        def recording_cell(args):
            n, K, p, seed, channel, ki, pi, start, stop = args
            assert (K, p) == (K_grid[ki], p_grid[pi])
            ran.extend((pi, ki, t) for t in range(start, stop))
            return run_cell(args)

        cfg = mc.ExperimentConfig(n=25, K_grid=K_grid, p_grid=p_grid,
                                  trials=trials, seed=77)
        plain = mc.sweep(cfg)
        monkeypatch.setattr(mc, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(mc, "_run_cell", recording_cell)
        assert mc.sweep(cfg, workers=workers) == plain
        assert pools == [workers]
        assert 1 < len(jobs) <= 4 * workers
        assert sorted(ran) == list(product(range(len(p_grid)), range(len(K_grid)),
                                           range(trials)))

    def test_containment_per_cell(self):
        for r in mc.sweep(SMALL).rows:
            assert r.count_connected <= r.count_no_isolated

    def test_p1_never_isolated(self):
        cfg = mc.ExperimentConfig(n=30, K_grid=(1, 3), p_grid=(1.0,),
                                  trials=60, seed=5)
        for r in mc.sweep(cfg).rows:
            assert r.prob_no_isolated == 1.0
            assert any("rule-of-three" in note for note in r.notes)

    def test_stderr(self):
        r = mc.sweep(SMALL).rows[0]
        q = r.prob_connected
        assert r.stderr_connected == pytest.approx(
            math.sqrt(q * (1 - q) / r.trials))

    def test_soft_monotone_in_k(self):
        cfg = mc.ExperimentConfig(n=50, K_grid=(1, 3, 5, 8, 12),
                                  p_grid=(0.5,), trials=150, seed=13)
        rows = mc.sweep(cfg).column(0.5)
        for lo, hi in zip(rows, rows[1:]):
            floor = lo.prob_connected - 4 * math.sqrt(
                max(lo.prob_connected * (1 - lo.prob_connected), 0.25 / lo.trials)
                / lo.trials)
            assert hi.prob_connected >= floor


class TestExactConnectivity:
    """The on/off sweep's P(connected) against the exact oracle at 3 sigma,
    10,000 trials per cell at the acceptance suite's pinned seed."""

    @pytest.mark.parametrize("n,K,p,exact", [
        (5, 2, 0.5, 0.4427053192515432),
        (4, 1, 0.5, 0.1712962962962963),
        (5, 1, 0.7, 0.29562312499999993),
        (3, 1, 0.5, 0.3125),
        # 2K > n-1: the pairing is a permutation prefix
        (4, 2, 0.5, 0.4907407407407407),
        (5, 3, 0.4, 0.4308914944000018),
        (5, 4, 0.3, 0.25626047760000037),
    ])
    def test_sweep_matches_oracle(self, n, K, p, exact):
        assert oracles.exact_connected_probability(n, K, p) == \
            pytest.approx(exact, rel=1e-12)
        cfg = mc.ExperimentConfig(n=n, K_grid=(K,), p_grid=(p,),
                                  trials=10_000, seed=SEED)
        r = mc.sweep(cfg).rows[0]
        sigma = math.sqrt(exact * (1 - exact) / r.trials)
        assert abs(r.prob_connected - exact) <= 3 * sigma

    @pytest.mark.parametrize("n,p", [(3, 0.5), (4, 0.5), (5, 0.7), (5, 0.3), (5, 1.0)])
    def test_k1_oracle_matches_enumeration(self, n, p):
        assert oracles.k1_connected_probability(n, p) == pytest.approx(
            oracles.exact_connected_probability(n, 1, p), rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("n,p,exact", [(200, 1.0, 0.22344), (30, 0.95, 0.13897)])
    def test_k1_sweep_matches_oracle(self, n, p, exact):
        # K=1 at n beyond enumeration: 4000 trials at 3 sigma
        assert oracles.k1_connected_probability(n, p) == pytest.approx(exact, abs=5e-6)
        cfg = mc.ExperimentConfig(n=n, K_grid=(1,), p_grid=(p,), trials=4000, seed=SEED)
        r = mc.sweep(cfg).rows[0]
        assert abs(r.prob_connected - exact) <= 3 * math.sqrt(exact * (1 - exact) / r.trials)

    def test_oracle_complete_key_graph(self):
        # K = n-1 keys every pair; a triangle stays connected with 3p^2 - 2p^3
        for p in (0.2, 0.5, 0.9):
            assert oracles.exact_connected_probability(3, 2, p) == \
                pytest.approx(3 * p * p - 2 * p ** 3, rel=1e-12)

    def test_oracle_against_channel_enumeration(self):
        # every pairing times every on/off state of the C(4,2) pairs
        n, K, p = 4, 1, 0.3
        pairs = list(combinations(range(n), 2))
        pairings = oracles.all_pairings(n, K)
        total = 0.0
        for pairing in pairings:
            keyed = {(min(i, j - 1), max(i, j - 1))
                     for i, picked in enumerate(pairing) for j in picked}
            for states in product((0, 1), repeat=len(pairs)):
                up = [pr for pr, s in zip(pairs, states) if s and pr in keyed]
                if max(oracles.component_labels(n, up)) == 0:
                    total += math.prod(p if s else 1 - p for s in states)
        assert oracles.exact_connected_probability(n, K, p) == \
            pytest.approx(total / len(pairings), rel=1e-12)


class TestEstimateTable:
    def test_csv_header(self):
        text = mc.sweep(SMALL).to_csv_text()
        assert text.splitlines()[0] == ",".join(mc.CSV_COLUMNS)

    def test_json_round_trip(self):
        t = mc.sweep(SMALL)
        assert mc.EstimateTable.from_json_obj(t.to_json_obj()) == t

    def test_cell_lookup(self):
        t = mc.sweep(SMALL)
        assert t.cell("on_off", 4, 0.3).K == 4
        with pytest.raises(KeyError):
            t.cell("on_off", 99, 0.3)


class TestFindCrossover:
    def _table(self, probs, p=0.5):
        rows = tuple(
            mc.CellEstimate(channel="on_off", n=10, K=k, p=p, trials=100,
                            count_connected=int(q * 100),
                            count_no_isolated=int(q * 100), seed=1)
            for k, q in enumerate(probs, start=1))
        return mc.EstimateTable(rows=rows)

    def test_all_zero_none(self):
        assert mc.find_crossover(self._table([0, 0, 0]), 0.5) is None

    def test_monotone_column(self):
        assert mc.find_crossover(self._table([0.1, 0.4, 0.62, 0.9]), 0.5) == 3

    def test_level(self):
        assert mc.find_crossover(self._table([0.1, 0.4, 0.62, 0.9]), 0.5,
                                 level=0.9) == 4

    def test_missing_p(self):
        with pytest.raises(KeyError):
            mc.find_crossover(self._table([0.5]), 0.9)

    @pytest.mark.parametrize("level", [0, -1, 1.5, math.nan, True, "0.5"])
    def test_rejects_level_outside_unit_interval(self, level):
        # 0 and -1 would pick the first K, 1.5 and NaN would never be reached
        with pytest.raises(ValueError, match="level"):
            mc.find_crossover(self._table([0.1, 0.4, 0.62, 1.0]), 0.5, level=level)

    def test_level_one(self):
        assert mc.find_crossover(self._table([0.1, 0.4, 0.62, 1.0]), 0.5,
                                 level=1.0) == 4


class TestCompareChannels:
    def test_mixed_channels_need_a_channel(self):
        # P(connected) reaches 0.33 at K=3 on/off (0.35) and at K=4 on
        # disk_forced (0.30 at K=3); without a channel the column would mix
        # them and the crossover read the on/off K=3
        cfg = mc.ExperimentConfig(n=30, K_grid=(1, 2, 3, 4), p_grid=(0.5,),
                                  trials=100, seed=3)
        t_on = mc.sweep(cfg)
        t_disk = mc.sweep(replace(cfg, channel="disk_forced"))
        both = mc.EstimateTable(rows=t_on.rows + t_disk.rows)
        assert mc.find_crossover(both, 0.5, 0.33, channel="on_off") == \
            mc.find_crossover(t_on, 0.5, 0.33) == 3
        assert mc.find_crossover(both, 0.5, 0.33, channel="disk_forced") == \
            mc.find_crossover(t_disk, 0.5, 0.33) == 4
        for read in (lambda: both.column(0.5), lambda: mc.find_crossover(both, 0.5, 0.33)):
            with pytest.raises(ValueError, match="disk_forced.*on_off"):
                read()

    def test_same_channel_zero_delta(self):
        t1 = mc.sweep(SMALL)
        t2 = mc.sweep(SMALL)
        for (r1, r2) in zip(t1.rows, t2.rows):
            assert r1.prob_connected == r2.prob_connected

    def test_comparison_structure(self):
        # both channels on one grid, in one table, compared cell by cell
        cfg = mc.ExperimentConfig(n=30, K_grid=(2, 5, 9), p_grid=(0.3,),
                                  trials=30, seed=21)
        t_on = mc.sweep(cfg)
        t_disk = mc.sweep(replace(cfg, channel="disk"))
        both = mc.EstimateTable(rows=t_on.rows + t_disk.rows)
        deltas = [both.cell("on_off", K, 0.3).prob_connected
                  - both.cell("disk", K, 0.3).prob_connected for K in cfg.K_grid]
        assert len(deltas) == 3
        assert [r.K for r in both.column(0.3, channel="disk")] == [2, 5, 9]
        assert mc.find_crossover(both, 0.3, channel="on_off") == \
            mc.find_crossover(t_on, 0.3)
        assert mc.find_crossover(both, 0.3, channel="disk") == \
            mc.find_crossover(t_disk, 0.3)

    def test_forced_flagging(self):
        # p=0.9 needs rho >= 0.5: only the forced disk channel runs it
        cfg = mc.ExperimentConfig(n=20, K_grid=(3,), p_grid=(0.9,),
                                  trials=10, seed=2, channel="disk_forced")
        assert match_rho(0.9, "disk_forced") >= 0.5
        assert mc.sweep(cfg).rows[0].channel == "disk_forced"
        with pytest.raises(ValueError):
            mc.sweep(replace(cfg, channel="disk"))


class TestEstimateEdgeProb:
    def test_small_case(self):
        est, se = mc.estimate_edge_prob(5, 2, 0.5, trials=50_000, seed=4)
        assert abs(est - 0.375) <= 3 * math.sqrt(0.375 * 0.625 / 50_000)

    def test_large_n(self):
        q = th.edge_prob(200, 12, 0.2)
        est, se = mc.estimate_edge_prob(200, 12, 0.2, trials=50_000, seed=4)
        assert abs(est - q) <= 3 * math.sqrt(q * (1 - q) / 50_000)

    def test_no_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            mc.estimate_edge_prob(10, 3, 0.4, trials=0, seed=9)

    def test_draws_a_block_at_a_time(self):
        # one (t, 2, n-1) chunk of pairing uniforms peaked at 61 MB here
        assert peak_mb(lambda: mc.estimate_edge_prob(200, 12, 0.2, 100_000, seed=1)) < 8

    def test_deterministic(self):
        a = mc.estimate_edge_prob(10, 3, 0.4, trials=5000, seed=9)
        b = mc.estimate_edge_prob(10, 3, 0.4, trials=5000, seed=9)
        assert a == b


class TestValidateBounds:
    def test_passes_reference_point(self):
        report = mc.validate_bounds(5, 2, 0.5, samples=20_000, seed=3)
        assert report.all_passed
        names = {c.name for c in report.checks}
        assert names == {"edge_prob", "pairing_prob", "isolation_prob",
                         "b_leq_u_squared", "cross_moment_ratio",
                         "estar_mean", "estar_tail", "edge_covariance"}

    def test_p1_skips_cross_moment(self):
        report = mc.validate_bounds(5, 2, 1.0, samples=5_000, seed=3)
        check = next(c for c in report.checks if c.name == "cross_moment_ratio")
        assert check.status.startswith("skipped")
        assert "p=1" in check.status

    def test_small_sample_rejected(self):
        with pytest.raises(ValueError):
            mc.validate_bounds(5, 2, 0.5, samples=500)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_exact_checks_pass_at_k_n_minus_1(self, n):
        # at K = n-1 these estimates equal their references exactly (sigma = 0),
        # but by another formula: rounding alone must not fail them
        for p in (0.01, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0):
            report = mc.validate_bounds(n, n - 1, p, samples=1000, seed=SEED)
            for c in report.checks:
                if c.name in ("pairing_prob", "b_leq_u_squared", "edge_covariance"):
                    assert c.passed, (n, p, c)
                # every sample has b = (1-p)^2, so its sigma is 0, not rounding
                if c.name == "b_leq_u_squared":
                    assert c.sigma == 0.0, (n, p, c)

    @pytest.mark.parametrize("kind", ["two_sided", "upper"])
    def test_rounding_slack_is_no_wider(self, kind):
        assert mc._check("x", 0.49 + 1e-15, 0.49, 0.0, kind).passed
        assert not mc._check("x", 0.49 + 1e-6, 0.49, 0.0, kind).passed
        assert not mc._check("x", 1e6 * (1 + 1e-9), 1e6, 0.0, kind).passed

    def test_rare_count_judged_by_exact_tails(self):
        # 3 isolations against 0.22 expected lie 5.9 sigma out, yet
        # P(X >= 3) = 1.48e-3 is above the normal 3-sigma tail, 1.35e-3
        report = mc.validate_bounds(8, 7, 0.7, samples=1000, seed=1)
        iso = next(c for c in report.checks if c.name == "isolation_prob")
        q = th.isolation_prob(8, 7, 0.7)
        assert iso.empirical == 0.003 and iso.reference == q and iso.passed
        assert iso.sigma == math.sqrt(q * (1 - q) / 1000)
        assert not mc._rate_check("isolation_prob", 4, 1000, q).passed

    def test_n3_isolation(self):
        report = mc.validate_bounds(3, 1, 0.5, samples=20_000, seed=6)
        iso = next(c for c in report.checks if c.name == "isolation_prob")
        assert iso.reference == pytest.approx(0.375, rel=1e-12)
        assert iso.passed

    def test_report_dict(self):
        report = mc.validate_bounds(5, 2, 0.5, samples=2_000, seed=1)
        d = report.to_dict()
        assert d["n"] == 5 and len(d["checks"]) == 8

    def test_deterministic(self):
        a = mc.validate_bounds(5, 2, 0.5, samples=3_000, seed=8)
        b = mc.validate_bounds(5, 2, 0.5, samples=3_000, seed=8)
        assert a == b

    @pytest.mark.parametrize("n,K,p,samples,seed", [
        (5, 2, 0.5, 20_000, 3),
        (5, 4, 0.75, 5_000, 2),       # K = n-1: b is constant
        (5, 2, 1.0, 5_000, 3),        # cross-moment check skipped
        (3, 1, 0.5, 20_000, 6),
        (30, 2, 0.5, 5_000, 7),       # many pairing blocks per chunk
        (5, 3, 0.25, 170_000, 4),     # a short last chunk
        (8, 7, 0.7, 1_000, 1),
        (5, 2, 0.3, 20_000, 4),
        (7, 3, 0.45, 30_000, 5),
        (12, 5, 0.2, 3_000, 9),
        (4, 1, 0.9, 2_000, 1),
    ])
    def test_tallies_match_column_form(self, n, K, p, samples, seed):
        assert_matches_columns(mc.validate_bounds(n, K, p, samples, seed),
                               oracles.validate_columns(n, K, p, samples, seed))

    def test_tiles_that_cut_chunks_match_column_form(self, monkeypatch):
        # 7 samples per tile, so the 20,000-sample chunk ends in a short tile;
        # the partner draw is cut into blocks of 17 rows too
        monkeypatch.setattr(scheme, "_BLOCK", 7 * 10)
        for p in (0.5, 0.45):
            assert_matches_columns(mc.validate_bounds(5, 2, p, 20_000, 12),
                                   oracles.validate_columns(5, 2, p, 20_000, 12))

    def test_keeps_tallies_not_samples(self):
        # the per-sample int64 columns and a second copy of each chunk's
        # partners peaked at 25.7 MB here
        assert peak_mb(lambda: mc.validate_bounds(5, 2, 0.5, 200_000, seed=1)) < 20


def assert_matches_columns(report, reference):
    """Every field of every check equals the column form's; at a p that is
    not dyadic, b_leq_u_squared's estimate and sigma to relative 1e-12 (the
    column form sums rounded per-sample powers of 1-p)."""
    assert len(report.checks) == len(reference.checks)
    dyadic = (report.p * 2 ** 10).is_integer()
    for got, want in zip(report.checks, reference.checks):
        inexact = () if dyadic or got.name != "b_leq_u_squared" else ("empirical", "sigma")
        for field, value in asdict(got).items():
            expect = getattr(want, field)
            if field in inexact:
                assert value == pytest.approx(expect, rel=1e-12), (got.name, field)
            else:
                assert value == expect, (got.name, field)


class TestSampleInstance:
    @pytest.mark.parametrize("n,K,p,seed", [(2, 1, 0.5, 3), (6, 5, 0.7, 4),
                                            (12, 3, 1.0, 2), (30, 3, 0.4, 5),
                                            (50, 5, 0.2, 42)])
    def test_matches_oracle(self, n, K, p, seed):
        partners, *graphs = mc.sample_instance(n, K, p, seed)
        want = oracles.dump_instance(n, K, p, mc.rng_from_entropy((seed, 201, n, K)))
        assert [set(row) for row in partners.tolist()] == want[0]
        assert (np.diff(partners, axis=1) > 0).all()
        for (a, b), pairs in zip(graphs, want[1:]):
            assert list(zip(a.tolist(), b.tolist())) == sorted(pairs)


class TestIsolatedCountMean:
    # E[isolated_count] = n * isolation_prob on both channels: on disk,
    # rho < 1/2 and the positions are i.i.d. on the torus, so a node's
    # links to its keyed partners are independent Bernoulli(p) as on on/off
    @pytest.mark.parametrize("channel", ["on_off", "disk"])
    @pytest.mark.parametrize("index,K,p", [(0, 4, 0.3), (1, 8, 0.3), (2, 2, 0.6)])
    def test_within_three_sigma(self, channel, index, K, p):
        n, trials = 200, 400
        counts = np.array([
            mc.run_trial(n, K, p, channel,
                         mc.trial_entropy(SEED, channel, n, index, 0, t)).isolated_count
            for t in range(trials)])
        sigma = counts.std(ddof=1) / math.sqrt(trials)
        assert sigma > 0
        assert abs(counts.mean() - n * th.isolation_prob(n, K, p)) <= 3 * sigma
