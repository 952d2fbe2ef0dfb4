import hashlib
import json
import math
from itertools import combinations
from unittest import mock

import numpy as np
import pytest

from pairkey import montecarlo as mc
from pairkey.cli import dump_instance
from pairkey.montecarlo import degrees, estimate_edge_prob, keyed_pairs
from pairkey.scheme import draw_partners, sample_gamma_matrix

from oracles import ScriptedRng, key_rings, partner_sets, partners_from_uniforms


def rng(seed=12345):
    return np.random.default_rng(seed)


def partners(gamma, i):
    """1-based partner set of node i (1-based)."""
    return {int(j) + 1 for j in gamma[i - 1]}


def pair_set(a, b):
    return set(zip(a.tolist(), b.tolist()))


def partner_list(gamma):
    """0-based partner sets, one per row of gamma."""
    return [set(row.tolist()) for row in gamma]


class TestSchemeParams:
    def test_rejects_k_geq_n(self):
        with pytest.raises(ValueError):
            sample_gamma_matrix(4, 4, rng())

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            sample_gamma_matrix(1, 1, rng())
        with pytest.raises(ValueError):
            sample_gamma_matrix(5, 0, rng())


class TestSamplePairing:
    def test_n2_forced(self):
        for seed in range(5):
            gamma = sample_gamma_matrix(2, 1, rng(seed))
            assert partners(gamma, 1) == {2}
            assert partners(gamma, 2) == {1}

    def test_k_equals_n_minus_1_forced(self):
        gamma = sample_gamma_matrix(4, 3, rng())
        for i in range(1, 5):
            assert partners(gamma, i) == set(range(1, 5)) - {i}

    def test_sizes_and_no_self(self):
        gamma = sample_gamma_matrix(30, 7, rng())
        assert gamma.shape == (30, 7)
        for i in range(1, 31):
            s = partners(gamma, i)
            assert len(s) == 7 and i not in s

    def test_uniform_binary_choice(self):
        # n=3, K=1: node 1 picks node 2 with probability exactly 1/2
        trials = 100_000
        r = rng(7)
        hits = 0
        for _ in range(trials):
            hits += 2 in partners(sample_gamma_matrix(3, 1, r), 1)
        sigma = math.sqrt(0.25 / trials)
        assert abs(hits / trials - 0.5) <= 3 * sigma

    def test_subset_uniformity_chi_square(self):
        # n=5, K=2: 6 possible partner sets for node 1, all equally likely
        trials = 30_000
        r = rng(11)
        counts = {frozenset(c): 0 for c in combinations((2, 3, 4, 5), 2)}
        for _ in range(trials):
            counts[frozenset(partners(sample_gamma_matrix(5, 2, r), 1))] += 1
        expected = trials / 6
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        # 5 dof; P(chi2 > 20.5) ~ 1e-3
        assert chi2 < 20.5

    def test_membership_rate(self):
        # P(i in Gamma_j) = K/(n-1)
        n, K, trials = 12, 4, 20_000
        r = rng(3)
        hits = sum(1 in partners(sample_gamma_matrix(n, K, r), 5)
                   for _ in range(trials))
        q = K / (n - 1)
        assert abs(hits / trials - q) <= 3 * math.sqrt(q * (1 - q) / trials)

    def test_deterministic_given_seed(self):
        assert np.array_equal(sample_gamma_matrix(20, 5, rng(99)),
                              sample_gamma_matrix(20, 5, rng(99)))

    @pytest.mark.parametrize("n,K", [(2, 1), (6, 2), (6, 5), (25, 4)])
    def test_matches_ranked_uniform_oracle(self, n, K):
        gamma = sample_gamma_matrix(n, K, rng(n + K))
        u = rng(n + K).random((n, n - 1))
        assert [set(row.tolist()) for row in gamma] == partner_sets(u, K)

    def test_batched_rows_match_single_draws(self):
        # the validation suite draws a (t, n) batch of pairings in one call
        for n, K in ((6, 2), (6, 5), (30, 2)):
            batch = draw_partners((3, n), K, rng(4))
            r = rng(4)
            for t in range(3):
                assert partner_list(batch[t]) == \
                    partner_list(sample_gamma_matrix(n, K, r))


def scripted_pairing(u, K):
    """Partner sets the sampler picks from the uniforms u, next to those of
    one argpartition of the whole array."""
    got = partner_list(sample_gamma_matrix(len(u), K, ScriptedRng(u)))
    return got, partner_list(partners_from_uniforms(u, K))


class TestThresholdSelection:
    """The sampler ranks only uniforms below a cut, keyed row + u so that one
    sort orders every row of a block, and falls back to an exact ranking
    where that cannot decide a block; either way it must pick what one
    whole-array argpartition picks."""

    def test_row_short_of_candidates(self):
        u = rng(1).random((20, 19))
        u[4] = 0.99 + 0.01 * u[4]  # no uniform of node 4 is small
        u[9, :-1] = 0.999  # node 9 has a single small uniform
        u[19, 1:] = 0.999  # so does the last node
        for K in (1, 2, 5):
            got, want = scripted_pairing(u, K)
            assert got == want

    def test_tie_at_kth_value(self):
        u = np.maximum(rng(2).random((20, 19)), 2.0 ** -9)
        u[3, 1] = 2.0 ** -12
        u[3, [4, 7]] = 2.0 ** -10  # the 2nd smallest value, twice
        got, want = scripted_pairing(u, 2)
        assert got == want
        # columns 1, 4 and 7 of node 3 are nodes 1, 5 and 8
        assert 1 in got[3] and len(got[3] & {5, 8}) == 1

    def test_off_grid_values(self):
        u = rng(3).random((20, 19))
        u[2, 5] = 0.3
        u[6] = np.linspace(0.05, 0.95, 19)[::-1]
        # two values finer than the grid, with one key: the smaller one counts
        u[8, :] = 0.5
        u[8, [3, 11]] = np.nextafter(0.1, 1.0), 0.1
        for K in (1, 3):
            got, want = scripted_pairing(u, K)
            assert got == want
        assert scripted_pairing(u, 1)[0][8] == {12}

    def test_row_just_below_cut_then_row_at_zero(self):
        # row 5's keys sit just below 5 + cut and row 6's at exactly 6.0, so
        # the rows meet in the one sort; each must still rank on its own
        n, K = 20, 2
        cut = (K + 4 * math.sqrt(K) + 4) / (n - 1)
        u = rng(4).random((n, n - 1))
        u[5] = 0.99
        u[5, [2, 7, 11]] = np.nextafter(cut, 0.0) - np.array([3, 1, 2]) * 2.0 ** -40
        u[6, [0, 4]] = 0.0
        want = partner_list(partners_from_uniforms(u, K))
        with mock.patch.object(np, "argpartition", side_effect=AssertionError):
            got = partner_list(sample_gamma_matrix(n, K, ScriptedRng(u)))
        assert got == want
        # columns 2 and 11 of node 5 are nodes 2 and 12
        assert got[5] == {2, 12} and got[6] == {0, 4}

    def test_threshold_path_decides_ordinary_blocks(self):
        # none of these draws needs the exact fallback
        with mock.patch.object(np, "argpartition", side_effect=AssertionError):
            sample_gamma_matrix(1000, 10, rng(1))
            draw_partners((300, 30), 2, rng(1))

    @pytest.mark.parametrize("n,K", [(600, 1), (600, 300), (1000, 30)])
    def test_many_blocks_match_argpartition(self, n, K):
        got = partner_list(sample_gamma_matrix(n, K, rng(n + K)))
        assert got == partner_list(
            partners_from_uniforms(rng(n + K).random((n, n - 1)), K))

    def test_validate_report_unchanged(self):
        # at n=30 one call draws 2222 pairings: 66,660 rows in many blocks;
        # digest of the report of the whole-array sampler
        report = mc.validate_bounds(30, 2, 0.5, samples=5000, seed=7)
        text = json.dumps(report.to_dict(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "9f05230db796db0edf45df65ed7b00490594ef6585818aac647e01ee9a65a3bb"


class TestKeyRings:
    def test_n2_mutual(self):
        gamma = np.array([[1], [0]])
        rings = key_rings(partner_list(gamma))
        assert rings[0] == rings[1] == {(0, 1), (1, 0)}
        # two shared keys, one link
        assert pair_set(*keyed_pairs(gamma)) == {(0, 1)}

    def test_cycle_example(self):
        gamma = np.array([[1], [2], [0]])
        rings = key_rings(partner_list(gamma))
        assert all(len(r) == 2 for r in rings)
        a, b = keyed_pairs(gamma)
        assert a.size == 3 and degrees(3, a, b).tolist() == [2, 2, 2]

    def test_ring_size_formula(self):
        gamma = sample_gamma_matrix(25, 4, rng(5))
        picks = partner_list(gamma)
        rings = key_rings(picks)
        deg = degrees(25, *keyed_pairs(gamma))
        for i in range(25):
            chosen_by = sum(i in picks[j] for j in range(25) if j != i)
            mutual = sum(i in picks[j] for j in picks[i])
            assert len(rings[i]) == 4 + chosen_by
            # a mutual partner holds two of i's keys but is one neighbour
            assert deg[i] == len(rings[i]) - mutual

    def test_pair_overlap_zero_one_two(self):
        gamma = sample_gamma_matrix(10, 3, rng(8))
        picks = partner_list(gamma)
        rings = key_rings(picks)
        doubles = 0
        for i in range(10):
            for j in range(i + 1, 10):
                overlap = len(rings[i] & rings[j])
                assert overlap in (0, 1, 2)
                mutual = j in picks[i] and i in picks[j]
                assert (overlap == 2) == mutual
                doubles += overlap == 2
        # keyed_pairs folds each doubly shared pair into one edge
        assert keyed_pairs(gamma)[0].size == 10 * 3 - doubles

    def test_overlap_matches_pairing_predicate(self):
        # ring intersection nonempty iff one side picked the other
        gamma = sample_gamma_matrix(15, 3, rng(21))
        rings = key_rings(partner_list(gamma))
        via_rings = {(i, j) for i in range(15) for j in range(i + 1, 15)
                     if rings[i] & rings[j]}
        assert pair_set(*keyed_pairs(gamma)) == via_rings


class TestKAdjacencyGraph:
    def test_hand_traced(self):
        # node 1 picks 2, node 2 picks 3, node 3 picks 2 (0-based below)
        a, b = keyed_pairs(np.array([[1], [2], [1]]))
        assert list(zip(a.tolist(), b.tolist())) == [(0, 1), (1, 2)]

    def test_sorted_unique_and_ordered(self):
        gamma = sample_gamma_matrix(40, 6, rng(1))
        a, b = keyed_pairs(gamma)
        codes = a * 40 + b
        assert np.all(a < b)
        assert np.all(np.diff(codes) > 0)

    def test_complete_when_k_max(self):
        a, _ = keyed_pairs(sample_gamma_matrix(6, 5, rng()))
        assert a.size == 15

    def test_graph_matches_membership_matrix(self):
        gamma = sample_gamma_matrix(12, 4, rng(13))
        m = np.zeros((12, 12), dtype=bool)
        m[np.arange(12)[:, None], gamma] = True
        iu, ju = np.nonzero(np.triu(m | m.T))
        assert pair_set(*keyed_pairs(gamma)) == pair_set(iu, ju)

    def test_edge_rate_matches_formula(self):
        # lambda_5(2) = 2*2/4 - (2/4)^2 = 0.75, via the pair-edge estimator
        est, se = estimate_edge_prob(n=5, K=2, p=1.0, trials=100_000, seed=17)
        assert abs(est - 0.75) <= 3 * math.sqrt(0.75 * 0.25 / 100_000)

    def test_degree_at_least_k_no_isolated(self):
        a, b = keyed_pairs(sample_gamma_matrix(40, 3, rng(2)))
        assert np.all(degrees(40, a, b) >= 3)

    def test_mean_degree(self):
        n, K, reps = 20, 3, 2000
        r = rng(31)
        degs = []
        for _ in range(reps):
            a, b = keyed_pairs(sample_gamma_matrix(n, K, r))
            degs.extend(degrees(n, a, b).tolist())
        expected = K + (n - K - 1) * K / (n - 1)
        degs = np.asarray(degs, dtype=float)
        stderr = degs.std() / math.sqrt(reps)  # nodes within a draw correlate
        assert abs(degs.mean() - expected) <= 3 * stderr


def test_pairing_table_text_format(tmp_path):
    # one line per node: its partners, 1-based and ascending
    dump_instance(3, 2, 0.5, 1, str(tmp_path / "full"))
    assert (tmp_path / "full" / "pairing.txt").read_text() == \
        "1: 2 3\n2: 1 3\n3: 1 2\n"
    dump_instance(8, 3, 0.5, 4, str(tmp_path / "part"))
    gamma = sample_gamma_matrix(8, 3, mc.rng_from_entropy((4, 201, 8, 3)))
    lines = (tmp_path / "part" / "pairing.txt").read_text().splitlines()
    assert lines == [f"{i + 1}: " + " ".join(str(j + 1) for j in sorted(row))
                     for i, row in enumerate(gamma.tolist())]
