import hashlib
import json
import math
from collections import Counter
from itertools import combinations, permutations
from unittest import mock

import numpy as np
import pytest
from scipy.special import chdtrc

from pairkey import montecarlo as mc
from pairkey import scheme
from pairkey.cli import dump_instance
from pairkey.montecarlo import degrees, estimate_edge_prob, keyed_pairs
from pairkey.scheme import sample_gamma_matrix, uniform_rows

import oracles
from oracles import (RecordingRng, ScriptedRng, key_rings, ordered_partners,
                     partner_sets, partners_from_uniforms)
from test_montecarlo import peak_mb


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


def pick_matrices(t, n, K, rng):
    """The bound suite's pick matrices (t, n, n) of t pairings of n nodes."""
    return mc._pick_matrices(mc._pick_candidates(t, n, K, rng))


def pick_list(picked):
    """0-based partner sets, one per row of a pick matrix."""
    return [set(np.flatnonzero(row).tolist()) for row in picked]


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
        # the bound suite's pairings rank the candidates by uniforms
        picked = pick_matrices(1, n, K, rng(n + K))[0]
        u = rng(n + K).random((n, n - 1))
        assert pick_list(picked) == partner_sets(u, K)

    @pytest.mark.parametrize("n,K", [(2, 1), (3, 1), (6, 2), (6, 3), (6, 5),
                                     (25, 4), (25, 12), (25, 13), (200, 25)])
    def test_matches_draw_order_oracle(self, n, K):
        # rows in draw order, on both paths (2K <= n-1 and 2K > n-1)
        assert sample_gamma_matrix(n, K, rng(n + K)).tolist() == \
            ordered_partners(n, K, rng(n + K)).tolist()

    @pytest.mark.parametrize("n,K", [(6, 2), (30, 4), (40, 19)])
    def test_top_ups_match_oracle(self, monkeypatch, n, K):
        # with no margin and a top-up of one draw, most rows come up short,
        # some several times over
        monkeypatch.setattr(scheme, "draw_widths", lambda m, K: (K, 1))
        calls = []
        for seed in range(20):
            r = RecordingRng(rng(seed))
            got = sample_gamma_matrix(n, K, r)
            assert got.tolist() == ordered_partners(n, K, rng(seed)).tolist()
            calls.append(len(r.draws))
        assert max(calls) > 2

    def test_draw_widths(self):
        # K=1 never repeats. At m=5, K=2 the repeats before the 2nd distinct
        # value have mean 1/4 and variance 5/16: a margin of
        # ceil(1/4 + 3 sqrt(5/16)) = ceil(1.93) = 2
        assert scheme.draw_widths(199, 1) == (1, 0)
        assert scheme.draw_widths(5, 2) == (4, 2)

    def test_batched_rows_match_single_draws(self):
        # the validation suite draws a batch of t pairings in one call
        for n, K in ((6, 2), (6, 5), (30, 2)):
            batch = pick_matrices(3, n, K, rng(4))
            r = rng(4)
            for t in range(3):
                assert pick_list(batch[t]) == \
                    pick_list(pick_matrices(1, n, K, r)[0])


# every sampler regime: 2K <= n-1 (integer draws), 2K > n-1 (permutation
# prefixes), K = n-1
REGIMES = [(2, 1), (3, 1), (3, 2), (5, 1), (5, 2), (5, 3), (5, 4), (12, 1),
           (12, 3), (12, 5), (12, 6), (12, 11), (200, 1), (200, 12), (200, 99),
           (200, 100), (200, 199), (4000, 1), (4000, 20), (4000, 1999),
           (4000, 2000)]


def assert_same_pairing(n, K, seed, r=None):
    """sample_gamma_matrix against the per-row repeat scan, whose stages are
    int64: ids in the sampler's dtype (scheme._id_dtype), equal values, and
    the same next draw from the generator."""
    r = r or rng(seed)
    want_rng = rng(seed)
    got = sample_gamma_matrix(n, K, r)
    want = oracles.row_scan_gamma_matrix(n, K, want_rng)
    assert got.dtype == scheme._id_dtype(n) and want.dtype == np.int64
    assert np.array_equal(got, want)
    assert np.array_equal(r.random(4), want_rng.random(4))


class TestRepeatScan:
    """The sampler finds its repeat rows by one flat compare over the
    row-sorted first K columns; it must pick the rows the per-row compare
    picks."""

    @pytest.mark.parametrize("n,K", REGIMES)
    def test_matches_row_scan(self, n, K):
        for seed in range(3):
            assert_same_pairing(n, K, 10 * n + K + seed)

    # apart from REGIMES: the keyed-pairs oracle on its 16M picks is slow
    def test_complete_at_n_4000(self):
        assert_same_pairing(4000, 3999, 1)

    @pytest.mark.parametrize("n,K", [(12, 5), (200, 12), (200, 99), (1000, 20)])
    def test_repeats_without_top_ups(self, n, K):
        # rows that repeat a value within their first K draws, all filled
        # from the first batch: one integer draw, then the next-draw check
        seen = False
        for seed in range(10):
            r = RecordingRng(rng(seed))
            assert_same_pairing(n, K, seed, r)
            first = np.sort(r.draws[0][:, :K], axis=1)
            seen |= len(r.draws) == 2 and (first[:, 1:] == first[:, :-1]).any()
        assert seen

    @pytest.mark.parametrize("n,K", [(5, 2), (12, 3), (12, 5), (200, 12), (200, 99)])
    def test_repeats_with_top_ups(self, monkeypatch, n, K):
        # no margin and a top-up of one draw: rows come up short, some
        # several times over
        monkeypatch.setattr(scheme, "draw_widths", lambda m, K: (K, 1))
        top_ups = []
        for seed in range(10):
            r = RecordingRng(rng(seed))
            assert_same_pairing(n, K, seed, r)
            top_ups.append(len(r.draws) - 2)
        assert max(top_ups) > 1


class TestNarrowDraws:
    """The sampler draws its ids as int32. That keeps the stream only because
    numpy draws a range that fits in 32 bits by the same buffered 32-bit
    method at either width: if a numpy release breaks this, these tests say
    so, where the stream pins would only see other values."""

    @pytest.mark.parametrize("m", [1, 2, 199, 3999, 46339, 99999, 2**31 - 1])
    def test_scalar_high_same_values_and_next_draw(self, m):
        wide, narrow = rng(m), rng(m)
        x = wide.integers(0, m, size=(300, 7))
        y = narrow.integers(0, m, size=(300, 7), dtype=np.int32)
        assert x.dtype == np.int64 and y.dtype == np.int32
        assert np.array_equal(x, y)
        assert wide.random() == narrow.random()

    @pytest.mark.parametrize("n,K", [(3, 2), (12, 11), (200, 150), (4000, 2000)])
    def test_array_low_same_values_and_next_draw(self, n, K):
        # the form _permutation_prefix draws its swaps in
        m = n - 1
        wide, narrow = rng(n + K), rng(n + K)
        x = wide.integers(np.arange(K), m, size=(50, K))
        y = narrow.integers(np.arange(K), m, size=(50, K), dtype=np.int32)
        assert y.dtype == np.int32 and np.array_equal(x, y)
        assert wide.random() == narrow.random()

    # tracemalloc peaks of one call, in MiB: (20000, 30) read 15.3 with int64
    # ids, 12.1 with int32 ids widened on return and 8.2 returned as int32;
    # the dense (1000, 600), whose n * m permutation table dominates, read
    # 16.8 with int64 ids and 8.4 with int32
    @pytest.mark.parametrize("n,K,bound", [(20000, 30, 10.5), (1000, 600, 12.0)])
    def test_peak_memory(self, n, K, bound):
        assert peak_mb(lambda: sample_gamma_matrix(n, K, rng(1))) < bound


class TestPairCodes:
    @pytest.mark.parametrize("n,K", REGIMES)
    def test_keyed_pairs_match_int64_oracle(self, n, K):
        gamma = sample_gamma_matrix(n, K, rng(n + K))
        got, want = keyed_pairs(gamma), oracles.keyed_pairs(gamma)
        for x, y in zip(got, want):
            assert x.dtype == y.dtype == np.int64
            assert np.array_equal(x, y)
        # an int64 pairing, as a caller may build, gives the same int64 arrays
        for x, y in zip(keyed_pairs(gamma.astype(np.int64)), want):
            assert x.dtype == np.int64 and np.array_equal(x, y)

    @pytest.mark.parametrize("n,dtype", [(4000, np.int32), (46340, np.int32),
                                         (46341, np.int64)])
    def test_narrowest_dtype_that_holds_n_squared(self, n, dtype):
        gamma = sample_gamma_matrix(n, 1, rng(n))
        code = mc._pair_codes(gamma)
        assert code.dtype == dtype
        a, b = oracles.keyed_pairs(gamma)
        assert np.array_equal(code, a * n + b)

    def test_leaves_the_pairing_unchanged(self):
        gamma = sample_gamma_matrix(30, 4, rng(3))
        before = gamma.copy()
        mc._pair_codes(gamma)
        assert np.array_equal(gamma, before)


def ordered_sequences(n, K, calls, seed):
    """Counts of the ordered K-sequences of candidates that the rows of
    `calls` pairings of n nodes draw, candidate c of node i being node c if
    c < i else c + 1, so every row draws from 0..n-2."""
    r = rng(seed)
    counts = Counter()
    for _ in range(calls):
        gamma = sample_gamma_matrix(n, K, r)
        cand = gamma - (gamma > np.arange(n)[:, None])
        counts.update(map(tuple, cand.tolist()))
    return counts


class TestOrderedUniformity:
    """Every ordered K-sequence of the n-1 candidates is equally likely,
    on both paths of sample_gamma_matrix: distinct draws with top-ups
    (2K <= n-1) and permutation prefixes (2K > n-1, among them K = n-1)."""

    @pytest.mark.parametrize("n,K", [(3, 1), (4, 1), (5, 2), (6, 2), (4, 2),
                                     (5, 3), (6, 3), (4, 3), (6, 5)])
    def test_chi_square(self, n, K):
        cells = math.perm(n - 1, K)
        calls = 60 * cells // n + 1
        counts = ordered_sequences(n, K, calls, seed=100 * n + K)
        assert set(counts) <= set(permutations(range(n - 1), K))
        expected = calls * n / cells
        chi2 = sum((counts[seq] - expected) ** 2 / expected
                   for seq in permutations(range(n - 1), K))
        assert chdtrc(cells - 1, chi2) > 1e-3


def scripted_pairing(u, K):
    """Partner sets the bound suite's sampler picks from the uniforms u,
    next to those of one argpartition of the whole array; every node must
    pick exactly K."""
    picked = pick_matrices(1, len(u), K, ScriptedRng(u))[0]
    assert (picked.sum(axis=1) == K).all()
    return pick_list(picked), partner_list(partners_from_uniforms(u, K))


class TestThresholdSelection:
    """The bound suite's sampler, _pick_candidates, ranks each block of
    uniforms by argpartition; on scripted ties, short rows and off-grid
    values its pick matrices must hold exactly K picks per node, those of
    one whole-array argpartition, and on seeded draws what the pure-Python
    ranking picks. The trial's sampler ranks no uniforms."""

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

    def test_every_candidate_at_k_n_minus_1(self):
        u = rng(5).random((20, 19))
        u[3, [2, 9]] = u[3].max()  # ties at the largest value
        u[7] = 0.5  # a row of one value
        got, want = scripted_pairing(u, 19)
        assert got == want == [set(range(20)) - {i} for i in range(20)]

    def test_off_grid_values(self):
        u = rng(3).random((20, 19))
        u[2, 5] = 0.3
        u[6] = np.linspace(0.05, 0.95, 19)[::-1]
        # two values finer than the grid, one above the other: the smaller counts
        u[8, :] = 0.5
        u[8, [3, 11]] = np.nextafter(0.1, 1.0), 0.1
        for K in (1, 3):
            got, want = scripted_pairing(u, K)
            assert got == want
        assert scripted_pairing(u, 1)[0][8] == {12}

    def test_row_just_below_cut_then_row_at_zero(self):
        # row 5's three smallest uniforms lie within 2^-39 of one another,
        # and row 6 has two at exactly 0.0; each row must rank on its own
        n, K = 20, 2
        v = (K + 4 * math.sqrt(K) + 4) / (n - 1)
        u = rng(4).random((n, n - 1))
        u[5] = 0.99
        u[5, [2, 7, 11]] = np.nextafter(v, 0.0) - np.array([3, 1, 2]) * 2.0 ** -40
        u[6, [0, 4]] = 0.0
        got, want = scripted_pairing(u, K)
        assert got == want
        # columns 2 and 11 of node 5 are nodes 2 and 12
        assert got[5] == {2, 12} and got[6] == {0, 4}

    def test_threshold_path_decides_ordinary_blocks(self):
        with mock.patch.object(np, "argpartition", side_effect=AssertionError):
            sample_gamma_matrix(1000, 10, rng(1))
            sample_gamma_matrix(300, 200, rng(1))
        batch = pick_matrices(300, 30, 2, rng(1))
        u = rng(1).random((300, 30, 29))
        assert [pick_list(g) for g in batch] == [partner_sets(x, 2) for x in u]

    @pytest.mark.parametrize("n,K", [(600, 1), (600, 300), (1000, 30)])
    def test_many_blocks_match_argpartition(self, n, K):
        got = pick_list(pick_matrices(1, n, K, rng(n + K))[0])
        assert got == partner_list(
            partners_from_uniforms(rng(n + K).random((n, n - 1)), K))

    def test_validate_report_unchanged(self):
        # at n=30 one call draws 2222 pairings: 66,660 rows in many blocks;
        # digest of the report of the whole-array sampler
        report = mc.validate_bounds(30, 2, 0.5, samples=5000, seed=7)
        text = json.dumps(report.to_dict(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "9f05230db796db0edf45df65ed7b00490594ef6585818aac647e01ee9a65a3bb"


def blocked_outputs():
    """Every output that reads uniform_rows: the edge estimate and the bound
    report."""
    return [estimate_edge_prob(40, 3, 0.3, 3000, 8),
            mc.validate_bounds(6, 2, 0.4, 3000, 8).to_dict()]


class TestUniformRows:
    @pytest.mark.parametrize("rows,width", [(10, 3), (1, 1), (7, 100), (0, 4)])
    def test_blocks_are_rows_of_one_draw(self, monkeypatch, rows, width):
        monkeypatch.setattr(scheme, "_BLOCK", 12)
        blocks = list(uniform_rows(rng(3), rows, width))
        step = max(1, 12 // width)
        assert [s for s, _ in blocks] == list(range(0, rows, step))
        assert all(len(u) <= step for _, u in blocks)
        whole = rng(3).random((rows, width))
        assert np.array_equal(np.concatenate([u for _, u in blocks] or [whole]), whole)

    @pytest.mark.parametrize("block", [7, 64])
    def test_outputs_do_not_depend_on_block_size(self, monkeypatch, block):
        want = blocked_outputs()
        monkeypatch.setattr(scheme, "_BLOCK", block)
        assert blocked_outputs() == want


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
