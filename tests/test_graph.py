"""The trial kernel's graph layer on sorted edge arrays (a, b), a < b:
building the key-sharing graph, degrees, isolated nodes, components and
connectivity, and the intersection of the key-sharing graph with the
channel."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pairkey import montecarlo as mc
from pairkey.cli import _write_edges
from pairkey.montecarlo import components, degrees, keyed_pairs
from pairkey.scheme import sample_gamma_matrix
from pairkey.theory import match_rho

from oracles import (RecordingRng, ScriptedRng, component_labels,
                     intersection_edges, ordered_partners, pair_index,
                     toroidal_distance)


def arrays(edges):
    """Sorted edge arrays of 0-based pairs (i, j), i < j."""
    edges = sorted(edges)
    return (np.array([i for i, _ in edges], dtype=np.int64),
            np.array([j for _, j in edges], dtype=np.int64))


def all_pairs(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def complete(n):
    return arrays(all_pairs(n))


def path(n):
    return arrays([(i, i + 1) for i in range(n - 1)])


def trial_on(n, edges):
    """run_trial on a prescribed graph on n >= 2 nodes. With K = n-1 every
    pair is keyed, so the on/off draws alone choose the edges, one per pair
    in sorted order: 0 is up and 1 is down at p = 0.5. The pairing's
    Fisher-Yates draws are scripted as r_j = j, which swap nothing."""
    u = np.ones(n * (n - 1) // 2)
    if edges:
        u[pair_index(n, *arrays(edges))] = 0.0
    rng = ScriptedRng(np.tile(np.arange(n - 1), (n, 1)), u)
    with mock.patch.object(mc, "rng_from_entropy", lambda entropy: rng):
        return mc.run_trial(n, n - 1, 0.5, "on_off", 0)


def intersection(n, partner_draws, channel_u, K, p=0.5, channel="on_off"):
    """Edge pairs of the kernel's intersection graph on scripted draws: the
    pairing's integer draws, then the channel's uniforms."""
    a, b = mc._intersection_edges(n, K, p, channel,
                                  ScriptedRng(*partner_draws, channel_u))
    assert np.all(a < b)
    assert np.all(np.diff(a * n + b) > 0)
    return set(zip(a.tolist(), b.tolist()))


@st.composite
def small_graphs(draw, min_n=1):
    n = draw(st.integers(min_value=min_n, max_value=8))
    pairs = all_pairs(n)
    edges = sorted(set(draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))
                            if pairs else st.just([]))))
    return n, edges


# what components and degrees say of edge arrays they cannot take
EDGES = "1-D arrays of equal length"


class TestGraphConstruction:
    @given(st.integers(min_value=2, max_value=8),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100)
    def test_rejects_self_loop(self, n, seed):
        # no node ever picks itself, so no key-sharing edge is a loop
        r = np.random.default_rng(seed)
        for K in range(1, n):
            gamma = sample_gamma_matrix(n, K, r)
            assert not np.any(gamma == np.arange(n)[:, None])
            a, b = keyed_pairs(gamma)
            assert np.all(a < b)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            components(3, np.array([0]), np.array([3]))
        with pytest.raises(ValueError):
            components(3, np.array([-1]), np.array([1]))

    @pytest.mark.parametrize("n, a, b, message", [
        (5, np.array([0, 1, 2]), np.array([1, 2, 3, 4]), EDGES),
        (5, np.array([0, 1, 2, 3]), np.array([1, 2, 3]), EDGES),
        (5, np.array([[0, 1]]), np.array([[1, 2]]), EDGES),
        (5, np.array([0, 1]), np.array([[1, 2]]), EDGES),
        (5, np.array([0.0, 1.0]), np.array([1.0, 2.0]), EDGES),
        (5, np.array([0, 1]), np.array([1.0, 2.0]), EDGES),
        (-1, np.array([]), np.array([]), "n must be >= 0"),
        (2.5, np.array([0]), np.array([1]), "n must be an integer"),
        # the message names the type of what is not an array
        (3, [0], [1], EDGES + r".*got list and list$"),
    ], ids=["b-longer", "a-longer", "2-d", "1-d-and-2-d", "float-ids", "float-b",
            "negative-n", "float-n", "lists"])
    @pytest.mark.parametrize("fn", [components, degrees])
    def test_rejects_mismatched_edge_arrays(self, fn, n, a, b, message):
        with pytest.raises(ValueError, match=message):
            fn(n, a, b)

    @pytest.mark.parametrize("gamma, message", [
        (np.array([[5], [0]]), r"ids in \[0, 2\) other than i"),
        (np.array([[0], [0]]), r"ids in \[0, 2\) other than i"),
        (np.array([[1], [-1]]), r"ids in \[0, 2\) other than i"),
        (np.array([[1, 2], [2, 0], [1, 2]]), r"ids in \[0, 3\) other than i"),
        (np.array([[1.0], [0.0]]), "2-D integer array, got float64"),
        (np.array([[True], [False]]), "2-D integer array, got bool"),
        (np.array([1, 0]), r"2-D integer array, got int64 \(2,\)"),
        ([[1], [0]], "2-D integer array, got list$"),
    ], ids=["id-past-n", "self-loop", "negative-id", "self-in-last-row",
            "float", "bool", "1-d", "list"])
    def test_keyed_pairs_rejects_malformed_pairing(self, gamma, message):
        # only n rows of node ids, none the row's own, give edges with a < b < n
        with pytest.raises(ValueError, match=message):
            keyed_pairs(gamma)

    def test_edge_is_unordered_and_deduplicated(self):
        # 0 and 1 pick each other: two picks, one edge
        a, b = keyed_pairs(np.array([[1], [0]]))
        assert list(zip(a.tolist(), b.tolist())) == [(0, 1)]
        a, b = keyed_pairs(np.array([[2], [0], [0]]))
        assert list(zip(a.tolist(), b.tolist())) == [(0, 1), (0, 2)]

    def test_adjacency_agrees_with_edge_set(self):
        a, b = keyed_pairs(sample_gamma_matrix(25, 3, np.random.default_rng(4)))
        deg = degrees(25, a, b)
        assert deg.sum() == 2 * a.size
        edges = set(zip(a.tolist(), b.tolist()))
        for i in range(25):
            assert deg[i] == sum(i in e for e in edges)


class TestDegree:
    def test_complete_graph(self):
        assert degrees(4, *complete(4))[0] == 3
        a, b = keyed_pairs(sample_gamma_matrix(4, 3, np.random.default_rng()))
        assert degrees(4, a, b).tolist() == [3, 3, 3, 3]

    def test_empty_graph(self):
        assert degrees(4, *arrays([]))[1] == 0
        assert degrees(4, *arrays([])).tolist() == [0, 0, 0, 0]

    def test_path_midpoint(self):
        assert degrees(3, *path(3))[1] == 2

    def test_out_of_range_raises(self):
        assert degrees(4, *path(4)).shape == (4,)
        for edge in ((0, 4), (-1, 0)):
            with pytest.raises(ValueError):
                degrees(4, *arrays([edge]))


class TestIsolatedCount:
    def test_empty_graph(self):
        assert trial_on(5, []).isolated_count == 5

    def test_complete_graph(self):
        out = trial_on(5, all_pairs(5))
        assert out.isolated_count == 0 and out.edge_count == 10

    def test_partial(self):
        assert trial_on(4, [(0, 1)]).isolated_count == 2


class TestConnectivity:
    def test_single_node(self):
        assert components(1, *arrays([])) == 1

    def test_path_connected(self):
        assert trial_on(4, [(0, 1), (1, 2), (2, 3)]).connected is True

    def test_two_components(self):
        assert trial_on(4, [(0, 1), (2, 3)]).connected is False

    @given(small_graphs())
    @settings(max_examples=200)
    def test_dsu_agrees_with_bfs(self, graph):
        # labels in smallest-member order, as dump-instance writes them
        n, edges = graph
        count, labels = components(n, *arrays(edges), return_labels=True)
        expected = component_labels(n, edges)
        assert labels.tolist() == expected
        assert count == max(expected) + 1 == components(n, *arrays(edges))

    @given(small_graphs(min_n=2))
    @settings(max_examples=200)
    def test_connected_iff_one_component(self, graph):
        # run_trial skips the component search when a node is isolated
        n, edges = graph
        out = trial_on(n, edges)
        assert out.connected == (max(component_labels(n, edges)) == 0)
        assert out.edge_count == len(edges)

    @given(small_graphs(min_n=2))
    @settings(max_examples=200)
    def test_connected_implies_no_isolated(self, graph):
        n, edges = graph
        out = trial_on(n, edges)
        if out.connected:
            assert out.isolated_count == 0


class TestComponents:
    def test_empty(self):
        assert components(3, *arrays([])) == 3
        count, labels = components(3, *arrays([]), return_labels=True)
        assert count == 3 and labels.tolist() == component_labels(3, []) == [0, 1, 2]

    def test_complete(self):
        count, labels = components(3, *complete(3), return_labels=True)
        assert count == 1 and labels.tolist() == [0, 0, 0]

    def test_two_groups(self):
        assert components(5, *arrays([(0, 1), (1, 2), (3, 4)])) == 2

    @given(small_graphs(), st.randoms(use_true_random=False))
    @settings(max_examples=200)
    def test_unsorted_edges_agree_with_bfs(self, graph, random):
        # edges in any order, either end first: the CSR rows are built by
        # the first end, so this exercises the reordering
        n, edges = graph
        edges = [(j, i) if random.random() < 0.5 else (i, j) for i, j in edges]
        random.shuffle(edges)
        a = np.array([i for i, _ in edges], dtype=np.int64)
        b = np.array([j for _, j in edges], dtype=np.int64)
        count, labels = components(n, a, b, return_labels=True)
        expected = component_labels(n, edges)
        assert labels.tolist() == expected and count == max(expected) + 1

    @given(small_graphs())
    @settings(max_examples=100)
    def test_labels_constant_on_edges(self, graph):
        n, edges = graph
        count, labels = components(n, *arrays(edges), return_labels=True)
        for i, j in edges:
            assert labels[i] == labels[j]
        assert len(set(labels.tolist())) == count


# n=3, K=1, one draw per node among its candidates 0, 1: node 0 picks 1,
# node 1 picks 2, node 2 picks 1
HAND_PARTNER_DRAWS = [[[0], [1], [1]]]
HAND_KEYED = {(0, 1), (1, 2)}


class TestIntersect:
    def test_idempotent(self):
        # a channel with every pair up leaves the key-sharing graph as it is
        assert intersection(3, HAND_PARTNER_DRAWS, np.zeros(2), 1) == HAND_KEYED

    def test_with_empty(self):
        assert intersection(3, HAND_PARTNER_DRAWS, np.ones(2), 1) == set()

    def test_literal_example(self):
        # channel draws for the keyed pairs (0, 1), (1, 2): up at (1, 2)
        assert intersection(3, HAND_PARTNER_DRAWS, [0.9, 0.1], 1) == {(1, 2)}

    @given(st.data(), st.integers(min_value=2, max_value=8),
           st.sampled_from(["on_off", "disk"]),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100)
    def test_commutative_and_bounded(self, data, n, channel, seed):
        K = data.draw(st.integers(min_value=1, max_value=n - 1))
        r = RecordingRng(np.random.default_rng(seed))
        partners = ordered_partners(n, K, r)
        keyed = set(zip(*(x.tolist() for x in keyed_pairs(partners))))
        if channel == "on_off":
            channel_u = r.random(len(keyed))
            up = {pr for pr, x in zip(sorted(keyed), channel_u) if x < 0.3}
        else:
            channel_u = r.random((n, 2))
            rho = match_rho(0.3)
            up = {(i, j) for i, j in all_pairs(n)
                  if toroidal_distance(channel_u[i], channel_u[j]) < rho}
        got = intersection(n, r.draws[:-1], channel_u, K, 0.3, channel)
        assert got == keyed & up == up & keyed
        assert len(got) <= min(len(keyed), len(up))

    @pytest.mark.parametrize("n", [600, 1000, 4000])
    @pytest.mark.parametrize("k_of_n", [lambda n: 1, lambda n: n // 2,
                                        lambda n: n - 1, lambda n: 20],
                             ids=["1", "mid", "n-1", "20"])
    def test_blocked_draws_match_whole_array(self, n, k_of_n):
        # the kernel draws the pairing for all rows at once, column by column
        # on the permutation path; the reference draws it row by row in plain
        # Python, from the same stream, then the same channel draws and keeps
        # its links through a boolean mask, where the kernel takes them by
        # index; K = 20 at n = 4000 is the threshold_n4000 benchmark's cell
        K = k_of_n(n)
        for channel, seed in (("on_off", 1), ("disk_forced", 2)):
            for p in (0.3, 0.2):
                got = mc._intersection_edges(n, K, p, channel,
                                             np.random.default_rng(seed + n + K))
                want = intersection_edges(n, K, p, channel,
                                          np.random.default_rng(seed + n + K))
                for x, y in zip(got, want):
                    assert x.dtype == y.dtype and np.array_equal(x, y)


class TestMonotonicity:
    @given(small_graphs(min_n=2))
    @settings(max_examples=100)
    def test_adding_edge_never_hurts(self, graph):
        n, edges = graph
        missing = [pr for pr in all_pairs(n) if pr not in edges]
        if not missing:
            return
        before = trial_on(n, edges)
        after = trial_on(n, edges + [missing[0]])
        assert after.isolated_count <= before.isolated_count
        if before.connected:
            assert after.connected


def test_edge_list_round_trip(tmp_path):
    # 0 and 2 pick each other, 1 picks 4, 3 picks 1, 4 picks 1
    a, b = keyed_pairs(np.array([[2], [4], [0], [1], [1]]))
    p = tmp_path / "g.edges"
    _write_edges(p, a, b)
    assert p.read_text() == "1 3\n2 4\n2 5\n"
    back = np.loadtxt(p, dtype=np.int64, ndmin=2) - 1
    assert np.array_equal(back[:, 0], a) and np.array_equal(back[:, 1], b)
