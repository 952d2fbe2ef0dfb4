"""Brute-force oracles, independent of the library's formulas: exhaustive
enumeration over pairings (and channel states where feasible), among them the
exact probability that the on/off intersection graph is connected (by
enumeration for n <= 5, and in closed form at K=1 for any n), the key rings
of a pairing, and a pure-Python sampler of one trial's graph that draws the
same random numbers in the same order as the array kernel, and the array
kernel's whole-array form, which draws each trial's pairing and on/off links
in one piece, and the torus distance matrix summed over a stacked axis. Also
two stand-in generators that script or record the kernel's draws."""

import math
from collections import Counter, deque
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from pairkey.channels import match_rho
from pairkey.montecarlo import keyed_pairs, pair_index


def all_pairings(n, K):
    """Every possible pairing outcome, as tuples of frozensets (node i+1
    picks pairing[i]); all outcomes are equally likely."""
    per_node = [
        [frozenset(c) for c in combinations([j for j in range(1, n + 1) if j != i], K)]
        for i in range(1, n + 1)
    ]
    return list(product(*per_node))


def k_adjacent(pairing, i, j):
    return j in pairing[i - 1] or i in pairing[j - 1]


def exact_link_probability(n, K):
    """P(nodes 1 and 2 share a key), enumerating the two relevant sets."""
    choices = [frozenset(c)
               for c in combinations([j for j in range(2, n + 1)], K)]  # node 1
    choices2 = [frozenset(c)
                for c in combinations([j for j in range(1, n + 1) if j != 2], K)]
    hits = total = 0
    for g1 in choices:
        for g2 in choices2:
            total += 1
            hits += (2 in g1) or (1 in g2)
    return Fraction(hits, total)


def exact_isolation_probability(n, K, p):
    """P(node 1 isolated in the intersection graph), enumerating all
    pairings and integrating the channel analytically: given the pairing,
    node 1 is isolated iff all its key-graph edges have the channel down."""
    pairings = all_pairings(n, K)
    total = Fraction(0)
    q = Fraction(1) - Fraction(p)
    for pairing in pairings:
        deg1 = sum(k_adjacent(pairing, 1, j) for j in range(2, n + 1))
        total += q ** deg1
    return total / len(pairings)


def exact_isolation_probability_full_enumeration(n, K, p):
    """Same probability, but also enumerating every on/off channel state.
    Only feasible for tiny n; cross-checks the analytic channel integration."""
    pairings = all_pairings(n, K)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    pf = Fraction(p)
    total = Fraction(0)
    for pairing in pairings:
        for states in product((0, 1), repeat=len(pairs)):
            w = Fraction(1, len(pairings))
            for b in states:
                w *= pf if b else (1 - pf)
            up = {pr for pr, b in zip(pairs, states) if b}
            isolated = not any(
                k_adjacent(pairing, 1, j) and ((1, j) in up)
                for j in range(2, n + 1)
            )
            if isolated:
                total += w
    return total


def key_rings(partners):
    """Key ring of each node, 0-based: node i generates key (i, j) for every
    partner j it picked and also holds every key (j, i) made by a node j
    that picked it."""
    rings = [set() for _ in partners]
    for i, picked in enumerate(partners):
        for j in picked:
            rings[i].add((i, j))
            rings[j].add((i, j))
    return rings


def toroidal_distance(a, b):
    """Euclidean distance on the unit torus (per-axis wrap); at most sqrt(2)/2."""
    dx, dy = (min(abs(x - y), 1.0 - abs(x - y)) for x, y in zip(a, b))
    return math.hypot(dx, dy)


def stacked_toroidal_distance_matrix(points):
    """All-pairs torus distances through one (n, n, 2) array of wrapped
    differences, summed over its last axis: the form the library's per-pair
    distances must equal bitwise."""
    d = np.abs(points[:, None, :] - points[None, :, :])
    d = np.minimum(d, 1.0 - d)
    return np.sqrt((d * d).sum(axis=2))


def partner_sets(u, K):
    """0-based partner sets from an (n, n-1) array of uniforms: node i ranks
    candidate c (node c if c < i, else c + 1) by u[i][c] and keeps the K
    smallest."""
    n = len(u)
    out = []
    for i in range(n):
        row = [float(x) for x in u[i]]
        ranked = sorted(range(n - 1), key=row.__getitem__)[:K]
        out.append({c if c < i else c + 1 for c in ranked})
    return out


def sample_instance(n, K, p, channel, rng):
    """One trial's graphs, 0-based: (partner sets, keyed pairs, channel pairs,
    intersection pairs), each pair (i, j) with i < j. Draws n rows of n-1
    partner uniforms, then one uniform per pair in row-major order (on/off)
    or n positions (disk, rho = sqrt(p / pi))."""
    partners = partner_sets(rng.random((n, n - 1)), K)
    keyed = {(min(i, j), max(i, j)) for i in range(n) for j in partners[i]}
    pairs = list(combinations(range(n), 2))
    if channel == "on_off":
        up = {pr for pr, x in zip(pairs, rng.random(len(pairs)).tolist()) if x < p}
    else:
        rho = math.sqrt(p / math.pi)
        pts = rng.random((n, 2)).tolist()
        up = {(i, j) for i, j in pairs if toroidal_distance(pts[i], pts[j]) < rho}
    return partners, keyed, up, keyed & up


def component_labels(n, edges):
    """Breadth-first component labels of nodes 0..n-1, numbered in order of
    smallest member."""
    adj = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    labels = [-1] * n
    count = 0
    for s in range(n):
        if labels[s] >= 0:
            continue
        labels[s] = count
        queue = deque([s])
        while queue:
            for w in adj[queue.popleft()]:
                if labels[w] < 0:
                    labels[w] = count
                    queue.append(w)
        count += 1
    return labels


def exact_connected_probability(n, K, p):
    """P(the on/off intersection graph is connected), exactly, for n <= 5.

    Every pairing is enumerated and the pairings are grouped by key graph
    (253 distinct graphs at n=5, K=2). Given its key graph G, the trial is
    connected iff the up links of G span all n nodes, so the chance is G's
    all-terminal reliability: the sum of p^|S| (1-p)^(|G|-|S|) over the
    spanning edge subsets S of G. Edge sets are bitmasks over the C(n,2) pairs.
    """
    pairs = list(combinations(range(n), 2))
    spanning = [s for s in range(1 << len(pairs))
                if max(component_labels(n, [pr for k, pr in enumerate(pairs)
                                            if s >> k & 1])) == 0]
    bit = {pr: 1 << k for k, pr in enumerate(pairs)}
    graphs = Counter()
    for pairing in all_pairings(n, K):
        g = 0
        for i, picked in enumerate(pairing):
            for j in picked:
                g |= bit[min(i, j - 1), max(i, j - 1)]
        graphs[g] += 1
    total = sum(graphs.values())
    prob = 0.0
    for g, count in graphs.items():
        m = g.bit_count()
        reliability = sum(p ** s.bit_count() * (1 - p) ** (m - s.bit_count())
                          for s in spanning if s & g == s)
        prob += count / total * reliability
    return prob


def k1_connected_probability(n, p):
    """P(the on/off intersection graph is connected) at K=1, exactly, for any n.

    Each node picks one partner, so the pairing is a map with no fixed point,
    and its key graph is connected iff the map has one cycle. Of the (n-1)^n
    pairings, N_k = n!/(n-k)! n^(n-k-1) have one cycle of length k (the k
    cycle nodes in cyclic order, then a forest rooted at them). A 2-cycle
    keys one pair for two picks: a tree of n-1 edges, connected iff all are
    up. A longer cycle gives n edges, connected iff every tree edge and all
    but at most one of the k cycle edges are up. Counts are taken in log space.
    """
    total = 0.0
    for k in range(2, n + 1):
        log_share = (math.lgamma(n + 1) - math.lgamma(n - k + 1)
                     + (n - k - 1) * math.log(n) - n * math.log(n - 1))
        up = p ** (n - 1) * (1.0 if k == 2 else p + k * (1 - p))
        total += math.exp(log_share) * up
    return total


def trial(n, K, p, channel, rng):
    """(connected, isolated_count, edge_count) of one sampled trial."""
    edges = sample_instance(n, K, p, channel, rng)[3]
    touched = {v for e in edges for v in e}
    return max(component_labels(n, edges)) == 0, n - len(touched), len(edges)


def partners_from_uniforms(u, K):
    """Partner ids of shape (..., n, K) from uniforms of shape (..., n, n-1)
    by one argpartition of the whole array: node i keeps the candidates of
    its K smallest uniforms, candidate c being node c if c < i else c + 1."""
    n = u.shape[-2]
    if K == n - 1:
        cand = np.broadcast_to(np.arange(n - 1), u.shape)
    else:
        cand = np.argpartition(u, K, axis=-1)[..., :K]
    return cand + (cand >= np.arange(n)[:, None])


def intersection_edges(n, K, p, channel, rng):
    """The kernel's intersection graph as sorted edge arrays (a, b), drawn
    whole: one (n, n-1) array of pairing uniforms, then all C(n,2) on/off
    uniforms at once (or n positions for disk, read off the stacked
    all-pairs distance matrix)."""
    a, b = keyed_pairs(partners_from_uniforms(rng.random((n, n - 1)), K))
    if channel == "on_off":
        up = (rng.random(n * (n - 1) // 2) < p)[pair_index(n, a, b)]
    else:
        rho = match_rho(p, channel)
        up = stacked_toroidal_distance_matrix(rng.random((n, 2)))[a, b] < rho
    return a[up], b[up]


class ScriptedRng:
    """Stands in for a numpy Generator: the draws given are joined into one
    flat script, and each random(shape) call returns its next values in the
    requested shape. So a script serves any split of the same draws into
    requests, whatever block size the kernel uses."""

    def __init__(self, *draws):
        self.script = np.concatenate([np.ravel(np.asarray(d, dtype=float))
                                      for d in draws])
        self.used = 0

    def random(self, shape):
        size = int(np.prod(shape))
        out = self.script[self.used:self.used + size]
        assert out.size == size, "script exhausted"
        self.used += size
        return out.reshape(shape)


class RecordingRng:
    """Wraps a numpy Generator and keeps every array random() returns."""

    def __init__(self, rng):
        self.rng = rng
        self.draws = []

    def random(self, shape):
        self.draws.append(self.rng.random(shape))
        return self.draws[-1]
