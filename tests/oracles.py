"""Brute-force oracles, independent of the library's formulas: exhaustive
enumeration over pairings (and channel states where feasible), among them the
exact probability that the on/off intersection graph is connected (by
enumeration for n <= 5, and in closed form at K=1 for any n), the key rings
of a pairing, and pure-Python samplers that draw the same random numbers in
the same order as the library: the pairing, row by row, one trial's outcome,
and the dump instance; the kernel's intersection graph from that pairing,
with the disk distances read off the all-pairs matrix; the torus distance
matrix summed over a stacked axis; and the bound suite's per-sample column
form, which sums float columns where the library adds integer tallies.

The earlier kernel ranked each node's candidates by n-1 i.i.d. uniforms and
drew all C(n,2) on/off uniforms; its whole-array form is kept as the
ranked-uniform sampler (partner_sets, partners_from_uniforms,
ranked_intersection_edges), which the bound suite's pairings still use and
against which the kernel's distribution is tested; its all-pairs on/off draw
is read at pair_index, a pair's row-major upper-triangle position. The
kernel's earlier int64 stages are kept too: keyed_pairs, one sort of int64
pair codes and a full divmod, and the pairing with its per-row repeat scan
(row_scan_gamma_matrix). Also two stand-in generators that script or record
the kernel's draws."""

import math
from collections import Counter, deque
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from pairkey import scheme, theory
from pairkey.montecarlo import (TAIL_T, BoundCheck, ValidationReport, _check,
                                _binomial_stderr, _rate_check, rng_from_entropy)
from pairkey.theory import match_rho


def keyed_pairs(gamma):
    """Key-sharing graph of a pairing as int64 edge arrays (a, b), a < b,
    sorted by (a, b): one sort of the int64 codes min * n + max of all nK
    picks, a compare that keeps each code's first copy, and a divmod of all
    the kept codes."""
    n, K = gamma.shape
    i = np.repeat(np.arange(n), K)
    j = gamma.ravel()
    code = np.sort(np.minimum(i, j) * n + np.maximum(i, j))
    code = code[np.concatenate(([True], code[1:] != code[:-1]))]
    return np.divmod(code, n)


def row_scan_gamma_matrix(n, K, rng):
    """scheme.sample_gamma_matrix with its draws in int64 and its repeat
    rows found per row: the (n, K-1) compare of each sorted row's neighbours
    and any() along it. Its pieces (draw_widths, _distinct_prefix,
    _permutation_prefix) are looked up at call time."""
    m = n - 1
    if 2 * K > m:
        cand = scheme._permutation_prefix(n, m, K, rng).astype(np.int64)
    else:
        width, extra = scheme.draw_widths(m, K)
        x = rng.integers(0, m, size=(n, width))
        cand = x[:, :K].copy()
        s = np.sort(cand, axis=1)
        repeat = (s[:, 1:] == s[:, :-1]).any(axis=1)
        cand[repeat] = scheme._distinct_prefix(x[repeat], K, m, extra, rng)
    cand += cand >= np.arange(n)[:, None]
    return cand


def pair_index(n, a, b):
    """Position of pair (a, b), a < b, in row-major upper-triangle order,
    (0, 1), (0, 2), ..., (n-2, n-1): the order of an all-pairs on/off draw."""
    return a * (2 * n - a - 1) // 2 + b - a - 1


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


def exact_pair_isolation_probability(n, K, p):
    """P(nodes 1 and 2 both isolated in the intersection graph), enumerating
    all pairings: given the pairing, both are isolated iff each of the m
    distinct keyed pairs that touch node 1 or node 2 has its channel down."""
    pairings = all_pairings(n, K)
    q = Fraction(1) - Fraction(p)
    total = Fraction(0)
    for pairing in pairings:
        m = sum(k_adjacent(pairing, i, j) for i in (1, 2) for j in range(i + 1, n + 1))
        total += q ** m
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


def ordered_partners(n, K, rng):
    """0-based partners of each node in draw order, as an (n, K) array,
    drawn as sample_gamma_matrix draws them but one row at a time in plain
    Python. With m = n-1 candidates and 2K <= m, a row takes the first K
    distinct values of its draws in [0, m): one (n, width) integer draw,
    then, while some rows have fewer than K, `extra` more draws for each of
    them in row order (scheme.draw_widths, looked up at call time). With
    2K > m, a row is the first K entries of a Fisher-Yates shuffle of
    0..m-1 whose step j swaps entries j and r_j, r_j drawn from [j, m).
    Candidate c of node i is node c if c < i else c + 1."""
    m = n - 1
    out = np.empty((n, K), dtype=np.int64)
    if 2 * K > m:
        for i, swaps in enumerate(rng.integers(np.arange(K), m, size=(n, K))):
            perm = list(range(m))
            for j, r in enumerate(swaps.tolist()):
                perm[j], perm[r] = perm[r], perm[j]
            out[i] = perm[:K]
    else:
        width, extra = scheme.draw_widths(m, K)
        draws = rng.integers(0, m, size=(n, width)).tolist()
        while short := [i for i, d in enumerate(draws) if len(set(d)) < K]:
            more = rng.integers(0, m, size=(len(short), extra)).tolist()
            for i, row in zip(short, more):
                draws[i] += row
        for i, d in enumerate(draws):
            out[i] = list(dict.fromkeys(d))[:K]
    return out + (out >= np.arange(n)[:, None])


def dump_instance(n, K, p, rng):
    """The on/off instance dump-instance writes, 0-based: (partner sets,
    keyed pairs, channel pairs, intersection pairs), each pair (i, j) with
    i < j. Draws the pairing (ordered_partners), then one uniform per pair,
    keyed or not, in row-major order."""
    partners = [set(row) for row in ordered_partners(n, K, rng).tolist()]
    keyed = {(min(i, j), max(i, j)) for i in range(n) for j in partners[i]}
    pairs = list(combinations(range(n), 2))
    up = {pr for pr, x in zip(pairs, rng.random(len(pairs)).tolist()) if x < p}
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
    """(connected, isolated_count, edge_count) of one sampled trial, 0-based.
    Draws the pairing (ordered_partners), then one uniform per keyed pair in
    sorted order (on/off) or n positions (disk, rho = sqrt(p / pi))."""
    partners = ordered_partners(n, K, rng).tolist()
    keyed = sorted({(min(i, j), max(i, j)) for i in range(n) for j in partners[i]})
    if channel == "on_off":
        edges = [pr for pr, x in zip(keyed, rng.random(len(keyed)).tolist()) if x < p]
    else:
        rho = math.sqrt(p / math.pi)
        pts = rng.random((n, 2)).tolist()
        edges = [(i, j) for i, j in keyed if toroidal_distance(pts[i], pts[j]) < rho]
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
    """The kernel's intersection graph as sorted edge arrays (a, b), from
    the row-by-row pairing (ordered_partners), then one on/off uniform per
    keyed pair (or n positions for disk, read off the stacked all-pairs
    distance matrix)."""
    a, b = keyed_pairs(ordered_partners(n, K, rng))
    if channel == "on_off":
        up = rng.random(a.size) < p
    else:
        rho = match_rho(p, channel)
        up = stacked_toroidal_distance_matrix(rng.random((n, 2)))[a, b] < rho
    return a[up], b[up]


def ranked_intersection_edges(n, K, p, channel, rng):
    """The earlier kernel's intersection graph as sorted edge arrays
    (a, b), drawn whole: one (n, n-1) array of uniforms ranking each node's
    candidates, then all C(n,2) on/off uniforms at once (or n positions for
    disk, read off the stacked all-pairs distance matrix)."""
    a, b = keyed_pairs(partners_from_uniforms(rng.random((n, n - 1)), K))
    if channel == "on_off":
        up = (rng.random(n * (n - 1) // 2) < p)[pair_index(n, a, b)]
    else:
        rho = match_rho(p, channel)
        up = stacked_toroidal_distance_matrix(rng.random((n, 2)))[a, b] < rho
    return a[up], b[up]


def validate_columns(n, K, p, samples, seed):
    """validate_bounds as per-sample columns: each chunk's whole dense
    (t, n, n) batch at once, eight int64 columns per sample, and float sums
    of (1-p)^(X+Y) and its square, X and Y the picks 2->0 and 2->1. Draws
    the library's stream (a chunk's pairings, then its channel uniforms),
    so every check is the library's, up to the rounding of those float sums
    at a p that is not dyadic."""
    rng = rng_from_entropy((seed, 102, n, K))
    r, q1, T = 2, 1.0 - p, samples
    s_edge = s_pair = s_chi1 = s_chi12 = s_tail = s_x = s_y = s_xy = 0
    s_b = s_b2 = s_e = s_e2 = 0.0
    chunk = max(1000, min(samples, int(2e6 / (n * n))))
    e_mean = theory.estar_mean(n, r, K)
    tail_cut = (1.0 - TAIL_T) * e_mean
    for done in range(0, samples, chunk):
        t = min(chunk, samples - done)
        gamma0 = partners_from_uniforms(rng.random((t, n, n - 1)), K)
        picked = np.zeros((t, n, n), dtype=bool)
        picked[np.arange(t)[:, None, None], np.arange(n)[None, :, None], gamma0] = True
        keyed = picked | picked.transpose(0, 2, 1)
        chan = np.zeros((t, n, n), dtype=bool)
        iu, ju = np.triu_indices(n, k=1)
        chan[:, iu, ju] = rng.random((t, n * (n - 1) // 2)) < p
        chan |= chan.transpose(0, 2, 1)
        adj = keyed & chan
        edge, pair0, pair1, chi1, chi2, e_count, x, y = np.array([
            adj[:, 0, 1], picked[:, 2, 0], picked[:, 2, 1],
            ~adj[:, 0, :].any(axis=1), ~adj[:, 1, :].any(axis=1),
            picked[:, r:, :r].sum(axis=(1, 2)), keyed[:, 0, 1], keyed[:, 0, 2]],
            dtype=np.int64)
        s_edge += int(np.count_nonzero(edge))
        s_pair += int(np.count_nonzero(pair0))
        s_chi1 += int(np.count_nonzero(chi1))
        s_chi12 += int(np.count_nonzero(chi1 & chi2))
        b_samp = q1 ** (pair0 + pair1)
        s_b += float(b_samp.sum())
        s_b2 += float((b_samp * b_samp).sum())
        e_samp = e_count.astype(float)
        s_e += float(e_samp.sum())
        s_e2 += float((e_samp * e_samp).sum())
        s_tail += int(np.count_nonzero(e_samp <= tail_cut))
        s_x += int(np.count_nonzero(x))
        s_y += int(np.count_nonzero(y))
        s_xy += int(np.count_nonzero(x & y))

    checks = [_rate_check(name, count, T, q) for name, count, q in (
        ("edge_prob", s_edge, theory.edge_prob(n, K, p)),
        ("pairing_prob", s_pair, K / (n - 1)),
        ("isolation_prob", s_chi1, theory.isolation_prob(n, K, p)))]
    b_hat = s_b / T
    b_var = max(s_b2 / T - b_hat * b_hat, 0.0)
    checks.append(_check("b_leq_u_squared", b_hat, theory.u_n(n, K, p) ** 2,
                         math.sqrt(b_var / T), "upper"))
    bound = theory.cross_moment_ratio_bound(n, K, p) if p < 1.0 else None
    skip = ("undefined at p=1" if p == 1.0
            else "no isolation events observed" if s_chi1 == 0 else None)
    if skip:
        checks.append(BoundCheck(
            name="cross_moment_ratio", empirical=None, reference=bound,
            sigma=None, kind="upper", passed=True, status=f"skipped: {skip}"))
    else:
        a_hat, c_hat = s_chi12 / T, s_chi1 / T
        ratio = a_hat / (c_hat * c_hat)
        sig_a, sig_c = _binomial_stderr(a_hat, T), _binomial_stderr(c_hat, T)
        rel = math.sqrt((sig_a / a_hat) ** 2 + (2 * sig_c / c_hat) ** 2) \
            if a_hat > 0 else 0.0
        checks.append(_check("cross_moment_ratio", ratio, bound, ratio * rel, "upper"))
    e_hat = s_e / T
    e_var = max(s_e2 / T - e_hat * e_hat, 0.0)
    checks.append(_check("estar_mean", e_hat, e_mean,
                         math.sqrt(e_var / T) if e_var > 0 else 1.0 / T, "two_sided"))
    tail_hat = s_tail / T
    checks.append(_check("estar_tail", tail_hat, theory.estar_chernoff(n, r, K, TAIL_T),
                         math.sqrt(max(tail_hat * (1 - tail_hat), 1.0 / T) / T), "upper"))
    mx, my = s_x / T, s_y / T
    cov = s_xy / T - mx * my
    var_cov = (s_xy / T) * (1 - s_xy / T) / T \
        + (my ** 2) * mx * (1 - mx) / T + (mx ** 2) * my * (1 - my) / T
    checks.append(_check("edge_covariance", cov, 0.0, math.sqrt(var_cov), "upper"))
    return ValidationReport(n=n, K=K, p=p, samples=samples, seed=seed,
                            checks=tuple(checks))


class ScriptedRng:
    """Stands in for a numpy Generator: the draws given are joined into one
    flat script, and each random(shape) or integers(low, high, size) call
    returns its next values in the requested shape (integers in the dtype
    asked for, int64 by default, each checked to lie in [low, high)). So a
    script serves any split of the same draws into requests."""

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

    def integers(self, low, high, size, dtype=np.int64):
        out = self.random(size).astype(dtype)
        assert np.all((low <= out) & (out < high)), "scripted integer out of range"
        return out


class RecordingRng:
    """Wraps a numpy Generator and keeps every array random() or
    integers() returns."""

    def __init__(self, rng):
        self.rng = rng
        self.draws = []

    def random(self, shape):
        self.draws.append(self.rng.random(shape))
        return self.draws[-1]

    def integers(self, low, high, size, dtype=np.int64):
        self.draws.append(self.rng.integers(low, high, size=size, dtype=dtype))
        return self.draws[-1]
