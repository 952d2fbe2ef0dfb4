"""Random pairwise key predistribution: the offline pairing.

Each of the n nodes independently picks a uniform set of K partners among the
other n-1 nodes. Two nodes share a key iff at least one picked the other.

A trial's pairing (sample_gamma_matrix) draws integers and takes O(nK) time
and memory. The bound suite's batched pairings (draw_partners) rank the
candidates by i.i.d. uniforms instead, drawn a block of rows at a time
(uniform_rows).
"""

from __future__ import annotations

import math

import numpy as np

from .theory import check_nk

_BLOCK = 1 << 18  # uniforms drawn at a time


def uniform_rows(rng: np.random.Generator, rows: int, width: int):
    """The one blocked draw: (first_row, block) pairs, the blocks being the
    successive rows of rng.random((rows, width)), max(1, _BLOCK // width) rows
    at most. The stream does not depend on the block size."""
    step = max(1, _BLOCK // width)
    for start in range(0, rows, step):
        yield start, rng.random((min(step, rows - start), width))


def draw_partners(shape: tuple[int, ...], K: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Partner ids of shape (*shape, K) for independent pairings of
    n = shape[-1] nodes: row (..., i) holds the K partners of node i.

    Node i ranks its n-1 candidates by the uniforms of one row of
    rng.random((*shape, n-1)), drawn through uniform_rows, and keeps the K
    smallest. Candidate c of node i maps to node c if c < i else c + 1, so
    no node picks itself. A row's partners come in no set order.
    """
    n = shape[-1]
    out = np.empty((math.prod(shape), K), dtype=np.int64)
    for start, u in uniform_rows(rng, len(out), n - 1):
        out[start:start + len(u)] = (np.arange(K) if K == n - 1 else
                                     np.argpartition(u, K, axis=-1)[:, :K])
    out = out.reshape(*shape, K)
    out += out >= np.arange(n)[:, None]
    return out


def draw_widths(m: int, K: int) -> tuple[int, int]:
    """Draws per row, in the first batch and in each top-up, for K distinct
    values out of m. The repeats drawn before the K-th distinct value add
    up K geometric counts, of mean j/(m-j) and variance jm/(m-j)^2 for
    j < K; the first batch covers their mean plus three standard deviations,
    and a top-up draws that margin again. Exactly rounded sums make the
    widths the same on every platform."""
    repeats = math.fsum(j / (m - j) for j in range(K))
    var = math.fsum(j * m / (m - j) ** 2 for j in range(K))
    extra = math.ceil(repeats + 3.0 * math.sqrt(var))
    return K + extra, extra


def _distinct_prefix(x: np.ndarray, K: int, m: int, extra: int,
                     rng: np.random.Generator) -> np.ndarray:
    """The first K distinct values of each row of x (draws in [0, m)), in
    draw order. Rows short of K get `extra` more draws each, in one
    rng.integers call for all of them in row order, until none is short.

    One sort of the keys (row, value, column) puts each row's draws of one
    value in a run, its first draw first."""
    rows, w = x.shape
    key = ((np.arange(rows)[:, None] * m + x) * w + np.arange(w)).ravel()
    key.sort()
    value = key // w
    first = np.ones(key.size, dtype=bool)
    np.not_equal(value[1:], value[:-1], out=first[1:])
    new = np.zeros(key.size, dtype=bool)
    new[value[first] // m * w + key[first] % w] = True
    new = new.reshape(rows, w)
    count = np.cumsum(new, axis=1)
    full = count[:, -1] >= K
    out = np.empty((rows, K), dtype=x.dtype)
    out[full] = x[full][(new & (count <= K))[full]].reshape(-1, K)
    short = ~full
    if short.any():
        more = rng.integers(0, m, size=(np.count_nonzero(short), extra))
        out[short] = _distinct_prefix(np.concatenate((x[short], more), axis=1),
                                      K, m, extra, rng)
    return out


def _permutation_prefix(n: int, m: int, K: int,
                        rng: np.random.Generator) -> np.ndarray:
    """The first K entries of a uniform random permutation of 0..m-1, for
    each of n rows: Fisher-Yates, step j swapping entry j with one drawn
    from [j, m), all steps' draws in one rng.integers call of shape (n, K)."""
    swap = rng.integers(np.arange(K), m, size=(n, K))
    perm = np.tile(np.arange(m), n)  # the n rows, end to end
    base = np.arange(n) * m
    out = np.empty((n, K), dtype=np.int64)
    for j in range(K):
        r = base + swap[:, j]
        out[:, j] = perm[r]
        perm[r] = perm[base + j]
    return out


def sample_gamma_matrix(n: int, K: int, rng: np.random.Generator) -> np.ndarray:
    """Sample the partner sets for all nodes at once.

    Returns an (n, K) int array of 0-based partner ids; row i holds the K
    partners of node i+1, in draw order. Rows are independent, and each is
    a uniform ordered K-sequence of the other n-1 nodes, so its set is an
    exact-uniform K-subset.

    With m = n-1 candidates and 2K <= m, one rng.integers(0, m) draw of
    shape (n, width) comes first (draw_widths), and a row keeps its first K
    distinct values; rows short of K are topped up. With 2K > m, where
    distinct values would come slowly, a row is a permutation prefix
    (_permutation_prefix). Candidate c of node i is node c if c < i else
    c + 1.
    """
    check_nk(n, K)
    m = n - 1
    if 2 * K > m:
        cand = _permutation_prefix(n, m, K, rng)
    else:
        width, extra = draw_widths(m, K)
        x = rng.integers(0, m, size=(n, width))
        cand = x[:, :K].copy()
        # most rows repeat no value in their first K draws: only the others
        # need the sort of _distinct_prefix
        s = np.sort(cand, axis=1)
        repeat = (s[:, 1:] == s[:, :-1]).any(axis=1)
        cand[repeat] = _distinct_prefix(x[repeat], K, m, extra, rng)
    cand += cand >= np.arange(n)[:, None]
    return cand
