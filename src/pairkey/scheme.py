"""Random pairwise key predistribution: the offline pairing.

Each of the n nodes independently picks a uniform set of K partners among the
other n-1 nodes. Two nodes share a key iff at least one picked the other.

A trial's pairing (sample_gamma_matrix) draws integers and takes O(nK) time
and memory. It draws and returns its partner ids in int32 (numpy draws a
range that fits in 32 bits from the same stream at either width). The
uniforms by which the bound suite and the two-node estimate (in montecarlo)
rank candidates are drawn a block of rows at a time (uniform_rows).
"""

from __future__ import annotations

import functools
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


@functools.lru_cache
def draw_widths(m: int, K: int) -> tuple[int, int]:
    """Draws per row, in the first batch and in each top-up, for K distinct
    values out of m. The repeats drawn before the K-th distinct value add
    up K geometric counts, of mean j/(m-j) and variance jm/(m-j)^2 for
    j < K; the first batch covers their mean plus three standard deviations,
    and a top-up draws that margin again. Exactly rounded sums make the
    widths the same on every platform. Cached: a sweep asks for the same
    few (m, K) on every trial."""
    repeats = math.fsum(j / (m - j) for j in range(K))
    var = math.fsum(j * m / (m - j) ** 2 for j in range(K))
    extra = math.ceil(repeats + 3.0 * math.sqrt(var))
    return K + extra, extra


def _id_dtype(n: int) -> type:
    """int32 if n fits in it, else int64: the one width rule, for the ids of
    n nodes and, as _id_dtype(n * n), for their pair codes."""
    return np.int32 if n <= np.iinfo(np.int32).max else np.int64


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
        more = rng.integers(0, m, size=(np.count_nonzero(short), extra),
                            dtype=x.dtype)
        out[short] = _distinct_prefix(np.concatenate((x[short], more), axis=1),
                                      K, m, extra, rng)
    return out


def _permutation_prefix(n: int, m: int, K: int,
                        rng: np.random.Generator) -> np.ndarray:
    """The first K entries of a uniform random permutation of 0..m-1, for
    each of n rows: Fisher-Yates, step j swapping entry j with one drawn
    from [j, m), all steps' draws in one rng.integers call of shape (n, K).
    The draws and the entries are node ids (_id_dtype); the flat indices
    into the n rows are int64, since n * m passes 2^31 from n = 46342."""
    dtype = _id_dtype(n)
    swap = rng.integers(np.arange(K), m, size=(n, K), dtype=dtype)
    perm = np.tile(np.arange(m, dtype=dtype), n)  # the n rows, end to end
    base = np.arange(n) * m
    out = np.empty((n, K), dtype=dtype)
    for j in range(K):
        r = base + swap[:, j]
        out[:, j] = perm[r]
        perm[r] = perm[base + j]
    return out


def sample_gamma_matrix(n: int, K: int, rng: np.random.Generator) -> np.ndarray:
    """Sample the partner sets for all nodes at once.

    Returns an (n, K) array of 0-based partner ids in _id_dtype(n), int32
    below n = 2^31; row i holds node i's partners (node i+1 in the 1-based
    dump files), in draw order. Rows are independent, and each is
    a uniform ordered K-sequence of the other n-1 nodes, so its set is an
    exact-uniform K-subset.

    With m = n-1 candidates and 2K <= m, one rng.integers(0, m) draw of
    shape (n, width) comes first (draw_widths), and a row keeps its first K
    distinct values; rows short of K are topped up. With 2K > m, where
    distinct values would come slowly, a row is a permutation prefix
    (_permutation_prefix). Candidate c of node i is node c if c < i else
    c + 1. numpy draws a range that fits in 32 bits from the same stream at
    either width, so the values and the generator's next draw do not depend
    on the ids' dtype.
    """
    check_nk(n, K)
    m = n - 1
    if 2 * K > m:
        cand = _permutation_prefix(n, m, K, rng)
    else:
        width, extra = draw_widths(m, K)
        x = rng.integers(0, m, size=(n, width), dtype=_id_dtype(n))
        cand = x[:, :K].copy()
        # most rows repeat no value in their first K draws: only the others
        # need the sort of _distinct_prefix
        s = np.sort(cand, axis=1).ravel()
        same = s[1:] == s[:-1]
        same[K - 1::K] = False  # compares across a row boundary
        repeat = np.zeros(n, dtype=bool)
        repeat[np.flatnonzero(same) // K] = True
        cand[repeat] = _distinct_prefix(x[repeat], K, m, extra, rng)
    cand += cand >= np.arange(n, dtype=cand.dtype)[:, None]
    return cand
