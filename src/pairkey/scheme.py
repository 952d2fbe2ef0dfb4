"""Random pairwise key predistribution: the offline pairing.

Each of the n nodes independently picks a uniform set of K partners among the
other n-1 nodes. Two nodes share a key iff at least one picked the other.

Node i ranks its n-1 candidates by i.i.d. uniforms and keeps the K smallest.
The uniforms are drawn a block of rows at a time (uniform_rows) and only each
row's chosen candidates are kept, so a pairing of n nodes takes O(nK + block)
memory, while the random stream is exactly that of one (n, n-1) draw.
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


def _smallest(u: np.ndarray, K: int) -> np.ndarray:
    """Candidate ids of the K smallest uniforms in each row of u, as an
    (rows, K) array, in no set order.

    Only entries below the cut (K + 4 sqrt(K) + 4) / m, m = u.shape[1], are
    looked at: a row expects K + 4 sqrt(K) + 4 of them, so about one row in
    10^4 falls short of K. Each is keyed as row + u, so with cut < 1 row r's
    keys lie in [r, r + 1], and one sort ranks every row at once; a row keeps
    its entries up to its K-th key. Rounding keeps the order but may merge
    close values, which shows up as a tie. A block falls back to an exact
    argpartition when the cut covers whole rows, a row has fewer than K
    entries below the cut, or a tie at the K-th key keeps more than K entries.
    """
    rows, m = u.shape
    if K == m:
        return np.broadcast_to(np.arange(m), u.shape)
    cut = (K + 4.0 * math.sqrt(K) + 4.0) / m
    if cut < 1.0:
        flat = np.flatnonzero(u < cut)
        row = flat // m
        counts = np.bincount(row, minlength=rows)
        if counts.min() >= K:
            key = u.ravel()[flat] + row
            kth = np.sort(key)[np.cumsum(counts) - counts + K - 1]
            keep = key <= kth[row]
            if np.count_nonzero(keep) == rows * K:
                return (flat[keep] - row[keep] * m).reshape(rows, K)
    return np.argpartition(u, K, axis=-1)[:, :K]


def draw_partners(shape: tuple[int, ...], K: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Partner ids of shape (*shape, K) for independent pairings of
    n = shape[-1] nodes: row (..., i) holds the K partners of node i.

    Draws the same uniforms, in the same order, as rng.random((*shape, n-1)),
    through uniform_rows, and keeps only each row's chosen candidates.
    Candidate c of node i maps to node c if c < i else c + 1, so no node
    picks itself. A row's partners come in no set order.
    """
    n = shape[-1]
    out = np.empty((math.prod(shape), K), dtype=np.int64)
    for start, u in uniform_rows(rng, len(out), n - 1):
        out[start:start + len(u)] = _smallest(u, K)
    out = out.reshape(*shape, K)
    out += out >= np.arange(n)[:, None]
    return out


def sample_gamma_matrix(n: int, K: int, rng: np.random.Generator) -> np.ndarray:
    """Sample the partner sets for all nodes at once.

    Returns an (n, K) int array of 0-based partner ids; row i holds the K
    partners of node i+1 (in no set order). Each row is an exact-uniform
    K-subset of the other n-1 nodes: the candidates are ranked by i.i.d.
    uniforms and the K smallest ranks are kept, so every K-subset is equally
    likely. Rows are independent.
    """
    check_nk(n, K)
    return draw_partners((n,), K, rng)
