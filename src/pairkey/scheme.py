"""Random pairwise key predistribution: the offline pairing.

Each of the n nodes independently picks a uniform set of K partners among the
other n-1 nodes. Two nodes share a key iff at least one picked the other.
"""

from __future__ import annotations

import numpy as np


def partners_from_uniforms(u: np.ndarray, K: int) -> np.ndarray:
    """Map uniforms of shape (..., n, n-1) to partner ids of shape (..., n, K).

    Along the last axis, the candidates of node i are ranked by their
    uniforms and the K smallest ranks are kept. Candidate c of node i maps to
    node c if c < i else c + 1, so no node picks itself.
    """
    n = u.shape[-2]
    if K == n - 1:
        # every candidate is chosen; the draw keeps the rng stream aligned
        cand = np.broadcast_to(np.arange(n - 1), u.shape)
    else:
        cand = np.argpartition(u, K, axis=-1)[..., :K]
    return cand + (cand >= np.arange(n)[:, None])


def sample_gamma_matrix(n: int, K: int, rng: np.random.Generator) -> np.ndarray:
    """Sample the partner sets for all nodes at once.

    Returns an (n, K) int array of 0-based partner ids; row i holds the K
    partners of node i+1 (unsorted). Each row is an exact-uniform K-subset of
    the other n-1 nodes: the candidates are ranked by i.i.d. uniforms and the
    K smallest ranks are kept, so every K-subset is equally likely. Rows are
    independent.
    """
    if not 1 <= K < n:
        raise ValueError(f"K must satisfy 1 <= K < n, got K={K}, n={n}")
    return partners_from_uniforms(rng.random((n, n - 1)), K)
