"""Communication models: the on/off channel, where each link is up
independently with probability p, and the disk model on the unit torus, plus
the rule matching their edge probabilities. Disk distances are computed only
at the pairs asked for, so a trial never holds an n x n array.
"""

from __future__ import annotations

import math

import numpy as np

from .theory import check_channel, check_p


def toroidal_distance_matrix(points: np.ndarray, a: np.ndarray,
                             b: np.ndarray) -> np.ndarray:
    """Entries (a[i], b[i]) of the Euclidean distance matrix on the unit
    torus (per-axis wrap) of an (n, 2) point array; each is at most
    sqrt(2)/2. The matrix itself is never built.

    One axis at a time, on the pair arrays: the squared wrapped differences
    of the two axes are added once, as a sum over an (n, n, 2) array would
    add them, so each entry is bitwise the matrix's. The name is kept from
    the all-pairs form because benchmarks/tracing.py times the disk channel's
    distance layer by rebinding montecarlo.toroidal_distance_matrix; a rename
    waits until the benchmark times that layer under the new name."""
    total = 0.0
    for x in points.T:
        d = x[a]
        d -= x[b]
        np.abs(d, out=d)
        np.minimum(d, 1.0 - d, out=d)
        d *= d
        d += total
        total = d
    return np.sqrt(total, out=total)


def match_rho(p: float, channel: str = "disk") -> float:
    """Transmission range with the same edge probability as the on/off model:
    pi * rho^2 = p, i.e. rho = sqrt(p / pi).

    The identity is exact only for rho < 0.5, i.e. p < pi/4; channel "disk"
    requires that, "disk_forced" returns rho for any p in (0, 1].
    """
    check_p(p)
    check_channel(channel, p)
    return math.sqrt(p / math.pi)
