"""Communication models: the on/off channel, where each link is up
independently with probability p, and the disk model on the unit torus, plus
the rule matching their edge probabilities.
"""

from __future__ import annotations

import math

import numpy as np

from .theory import check_channel, check_p


def toroidal_distance_matrix(points: np.ndarray) -> np.ndarray:
    """All-pairs Euclidean distances on the unit torus (per-axis wrap) for an
    (n, 2) point array; each is at most sqrt(2)/2.

    One axis at a time, on n x n arrays updated in place: the squared wrapped
    differences of the two axes are added once, as a sum over an (n, n, 2)
    array would add them, so the result is bitwise the same."""
    total = 0.0
    for x in points.T:
        d = np.abs(x[:, None] - x)
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
