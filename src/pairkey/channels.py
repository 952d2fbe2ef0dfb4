"""Communication models: the on/off channel, where each link is up
independently with probability p, and the disk model on the unit torus, plus
the rule matching their edge probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DiskParams:
    """Disk model transmission range on the unit torus.

    rho < 0.5 is required for the exact edge-probability identity
    P(edge) = pi * rho^2; set forced=True to bypass the check (the identity
    then no longer holds exactly).
    """

    rho: float
    forced: bool = False

    def __post_init__(self):
        if self.rho <= 0.0:
            raise ValueError(f"rho must be positive, got {self.rho}")
        if self.rho >= 0.5 and not self.forced:
            raise ValueError(
                f"rho must be < 0.5 for the exact edge probability, got {self.rho}; "
                "use forced=True to override"
            )


def toroidal_distance_matrix(points: np.ndarray) -> np.ndarray:
    """All-pairs Euclidean distances on the unit torus (per-axis wrap) for an
    (n, 2) point array; each is at most sqrt(2)/2."""
    d = np.abs(points[:, None, :] - points[None, :, :])
    d = np.minimum(d, 1.0 - d)
    return np.sqrt((d * d).sum(axis=2))


def match_rho(p: float, allow_large_rho: bool = False) -> DiskParams:
    """Transmission range with the same edge probability as the on/off model:
    pi * rho^2 = p, i.e. rho = sqrt(p / pi).

    Requires p < pi/4 so that rho < 0.5 and the identity is exact. With
    allow_large_rho the value is computed anyway and the returned params are
    flagged as forced.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p}")
    rho = math.sqrt(p / math.pi)
    if rho >= 0.5:
        if not allow_large_rho:
            raise ValueError(
                f"p={p} gives rho={rho:.5f} >= 0.5 where P(edge) != pi*rho^2; "
                "pass allow_large_rho=True to force"
            )
        return DiskParams(rho=rho, forced=True)
    return DiskParams(rho=rho)
