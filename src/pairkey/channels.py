"""The disk model's distances on the unit torus (the matched radius is
theory.match_rho, the on/off draw montecarlo.onoff_links). Distances are
computed only at the pairs asked for, so a trial never holds an n x n array.
"""

from __future__ import annotations

import numpy as np


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

