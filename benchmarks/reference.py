"""Machine-speed reference: a fixed kernel that runs no pairkey code.

On a shared virtual machine the speed a process gets drifts by up to ±20%
over minutes, as other guests load the caches, the memory bus and the
turbo budget; CPU time does not leave that out. So each run times this
kernel between its measurements and reports its times scaled to the speed
at which the kernel takes REFERENCE_S: multiplied by
REFERENCE_S / median(kernel seconds). A change to pairkey cannot move the
kernel, so the scaling takes out machine drift and nothing else.

The kernel mixes an interpreted integer loop with numpy random draws and
sorts, the two kinds of work the workloads do.
"""

from __future__ import annotations

import time
from statistics import median

import numpy as np

# about the kernel's median CPU seconds on a 2-CPU Xeon VM (Python 3.11.7,
# numpy 2.4.6), where the first results were measured; any fixed value
# would do, since only ratios between runs are compared
REFERENCE_S = 0.1
# kernel time kept up as a share of the time measured: one kernel sample is
# noisy (±20%), so a run needs many for a steady median
SHARE = 0.15


def kernel_s() -> float:
    """CPU seconds of one run of the reference kernel."""
    t0 = time.process_time()
    acc = 0
    for i in range(600_000):
        acc += i * i % 7
    rng = np.random.default_rng(0)
    for _ in range(10):
        rng.random(400_000).sort()
    return time.process_time() - t0


class Speed:
    """Kernel times sampled through one run."""

    def __init__(self):
        self.samples: list[float] = []

    def keep_pace(self, measured_s: float) -> None:
        """Run the kernel until it has run for SHARE of `measured_s`, the
        time measured so far, and at least once more."""
        self.samples.append(kernel_s())
        while sum(self.samples) < SHARE * measured_s:
            self.samples.append(kernel_s())

    def scale(self) -> float:
        """Factor that turns a time measured in this run into a time at
        reference speed."""
        return REFERENCE_S / median(self.samples)
