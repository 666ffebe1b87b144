"""Host speed calibration: a fixed kernel timed between pieces of measured work.

On a shared host the same code runs about 1.7 times slower for stretches of
a few seconds to minutes while another tenant is busy, and wall times follow:
each vCPU has a fast and a slow state and switches between them. The kernel
below does the same kind of work as a simulation step (small numpy arrays
and reductions, numpy scalars, math and random draws in an interpreted loop)
and touches no sweepsim code, so a change to the simulator does not change
it. Timed right before and after a piece of work, it gives the factor by
which the host was slow at that moment:

    normalized seconds = measured seconds * REFERENCE_S / kernel seconds

which is the time the work would have taken on a host where one kernel call
takes REFERENCE_S. A faster or slower simulator moves the normalized time;
a faster or slower host moves the kernel time with it and cancels.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# One kernel call on an Intel Xeon 2-vCPU VM (Python 3.11, numpy 2.4) in its
# fast state, so that normalized figures read as that host's fast state.
REFERENCE_S = 0.0028
SAMPLES = 3  # kernel calls per calibration; their median is the sample


def kernel() -> float:
    """Twelve steps of 25 agents: neighbour distances, a draw, a clamped move."""
    rng = np.random.default_rng(5)
    pos = rng.random((25, 2)) * 40.0
    heading = rng.random(25) * 2.0 * math.pi
    acc = 0.0
    for _ in range(12):
        for i in range(25):
            d = pos - pos[i]
            near = np.flatnonzero(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] < 6.25)
            h = float(heading[i])
            acc += len(near) + math.cos(h) + float(rng.uniform(-0.1, 0.1))
            pos[i, 0] = min(max(pos[i, 0] + 0.1 * math.cos(h), 0.0), 40.0)
            pos[i, 1] = min(max(pos[i, 1] + 0.1 * math.sin(h), 0.0), 40.0)
    return acc


def sample() -> float:
    """Median seconds of SAMPLES kernel calls."""
    times = []
    for _ in range(SAMPLES):
        t = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


class Calibration:
    """Kernel samples taken between pieces of work, one piece after another."""

    def __init__(self):
        self.last = sample()
        self.factors: list[float] = []

    def factor(self) -> float:
        """Sample now; the factor for the work done since the previous sample."""
        now = sample()
        f = REFERENCE_S / (0.5 * (self.last + now))
        self.last = now
        self.factors.append(f)
        return f
