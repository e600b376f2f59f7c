"""A fixed reference kernel that tracks the speed of a shared host.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to a half over tens of seconds: the same code takes 13 ms in one minute and
22 ms in the next, in CPU time as much as in wall time.  So after every item
the loop times this kernel, which is the benchmark's own code and never
changes with the program.  It mixes what pairinfer's work is made of:
small-array numpy calls (the oracle's likelihood) and a pure-Python loop
(like the simplex and the event loop).

An item's time is reported at reference speed: its wall time times
``REFERENCE_MS`` over the mean time of the kernel runs within a few seconds
of it.  A program change moves the item's time and not the kernel's, so it
shows in full; a change of host speed moves both and cancels.  Set-up
launches are scaled the same way by a fresh interpreter that only imports
numpy.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

import oracle

# The kernel's typical time on a 2-CPU Xeon KVM guest (numpy 2.4.6,
# Python 3.11), so that scaled times read close to wall times there.
REFERENCE_MS = 2.0

# An item is scaled by the kernel runs that ended within this many seconds
# of it.  The host's speed flips between fast and slow bursts far shorter
# than an item, so the window's mean, not its median, gives the speed an
# item saw; the top and bottom tenth are trimmed, so that one preempted
# kernel run does not move it.
HALF_WINDOW_S = 2.5
TRIM = 0.1

# Set-up is mostly interpreter start and imports, which the kernel does not
# track well, so a set-up launch is scaled by a launch beside it that only
# imports numpy: this is that launch's median time on the same guest.
NUMPY_IMPORT_S = 0.16

_COUNTS = np.array([[1742.0, 43.0, 17.0], [1700.0, 60.0, 42.0]])


def kernel() -> float:
    """Fixed work, about 2 ms: 30 oracle likelihoods and a Python loop."""
    total = 0.0
    for k in range(30):
        total += oracle.log_likelihood(oracle.NONGENDER, (0.003 + 1e-5 * k, 0.056),
                                       (0.0, 2.0), _COUNTS)
    table = {}
    for k in range(3500):
        x = math.exp(-k * 1e-4) * 1.5
        total += x if k % 3 else -x
        table[k & 255] = total
    return total


class Reference:
    """Kernel times in run order, and the scale they give each item."""

    def __init__(self):
        self.at = []    # perf_counter() at the end of each kernel run
        self.ms = []

    def measure(self):
        """Time the kernel once, after an untimed run that warms the caches
        the work before it left cold."""
        kernel()
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.at.append(end)
        self.ms.append((end - start) * 1e3)

    def scale(self, at) -> float:
        """REFERENCE_MS over the trimmed mean of the kernel times within
        HALF_WINDOW_S of clock time ``at``."""
        lo = bisect.bisect_left(self.at, at - HALF_WINDOW_S)
        hi = bisect.bisect_right(self.at, at + HALF_WINDOW_S)
        window = sorted(self.ms[lo:hi] or self.ms)
        cut = int(len(window) * TRIM)
        return REFERENCE_MS / statistics.fmean(window[cut:len(window) - cut])
