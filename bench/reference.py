"""The reference loop that scales the benchmark's gated times.

It imports nothing but ``time``, so that the set-up probe can run it in
a fresh interpreter without loading a module that dqc imports.
"""

import time

# Gated times are scaled to a host on which reference_s() takes this long,
# about what one uncontended vCPU of the 2-vCPU host used to write this
# benchmark gives.
REF_NOMINAL_S = 0.02


def reference_s() -> float:
    """Wall seconds of a fixed pure-Python loop that no dqc change touches.

    It runs before and after every timed cell and every set-up; dividing
    a time by the mean of its two neighbours cancels most of the speed
    the host lends this vCPU at that moment.
    """
    t0 = time.perf_counter()
    acc = 0
    hist: dict = {}
    for i in range(90000):
        a, b = divmod(i, 49)
        acc += (a * a + b * b) % 7
        hist[acc & 63] = hist.get(acc & 63, 0) + 1
    return time.perf_counter() - t0


def normalised(raw: float, ref: float) -> float:
    """``raw`` seconds scaled to the nominal host speed."""
    return raw * REF_NOMINAL_S / ref
