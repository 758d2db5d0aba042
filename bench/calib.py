"""Machine-speed reference for the end-to-end times.

Shared 2-vCPU hosts change speed by 15-60% over seconds to minutes, more
than the bounds a benchmark can usefully set.  So every end-to-end time is
scaled to reference speed: multiplied by REFERENCE_S over the time a fixed
pure-Python loop took when sampled next to it, in the same run.  The loop
allocates small tuples, branches and sorts, like the package does, so it
slows down with the package when the machine does.  Raw times are printed
next to the scaled ones.
"""

import gc
import statistics
import time

# the loop's time on an idle core of the machine the bounds were set on;
# at that speed scaled times equal wall times
REFERENCE_S = 0.0004

# how often a long measurement samples the loop again, and how many recent
# samples it takes the median of
SAMPLE_EVERY_S = 0.2
WINDOW = 3


def _loop() -> float:
    start = time.perf_counter()
    acc = []
    for i in range(4000):
        t = (i, i * i % 7)
        acc.append(t if t[1] < 3 else (t[0] + 1,))
    acc.sort()
    return time.perf_counter() - start


def reference() -> float:
    """Seconds taken by the fixed reference loop: the fastest of three runs.

    The collector is off meanwhile, so the time does not depend on how
    many objects the sampling process holds.
    """
    gc.disable()
    try:
        return min(_loop() for _ in range(3))
    finally:
        gc.enable()


def scale(sample_s: float) -> float:
    """Factor taking a time measured next to this reference sample to
    reference speed."""
    return REFERENCE_S / sample_s


class Sampler:
    """Samples the reference loop at most every SAMPLE_EVERY_S seconds."""

    def __init__(self):
        self.samples = [reference()]
        self.taken = time.perf_counter()

    def factor(self) -> float:
        """Scale factor for the measurement about to start: from the median
        of the last WINDOW samples."""
        if time.perf_counter() - self.taken >= SAMPLE_EVERY_S:
            self.samples = self.samples[1 - WINDOW:] + [reference()]
            self.taken = time.perf_counter()
        return scale(statistics.median(self.samples))
