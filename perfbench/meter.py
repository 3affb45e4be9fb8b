"""Timing normalized to the machine's momentary speed.

The benchmark's machines are shared.  On the 2-core virtual machine the
baselines were taken on, other tenants slow a core by up to 2x, in phases
that last from a fraction of a second to longer than a whole run, so the
median of a 20 s run still moved by 20-30% from run to run.

Every timed unit (an op, a knowledge-base entry, a set-up) is therefore
followed by a short fixed pure-Python loop, the reference.  A unit's
normalized time is its measured time times ``REF_NOMINAL_S`` over the mean
of the references just before and just after it: the time the unit would
have taken on a machine where the reference takes ``REF_NOMINAL_S``.  Work
that gets faster or slower in the program moves the normalized time by the
same factor; a slower or busier machine does not.  Raw times are kept next
to the normalized ones and printed with every run.
"""

from __future__ import annotations

import statistics
import time

# The reference's time on an uncontended core of the baseline machine
# (2.1 GHz, Python 3.11), so normalized times read close to real ones there.
REF_NOMINAL_S = 3.0e-4


def reference() -> float:
    """Seconds taken by a fixed pure-Python loop."""
    t0 = time.perf_counter()
    x = 0
    for i in range(5000):
        x += i * i % 7
    return time.perf_counter() - t0


class Meter:
    """Times units of work and the reference around them.

    With a tracer, remembers which spans each unit recorded, so per-layer
    self times can be normalized with their unit's factor.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.refs = [reference()]
        self.units: list[tuple[int, int, float]] = []  # (first span, end span, factor)

    def time(self, fn, *args):
        """Run fn; return (result, raw seconds, normalized seconds)."""
        first = len(self.tracer.spans) if self.tracer else 0
        t0 = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - t0
        before = self.refs[-1]
        self.refs.append(reference())
        factor = 2 * REF_NOMINAL_S / (before + self.refs[-1])
        if self.tracer:
            self.units.append((first, len(self.tracer.spans), factor))
        return result, raw, raw * factor

    def run_factor(self) -> float:
        """Normalization for work outside any unit: the run's median reference."""
        return REF_NOMINAL_S / statistics.median(self.refs)
