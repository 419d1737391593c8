"""Host pace: how fast this host runs right now, relative to nominal.

The host shares its cores with other tenants; its speed drifts, and flips
between phases about 2x apart, over seconds to tens of seconds.  That swamps
the differences the benchmark is meant to show.  So the benchmark times a
fixed, stdlib-only reference loop between ops (about 7% of op time) and
scales every time it reports by nominal / measured reference time, using the
samples taken around that op.  Scaled times are seconds of a host running
the reference loop in REFERENCE_NOMINAL_S, its time on an unloaded host.
The loop uses no gvkernel code, so a kernel change moves scaled times as it
moves raw ones.
"""

from __future__ import annotations

import bisect
import gc
from fractions import Fraction
from time import perf_counter

REFERENCE_NOMINAL_S = 3.5e-4   # one reference_work() call, unloaded 2-vCPU host
PACE_EVERY_S = 0.01            # one reference sample per this much op time
PACE_WARMUP = 20               # samples taken right after set-up
PACE_WINDOW_S = 0.25           # an op's pace: samples this close to it
PACE_MIN_SAMPLES = 8
_F0 = Fraction(0)


def reference_work() -> int:
    """Fixed pure-Python work shaped like the kernel's inner loops: rational
    arithmetic, tuple-keyed dicts, and a keyed sort.  Never change it: the
    scaled times of different commits are comparable only through it."""
    acc = {}
    f = Fraction(1, 3)
    for i in range(60):
        key = (i % 7, i % 5)
        acc[key] = acc.get(key, _F0) + f * (i % 7 - 3)
        f += Fraction(1, i % 5 + 2)
    return len(sorted(acc.items(), key=lambda p: (sum(p[0]), p[0])))


def pace_of(durations) -> float:
    """Nominal / measured time of reference_work() calls."""
    return REFERENCE_NOMINAL_S * len(durations) / sum(durations)


class HostPace:
    """The host's speed relative to nominal, from reference samples taken
    between ops: for the whole run, or around one op."""

    def __init__(self):
        self.at = []     # perf_counter() at the end of each sample
        self.dur = []    # each sample's duration
        self._owed = 0.0

    def sample(self, count: int = 1) -> None:
        enabled = gc.isenabled()
        gc.disable()   # a collection of the kernel's garbage is not ours
        try:
            for _ in range(count):
                t0 = perf_counter()
                reference_work()
                t1 = perf_counter()
                self.at.append(t1)
                self.dur.append(t1 - t0)
        finally:
            if enabled:
                gc.enable()

    def after_op(self, op_secs: float) -> None:
        self._owed += op_secs
        if self._owed >= PACE_EVERY_S:
            count = int(self._owed / PACE_EVERY_S)
            self._owed -= count * PACE_EVERY_S
            self.sample(count)

    def factor(self, start: float = None, end: float = None) -> float:
        """Multiply a time measured in [start, end] by this to get
        nominal-pace time.  Uses the samples within PACE_WINDOW_S of the
        interval (at least the PACE_MIN_SAMPLES nearest), or all of them."""
        lo, hi = 0, len(self.at)
        if start is not None:
            lo = bisect.bisect_left(self.at, start - PACE_WINDOW_S)
            hi = bisect.bisect_right(self.at, end + PACE_WINDOW_S)
            while hi - lo < PACE_MIN_SAMPLES and (lo > 0 or hi < len(self.at)):
                lo, hi = max(lo - 1, 0), min(hi + 1, len(self.at))
        return pace_of(self.dur[lo:hi])
