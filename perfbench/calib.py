"""Reference-speed clock for the end-to-end timings.

The benchmark runs on a few cores of a shared host, where the speed of a
core changes by up to a factor of two from one second to the next as other
tenants come and go.  Raw wall times of the same code then spread far more
between runs than any change worth detecting.  So every measuring process
also times a fixed reference loop, in the same thread and on the same core
as the program: a ``SIGALRM`` handler runs it every ``INTERVAL_S`` seconds,
between two bytecodes of whatever the program is doing.

:meth:`Calibrator.seconds` turns a raw ``perf_counter`` interval into
*reference seconds*: each stretch of program time between two reference
loops is scaled by ``REFERENCE_S`` over the loop's measured time nearby,
and the loops' own time is left out.  ``REFERENCE_S`` is the loop's usual
time in the handler on the 2-CPU, 2.1 GHz host the benchmark was written
on, so a reference second reads close to a second there.  The loop uses no
code of the package, so it is the same for every version of the program,
and a slower program still reads slower.
"""

from __future__ import annotations

import bisect
import gc
import math
import signal
import time

#: seconds between two reference loops
INTERVAL_S = 0.02
#: nominal time of one reference loop; see the module docstring
REFERENCE_S = 0.0005
#: the speed of a stretch is taken from this many loops on either side
WINDOW = 3
#: loops run back to back at install and at stop, so that a short interval
#: near either end still has WINDOW loops on each side
BURST = WINDOW


def _median(values: list) -> float:
    # not statistics.median: importing statistics imports fractions, which
    # would then be missing from the timed set-up of the package
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


class _Rational:
    """A bare fraction: the interpreter work of the rings' arithmetic
    without importing any of it."""

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int):
        g = math.gcd(num, den)
        self.num, self.den = num // g, den // g

    def __add__(self, other):
        return _Rational(self.num * other.den + other.num * self.den,
                         self.den * other.den)

    def __mul__(self, other):
        return _Rational(self.num * other.num, self.den * other.den)


def reference_loop() -> _Rational:
    """Fixed interpreter work: calls, small objects, tuple keys in a dict
    and integer arithmetic."""
    memo = {}
    total = _Rational(0, 1)
    for i in range(1, 160):
        q = _Rational(i % 7 - 3, i % 5 + 1)
        key = (i % 13, i % 4)
        memo[key] = memo.get(key, total) + q * q
        total = total + q
    return total


class Calibrator:
    """Times the reference loop ``BURST`` times at install, every
    ``INTERVAL_S`` seconds while installed, and ``BURST`` times at stop."""

    def __init__(self):
        self.starts = []
        self.ends = []
        self._factors = None

    def _sample(self, *_):
        # the loop frees every object it makes before it returns; with the
        # collector off meanwhile it neither triggers nor shifts a collection
        # of the program's objects
        collecting = gc.isenabled()
        gc.disable()
        clock = time.perf_counter
        t0 = clock()
        reference_loop()
        self.ends.append(clock())
        self.starts.append(t0)
        if collecting:
            gc.enable()

    def install(self) -> "Calibrator":
        for _ in range(BURST):
            self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(BURST):
            self._sample()
        # gap i lies before loop i (gap n after the last loop); its factor
        # takes the median time of the WINDOW loops before it and after it,
        # so that one loop slowed by an interrupt does not skew it
        took = [e - s for s, e in zip(self.starts, self.ends)]
        self._factors = [REFERENCE_S / _median(took[max(0, i - WINDOW):
                                                    i + WINDOW])
                         for i in range(len(took) + 1)]

    @property
    def samples(self) -> int:
        return len(self.starts)

    def loops_s(self, a: float, b: float) -> float:
        """Raw seconds of reference loops inside [a, b]."""
        i = bisect.bisect_left(self.ends, a)
        total = 0.0
        while i < len(self.starts) and self.starts[i] < b:
            total += min(b, self.ends[i]) - max(a, self.starts[i])
            i += 1
        return total

    def seconds(self, a: float, b: float) -> float:
        """Reference seconds of program time in the raw interval [a, b]."""
        if self._factors is None:
            raise RuntimeError("stop() the calibrator before converting")
        starts, ends = self.starts, self.ends
        i = bisect.bisect_right(starts, a)      # a lies in gap i or loop i-1
        total = 0.0
        while True:
            lo = max(a, ends[i - 1]) if i > 0 else a
            hi = min(b, starts[i]) if i < len(starts) else b
            if hi > lo:
                total += (hi - lo) * self._factors[i]
            if i >= len(starts) or starts[i] >= b:
                return total
            i += 1
