"""A clock that reads elapsed time at a fixed reference speed.

The benchmark shares its machine, whose speed drifts by tens of percent
within a minute; wall time on it does not repeat.  This clock runs a small
fixed pure-Python kernel every ``PERIOD_S`` seconds, from a ``SIGALRM``
handler in the measuring thread, and times it.  The wall time between two
probes is scaled by ``REFERENCE_KERNEL_S`` over the duration of the probe
that ends the interval, so a stretch of slow machine counts as it would at
the reference speed.  Probe time itself is not counted.  The kernel uses
only built-in integers, dicts and method calls, like germkit's exact
arithmetic, and nothing from germkit, so a change to the program cannot
change the yardstick.
"""

from __future__ import annotations

import math
import signal
import time

# Probe period: a pass of an in-process workload lasts seconds; a child
# process lives for about 0.15 s and needs denser probes.
PERIOD_S = 0.02
CHILD_PERIOD_S = 0.005
# Duration of one kernel run at the reference speed.  This is about its
# duration between workload slices on a 2-vCPU Intel Xeon VM under
# Python 3.11 running at full speed, so readings there are close to wall
# seconds.
REFERENCE_KERNEL_S = 0.0002


class _Ratio:
    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int) -> None:
        g = math.gcd(num, den)
        self.num, self.den = num // g, den // g

    def add(self, other: "_Ratio") -> "_Ratio":
        return _Ratio(self.num * other.den + other.num * self.den, self.den * other.den)


def kernel() -> int:
    acc, seen = _Ratio(0, 1), {}
    for i in range(1, 150):
        acc = acc.add(_Ratio(i, i + 1)) if i % 12 else _Ratio(1, 3)
        seen[acc.den % 17] = acc
    return len(seen)


class SteadyClock:
    """``read()`` returns seconds at the reference speed since the clock
    was entered.  Use as a context manager; one clock at a time."""

    def __init__(self, period_s: float = PERIOD_S) -> None:
        self._period_s = period_s
        self._elapsed = 0.0
        self._last = 0.0
        self._busy = False
        self._previous_handler = None

    def __enter__(self) -> "SteadyClock":
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        self._last = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self._period_s, self._period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:  # the alarm may land inside read()
            self._probe()

    def _probe(self) -> None:
        self._busy = True
        try:
            start = time.perf_counter()
            kernel()
            end = time.perf_counter()
            self._elapsed += (start - self._last) * REFERENCE_KERNEL_S / (end - start)
            self._last = end
        finally:
            self._busy = False

    def read(self) -> float:
        self._probe()
        return self._elapsed

