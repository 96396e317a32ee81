"""Wall time corrected for the speed of a shared machine.

On a shared host, pure-Python code can run at about half speed for seconds
at a time while other tenants are busy, so the same pass can take from 1x to
2x its quiet time.  `SpeedClock` measures that speed while a region runs: a
SIGALRM handler runs a fixed piece of `Fraction` arithmetic (the probe) every
`INTERVAL_S` seconds and times it.  A probe's time over `PROBE_NOMINAL_S` is
the machine's slowdown at that moment.  The region's normalised time is the
sum of the wall time between consecutive probes, each stretch divided by the
slowdown around it: the seconds the region takes at nominal speed.  Time
spent inside the probes is left out of both the wall and the normalised time.

The probe belongs to the benchmark and does not touch the package, so a
change to the package moves the normalised time as much as the wall time.
"""

from __future__ import annotations

import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.1
# the probe's fastest time where the README's baselines were measured
# (CPython 3.11); it only sets the scale of the normalised seconds
PROBE_NOMINAL_S = 0.003

_TERMS = tuple(Fraction(i + 1, i + 2) for i in range(12))


def probe() -> tuple[float, float]:
    """Run the probe with the collector paused; return its start and end."""
    collecting = gc.isenabled()
    gc.disable()
    start = perf_counter()
    total = Fraction(0)
    for _ in range(8):
        for x in _TERMS:
            for y in _TERMS:
                total += x * y
    end = perf_counter()
    if collecting:
        gc.enable()
    return start, end


def normalised_seconds(marks: list[tuple[float, float]]) -> tuple[float, float]:
    """Normalised and wall seconds between the first and the last probe.

    `marks` holds each probe's (start, end), in order.  A probe's slowdown is
    smoothed as the median of it and its neighbours, so one probe that was
    preempted does not set the speed of two stretches on its own.
    """
    slow = [(end - start) / PROBE_NOMINAL_S for start, end in marks]
    smooth = [statistics.median(slow[max(k - 1, 0) : k + 2]) for k in range(len(slow))]
    normal = wall = 0.0
    for k in range(len(marks) - 1):
        stretch = marks[k + 1][0] - marks[k][1]
        wall += stretch
        normal += stretch / ((smooth[k] + smooth[k + 1]) / 2)
    return normal, wall


class SpeedClock:
    """Installs the probing SIGALRM handler for the life of a `with` block."""

    def __init__(self):
        self._marks: list[tuple[float, float]] | None = None
        self._previous = None

    def __enter__(self) -> "SpeedClock":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _on_alarm(self, signum, frame) -> None:
        # an alarm already pending when a region ends finds no marks list
        if self._marks is not None:
            self._marks.append(probe())

    def measure(self, fn, *args):
        """Run fn(*args); return (normalised s, wall s, probes, its result)."""
        marks = [probe()]
        self._marks = marks
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._marks = None
        marks.append(probe())
        normal, wall = normalised_seconds(marks)
        return normal, wall, len(marks), result
