"""Wall time normalised to the speed of a shared host.

On a machine shared with other tenants the same code runs up to 1.7 times
slower for stretches of seconds to minutes, and process CPU time slows with
wall time, so neither is steady from one run to the next. The clock below
interrupts a timed call every INTERVAL_S with SIGALRM and, at each
interruption and at the call's end, times a fixed reference loop. Each
stretch of the call between two such points is scaled by NOMINAL_REF_S over
the mean reference time at its two ends: the result is the time the call
would take on a host where the reference takes NOMINAL_REF_S. The reference
runs outside the stretches, so its own time counts in neither figure.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Reference time that defines the nominal host, and how often a long call is
# interrupted to take it.
NOMINAL_REF_S = 0.006
INTERVAL_S = 0.5


def reference() -> int:
    """A fixed mix of what sepprof's pure-Python layers do, in about equal
    parts: the kernels' integer bit operations and dict traffic, and the
    optimizer's numpy calls on small arrays indexed by balls."""
    seen = {}
    acc = 0
    for i in range(10000):
        m = (i * 2654435761) & 0xFFFFF
        acc += m.bit_count()
        seen[m & 1023] = acc
    f = np.linspace(-1.0, 1.0, 36)
    balls = [np.arange(x, x + 5) % 36 for x in range(36)]
    for _ in range(12):
        u = np.zeros(36)
        for x, ball in enumerate(balls):
            sub = f[ball]
            u[x] = float(sub.max() - sub.min())
        f = f - u / (np.linalg.norm(u) + 1.0)
        f -= f.mean()
    return acc + len(seen)


def reference_s() -> float:
    """Wall time of one reference run."""
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


def host_factor(samples: int = 3) -> float:
    """NOMINAL_REF_S over the median of a few reference runs: the factor
    that turns a wall time taken just now into nominal seconds."""
    return NOMINAL_REF_S / statistics.median(
        reference_s() for _ in range(samples))


class NominalClock:
    """Times calls in wall seconds and in nominal seconds.

    interval_s is how often a call is interrupted; None takes the reference
    only at the ends of each call, for a traced pass, whose spans would
    count the interruptions.
    """

    def __init__(self, interval_s: float | None = INTERVAL_S):
        self._interval = interval_s
        self._ref = reference_s()
        self._active = False
        self._mark = 0.0
        self._wall = self._nominal = 0.0

    def _checkpoint(self) -> None:
        stretch = time.perf_counter() - self._mark
        ref = reference_s()
        self._wall += stretch
        self._nominal += stretch * NOMINAL_REF_S / ((self._ref + ref) / 2)
        self._ref = ref
        self._mark = time.perf_counter()

    def _on_alarm(self, signum, frame) -> None:
        if not self._active:
            return
        self._checkpoint()
        signal.setitimer(signal.ITIMER_REAL, self._interval)

    def time(self, thunk):
        """(result, wall seconds, nominal seconds) of thunk()."""
        self._wall = self._nominal = 0.0
        interrupt = self._interval is not None
        if interrupt:
            previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._active = True
        self._mark = time.perf_counter()
        if interrupt:
            signal.setitimer(signal.ITIMER_REAL, self._interval)
        try:
            result = thunk()
        finally:
            self._active = False
            if interrupt:
                signal.setitimer(signal.ITIMER_REAL, 0)
            self._checkpoint()
            if interrupt:
                signal.signal(signal.SIGALRM, previous)
        return result, self._wall, self._nominal
