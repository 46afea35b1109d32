"""Host speed correction for wall times measured on a noisy shared host.

On a shared 2-vCPU Xeon guest (Python 3.11.7), the same pure-Python
work ran up to twice as slow for stretches of 0.2 s to a minute, with
CPU time equal to wall time (see README.md, "Host noise").  No hardware
counters are exposed, so a fixed probe stands in for them: while a
HostSpeed is active, a 20 ms timer signal runs the probe and records how
long it took.  A measured interval is rescaled by PROBE_NOMINAL_S over
the probe times sampled inside it: the time the same work would take at
the speed where the probe takes PROBE_NOMINAL_S.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

# The probe's time on the reference host when uncontended.  Any constant
# works for comparing two commits; this one keeps the figures close to
# the uncontended wall times.
PROBE_NOMINAL_S = 275e-6
INTERVAL_S = 0.02
MIN_SAMPLES = 4


def probe() -> int:
    """Small-object interpreter work: tuples, dict lookups, int arithmetic."""
    d: dict = {}
    s = 0
    for i in range(1000):
        t = (i % 7, i % 11)
        d[t] = d.get(t, 0) + 1
        s += len(d) ^ i
    return s


def timed_probe() -> float:
    start = time.perf_counter()
    probe()
    return time.perf_counter() - start


def scale(durations) -> float:
    """Factor turning wall time into nominal-speed time, from probe times."""
    return PROBE_NOMINAL_S * statistics.fmean(1 / d for d in durations)


class HostSpeed:
    """Samples the probe from a timer signal while used as a context manager."""

    def __init__(self):
        self.stamps: list[float] = []  # end of each probe, ascending
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        duration = timed_probe()
        self.stamps.append(time.perf_counter())
        self.durations.append(duration)

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def measure(self, start: float, end: float) -> tuple[float, float]:
        """(wall time without probes, nominal-speed time) of [start, end].

        Uses the probes taken inside the interval, or the MIN_SAMPLES
        nearest ones when the interval is too short to hold that many.
        """
        lo = bisect.bisect_left(self.stamps, start)
        hi = bisect.bisect_right(self.stamps, end)
        wall = end - start - sum(self.durations[lo:hi])
        if hi - lo < MIN_SAMPLES:
            mid = (lo + hi) // 2
            lo = max(0, min(mid - MIN_SAMPLES // 2, len(self.stamps) - MIN_SAMPLES))
            hi = min(len(self.stamps), lo + MIN_SAMPLES)
        if hi == lo:
            raise RuntimeError("no host speed samples taken")
        return wall, wall * scale(self.durations[lo:hi])
