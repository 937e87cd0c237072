"""Calibrated time: wall time scaled by the machine's speed at that moment.

The shared machine the benchmark runs on changes speed by up to 1.5x for
seconds to minutes at a time (a fixed pure-Python loop reads 6 ms or 9 ms
depending on the minute), so raw wall times of two runs are not comparable.
While the CLI runs, SIGALRM fires every PROBE_INTERVAL_S and the handler
times a fixed probe in the program's idiom.  An operation's time, minus the
time its probes took, is scaled by PROBE_REF_S over the mean probe time
during the operation: seconds on a machine where one probe takes
PROBE_REF_S.  A program change does not move the probe, so a faster
program reads faster in calibrated seconds too.
"""

import bisect
import signal
import statistics
import time

import numpy as np

PROBE_INTERVAL_S = 0.015
PROBE_REF_S = 0.0006


def probe_work():
    """Fixed work: small-vector numpy arithmetic, float formatting and parsing."""
    v = np.array([0.25, -0.5, 1.0])
    rows = []
    for i in range(20):
        w = np.cross(v, v + i) * 0.5 + np.dot(v, v)
        rows.append(",".join(f"{x:.17g}" for x in w))
    return sum(float(tok) for row in rows for tok in row.split(","))


def probe_time(repeats):
    """Median seconds of `repeats` probes, run now."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        probe_work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class SpeedProbe:
    """Context manager that samples the probe time while it is active."""

    def __init__(self):
        self.starts = []
        self.durations = []
        self.spent = 0.0  # seconds spent in probes so far
        self._previous = None

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        probe_work()
        elapsed = time.perf_counter() - start
        self.starts.append(start)
        self.durations.append(elapsed)
        self.spent += elapsed

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def now(self):
        """perf_counter() minus the time spent in probes: the program's clock."""
        return time.perf_counter() - self.spent

    def scale(self, start, end):
        """PROBE_REF_S over the mean probe time in [start, end]; an interval
        shorter than the probe period uses the probes on either side."""
        i = bisect.bisect_left(self.starts, start)
        j = bisect.bisect_right(self.starts, end)
        window = self.durations[i:j] if j > i else self.durations[max(0, i - 1):i + 1]
        return PROBE_REF_S * len(window) / sum(window)
