"""Reference pace: every reported time is scaled to one fixed machine speed.

The benchmark runs on virtual machines that share their cores with other
tenants, and such a machine changes speed by a third or more for seconds at a
time.  A run therefore times a fixed reference computation (`reference_work`)
every PERIOD_S seconds between ops, and scales each measured interval by
NOMINAL_S / (the reference time around it): a reported millisecond is a
millisecond of a machine on which `reference_work` takes NOMINAL_S.  A change
to the library moves the scaled times as it moves the raw ones; a slow phase
of the host moves both the reference and the op, and cancels.

The raw wall-clock figures are kept next to the scaled ones in every report.

A child process (a CLI run) is scaled the same way, but by the wall time of
bare interpreter starts around it (`python -S -c pass`, START_NOMINAL_S at the
reference pace): a process's start-up and imports follow the host's speed at
starting processes, which the pure-Python reference does not track.

Imports nothing from the library, so a worker can sample before its imports.
"""

from __future__ import annotations

import bisect
import statistics
import time

PERIOD_S = 0.02  # at least this long between samples during a timed loop
NOMINAL_S = 0.0015  # reference_work at the reference pace
WINDOW = 2  # samples on each side of an interval whose median sets its scale
START_NOMINAL_S = 0.01  # a bare interpreter start at the reference pace
BUFFER_BYTES = 1 << 22  # read by reference_work; resident for the whole run
_BUFFER: bytearray | None = None


def _buffer() -> bytearray:
    global _BUFFER
    if _BUFFER is None:
        _BUFFER = bytearray(range(256)) * (BUFFER_BYTES // 256)
    return _BUFFER


def reference_work() -> int:
    """A fixed pure-Python loop of pseudo-random reads across a 4 MiB buffer.

    Its speed follows the core and the caches and memory behind it, which
    other tenants share and the library's own work leans on.  It allocates
    no object the garbage collector tracks (a bytearray read gives a cached
    small int), so its time does not grow with the number of live objects
    the process holds.
    """
    buf = _buffer()
    mask = len(buf) - 1
    j = s = 0
    for _ in range(3600):
        j = (j * 1103515245 + 12345) & mask
        s += buf[j]
    return s


class Pace:
    """Reference samples of one process, and the scaling they give."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.durations: list[float] = []
        self._scales: list[float] | None = None

    def sample(self) -> None:
        t0 = time.perf_counter()
        _buffer()  # the first sample allocates it, outside the timed part
        t_ref = time.perf_counter()
        reference_work()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.durations.append(t1 - t_ref)
        self._scales = None

    def tick(self) -> None:
        """Sample if PERIOD_S has passed since the last sample."""
        if not self.ends or time.perf_counter() - self.ends[-1] >= PERIOD_S:
            self.sample()

    def _segment_scales(self) -> list[float]:
        # segment k runs from the end of sample k - 1 to the start of sample k
        # (segment 0 and segment n are open-ended); its scale is set by the
        # median of the WINDOW samples on each side
        if self._scales is None:
            d, n = self.durations, len(self.durations)
            self._scales = [
                NOMINAL_S / statistics.median(d[max(0, k - WINDOW):k + WINDOW] or d)
                for k in range(n + 1)
            ]
        return self._scales

    def scaled(self, a: float, b: float) -> float:
        """Seconds of [a, b] at the reference pace; time spent sampling does not count."""
        if not self.durations:
            raise ValueError("no reference samples were taken")
        scales = self._segment_scales()
        starts, ends = self.starts, self.ends
        k = bisect.bisect_right(starts, a)  # first sample starting after a
        total = 0.0
        lo = max(a, ends[k - 1]) if k else a
        while lo < b:
            hi = min(b, starts[k]) if k < len(starts) else b
            if hi > lo:
                total += (hi - lo) * scales[k]
            if k >= len(starts):
                break
            lo = max(lo, ends[k])
            k += 1
        return total

    def summary(self) -> dict:
        d = self.durations
        return {
            "samples": len(d),
            "reference_ms_median": 1e3 * statistics.median(d),
            "reference_ms_min": 1e3 * min(d),
            "reference_ms_max": 1e3 * max(d),
        }
