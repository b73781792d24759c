"""CPU time scaled to a nominal core speed.

On a shared host the CPU time one call takes changes from second to second
as other tenants load the same cores and caches: on a 2-vCPU Xeon VM, the
same 18 ms loop took from 13 to 30 ms, and the median of 5 s stretches
moved by half.  That swing is slow next to 20 ms (the speed of one 18 ms
slice predicted the next with correlation 0.9), so while a measured call
runs, a profiling timer interrupts it every ``PERIOD`` CPU seconds to run a
fixed reference kernel and measure the core's current speed.  The kernel's
own time is taken out of the call's, and each stretch of the call is scaled
to a core on which one reference slice takes ``REF_SECONDS``.  Scaled so,
the spread of 5 runs' medians fell from 0.3-0.4 to about 0.05 of the median
on that VM.

The reference kernel lives here, not in ``choicealloc``, so no change to
the library moves it.  It mixes the kinds of work the library does: integer
and float loops, dicts and sets keyed by tuples, small objects, sorting,
``math.fsum`` over short lists and numpy gathers over a 2 MB array.
"""

from __future__ import annotations

import bisect
import math
import signal
import time
from collections import defaultdict

import numpy as np

# CPU time of this thread.  The process clock would not do: while a
# process-wide CPU timer (the SIGPROF below) is armed, Linux reads it at
# scheduler-tick resolution.  The harness and the library run in one thread
# (run.py pins BLAS to one thread), so the two clocks agree otherwise.
clock = time.thread_time
# CPU seconds of one reference slice on the core the units are scaled to
# (about a quiet core of the 2-vCPU Xeon VM the benchmark was tuned on).
REF_SECONDS = 0.002
# CPU seconds between two reference slices while a Meter is running.
PERIOD = 0.02

_BIG = np.arange(1 << 18, dtype=float)
_IDX = np.random.default_rng(0).integers(0, 1 << 18, 4096)
_WEIGHTS = [1.0 + 0.01 * i for i in range(12)]


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def reference() -> float:
    """The fixed reference kernel; returns a checksum so no part is dead."""
    s = 0
    d: dict = {}
    for i in range(6000):
        s += i * i % 7
        d[i & 255] = s
    t = float(s % 1000)
    for i in range(800):
        item = _Item(i, i * 0.5)
        d[(i & 127, i & 3)] = item
        t += item.value * 1.0001 + len(d)
        if i % 50 == 0:
            t += float(_BIG[_IDX].sum()) * 1e-12
            t += float(np.maximum(_BIG[:256] - t, 0.0).sum()) * 1e-12
    pairs = sorted((i * 7919 % 1000, i) for i in range(1200))
    seen = set()
    for a, b in pairs:
        seen.add(a)
        t += a / (b + 1.0)
    for i in range(200):
        members = sorted(frozenset(range(1 + i % 5, 12, 1 + i % 3)))
        den = 1.0 + math.fsum(_WEIGHTS[j] for j in members)
        t += sum(_WEIGHTS[j] / den for j in members)
    return t + len(seen)


def reference_seconds() -> float:
    """CPU seconds of one reference slice, now."""
    t0 = clock()
    reference()
    return clock() - t0


def scaled(seconds: float, ref: float) -> float:
    """``seconds`` of CPU time measured while a reference slice took ``ref``,
    at the nominal speed."""
    return seconds * REF_SECONDS / ref


class Meter:
    """Times calls in CPU seconds and scales them to the nominal speed.

    Use it as a context manager around the measured calls: while it runs,
    ``SIGPROF`` fires every ``PERIOD`` CPU seconds and the handler runs one
    reference slice.  Times are kept on the *program clock*, CPU time minus
    the time spent in reference slices, so a slice that interrupts a call
    is not charged to it.  Between two consecutive slices the speed is
    taken as their mean, and ``samples()`` integrates a call's program time
    at that speed.
    """

    def __init__(self):
        self._positions: list[float] = []  # program clock at each slice
        self._refs: list[float] = []  # CPU seconds of each slice
        self._calls: list[tuple] = []  # (key, start, end) on the program clock
        self._spent = 0.0  # CPU seconds spent in slices and their handler
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_PROF, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        self._sample()
        return False

    def _sample(self, *_):
        t0 = clock()
        reference()
        t1 = clock()
        self._positions.append(t0 - self._spent)
        self._refs.append(t1 - t0)
        self._spent += clock() - t0

    def now(self) -> float:
        """The program clock: CPU seconds not spent in reference slices."""
        while True:  # retry if a slice ran between the two reads
            spent = self._spent
            now = clock()
            if spent == self._spent:
                return now - spent

    def timed(self, key, fn, *args, **kwargs):
        start = self.now()
        result = fn(*args, **kwargs)
        self._calls.append((key, start, self.now()))
        return result

    def interval(self, key, start: float) -> None:
        """Record program time from ``start`` to now under ``key``."""
        self._calls.append((key, start, self.now()))

    @property
    def references(self) -> list[float]:
        return list(self._refs)

    def samples(self, scale: bool = True) -> dict:
        """key -> the times of its calls, scaled (or as measured)."""
        out: dict = defaultdict(list)
        for key, start, end in self._calls:
            out[key].append(self._scaled(start, end) if scale else end - start)
        return out

    def _scaled(self, start: float, end: float) -> float:
        pos, refs = self._positions, self._refs
        i = max(bisect.bisect_right(pos, start) - 1, 0)
        total = 0.0
        while True:
            lo = max(start, pos[i])
            hi = end if i + 1 >= len(pos) else min(end, pos[i + 1])
            ref = refs[i] if i + 1 >= len(pos) else (refs[i] + refs[i + 1]) / 2
            if hi > lo:
                total += scaled(hi - lo, ref)
            if i + 1 >= len(pos) or pos[i + 1] >= end:
                return total
            i += 1
