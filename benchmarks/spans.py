"""In-memory spans, the operation ledger, and summary statistics."""

from __future__ import annotations

import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    """Spans around calls into choicealloc, kept in memory until the run ends.

    A span is ``[name, parent, start_ns, end_ns]``; ``parent`` is the index
    of the enclosing span or -1.  ``counts`` holds counters recorded at the
    same call sites.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = self._open_span(name)
        try:
            yield record
        finally:
            self._close_span(record)

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span named ``name``."""
        record = self._open_span(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close_span(record)

    def _open_span(self, name: str) -> list:
        record = [name, self._open[-1] if self._open else -1, 0, 0]
        self._open.append(len(self.spans))
        self.spans.append(record)
        record[2] = time.perf_counter_ns()
        return record

    def _close_span(self, record: list) -> None:
        record[3] = time.perf_counter_ns()
        self._open.pop()

    def durations_ns(self) -> dict[str, list[int]]:
        out: dict[str, list[int]] = defaultdict(list)
        for name, _, t0, t1 in self.spans:
            out[name].append(t1 - t0)
        return out


class Ledger:
    """Operations attempted and failed, with a message per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def ops(self, n: int = 1) -> None:
        self.attempted += n

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return ok

    def fail(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.errors.append(what)


def summary(values) -> dict:
    """Median, quartiles, highest reported percentile and the sample count."""
    vals = sorted(float(v) for v in values)
    n = len(vals)
    if n == 0:
        raise ValueError("no samples")
    out = {"n": n, "median": statistics.median(vals)}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4, method="inclusive")
        out["q1"], out["q3"] = q1, q3
    # The highest percentile with at least ten samples beyond it.
    for pct in (99.9, 99, 90):
        if n * (1 - pct / 100) >= 10:
            out[f"p{pct:g}"] = percentile(vals, pct)
            break
    return out


def percentile(values, pct: float) -> float:
    vals = sorted(float(v) for v in values)
    if len(vals) == 1:
        return vals[0]
    pos = (len(vals) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)
