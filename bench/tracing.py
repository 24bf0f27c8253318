"""Spans recorded from outside the package: around the benchmark's own calls
into diffstop, and around the callables the benchmark hands to it.

A span's self time is its duration minus the durations of the spans opened
while it was open, so the self time of ``excessivity_check`` excludes the
time spent in the callable it integrates.  Durations are kept per span name
in memory and summarised when the run ends.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from array import array

_clock = time.perf_counter


class Tracer:
    """Collects span durations (seconds) by name."""

    enabled = True

    def __init__(self):
        self.durations: dict[str, array] = {}
        self.self_times: dict[str, array] = {}
        self._child_time: list[float] = []     # one accumulator per open span

    def _open(self) -> float:
        self._child_time.append(0.0)
        return _clock()

    def _close(self, name: str, start: float) -> None:
        dur = _clock() - start
        child = self._child_time.pop()
        if self._child_time:
            self._child_time[-1] += dur
        self.durations.setdefault(name, array("d")).append(dur)
        self.self_times.setdefault(name, array("d")).append(dur - child)

    @contextlib.contextmanager
    def span(self, name: str):
        start = self._open()
        try:
            yield
        finally:
            self._close(name, start)

    def wrap(self, name: str, fn):
        """fn, recording one span per call."""
        def traced(*args, **kwargs):
            start = self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, start)
        return traced

    def counts(self) -> dict[str, int]:
        return {name: len(d) for name, d in self.durations.items()}

    def median_ms(self, name: str, self_time: bool = False) -> float:
        """Per-call median in ms; 0 when the name was never called."""
        values = (self.self_times if self_time else self.durations).get(name)
        return 1e3 * statistics.median(values) if values else 0.0

    def summary(self) -> dict:
        return {name: {"calls": len(d), "median_ms": 1e3 * statistics.median(d),
                       "total_ms": 1e3 * sum(d),
                       "self_median_ms": 1e3 * statistics.median(self.self_times[name])}
                for name, d in sorted(self.durations.items())}


class NullTracer:
    """Tracing off: spans cost a null context and callables pass through."""

    enabled = False

    def span(self, name: str):
        return contextlib.nullcontext()

    def wrap(self, name: str, fn):
        return fn
