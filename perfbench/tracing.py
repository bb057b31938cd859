"""Spans and counters recorded around calls into the optrans layers.

The benchmark calls each layer's public functions itself and wraps every
call in a span, so spans never nest and a span's busy time is its self time.
In a traced run the evaluators of every ``Problem`` (V, u and their
derivatives) are wrapped too, and each call is counted against the span that
was open when it was made.  Everything stays in memory until the run ends.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext

EVALUATORS = ("V", "u", "V_y", "V_yx", "u_y", "u_x", "u_yx")
OUTSIDE = "bench"  # evaluator calls made while no layer span is open


class Tracer:
    """Busy seconds per span name and evaluator calls per enclosing span."""

    def __init__(self):
        self.busy = defaultdict(float)
        self.calls = Counter()
        self._open = OUTSIDE

    @contextmanager
    def span(self, name: str):
        outer, self._open = self._open, name
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.busy[name] += time.perf_counter() - t0
            self._open = outer

    def take(self) -> tuple[dict, dict]:
        """Return and clear what was recorded since the last call."""
        busy, calls = dict(self.busy), dict(self.calls)
        self.busy.clear()
        self.calls.clear()
        return busy, calls

    def count_evaluators(self, problem) -> None:
        """Wrap the problem's evaluators so that every call is counted."""
        for name in EVALUATORS:
            setattr(problem, name, self._counted(getattr(problem, name)))

    def _counted(self, fn):
        def counted(*args, **kwargs):
            self.calls[self._open] += 1
            return fn(*args, **kwargs)

        return counted


class NullTracer:
    """Tracing off: spans cost one no-op context manager and record nothing."""

    def span(self, name: str):
        return nullcontext()

    def take(self) -> tuple[dict, dict]:
        return {}, {}
