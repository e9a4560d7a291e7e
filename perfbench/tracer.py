"""In-memory spans recorded around calls into the program's public API.

A :class:`Tracer` records one span per layer call: name, start, end,
parent span and request id.  Spans stay in a list until the run ends;
nothing is written while the load runs.  A disabled tracer hands back
the wrapped callables unchanged, so an untraced run pays nothing.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import time
from contextlib import contextmanager, nullcontext

_CURRENT = contextvars.ContextVar("perfbench_span", default=None)
_NO_SPAN = nullcontext()


class Tracer:
    """Span recorder; ``enabled=False`` makes every hook a no-op."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        #: ``(span_id, name, start, end, parent_id, request_id)`` tuples.
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)

    def span(self, name: str, request=None):
        """Context manager recording one span (a shared no-op when disabled)."""
        if not self.enabled:
            return _NO_SPAN
        return self._span(name, request)

    @contextmanager
    def _span(self, name: str, request):
        span_id = next(self._ids)
        parent = _CURRENT.get()
        if request is None and parent is not None:
            request = parent[1]
        token = _CURRENT.set((span_id, request))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            _CURRENT.reset(token)
            self.spans.append(
                (span_id, name, start, end, None if parent is None else parent[0], request)
            )

    def wrap(self, fn, name: str):
        """``fn`` with a span around every call (``fn`` itself when disabled)."""
        if not self.enabled:
            return fn

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def extend(self, spans) -> None:
        """Adopt spans recorded by another process (ids are renumbered)."""
        remap = {}
        for span_id, *_ in spans:
            remap[span_id] = next(self._ids)
        for span_id, name, start, end, parent, request in spans:
            self.spans.append(
                (remap[span_id], name, start, end, remap.get(parent), request)
            )


def layer_table(spans, lo: float, hi: float) -> dict[str, dict]:
    """Self time and call count per span name, for spans ending in ``[lo, hi]``.

    A span's self time is its duration minus the time its child spans
    cover; children of one span run one after another, so their
    durations add up without overlap.
    """
    inside = [s for s in spans if lo <= s[3] <= hi]
    child_time: dict[int, float] = {}
    for _, _, start, end, parent, _ in inside:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    table: dict[str, dict] = {}
    for span_id, name, start, end, _, _ in inside:
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += (end - start) - child_time.get(span_id, 0.0)
    return table


def covered_seconds(spans, lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` that at least one span covers."""
    intervals = sorted(
        (max(s[2], lo), min(s[3], hi)) for s in spans if s[3] > lo and s[2] < hi
    )
    covered = 0.0
    cur_lo = cur_hi = None
    for a, b in intervals:
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return covered
