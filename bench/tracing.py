"""Spans and counters recorded around calls into the library.

A span is one timed call: its name, an optional tag (such as the dimension
``d3``), start and end in ``perf_counter`` seconds, the index of the span
that encloses it, and the id of the benchmark op it belongs to. Spans and
counters stay in memory; ``dump`` writes them out once the run has ended.
"""
from __future__ import annotations

import contextlib
import json
import time
from collections import Counter

import numpy as np


class Tracer:
    """Records spans and counters; one instance per traced run."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, tag, start, end, parent, op_id]
        self.counters: Counter = Counter()
        self.gauges: dict[str, float] = {}
        self._stack: list[int] = []
        self._op_id = -1

    @contextlib.contextmanager
    def span(self, name: str, tag: str | None = None):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, tag, 0.0, 0.0, parent, self._op_id]
        self.spans.append(record)
        self._stack.append(index)
        record[2] = time.perf_counter()
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def op(self):
        """Span enclosing one benchmark op; the layer spans inside it are its children."""
        self._op_id += 1
        return self.span("op")

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] += n

    def gauge_max(self, name: str, value: float) -> None:
        self.gauges[name] = max(self.gauges.get(name, value), value)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "tag", "start", "end", "parent", "op_id"],
                    "spans": self.spans,
                    "counters": dict(self.counters),
                    "gauges": self.gauges,
                },
                fh,
            )


class NullTracer:
    """Stands in for a Tracer when tracing is off; records nothing."""

    enabled = False
    _null = contextlib.nullcontext()

    def span(self, name: str, tag: str | None = None):
        return self._null

    def op(self):
        return self._null

    def count(self, name: str, n: int = 1) -> None:
        pass

    def gauge_max(self, name: str, value: float) -> None:
        pass


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    out = [end - start for _, _, start, end, _, _ in spans]
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def span_summary(tracer: Tracer) -> dict:
    """Per-layer figures derived from the spans.

    Returns ``p50_ms`` (median self time per span name and tag), ``busy``
    (self time summed per module, the first part of the span name),
    ``op_total`` (summed wall time of the op spans) and ``uncovered``
    (op wall time not covered by any layer span).
    """
    selfs = self_times(tracer.spans)
    by_key: dict[tuple, list[float]] = {}
    busy: Counter = Counter()
    op_total = 0.0
    uncovered = 0.0
    for (name, tag, start, end, _, _), own in zip(tracer.spans, selfs):
        if name == "op":
            op_total += end - start
            uncovered += own
            continue
        by_key.setdefault((name, tag), []).append(own)
        busy[name.split(".")[0]] += own
    p50 = {key: float(np.median(v)) * 1e3 for key, v in by_key.items()}
    return {"p50_ms": p50, "busy": dict(busy), "op_total": op_total, "uncovered": uncovered}
