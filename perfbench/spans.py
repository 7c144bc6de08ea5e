"""In-memory span recorder for the traced benchmark run.

A span has a name, a start, an end, the id of the span open around it
(its parent) and the id of the round it belongs to.  Spans stay in
memory until the run ends; ``to_json`` hands them out for writing.  A disabled
tracer hands out one shared no-op context, so untraced code pays only a
method call per boundary.
"""

import statistics
import time
from collections import defaultdict


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, record):
        self.tracer = tracer
        self.record = record

    def __enter__(self):
        self.tracer._stack.append(self.record["id"])
        self.record["start"] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record["end"] = time.perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.round = 0
        self.spans = []
        self.counts = {}
        self.samples = defaultdict(list)   # durations measured outside this process
        self._stack = []

    def span(self, name: str):
        if not self.enabled:
            return _NO_SPAN
        record = {"id": len(self.spans), "name": name, "round": self.round,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": None, "end": None}
        self.spans.append(record)
        return _Span(self, record)

    def count(self, name: str, value: int):
        if self.enabled:
            self.counts[name] = value

    def sample(self, name: str, seconds: float):
        if self.enabled:
            self.samples[name].append(seconds)

    def self_times(self) -> dict:
        """Median self time per span name: each span's duration minus the
        part of it that its child spans cover (children never overlap,
        since one operation runs at a time)."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        per_name = defaultdict(list, {k: list(v) for k, v in self.samples.items()})
        for s in self.spans:
            per_name[s["name"]].append(s["end"] - s["start"] - child[s["id"]])
        return {name: statistics.median(v) for name, v in per_name.items()}

    def to_json(self) -> dict:
        """Spans with times relative to the first start, counts and samples."""
        t0 = min((s["start"] for s in self.spans), default=0.0)
        spans = [dict(s, start=s["start"] - t0, end=s["end"] - t0) for s in self.spans]
        return {"spans": spans, "counts": self.counts, "samples": dict(self.samples)}
