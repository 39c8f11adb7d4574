"""In-memory spans and counts for the traced benchmark run.

A span records one public call into the library (or one CLI process):
its name, start and end on the ``perf_counter`` clock, the span that
was open when it started, and the id of the operation it belongs to.
Spans stay in memory until the run ends and are written out once, so
recording them costs a list append per call.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op: int | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "op": self.op,
        }
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, n: float) -> None:
        self.counts[name] += n

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        out = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out

    def total(self, name: str) -> tuple[float, int]:
        """Summed duration and number of the spans called ``name``."""
        durations = [s["end"] - s["start"] for s in self.spans if s["name"] == name]
        return sum(durations), len(durations)

    def write(self, path) -> None:
        rows = [dict(s, self=st) for s, st in zip(self.spans, self.self_times())]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows, "counts": self.counts}, fh)


class NullTracer:
    """The untraced run: calls pass straight through."""

    op: int | None = None

    @contextmanager
    def span(self, name: str):
        yield

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, n: float) -> None:
        pass
