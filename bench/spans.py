"""In-memory span recorder for the benchmark's traced runs.

A span is (name, start, end, parent, op): ``start``/``end`` are
``time.perf_counter`` seconds (CLOCK_MONOTONIC on Linux, so stamps from
worker processes line up), ``parent`` is the index of the enclosing span
or None, and ``op`` the id of the operation it belongs to.  Counts are
summed per name, peaks keep the largest value seen.  Everything stays in
memory until the run writes it out at its end.

``Tracer(enabled=False)`` records nothing: ``span`` hands back a no-op
context and ``count``/``peak`` return at once.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self.peaks: dict[str, int] = {}
        self.count_ops: dict[str, set] = {}
        self._stack: list[int] = []
        self._op: int | None = None

    def begin_op(self, op: int) -> None:
        self._op = op

    def span(self, name: str):
        if not self.enabled:
            return nullcontext()
        return self._record(name)

    @contextmanager
    def _record(self, name: str):
        start = time.perf_counter()
        yield
        self.add_span(name, start, time.perf_counter())

    def add_span(self, name: str, start: float, end: float) -> int:
        """Record a finished span; children recorded inside it are re-parented.

        Spans are appended when they end, so a span's children are the
        spans appended since it started that have no parent yet.
        """
        index = len(self.spans)
        for s in reversed(self.spans):
            if s["start"] < start:
                break
            if s["parent"] is None and s["op"] == self._op:
                s["parent"] = index
        self.spans.append(
            {"name": name, "start": start, "end": end, "parent": None, "op": self._op}
        )
        return index

    def count(self, name: str, k: int) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + k
            self.count_ops.setdefault(name, set()).add(self._op)

    def peak(self, name: str, k: int) -> None:
        if self.enabled:
            self.peaks[name] = max(self.peaks.get(name, k), k)

    def adopt(self, worker: dict) -> None:
        """Take over the spans, counts and peaks a worker recorded for this op."""
        if not self.enabled:
            return
        for s in worker["spans"]:
            self.add_span(s["name"], s["start"], s["end"])
        for name, k in worker["counts"].items():
            self.count(name, k)
        for name, k in worker["peaks"].items():
            self.peak(name, k)

    def self_times(self, name: str) -> list[float]:
        """Duration of each span called ``name`` minus its children's."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        return [
            s["end"] - s["start"] - child[i]
            for i, s in enumerate(self.spans)
            if s["name"] == name
        ]
