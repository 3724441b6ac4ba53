"""In-memory spans recorded around the benchmark's own calls into flaketriage.

A span is (name, start, end, parent index). Spans stay in memory until the
run ends and are then written out as one JSON file. A layer's self time is a
span's duration minus the part its child spans cover.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent]
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def child_totals(self, parent: str, child: str) -> list[float]:
        """For each span named ``parent``, the summed duration of its direct
        children named ``child``."""
        totals = {i: 0.0 for i, span in enumerate(self.spans) if span[0] == parent}
        for name, start, end, up in self.spans:
            if name == child and up in totals:
                totals[up] += end - start
        return list(totals.values())

    def _own_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        return [end - start - covered
                for (_, start, end, _), covered in zip(self.spans, child_time)]

    def self_durations(self, name: str) -> list[float]:
        """Self time of each span of this name, in seconds."""
        return [own for span, own in zip(self.spans, self._own_times()) if span[0] == name]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        totals: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self._own_times()):
            totals[span[0]] += own
        return dict(totals)

    def layer_self_times(self) -> dict[str, float]:
        """Self time per layer: the span name up to its first dot."""
        totals: dict[str, float] = defaultdict(float)
        for name, seconds in self.self_times().items():
            totals[name.split(".", 1)[0]] += seconds
        return dict(totals)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [
            {"name": n, "start": s - origin, "end": e - origin, "parent": p}
            for n, s, e, p in self.spans
        ]
        path.write_text(json.dumps({"spans": rows}), encoding="utf-8")


@contextmanager
def no_span(name: str):
    yield
