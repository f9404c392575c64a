"""In-memory span recorder for the benchmark's traced run.

A span is ``[name, start, end, parent, tick]``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``tick`` is the control tick the
span ran in (-1 outside the tick loop), so every span of one tick shares
an id.  Spans stay in memory and are written out once, at the end.

A span's self time is its duration minus the time its child spans cover.
Calls run on one thread and nest, so children never overlap and that
cover is simply the sum of the children's durations.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path
from time import perf_counter


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.tick = -1
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.tick])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order (open: {popped})")

    def inside(self, name: str) -> bool:
        """True when the innermost open span is ``name`` (re-entrant call)."""
        return bool(self._stack) and self.spans[self._stack[-1]][0] == name

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = {}
        for (name, start, end, _, _), cover in zip(self.spans, covered):
            totals[name] = totals.get(name, 0.0) + (end - start) - cover
        return totals

    def write(self, path: Path) -> None:
        """Write every span (times relative to the first) as gzipped JSON."""
        origin = self.spans[0][1] if self.spans else 0.0
        payload = {
            "fields": ["name", "start_s", "end_s", "parent", "tick"],
            "spans": [
                [name, round(start - origin, 9), round(end - origin, 9), parent, tick]
                for name, start, end, parent, tick in self.spans
            ],
            "counts": self.counts,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh, separators=(",", ":"))
