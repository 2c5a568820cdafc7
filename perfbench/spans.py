"""Benchmark-side spans: recorded in memory, written as NDJSON at the end.

A span is ``(name, start, end, parent, request id)`` around one call the
benchmark makes into a layer, whether over the wire or in process.  The
spans live in this process only; nothing inside the program is traced.
"""

from __future__ import annotations

import itertools
import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Span recorder; only a traced run calls it."""

    def __init__(self):
        # (id, name, start_ns, end_ns, parent, rid); span ``k`` sits at index k-1.
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)

    def record(self, name: str, start_ns: int, end_ns: int, parent: int = 0, rid=None) -> int:
        span_id = next(self._ids)
        self.spans.append((span_id, name, start_ns, end_ns, parent, rid))
        return span_id

    def begin(self, name: str, parent: int = 0, rid=None) -> int:
        """Open a span that :meth:`end` closes; returns its id."""
        now = time.perf_counter_ns()
        return self.record(name, now, now, parent, rid)

    def end(self, span_id: int) -> None:
        sid, name, start, _, parent, rid = self.spans[span_id - 1]
        self.spans[span_id - 1] = (sid, name, start, time.perf_counter_ns(), parent, rid)

    @contextmanager
    def span(self, name: str, parent: int = 0, rid=None):
        """Time the body; yields the span id so children can name it."""
        span_id = self.begin(name, parent, rid)
        try:
            yield span_id
        finally:
            self.end(span_id)

    def write_ndjson(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, rid in self.spans:
                fh.write(json.dumps({
                    "span": span_id, "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent or None, "request": rid,
                }) + "\n")

    def self_times(self) -> list[tuple[str, int, float, float]]:
        """Per span name: ``(name, count, total ms, self ms)``.

        Self time is a span's duration minus the part of it that its
        children cover (children of one parent do not overlap in time
        here except for concurrent client calls, whose union is taken).
        """
        kids: dict[int, list[tuple[int, int]]] = {}
        for _, _, start, end, parent, _ in self.spans:
            if parent:
                kids.setdefault(parent, []).append((start, end))
        rows: dict[str, list] = {}
        for span_id, name, start, end, _, _ in self.spans:
            covered, reach = 0, start
            for s, e in sorted(kids.get(span_id, ())):
                s, e = max(s, reach), min(e, end)
                if e > s:
                    covered += e - s
                    reach = e
            row = rows.setdefault(name, [0, 0, 0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - covered
        return [(name, c, tot / 1e6, own / 1e6) for name, (c, tot, own) in sorted(rows.items())]
