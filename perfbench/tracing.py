"""In-memory spans recorded around the benchmark's calls into each layer.

The program under test is not instrumented: every span starts and ends in
the benchmark's own code, just before and after a public call.  A span
carries its name (``<layer>.<call>``), start and end (``perf_counter_ns``),
the id of the span that caused it and a request id shared by every span
of one request.  Spans stay in a list until the run ends and are then
written as one JSON file.

A layer's self time is its span's duration minus the part of that
interval covered by its child spans (overlapping children count once).
"""

from __future__ import annotations

import itertools
import json
import os
import time
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

now_ns = time.perf_counter_ns


class Span(NamedTuple):
    span_id: int
    name: str
    start: int
    end: int
    parent: Optional[int]
    request: Optional[int]


def covered(start: int, end: int, intervals: Iterable[Tuple[int, int]]) -> int:
    """Length of [start, end) covered by the union of ``intervals``."""
    clipped = sorted(
        (max(s, start), min(e, end)) for s, e in intervals if e > start and s < end
    )
    total = 0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: List[Span]) -> Dict[int, int]:
    """span_id -> duration minus the coverage of its direct children."""
    children: Dict[int, List[Tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.span_id: (s.end - s.start) - covered(s.start, s.end, children.get(s.span_id, ()))
        for s in spans
    }


class Tracer:
    """Collects spans; thread-safe for appends (one list, atomic appends)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1).__next__

    def new_id(self) -> int:
        return self._ids()

    def add(
        self,
        name: str,
        start: int,
        end: int,
        parent: Optional[int] = None,
        request: Optional[int] = None,
        span_id: Optional[int] = None,
    ) -> int:
        """Record a finished span; returns its id (pre-allocated or fresh)."""
        sid = span_id if span_id is not None else self._ids()
        self.spans.append(Span(sid, name, start, end, parent, request))
        return sid

    def self_time_by_name(self) -> Dict[str, Tuple[int, int, int]]:
        """name -> (count, total duration ns, total self time ns)."""
        own = self_times(self.spans)
        out: Dict[str, List[int]] = {}
        for s in self.spans:
            row = out.setdefault(s.name, [0, 0, 0])
            row[0] += 1
            row[1] += s.end - s.start
            row[2] += own[s.span_id]
        return {name: (c, d, t) for name, (c, d, t) in out.items()}

    def write(self, path: str) -> None:
        """Dump every span as JSON (one list of records)."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([s._asdict() for s in self.spans], fh)
