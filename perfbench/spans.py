"""In-memory spans recorded by the benchmark around its calls into the program.

A span is ``(name, start, end, parent, round)``: ``parent`` is the index
of the enclosing span (``-1`` at top level) and ``round`` is the round
or step id the span belongs to.  Spans stay in a list until the run
ends and are written out once.  The untraced run uses :data:`NO_SPANS`,
whose ``span()`` hands back one shared no-op context manager, so the
only cost tracing-off adds is a method call per boundary.
"""

from __future__ import annotations

import json
import time
from pathlib import Path


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def rename(self, name: str) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _NoSpans:
    enabled = False

    def span(self, name: str, round_id: int = -1):
        return _NULL_SPAN


#: The recorder of every untraced run.
NO_SPANS = _NoSpans()


class _Span:
    __slots__ = ("_spans", "_index")

    def __init__(self, spans: "Spans", name: str, round_id: int):
        self._spans = spans
        stack = spans._stack
        parent = stack[-1] if stack else -1
        self._index = len(spans.records)
        spans.records.append([name, 0.0, 0.0, parent, round_id])

    def __enter__(self):
        self._spans._stack.append(self._index)
        self._spans.records[self._index][1] = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        self._spans.records[self._index][2] = time.perf_counter()
        self._spans._stack.pop()
        return False

    def rename(self, name: str) -> None:
        """Relabel the span, e.g. a round that turned out not to run."""
        self._spans.records[self._index][0] = name


class Spans:
    """Span recorder of the traced run."""

    enabled = True

    def __init__(self) -> None:
        self.records: list[list] = []
        self._stack: list[int] = []

    def span(self, name: str, round_id: int = -1) -> _Span:
        return _Span(self, name, round_id)

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _p, _r in self.records
                   if n == name)

    def self_totals(self) -> dict[str, float]:
        """Per span name: total duration minus the time its direct
        children cover (children of one parent never overlap)."""
        child_time = [0.0] * len(self.records)
        for name, start, end, parent, _round in self.records:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = {}
        for index, (name, start, end, _p, _r) in enumerate(self.records):
            totals[name] = totals.get(name, 0.0) + (
                end - start - child_time[index]
            )
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, round_id in self.records:
                handle.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "round": round_id,
                }) + "\n")
