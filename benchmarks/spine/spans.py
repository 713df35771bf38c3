"""Spans recorded from the harness's side of each layer boundary.

The harness wraps every call into a layer's public function in
``tracer.span("layer.call")``.  A span is ``(name, start, end, parent, op)``:
``parent`` indexes the enclosing span of the same thread, ``op`` is the
operation id shared by all spans of one repetition or request.  Spans stay in
memory and are written once, at exit.  A span's *self time* is its duration
minus the part of its interval that its children cover.

With tracing off ``span()`` returns a shared no-op, so the end-to-end run pays
one attribute test per call site.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[str]

    @property
    def duration(self) -> float:
        return self.end - self.start


class _NullSpan:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL = _NullSpan()


class _LiveSpan:
    __slots__ = ("_tracer", "_name", "_op", "_index")

    def __init__(self, tracer: "Tracer", name: str, op: Optional[str]) -> None:
        self._tracer = tracer
        self._name = name
        self._op = op

    def __enter__(self) -> None:
        tracer = self._tracer
        stack = tracer._stack()
        parent = stack[-1] if stack else None
        op = self._op
        if op is None and parent is not None:
            op = tracer.spans[parent].op
        with tracer._lock:
            self._index = len(tracer.spans)
            tracer.spans.append(Span(self._name, 0.0, 0.0, parent, op))
        stack.append(self._index)
        tracer.spans[self._index].start = time.perf_counter()

    def __exit__(self, *exc_info: object) -> None:
        end = time.perf_counter()
        self._tracer.spans[self._index].end = end
        self._tracer._stack().pop()


class Tracer:
    """In-memory span recorder; one stack per thread."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, op: Optional[str] = None):
        """Context manager recording one span (a no-op when tracing is off)."""
        if not self.enabled:
            return _NULL
        return _LiveSpan(self, name, op)

    def write(self, path: Path, header: Dict[str, object]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(header)
        payload["columns"] = ["name", "start", "end", "parent", "op"]
        payload["spans"] = [[s.name, s.start, s.end, s.parent, s.op] for s in self.spans]
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


def covered(intervals: Sequence[Tuple[float, float]], low: float, high: float) -> float:
    """Length of ``[low, high]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = low
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per-span self time: duration minus the interval its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        span.duration - covered(children.get(index, ()), span.start, span.end)
        for index, span in enumerate(spans)
    ]


def totals(spans: Sequence[Span], measured_only: bool = False) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, total duration and total self time (seconds).

    ``measured_only`` keeps the spans of repetitions (those carrying an
    operation id) and drops set-up, whose first calls build lazy structures.
    """
    out: Dict[str, Dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        if measured_only and span.op is None:
            continue
        row = out.setdefault(span.name, {"count": 0, "seconds": 0.0, "self_seconds": 0.0})
        row["count"] += 1
        row["seconds"] += span.duration
        row["self_seconds"] += own
    return out


__all__ = ["Span", "Tracer", "covered", "self_times", "totals"]
