"""The benchmark's own span recorder.

Spans are recorded only from benchmark code — around each unit, each
call into a layer's public function and each wrapped backend call —
kept in memory and written as JSON lines when the run ends.  A span is
``(id, name, start, end, parent, unit)``; parents are tracked per
thread, so concurrent client threads build separate trees.  Clocks are
``time.perf_counter`` (CLOCK_MONOTONIC: comparable across processes on
one Linux host, which is how server-side spans join a client's).
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    unit: str | None
    nbytes: int = 0
    #: Free-form details (storage spans: namespace kind, rewrite flag).
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span sink; a disabled tracer records nothing."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(
        self, name: str, unit: str | None = None, nbytes: int = 0, **attrs: Any
    ) -> Iterator[Span | None]:
        """Record ``name`` around the block; children inherit ``unit``."""
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span = Span(
                span_id=len(self.spans),
                name=name,
                start=0.0,
                end=0.0,
                parent=parent.span_id if parent else None,
                unit=unit if unit is not None else (parent.unit if parent else None),
                nbytes=nbytes,
                attrs=attrs,
            )
            self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")

    def adopt(self, path: Path, unit: str) -> None:
        """Append another process's span file as parentless spans of ``unit``."""
        with open(path) as fh:
            for line in fh:
                doc = json.loads(line)
                doc.update(span_id=len(self.spans), parent=None, unit=unit)
                self.spans.append(Span(**doc))


def covered_seconds(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_seconds(spans: Iterable[Span]) -> dict[int, float]:
    """Per span id: its duration minus the part its child spans cover."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.span_id: s.seconds - covered_seconds(children[s.span_id], s.start, s.end)
        for s in spans
    }
