"""Pipeline span tracing: nested timed events over the ingest stages.

:meth:`Telemetry.span <repro.obs.telemetry.Telemetry.span>` hands out
:class:`Span` context managers; entering a span pushes it on the
telemetry's stack (establishing parentage), exiting stamps the duration
and emits a :class:`SpanEvent` to every sink.  The
event schema is deliberately flat and JSON-friendly so a trace file is
replayable (see :mod:`repro.obs.traceview` and docs/OBSERVABILITY.md):

========  =====================================================
field     meaning
========  =====================================================
name      stage name (``run``, ``file``, ``chunk``, ``hash``,
          ``index``, ``store``, ``end_file``, ``verify`` …)
span_id   per-trace ordinal, unique within one trace
parent    ``span_id`` of the enclosing span (-1 at the root)
start     seconds since the trace's epoch (perf-counter clock)
duration  seconds between enter and exit
attrs     small JSON-safe dict (file ids, batch sizes, metered
          ``io_ops``/``io_bytes`` deltas from the I/O probe)
========  =====================================================

The clock lives *here*, not in the algorithm packages — dedupcheck's
DDC004 bans wall-clock reads from ``repro/core``/``chunking``/
``baselines``, so instrumented code only ever calls through this
module (and through no-op spans when tracing is off).

Cross-process stitching (the distributed half): every trace carries a
``trace_id`` (random 128-bit hex, W3C-traceparent flavoured) and an
``origin`` naming the process/component that produced the trace.  Both
are stamped on each :class:`SpanEvent`.  A span in *another* process is
referenced by a **span ref** ``"<origin>#<span_id>"``; carrying one in
a span's ``attrs["remote_parent"]`` lets
:func:`repro.obs.traceview.merge_traces` resolve it into a real parent
link, so one trace id stitches client → server → ingest into a single
tree.  Old trace files without these fields load with the empty-string
defaults and keep working.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from .telemetry import Telemetry

__all__ = [
    "SpanEvent",
    "Span",
    "NullSpan",
    "NULL_SPAN",
    "new_trace_id",
    "span_ref",
    "parse_span_ref",
]


def new_trace_id() -> str:
    """A fresh 128-bit trace id as 32 lowercase hex chars."""
    return os.urandom(16).hex()


def span_ref(origin: str, span_id: int) -> str:
    """Cross-process span reference: ``"<origin>#<span_id>"``."""
    return f"{origin}#{span_id}"


def parse_span_ref(ref: str) -> tuple[str, int] | None:
    """Split a span ref back into ``(origin, span_id)``; None if malformed."""
    origin, sep, tail = ref.rpartition("#")
    if not sep:
        return None
    try:
        return origin, int(tail)
    except ValueError:
        return None


@dataclass(frozen=True)
class SpanEvent:
    """One completed span, as delivered to sinks (and trace files)."""

    name: str
    span_id: int
    parent: int
    start: float
    duration: float
    attrs: dict[str, Any] = field(default_factory=dict)
    trace_id: str = ""  # shared across processes participating in one trace
    origin: str = ""  # which process/component produced the span

    def as_dict(self) -> dict[str, Any]:
        """JSON-serialisable form (the JSONL trace record body)."""
        d: dict[str, Any] = {
            "name": self.name,
            "span_id": self.span_id,
            "parent": self.parent,
            "start": self.start,
            "duration": self.duration,
            "attrs": self.attrs,
        }
        if self.trace_id:
            d["trace_id"] = self.trace_id
        if self.origin:
            d["origin"] = self.origin
        return d

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> SpanEvent:
        """Rebuild a span event from its :meth:`as_dict` form."""
        return cls(
            name=str(d["name"]),
            span_id=int(d["span_id"]),
            parent=int(d["parent"]),
            start=float(d["start"]),
            duration=float(d["duration"]),
            attrs=dict(d.get("attrs", {})),
            trace_id=str(d.get("trace_id", "")),
            origin=str(d.get("origin", "")),
        )


class NullSpan:
    """The no-op span: entering and exiting does nothing.

    A single module-level instance (:data:`NULL_SPAN`) is returned by
    disabled telemetry, so the disabled path allocates nothing and
    never reads the clock.
    """

    __slots__ = ()

    def __enter__(self) -> NullSpan:
        """No-op."""
        return self

    def __exit__(self, *exc: object) -> None:
        """No-op."""

    def set_attr(self, name: str, value: Any) -> None:
        """No-op."""


#: Shared no-op span returned whenever tracing is disabled.
NULL_SPAN = NullSpan()


class Span:
    """A live span; use as a context manager around one pipeline stage."""

    __slots__ = ("_tel", "name", "span_id", "parent", "start", "attrs", "_io0")

    def __init__(self, tel: Telemetry, name: str, attrs: dict[str, Any]) -> None:
        self._tel = tel
        self.name = name
        self.attrs = attrs
        self.span_id = -1
        self.parent = -1
        self.start = 0.0
        self._io0: tuple[int, int] | None = None

    def set_attr(self, name: str, value: Any) -> None:
        """Attach one attribute to the span (any JSON-safe value)."""
        self.attrs[name] = value

    def __enter__(self) -> Span:
        """Start the clock and push this span on the telemetry's span stack."""
        tel = self._tel
        self.span_id = tel._next_id()
        self.parent = tel._stack[-1] if tel._stack else -1
        tel._stack.append(self.span_id)
        if tel.io_probe is not None:
            self._io0 = tel.io_probe()
        self.start = time.perf_counter() - tel.epoch
        return self

    def __exit__(self, *exc: object) -> None:
        """Stop the clock, pop the stack and emit the event to the sinks."""
        tel = self._tel
        duration = time.perf_counter() - tel.epoch - self.start
        if tel._stack and tel._stack[-1] == self.span_id:
            tel._stack.pop()
        if self._io0 is not None and tel.io_probe is not None:
            ops1, bytes1 = tel.io_probe()
            self.attrs["io_ops"] = ops1 - self._io0[0]
            self.attrs["io_bytes"] = bytes1 - self._io0[1]
        tel._emit(
            SpanEvent(
                name=self.name,
                span_id=self.span_id,
                parent=self.parent,
                start=self.start,
                duration=duration,
                attrs=self.attrs,
                trace_id=tel.trace_id,
                origin=tel.origin,
            )
        )
