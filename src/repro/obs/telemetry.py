"""The telemetry object: one handle owning registry, spans and sinks.

Instrumented code (the dedup stack) sees exactly one handle — a
:class:`Telemetry` — and asks it for three things:

* ``tel.registry`` — the process-local metrics registry;
* ``tel.span(name, ...)`` — a stage span (no-op when tracing is off);
* ``tel.heartbeat_tick(...)`` — rate-limited live-progress callback.

The module-level :data:`NULL_TELEMETRY` singleton is the default on
every :class:`~repro.core.base.Deduplicator`: its ``enabled`` flag is
``False``, so hot-path instrumentation guards (``if tel.enabled:``)
skip all metric work, and ``span()`` returns the shared
:data:`~repro.obs.trace.NULL_SPAN` without reading the clock.  The
test suite asserts the null registry stays empty across an ingest —
any unguarded instrumentation shows up as a failure.

Observation is **read-only** by decree (dedupcheck rule DDC007): this
package never imports the dedup core and never mutates dedup state;
data flows in through calls the instrumented code makes.
"""

from __future__ import annotations

import logging
import threading
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

from .metrics import MetricsRegistry
from .sinks import Sink
from .trace import NULL_SPAN, NullSpan, Span, SpanEvent, new_trace_id, span_ref

__all__ = [
    "HEARTBEAT_BYTES",
    "HEARTBEAT_FILES",
    "HeartbeatEvent",
    "Telemetry",
    "NULL_TELEMETRY",
    "note_anomaly",
    "runtime_anomalies",
]

logger = logging.getLogger("repro.obs")


#: Heartbeat intervals: the callback fires at most once per this many
#: files or input bytes, whichever comes first.
HEARTBEAT_FILES = 32
HEARTBEAT_BYTES = 64 << 20


@dataclass(frozen=True)
class HeartbeatEvent:
    """Live-progress snapshot handed to the heartbeat callback."""

    files: int  # files fully ingested so far
    input_bytes: int  # bytes ingested so far
    unique_bytes: int  # bytes resolved unique so far
    duplicate_bytes: int  # bytes resolved duplicate so far

    @property
    def der_so_far(self) -> float:
        """Running data-only DER estimate (input / unique bytes)."""
        return self.input_bytes / max(1, self.unique_bytes)


class Telemetry:
    """One run's telemetry context: registry, spans and heartbeat.

    Parameters
    ----------
    sinks:
        Zero or more :class:`~repro.obs.sinks.Sink` objects.  With no
        sinks, metrics are still collected (read them off
        :attr:`registry`) but no spans are produced.
    heartbeat:
        Optional callback receiving :class:`HeartbeatEvent`; invoked at
        most once per :data:`HEARTBEAT_FILES` files or
        :data:`HEARTBEAT_BYTES` input bytes, whichever fires first.
    trace_id:
        The cross-process trace id stamped on every span; generated
        fresh when empty (and left empty when there are no sinks).  A
        server session passes the id it received from its client so
        both processes' spans share one id.
    origin:
        Name of the process/component producing this trace (``client``,
        ``server alice-0003``, …); makes span ids globally unique as
        ``"<origin>#<span_id>"`` refs so traces from several files can
        be merged.

    The span *stack* (parentage) is single-threaded by design — one
    telemetry object belongs to one run or one service session.  Id
    allocation and sink emission are lock-protected, so other threads
    (e.g. the server's event loop) may safely report after-the-fact
    :meth:`closed_span` events into the same trace.  The I/O sampler
    spans use for attribution is attached with :meth:`set_io_probe`
    (a deduplicator does this when handed a telemetry object).
    """

    def __init__(
        self,
        sinks: Sequence[Sink] = (),
        heartbeat: Callable[[HeartbeatEvent], None] | None = None,
        trace_id: str = "",
        origin: str = "",
    ) -> None:
        self.registry = MetricsRegistry()
        self.sinks: tuple[Sink, ...] = tuple(sinks)
        self.heartbeat = heartbeat
        self._hb_next_files = HEARTBEAT_FILES
        self._hb_next_bytes = HEARTBEAT_BYTES
        self.trace_id = (trace_id or new_trace_id()) if self.sinks else ""
        self.origin = origin
        self.epoch = time.perf_counter()
        self.io_probe: Callable[[], tuple[int, int]] | None = None
        self._stack: list[int] = []
        self._lock = threading.Lock()
        self._counter = 0
        self._closed = False

    # ---- capability flags (what instrumentation guards check) ----------

    @property
    def enabled(self) -> bool:
        """Whether metric collection is on (``False`` only on the null)."""
        return True

    @property
    def tracing(self) -> bool:
        """Whether spans are live (any sink attached)."""
        return bool(self.sinks)

    # ---- spans -----------------------------------------------------------

    def span(self, name: str, **attrs: Any) -> Span | NullSpan:
        """A context manager timing one pipeline stage.

        Returns the shared no-op span when tracing is off, so call
        sites can use ``with tel.span("store"):`` unconditionally.
        """
        if not self.sinks:
            return NULL_SPAN
        return Span(self, name, attrs)

    def closed_span(
        self,
        name: str,
        duration: float,
        parent: int = -1,
        attrs: dict[str, Any] | None = None,
    ) -> int:
        """Report an already-measured interval ending *now* as a span.

        Thread-safe and stack-free: the service's event loop uses it to
        attribute waits — lock acquisition, rate-limit sleeps, queue
        back-pressure — to a session trace whose stack lives on a fleet
        thread.  Returns the new span's id, or -1 when tracing is off.
        """
        if not self.sinks:
            return -1
        end = time.perf_counter() - self.epoch
        span_id = self._next_id()
        self._emit(
            SpanEvent(
                name=name,
                span_id=span_id,
                parent=parent,
                start=max(0.0, end - duration),
                duration=duration,
                attrs={} if attrs is None else attrs,
                trace_id=self.trace_id,
                origin=self.origin,
            )
        )
        return span_id

    def span_ref(self, span_id: int) -> str:
        """Cross-process reference for one of this trace's spans."""
        if not self.sinks:
            return ""
        return span_ref(self.origin, span_id)

    def set_io_probe(self, probe: Callable[[], tuple[int, int]] | None) -> None:
        """(Re)attach the ``() -> (disk_ops, disk_bytes)`` sampler.

        When set, every span carries the I/O delta observed while it
        was open (``attrs["io_ops"]`` / ``attrs["io_bytes"]``) — the
        data behind ``trace-view``'s I/O attribution columns.  Kept
        only while tracing, so the shared null holds no reference.
        """
        if self.sinks:
            self.io_probe = probe

    def _next_id(self) -> int:
        with self._lock:
            self._counter += 1
            return self._counter

    def _emit(self, event: SpanEvent) -> None:
        with self._lock:
            for sink in self.sinks:
                sink.emit_span(event)

    # ---- heartbeat -------------------------------------------------------

    def heartbeat_tick(
        self, files: int, input_bytes: int, unique_bytes: int, duplicate_bytes: int
    ) -> None:
        """Maybe invoke the heartbeat callback (rate-limited).

        Called by the deduplicator after every file; fires the callback
        when the file- or byte-interval has elapsed since the previous
        beat.
        """
        if self.heartbeat is None:
            return
        if files < self._hb_next_files and input_bytes < self._hb_next_bytes:
            return
        self._hb_next_files = files + HEARTBEAT_FILES
        self._hb_next_bytes = input_bytes + HEARTBEAT_BYTES
        self.heartbeat(
            HeartbeatEvent(
                files=files,
                input_bytes=input_bytes,
                unique_bytes=unique_bytes,
                duplicate_bytes=duplicate_bytes,
            )
        )

    # ---- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Deliver the final registry to every sink and close them.

        Idempotent; call once the run is finalized.  Metrics reach
        sinks only here (they are cumulative — streaming them would be
        redundant).
        """
        if self._closed:
            return
        self._closed = True
        for sink in self.sinks:
            sink.emit_metrics(self.registry)
        for sink in self.sinks:
            sink.close()


class _NullTelemetry(Telemetry):
    """The disabled default: no metrics, no spans, no heartbeat.

    ``enabled`` is ``False`` so guarded instrumentation skips metric
    updates entirely; the inherited registry exists (type-uniform call
    sites) but is asserted empty by the zero-overhead tests.
    """

    @property
    def enabled(self) -> bool:
        """Always ``False`` — instrumentation guards skip all work."""
        return False


#: Shared disabled telemetry; the default on every deduplicator.
NULL_TELEMETRY: Telemetry = _NullTelemetry()


# -- process-global anomaly channel ----------------------------------------

#: Registry collecting runtime anomaly counters (negative I/O deltas,
#: clamped statistics, ...) regardless of any per-run telemetry.
_RUNTIME = MetricsRegistry()


def note_anomaly(name: str, detail: str = "", count: int = 1) -> None:
    """Record runtime anomalies: count them and log one warning.

    The counter lives in a process-global registry (readable via
    :func:`runtime_anomalies`) so low-level code — e.g.
    :meth:`repro.storage.disk_model.IOSnapshot.__sub__` clamping a
    negative delta, or :func:`repro.storage.recover.recover` reporting
    its repairs — can report through the telemetry layer without
    holding a per-run handle.  ``count`` batches repeated occurrences
    of one anomaly kind into a single warning line, which carries the
    count (``recover.hooks_deleted x3``) when it exceeds one.
    """
    _RUNTIME.counter(f"anomaly.{name}").inc(count)
    label = f"{name} x{count}" if count > 1 else name
    if detail:
        logger.warning("%s: %s", label, detail)
    else:
        logger.warning("%s", label)


def runtime_anomalies() -> dict[str, Any]:
    """Snapshot of the process-global anomaly counters."""
    return _RUNTIME.as_dict()
