"""The telemetry facade: one object wiring registry, tracer and sinks.

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
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from .metrics import MetricsRegistry
from .sinks import Sink
from .trace import NULL_SPAN, NullSpan, Span, Tracer

__all__ = [
    "HeartbeatEvent",
    "Telemetry",
    "NULL_TELEMETRY",
    "note_anomaly",
    "runtime_anomalies",
]

logger = logging.getLogger("repro.obs")


@dataclass(frozen=True)
class HeartbeatEvent:
    """Live-progress snapshot handed to the heartbeat callback."""

    files: int  # files fully ingested so far
    input_bytes: int  # bytes ingested so far
    unique_bytes: int  # bytes resolved unique so far
    duplicate_bytes: int  # bytes resolved duplicate so far
    tenant: str = ""  # owning tenant ("" outside the service)
    active_sessions: int = 0  # server-wide live sessions at beat time

    @property
    def der_so_far(self) -> float:
        """Running data-only DER estimate (input / unique bytes)."""
        return self.input_bytes / max(1, self.unique_bytes)


class Telemetry:
    """One run's telemetry context (registry + optional tracing/heartbeat).

    Parameters
    ----------
    sinks:
        Zero or more :class:`~repro.obs.sinks.Sink` objects.  With no
        sinks, metrics are still collected (read them off
        :attr:`registry`) but no spans are produced.
    heartbeat:
        Optional callback receiving :class:`HeartbeatEvent`; invoked at
        most once per ``heartbeat_files`` files or ``heartbeat_bytes``
        input bytes, whichever fires first.
    io_probe:
        Optional ``() -> (disk_ops, disk_bytes)`` sampler attached to
        every span (set automatically when a telemetry object is handed
        to a deduplicator).
    trace_id / origin:
        Cross-process trace context for the tracer (see
        :class:`~repro.obs.trace.Tracer`); a server session passes the
        trace id received from its client so both processes' spans
        share one id.
    tenant:
        Tenant label stamped on heartbeat events ("" outside the
        service).
    active_sessions:
        Optional supplier of the server-wide live-session count,
        sampled at each heartbeat.
    """

    def __init__(
        self,
        sinks: tuple[Sink, ...] | list[Sink] = (),
        heartbeat: Callable[[HeartbeatEvent], None] | None = None,
        heartbeat_files: int = 32,
        heartbeat_bytes: int = 64 << 20,
        io_probe: Callable[[], tuple[int, int]] | None = None,
        trace_id: str = "",
        origin: str = "",
        tenant: str = "",
        active_sessions: Callable[[], int] | None = None,
    ) -> None:
        if heartbeat_files < 1 or heartbeat_bytes < 1:
            raise ValueError("heartbeat intervals must be >= 1")
        self.registry = MetricsRegistry()
        self.sinks: tuple[Sink, ...] = tuple(sinks)
        self.heartbeat = heartbeat
        self.heartbeat_files = heartbeat_files
        self.heartbeat_bytes = heartbeat_bytes
        self.tenant = tenant
        self.active_sessions = active_sessions
        self._hb_next_files = heartbeat_files
        self._hb_next_bytes = heartbeat_bytes
        self._tracer: Tracer | None = (
            Tracer(
                [s.emit_span for s in self.sinks],
                io_probe=io_probe,
                trace_id=trace_id,
                origin=origin,
            )
            if self.sinks
            else None
        )
        self._closed = False

    # ---- capability flags (what instrumentation guards check) ----------

    @property
    def enabled(self) -> bool:
        """Whether metric collection is on (``False`` only on the null)."""
        return True

    @property
    def tracing(self) -> bool:
        """Whether spans are live (any sink attached)."""
        return self._tracer is not None

    @property
    def trace_id(self) -> str:
        """The cross-process trace id ("" when tracing is off)."""
        return self._tracer.trace_id if self._tracer is not None else ""

    # ---- spans -----------------------------------------------------------

    def span(self, name: str, **attrs: Any) -> Span | NullSpan:
        """A context manager timing one pipeline stage.

        Returns the shared no-op span when tracing is off, so call
        sites can use ``with tel.span("store"):`` unconditionally.
        """
        tracer = self._tracer
        if tracer is None:
            return NULL_SPAN
        return tracer.span(name, attrs or None)

    def closed_span(
        self,
        name: str,
        duration: float,
        parent: int = -1,
        attrs: dict[str, Any] | None = None,
    ) -> int:
        """Report an already-measured interval as a span (thread-safe).

        No-op (returns -1) when tracing is off.  Used by the service's
        event loop to attribute waits — lock acquisition, rate-limit
        sleeps, queue back-pressure — to a session trace whose stack
        lives on a lane thread.
        """
        tracer = self._tracer
        if tracer is None:
            return -1
        return tracer.closed_span(name, duration, parent=parent, attrs=attrs)

    def span_ref(self, span_id: int) -> str:
        """Cross-process reference for one of this trace's spans."""
        tracer = self._tracer
        if tracer is None:
            return ""
        return tracer.ref(span_id)

    def set_io_probe(self, probe: Callable[[], tuple[int, int]] | None) -> None:
        """(Re)attach the I/O sampler spans use for attribution."""
        if self._tracer is not None:
            self._tracer.io_probe = probe

    # ---- heartbeat -------------------------------------------------------

    def heartbeat_tick(
        self, files: int, input_bytes: int, unique_bytes: int, duplicate_bytes: int
    ) -> None:
        """Maybe invoke the heartbeat callback (rate-limited).

        Called by the deduplicator after every file; fires the callback
        when the configured file- or byte-interval has elapsed since
        the previous beat.
        """
        if self.heartbeat is None:
            return
        if files < self._hb_next_files and input_bytes < self._hb_next_bytes:
            return
        self._hb_next_files = files + self.heartbeat_files
        self._hb_next_bytes = input_bytes + self.heartbeat_bytes
        self.heartbeat(
            HeartbeatEvent(
                files=files,
                input_bytes=input_bytes,
                unique_bytes=unique_bytes,
                duplicate_bytes=duplicate_bytes,
                tenant=self.tenant,
                active_sessions=(
                    self.active_sessions() if self.active_sessions is not None else 0
                ),
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

    def span(self, name: str, **attrs: Any) -> Span | NullSpan:
        """Always the shared no-op span."""
        return NULL_SPAN


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
