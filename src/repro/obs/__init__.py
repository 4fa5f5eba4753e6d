"""Observability for the dedup stack: metrics, spans and sinks.

``repro.obs`` is a deliberate *leaf* package — it imports nothing from
the rest of :mod:`repro` (dedupcheck rule DDC007 enforces this, along
with read-only observation), so any layer of the stack can depend on
it without cycles.  The pieces:

* :class:`MetricsRegistry` with :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` — mergeable process-local metrics.
* :class:`Telemetry` / :data:`NULL_TELEMETRY` — the one handle the
  stack holds: registry, spans and heartbeat; see
  docs/OBSERVABILITY.md for the metric catalogue and trace schema.
* Spans (:mod:`repro.obs.trace`) — nested timed events over the
  chunk→hash→index→store pipeline, handed out by
  :meth:`Telemetry.span`.
* Sinks (:mod:`repro.obs.sinks`) — ``InMemorySink`` (tests),
  ``JsonlTraceSink`` (replayable trace file), ``PromTextSink``
  (Prometheus text exposition); no sinks means no spans.
* :class:`SLOEngine` (:mod:`repro.obs.slo`) — per-tenant rolling-window
  objectives with multi-window burn-rate alerting.
* :class:`StackSampler` (:mod:`repro.obs.profile`) — continuous
  profiling to collapsed-stack (flamegraph) output.
"""

from .metrics import (
    COUNT_BUCKETS,
    SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .sinks import (
    InMemorySink,
    JsonlTraceSink,
    PromTextSink,
    Sink,
    load_trace,
    prom_text,
    prom_text_multi,
)
from .profile import StackSampler
from .slo import DEFAULT_SLOS, SLOEngine, SLOSpec
from .telemetry import (
    NULL_TELEMETRY,
    HeartbeatEvent,
    Telemetry,
    note_anomaly,
    runtime_anomalies,
)
from .trace import (
    NULL_SPAN,
    NullSpan,
    Span,
    SpanEvent,
    new_trace_id,
    parse_span_ref,
    span_ref,
)
from .traceview import (
    WAIT_PREFIX,
    StageRow,
    TraceSummary,
    merge_traces,
    render_table,
    summarize,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SIZE_BUCKETS",
    "COUNT_BUCKETS",
    "Sink",
    "InMemorySink",
    "JsonlTraceSink",
    "PromTextSink",
    "load_trace",
    "prom_text",
    "prom_text_multi",
    "Telemetry",
    "NULL_TELEMETRY",
    "HeartbeatEvent",
    "note_anomaly",
    "runtime_anomalies",
    "SpanEvent",
    "Span",
    "NullSpan",
    "NULL_SPAN",
    "new_trace_id",
    "span_ref",
    "parse_span_ref",
    "StageRow",
    "TraceSummary",
    "summarize",
    "render_table",
    "merge_traces",
    "WAIT_PREFIX",
    "SLOSpec",
    "SLOEngine",
    "DEFAULT_SLOS",
    "StackSampler",
]
