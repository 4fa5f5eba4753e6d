"""Observability for the dedup stack: metrics, spans and sinks.

``repro.obs`` is a deliberate *leaf* package — it imports nothing from
the rest of :mod:`repro` (dedupcheck rule DDC007 enforces this, along
with read-only observation), so any layer of the stack can depend on
it without cycles.  The pieces:

* :class:`MetricsRegistry` with :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` — mergeable process-local metrics.
* :class:`Tracer` / spans (:mod:`repro.obs.trace`) — nested timed
  events over the chunk→hash→index→store pipeline.
* Sinks (:mod:`repro.obs.sinks`) — ``NullSink`` (default, zero
  overhead), ``InMemorySink`` (tests), ``JsonlTraceSink`` (replayable
  trace file), ``PromTextSink`` (Prometheus text exposition).
* :class:`Telemetry` / :data:`NULL_TELEMETRY` — the facade the stack
  holds; see docs/OBSERVABILITY.md for the metric catalogue and trace
  schema.
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
    NULL_SINK,
    InMemorySink,
    JsonlTraceSink,
    NullSink,
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
    Tracer,
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
    "NullSink",
    "NULL_SINK",
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
    "Tracer",
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
