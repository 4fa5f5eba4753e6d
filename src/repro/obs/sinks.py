"""Pluggable telemetry sinks.

A sink receives the two telemetry products: completed trace spans
(:class:`~repro.obs.trace.SpanEvent`, streamed as they close) and the
final :class:`~repro.obs.metrics.MetricsRegistry` (delivered once, at
:meth:`~repro.obs.telemetry.Telemetry.close` time).  Telemetry with
no sinks produces no spans at all, so there is no null sink.  Three
implementations:

* :class:`InMemorySink` — buffers everything in lists; what tests use.
* :class:`JsonlTraceSink` — appends one JSON object per line to a
  *replayable* trace file (``{"type": "span", ...}`` records, plus one
  trailing ``{"type": "metrics", ...}`` record), parsed back by
  :func:`load_trace`.
* :class:`PromTextSink` — renders the registry in Prometheus text
  exposition format (version 0.0.4) at close; spans are ignored.
"""

from __future__ import annotations

import json
import logging
import re
from typing import IO, Protocol, runtime_checkable

from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .trace import SpanEvent

__all__ = [
    "Sink",
    "InMemorySink",
    "JsonlTraceSink",
    "PromTextSink",
    "load_trace",
    "prom_text",
    "prom_text_multi",
]

logger = logging.getLogger("repro.obs")


@runtime_checkable
class Sink(Protocol):
    """Structural contract every telemetry sink implements."""

    def emit_span(self, event: SpanEvent) -> None:
        """Receive one completed span."""
        ...

    def emit_metrics(self, registry: MetricsRegistry) -> None:
        """Receive the final metrics registry (once, at close)."""
        ...

    def close(self) -> None:
        """Flush and release any underlying resources."""
        ...


class InMemorySink:
    """Buffers spans and metrics in plain lists (for tests)."""

    def __init__(self) -> None:
        self.spans: list[SpanEvent] = []
        self.registries: list[MetricsRegistry] = []
        self.closed = False

    def emit_span(self, event: SpanEvent) -> None:
        """Append the span to :attr:`spans`."""
        self.spans.append(event)

    def emit_metrics(self, registry: MetricsRegistry) -> None:
        """Append the registry to :attr:`registries`."""
        self.registries.append(registry)

    def close(self) -> None:
        """Mark the sink closed (buffers stay readable)."""
        self.closed = True


class JsonlTraceSink:
    """Writes a replayable JSON-lines trace file.

    Each span becomes ``{"type": "span", ...SpanEvent.as_dict()}``; the
    final registry becomes one ``{"type": "metrics", "metrics": {...}}``
    line.  The format is append-only and crash-tolerant: every line is
    a complete JSON document, so a truncated file loses at most its
    last record.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh: IO[str] | None = open(path, "w", encoding="utf-8")

    def _write(self, record: dict[str, object]) -> None:
        if self._fh is None:
            raise ValueError(f"trace sink {self.path!r} already closed")
        json.dump(record, self._fh, separators=(",", ":"))
        self._fh.write("\n")

    def emit_span(self, event: SpanEvent) -> None:
        """Append one ``span`` record."""
        record: dict[str, object] = {"type": "span"}
        record.update(event.as_dict())
        self._write(record)

    def emit_metrics(self, registry: MetricsRegistry) -> None:
        """Append the ``metrics`` record."""
        self._write({"type": "metrics", "metrics": registry.as_dict()})

    def close(self) -> None:
        """Flush and close the file (idempotent)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def load_trace(path: str) -> tuple[list[SpanEvent], dict[str, object]]:
    """Parse a :class:`JsonlTraceSink` file back into events + metrics.

    Returns ``(spans, metrics_dict)``; ``metrics_dict`` is empty when
    the trace carries no metrics record.  A malformed final line that
    lacks its newline is a record cut short by a crash: it is dropped
    with one warning.  Any other malformed line raises ``ValueError``
    (the trace-view CLI surfaces this as a failure).
    """
    spans: list[SpanEvent] = []
    metrics: dict[str, object] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as e:
                if not raw.endswith("\n"):  # only the last line can lack one
                    logger.warning("%s:%d: dropped a truncated last record", path, lineno)
                    break
                raise ValueError(f"{path}:{lineno}: not valid JSON: {e}") from e
            kind = record.get("type")
            if kind == "span":
                spans.append(SpanEvent.from_dict(record))
            elif kind == "metrics":
                metrics = dict(record.get("metrics", {}))
            else:
                raise ValueError(f"{path}:{lineno}: unknown record type {kind!r}")
    return spans, metrics


# -- Prometheus text exposition --------------------------------------------

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")


def _prom_name(name: str) -> str:
    """Sanitise a dotted metric name into a Prometheus identifier."""
    out = "repro_" + re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not _NAME_OK.match(out):  # pragma: no cover - sanitiser guarantees this
        raise ValueError(f"unrepresentable metric name {name!r}")
    return out


def _fmt(v: float) -> str:
    """Render a sample value (integers without a trailing ``.0``)."""
    if isinstance(v, int) or v == int(v):
        return str(int(v))
    return repr(v)


def prom_text(registry: MetricsRegistry) -> str:
    """Render a registry in Prometheus text exposition format 0.0.4.

    Counters gain the conventional ``_total`` suffix; histograms expand
    into cumulative ``_bucket{le="..."}`` series plus ``_sum`` and
    ``_count``.
    """
    return prom_text_multi([({}, registry)])


def _prom_label_value(v: str) -> str:
    """Escape a label value per the exposition format rules."""
    return v.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _labels_str(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{_prom_label_value(v)}"' for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


def prom_text_multi(
    groups: list[tuple[dict[str, str], MetricsRegistry]],
) -> str:
    """Render several registries as one labeled Prometheus exposition.

    Each ``(labels, registry)`` group contributes its samples with the
    given label set attached (e.g. ``{"tenant": "alice"}`` — how the
    service's ``/metrics`` endpoint separates tenants sharing one
    store).  Unlike concatenating :func:`prom_text` outputs, the
    ``# TYPE`` line for each metric name appears exactly once, before
    all of its labeled series, as the format requires.  Metrics that
    appear under several groups must be of one kind; mismatches raise
    ``ValueError``.
    """
    by_name: dict[str, list[tuple[dict[str, str], Counter | Gauge | Histogram]]] = {}
    for labels, registry in groups:
        for name, metric in registry.items():
            series = by_name.setdefault(name, [])
            if series and type(series[0][1]) is not type(metric):
                raise ValueError(
                    f"metric {name!r} has conflicting kinds across label sets"
                )
            series.append((labels, metric))
    lines: list[str] = []
    for name, series in by_name.items():
        pname = _prom_name(name)
        first = series[0][1]
        if isinstance(first, Counter):
            lines.append(f"# TYPE {pname}_total counter")
            for labels, metric in series:
                assert isinstance(metric, Counter)
                lines.append(f"{pname}_total{_labels_str(labels)} {_fmt(metric.value)}")
        elif isinstance(first, Gauge):
            lines.append(f"# TYPE {pname} gauge")
            for labels, metric in series:
                assert isinstance(metric, Gauge)
                lines.append(f"{pname}{_labels_str(labels)} {_fmt(metric.value)}")
        elif isinstance(first, Histogram):
            lines.append(f"# TYPE {pname} histogram")
            for labels, metric in series:
                assert isinstance(metric, Histogram)
                cumulative = metric.cumulative()
                for bound, count in zip(metric.bounds, cumulative):
                    le = dict(labels, le=_fmt(bound))
                    lines.append(f"{pname}_bucket{_labels_str(le)} {count}")
                inf = dict(labels, le="+Inf")
                lines.append(f"{pname}_bucket{_labels_str(inf)} {cumulative[-1]}")
                lines.append(f"{pname}_sum{_labels_str(labels)} {_fmt(metric.sum)}")
                lines.append(f"{pname}_count{_labels_str(labels)} {metric.total}")
    return "\n".join(lines) + ("\n" if lines else "")


class PromTextSink:
    """Writes the final registry as a Prometheus text exposition file."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._registry: MetricsRegistry | None = None

    def emit_span(self, event: SpanEvent) -> None:
        """Spans are not representable in the exposition format."""

    def emit_metrics(self, registry: MetricsRegistry) -> None:
        """Remember the registry for rendering at :meth:`close`."""
        self._registry = registry

    def close(self) -> None:
        """Render and write the exposition file."""
        registry = self._registry if self._registry is not None else MetricsRegistry()
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write(prom_text(registry))
