"""Tests for span tracing, the JSONL trace format and the Prometheus sink."""

import json
import logging
from pathlib import Path

import pytest

from repro.obs import (
    InMemorySink,
    JsonlTraceSink,
    MetricsRegistry,
    PromTextSink,
    Sink,
    SpanEvent,
    Telemetry,
    load_trace,
    prom_text,
    prom_text_multi,
)


class TestTracer:
    def test_nesting_establishes_parentage(self):
        sink = InMemorySink()
        tel = Telemetry(sinks=[sink])
        with tel.span("run") as run:
            with tel.span("file") as f:
                with tel.span("hash"):
                    pass
        names = [e.name for e in sink.spans]
        assert names == ["hash", "file", "run"]  # innermost closes first
        hash_ev, file_ev, run_ev = sink.spans
        assert run_ev.parent == -1
        assert file_ev.parent == run_ev.span_id
        assert hash_ev.parent == file_ev.span_id
        assert run.span_id == run_ev.span_id and f.span_id == file_ev.span_id

    def test_span_ids_unique_and_durations_nest(self):
        sink = InMemorySink()
        tel = Telemetry(sinks=[sink])
        with tel.span("outer"):
            for _ in range(3):
                with tel.span("inner"):
                    pass
        ids = [e.span_id for e in sink.spans]
        assert len(set(ids)) == len(ids)
        outer = next(e for e in sink.spans if e.name == "outer")
        inner_total = sum(e.duration for e in sink.spans if e.name == "inner")
        assert outer.duration >= inner_total

    def test_io_probe_deltas_attached(self):
        state = {"ops": 0, "bytes": 0}
        sink = InMemorySink()
        tel = Telemetry(sinks=[sink])
        tel.set_io_probe(lambda: (state["ops"], state["bytes"]))
        with tel.span("store"):
            state["ops"] += 5
            state["bytes"] += 4096
        (ev,) = sink.spans
        assert ev.attrs["io_ops"] == 5
        assert ev.attrs["io_bytes"] == 4096

    def test_attrs_survive_with_set_attr(self):
        sink = InMemorySink()
        tel = Telemetry(sinks=[sink])
        with tel.span("file", file_id="a") as sp:
            sp.set_attr("size", 10)
        (ev,) = sink.spans
        assert ev.attrs["file_id"] == "a" and ev.attrs["size"] == 10


class TestSpanEvent:
    def test_dict_round_trip(self):
        ev = SpanEvent("hash", 3, 1, 0.5, 0.25, {"chunks": 7})
        assert SpanEvent.from_dict(ev.as_dict()) == ev


class TestJsonl:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        sink = JsonlTraceSink(path)
        events = [
            SpanEvent("run", 1, -1, 0.0, 1.0, {}),
            SpanEvent("file", 2, 1, 0.1, 0.5, {"io_ops": 3}),
        ]
        for ev in events:
            sink.emit_span(ev)
        reg = MetricsRegistry()
        reg.counter("ingest.files").inc(2)
        sink.emit_metrics(reg)
        sink.close()

        spans, metrics = load_trace(path)
        assert spans == events
        assert metrics == {"ingest.files": 2}

    def test_every_line_is_complete_json(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        sink = JsonlTraceSink(path)
        sink.emit_span(SpanEvent("run", 1, -1, 0.0, 1.0, {}))
        sink.close()
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            assert json.loads(line)["type"] == "span"

    def test_write_after_close_raises(self, tmp_path):
        sink = JsonlTraceSink(str(tmp_path / "t.jsonl"))
        sink.close()
        sink.close()  # idempotent
        with pytest.raises(ValueError):
            sink.emit_span(SpanEvent("run", 1, -1, 0.0, 1.0, {}))

    def test_load_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        with pytest.raises(ValueError):
            load_trace(str(bad))

    def test_load_rejects_unknown_record_type(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type":"mystery"}\n')
        with pytest.raises(ValueError):
            load_trace(str(bad))

    def test_load_drops_a_truncated_last_record(self, tmp_path, caplog):
        # A crash mid-write leaves the last record cut short, without
        # its newline: everything before it still loads.
        path = str(tmp_path / "t.jsonl")
        sink = JsonlTraceSink(path)
        for i in range(5):
            sink.emit_span(SpanEvent("file", i + 1, -1, 0.0, 1.0, {}))
        sink.close()
        blob = Path(path).read_bytes()
        Path(path).write_bytes(blob[:-8])  # the newline and 7 bytes of record 5
        with caplog.at_level(logging.WARNING, logger="repro.obs"):
            spans, metrics = load_trace(path)
        assert [ev.span_id for ev in spans] == [1, 2, 3, 4]
        assert metrics == {}
        assert len(caplog.records) == 1 and "truncated" in caplog.text

    def test_load_rejects_a_malformed_middle_line(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        good = json.dumps({"type": "span", **SpanEvent("run", 1, -1, 0.0, 1.0).as_dict()})
        p.write_text(f"{good}\n{good[:-7]}\n{good}")
        with pytest.raises(ValueError, match=":2: not valid JSON"):
            load_trace(str(p))

    def test_load_skips_blank_lines_and_empty_metrics(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_text("\n")
        spans, metrics = load_trace(str(p))
        assert spans == [] and metrics == {}


class TestPromExposition:
    def _registry(self):
        reg = MetricsRegistry()
        reg.counter("ingest.files").inc(3)
        reg.gauge("ram.peak_bytes").set(1024.0)
        h = reg.histogram("chunk.size_bytes", [64.0, 128.0])
        h.observe_many([32.0, 100.0, 999.0])
        return reg

    def test_text_format_is_valid(self):
        text = prom_text(self._registry())
        lines = text.splitlines()
        assert text.endswith("\n")
        # Every line is a TYPE comment or a sample.
        for line in lines:
            assert line.startswith("# TYPE ") or line.startswith("repro_"), line
        assert "# TYPE repro_ingest_files_total counter" in lines
        assert "repro_ingest_files_total 3" in lines
        assert "repro_ram_peak_bytes 1024" in lines

    def test_histogram_buckets_are_cumulative_and_monotone(self):
        text = prom_text(self._registry())
        buckets = {}
        for line in text.splitlines():
            if line.startswith("repro_chunk_size_bytes_bucket"):
                le = line.split('le="')[1].split('"')[0]
                buckets[le] = int(line.rsplit(" ", 1)[1])
        assert buckets == {"64": 1, "128": 2, "+Inf": 3}
        assert "repro_chunk_size_bytes_count 3" in text
        assert "repro_chunk_size_bytes_sum 1131" in text

    def test_empty_registry_renders_empty(self):
        assert prom_text(MetricsRegistry()) == ""

    def test_prom_sink_writes_at_close(self, tmp_path):
        path = str(tmp_path / "m.prom")
        sink = PromTextSink(path)
        sink.emit_span(SpanEvent("run", 1, -1, 0.0, 1.0, {}))  # ignored
        sink.emit_metrics(self._registry())
        sink.close()
        content = Path(path).read_text(encoding="utf-8")
        assert "repro_ingest_files_total 3" in content

    def test_prom_sink_without_metrics_writes_empty_file(self, tmp_path):
        path = str(tmp_path / "m.prom")
        sink = PromTextSink(path)
        sink.close()
        assert Path(path).read_text(encoding="utf-8") == ""


class TestPromMulti:
    def _tenant(self, n: int) -> MetricsRegistry:
        reg = MetricsRegistry()
        reg.counter("ingest.bytes").inc(n)
        return reg

    def test_type_line_appears_once_per_metric(self):
        text = prom_text_multi(
            [({"tenant": "alice"}, self._tenant(10)), ({"tenant": "bob"}, self._tenant(20))]
        )
        lines = text.splitlines()
        assert lines.count("# TYPE repro_ingest_bytes_total counter") == 1
        assert 'repro_ingest_bytes_total{tenant="alice"} 10' in lines
        assert 'repro_ingest_bytes_total{tenant="bob"} 20' in lines

    def test_unlabeled_group_renders_bare_samples(self):
        reg = MetricsRegistry()
        reg.gauge("sessions.active").set(2.0)
        text = prom_text_multi([({}, reg)])
        assert "repro_sessions_active 2" in text.splitlines()

    def test_histograms_carry_labels_and_le(self):
        reg = MetricsRegistry()
        reg.histogram("lat", [1.0]).observe_many([0.5, 3.0])
        text = prom_text_multi([({"tenant": "t"}, reg)])
        assert 'repro_lat_bucket{le="1",tenant="t"} 1' in text
        assert 'repro_lat_bucket{le="+Inf",tenant="t"} 2' in text
        assert 'repro_lat_count{tenant="t"} 2' in text

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(1)
        text = prom_text_multi([({"tenant": 'a"b\\c\nd'}, reg)])
        assert 'repro_c_total{tenant="a\\"b\\\\c\\nd"} 1' in text

    def test_kind_conflict_across_groups_raises(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("x")
        b.gauge("x")
        with pytest.raises(ValueError):
            prom_text_multi([({"g": "1"}, a), ({"g": "2"}, b)])

    def test_empty_groups_render_empty(self):
        assert prom_text_multi([]) == ""
        assert prom_text_multi([({}, MetricsRegistry())]) == ""


def test_all_sinks_satisfy_protocol():
    assert isinstance(InMemorySink(), Sink)
    assert isinstance(PromTextSink("unused"), Sink)
