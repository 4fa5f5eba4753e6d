"""Tests for the Telemetry facade and the instrumented dedup pipeline."""

import pytest

from repro.core import DedupConfig, MHDDeduplicator
from repro.obs import (
    NULL_SPAN,
    NULL_TELEMETRY,
    HeartbeatEvent,
    InMemorySink,
    Telemetry,
    note_anomaly,
    runtime_anomalies,
    summarize,
)
from repro.obs.telemetry import HEARTBEAT_BYTES, HEARTBEAT_FILES
from repro.workloads import tiny_corpus

CFG = DedupConfig(ecs=1024, sd=8, bloom_bytes=1 << 18)


@pytest.fixture(scope="module")
def files():
    return tiny_corpus().files()


class TestFacade:
    def test_span_without_sinks_is_null(self):
        tel = Telemetry()
        assert tel.enabled and not tel.tracing
        assert tel.span("run") is NULL_SPAN

    def test_span_with_sink_is_live(self):
        sink = InMemorySink()
        tel = Telemetry(sinks=[sink])
        assert tel.tracing
        with tel.span("run", algo="bf-mhd"):
            pass
        (ev,) = sink.spans
        assert ev.name == "run" and ev.attrs["algo"] == "bf-mhd"

    def test_close_delivers_metrics_once_then_closes(self):
        sink = InMemorySink()
        tel = Telemetry(sinks=[sink])
        tel.registry.counter("x").inc()
        tel.close()
        tel.close()  # idempotent
        assert len(sink.registries) == 1
        assert sink.registries[0] is tel.registry
        assert sink.closed

    def test_heartbeat_rate_limit(self):
        beats: list[HeartbeatEvent] = []
        tel = Telemetry(heartbeat=beats.append)
        for f in range(1, 3 * HEARTBEAT_FILES - 1):
            tel.heartbeat_tick(f, f * 100, f * 60, f * 40)
        assert [b.files for b in beats] == [HEARTBEAT_FILES, 2 * HEARTBEAT_FILES]
        assert beats[0].der_so_far == pytest.approx(1000 / 600)

    def test_heartbeat_byte_trigger(self):
        beats: list[HeartbeatEvent] = []
        tel = Telemetry(heartbeat=beats.append)
        half = HEARTBEAT_BYTES // 2
        tel.heartbeat_tick(1, half, half, 0)
        tel.heartbeat_tick(2, 3 * half, 3 * half, 0)
        assert [b.input_bytes for b in beats] == [3 * half]


class TestNullTelemetry:
    def test_disabled_flags(self):
        assert not NULL_TELEMETRY.enabled
        assert NULL_TELEMETRY.span("anything", k=1) is NULL_SPAN

    def test_uninstrumented_ingest_collects_nothing(self, files):
        """Zero-overhead contract: with the default NULL_TELEMETRY, an
        ingest leaves the null registry empty — any unguarded metric
        write in the hot path fails this test."""
        before = len(NULL_TELEMETRY.registry)
        dedup = MHDDeduplicator(CFG)
        dedup.process(files)
        assert len(NULL_TELEMETRY.registry) == before == 0


class TestInstrumentedPipeline:
    def test_telemetry_does_not_change_dedup_results(self, files):
        plain_stats = MHDDeduplicator(CFG).process(files)
        traced = MHDDeduplicator(CFG)
        traced.telemetry = Telemetry(sinks=[InMemorySink()])
        traced_stats = traced.process(files)
        assert traced_stats.as_dict() == plain_stats.as_dict()

    def test_metrics_cover_the_mhd_event_catalogue(self, files):
        tel = Telemetry()
        dedup = MHDDeduplicator(CFG)
        dedup.telemetry = tel
        dedup.process(files)
        names = tel.registry.names()
        for expected in (
            "chunk.size_bytes",
            "ingest.files",
            "ingest.bytes",
            "mhd.bme.extension_entries",
            "mhd.fme.extension_entries",
            "mhd.shm.flush_groups",
            "mhd.shm.group_chunks",
            "mhd.hhr.splits",
            "mhd.manifest_cache.hits",
            "disk.chunk.write.ops",
        ):
            assert expected in names, expected
        assert tel.registry.counter("ingest.files").value == len(files)
        total = sum(f.size for f in files)
        assert tel.registry.counter("ingest.bytes").value == total
        assert tel.registry.histogram("chunk.size_bytes").sum == pytest.approx(total)

    def test_disk_counters_mirror_the_io_meter(self, files):
        tel = Telemetry()
        dedup = MHDDeduplicator(CFG)
        dedup.telemetry = tel
        snap = dedup.process(files).io
        mirrored_ops = sum(
            m.value
            for name, m in tel.registry.items()
            if name.startswith("disk.") and name.endswith(".ops")
        )
        assert mirrored_ops == snap.count()

    def test_trace_spans_nest_and_cover_the_run(self, files):
        sink = InMemorySink()
        tel = Telemetry(sinks=[sink])
        dedup = MHDDeduplicator(CFG)
        dedup.telemetry = tel
        with tel.span("run"):
            dedup.process(files)
        summary = summarize(sink.spans)
        stages = {r.name for r in summary.rows}
        assert {"run", "file", "chunk", "hash", "index", "store"} <= stages
        # Per-stage self-times account for the run within 5%.
        assert summary.coverage == pytest.approx(1.0, abs=0.05)

    def test_spans_carry_io_attribution(self, files):
        sink = InMemorySink()
        tel = Telemetry(sinks=[sink])
        dedup = MHDDeduplicator(CFG)
        dedup.telemetry = tel
        # Wrap in a root span (as the CLI does) so finalize-time I/O —
        # e.g. the manifest-cache flush — is attributed too.
        with tel.span("run"):
            stats = dedup.process(files)
        total_ops = sum(
            e.attrs.get("io_ops", 0) for e in sink.spans if e.parent == -1
        )
        assert total_ops == stats.io.count()


class TestAnomalyChannel:
    def test_note_anomaly_counts_and_logs(self, caplog):
        before = runtime_anomalies().get("anomaly.test.synthetic", 0)
        with caplog.at_level("WARNING", logger="repro.obs"):
            note_anomaly("test.synthetic", "detail text")
        assert runtime_anomalies()["anomaly.test.synthetic"] == before + 1
        assert any("detail text" in r.message for r in caplog.records)

    def test_batched_anomaly_logs_its_count(self, caplog):
        """recover() reports each repair category as one batched call;
        the warning line must say how many, not just which kind."""
        before = runtime_anomalies().get("anomaly.test.batched", 0)
        with caplog.at_level("WARNING", logger="repro.obs"):
            note_anomaly("test.batched", count=3)
        assert runtime_anomalies()["anomaly.test.batched"] == before + 3
        assert [r.getMessage() for r in caplog.records] == ["test.batched x3"]
