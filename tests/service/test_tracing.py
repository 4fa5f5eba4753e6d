"""Cross-process trace propagation through the dedup service.

A real server with ``trace_dir`` set, driven by a traced
:class:`ServiceClient` — then the client-side and server-side JSONL
traces are merged and the stitched tree is checked end to end: one
trace id, the server session hanging off the client root, ingest
spans under the session, wait-time attributed separately from work.
"""

import asyncio
import dataclasses
import logging
import threading

import numpy as np
import pytest

from repro.core import DedupConfig
from repro.obs import (
    HeartbeatEvent,
    InMemorySink,
    Telemetry,
    load_trace,
    merge_traces,
    summarize,
)
from repro.obs.telemetry import HEARTBEAT_FILES
from repro.obs.traceview import WAIT_PREFIX
from repro.service import DedupServer, ServiceClient
from repro.storage import DirectoryBackend

CFG = DedupConfig(ecs=1024, sd=8, bloom_bytes=1 << 18)


def rand(n, seed):
    return np.random.default_rng(seed).integers(0, 256, n, dtype=np.uint8).tobytes()


class TracedHarness:
    """A DedupServer with tracing enabled, on a background loop thread."""

    def __init__(self, tmp_path, **kwargs):
        self.trace_dir = tmp_path / "traces"
        kwargs.setdefault("config", CFG)
        kwargs.setdefault("workers", 4)
        kwargs.setdefault("trace_dir", self.trace_dir)
        self.server = DedupServer(DirectoryBackend(tmp_path / "store"), **kwargs)
        self.loop = asyncio.new_event_loop()
        started = threading.Event()

        def run():
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(self.server.start())
            started.set()
            self.loop.run_forever()

        self.thread = threading.Thread(target=run, daemon=True)
        self.thread.start()
        assert started.wait(10), "server did not start"

    @property
    def port(self):
        return self.server.port

    def client(self, telemetry=None) -> ServiceClient:
        return ServiceClient("127.0.0.1", self.port, telemetry=telemetry)

    def server_spans(self):
        spans = []
        for path in sorted(self.trace_dir.glob("*.jsonl")):
            spans.append(load_trace(path)[0])
        return spans

    def stop(self):
        asyncio.run_coroutine_threadsafe(self.server.stop(), self.loop).result(30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        self.loop.close()


@pytest.fixture
def harness(tmp_path):
    h = TracedHarness(tmp_path)
    yield h
    h.stop()


def traced_push(harness, files, tenant="alice", **open_kw):
    """Push files under a client-side trace; returns the client's spans."""
    sink = InMemorySink()
    tel = Telemetry(sinks=[sink], origin="client")
    with harness.client(telemetry=tel) as client:
        client.open(tenant, **open_kw)
        responses = client.push_many(files)
        assert all(r["ok"] for r in responses)
        client.commit()
    tel.close()
    return sink.spans


class TestCrossProcessTrace:
    def test_single_trace_covers_client_server_ingest(self, harness):
        files = [(f"f{i}.img", rand(60_000, i)) for i in range(3)]
        client_spans = traced_push(harness, files)

        server_traces = harness.server_spans()
        assert len(server_traces) == 1, "expected one session trace file"
        merged = merge_traces([client_spans] + server_traces)

        # One trace id spans both processes.
        trace_ids = {ev.trace_id for ev in merged if ev.trace_id}
        assert len(trace_ids) == 1

        # One root: the client's push span; the server session hangs
        # off it after remote-parent stitching.
        by_id = {ev.span_id: ev for ev in merged}
        roots = [ev for ev in merged if ev.parent not in by_id]
        assert [r.name for r in roots] == ["client.push"]
        session = next(ev for ev in merged if ev.name == "session")
        assert session.parent == roots[0].span_id
        assert session.origin.startswith("server ")

        # Ingest batch spans are inside the session subtree.
        names = {ev.name for ev in merged}
        assert {"file", "chunk", "dedup", "end_file", "commit"} <= names
        file_spans = [ev for ev in merged if ev.name == "file"]
        assert len(file_spans) == len(files)

        # Acceptance: the merged spans' self-times cover >= 95% of the
        # client-observed wall time.  (Pipelining lets queue/rate waits
        # overlap ingest work, so coverage may legitimately exceed 1.)
        summary = summarize(merged)
        assert summary.coverage >= 0.95

    def test_wait_time_attributed_separately(self, tmp_path):
        # Rate-limit hard enough that the second/third put must sleep
        # on the token bucket; those sleeps surface as wait.rate spans.
        harness = TracedHarness(
            tmp_path, default_rate_bytes=2_000_000.0, default_burst_bytes=100_000.0
        )
        try:
            files = [(f"f{i}.img", rand(150_000, 40 + i)) for i in range(3)]
            client_spans = traced_push(harness, files)
            merged = merge_traces([client_spans] + harness.server_spans())
        finally:
            harness.stop()
        waits = [ev for ev in merged if ev.name.startswith(WAIT_PREFIX)]
        assert any(ev.name == "wait.rate" for ev in waits)
        summary = summarize(merged)
        # 450 KB at 2 MB/s with a 100 KB burst: >= 0.15 s of pure wait.
        assert summary.wait_s >= 0.15
        assert summary.work_s > 0.0
        assert summary.wait_s + summary.work_s == pytest.approx(summary.covered_s)
        # The wait rows are attributed to the session, not to work
        # stages: removing them leaves the work stages untouched.
        work_names = {ev.name for ev in merged} - {ev.name for ev in waits}
        assert "chunk" in work_names

    def test_open_response_returns_trace_id(self, harness):
        sink = InMemorySink()
        tel = Telemetry(sinks=[sink], origin="client")
        with harness.client(telemetry=tel) as client:
            opened = client.open("alice")
            assert opened["trace_id"] == tel.trace_id
            client.put("a.img", rand(10_000, 7))
            client.commit()
        tel.close()

    def test_untraced_client_still_served(self, harness):
        # Old clients send no trace fields; the server opens its own
        # root trace (no remote parent) and everything still works.
        with harness.client() as client:
            client.open("alice")
            client.put("a.img", rand(10_000, 8))
            client.commit()
        (spans,) = harness.server_spans()
        session = next(ev for ev in spans if ev.name == "session")
        assert "remote_parent" not in session.attrs
        by_id = {ev.span_id for ev in spans}
        assert session.parent not in by_id

    def test_aborted_session_trace_is_closed(self, harness):
        sink = InMemorySink()
        tel = Telemetry(sinks=[sink], origin="client")
        with harness.client(telemetry=tel) as client:
            client.open("alice")
            client.put("a.img", rand(10_000, 9))
            client.abort()
        tel.close()
        (spans,) = harness.server_spans()
        session = next(ev for ev in spans if ev.name == "session")
        assert session.attrs["outcome"] == "aborted"
        client_root = next(ev for ev in sink.spans if ev.name == "client.push")
        assert client_root.attrs["outcome"] == "aborted"

    def test_two_sessions_get_distinct_trace_files_and_ids(self, harness):
        for i, tenant in enumerate(("alice", "bob")):
            traced_push(harness, [("x.img", rand(20_000, 50 + i))], tenant=tenant)
        traces = harness.server_spans()
        assert len(traces) == 2
        ids = {ev.trace_id for spans in traces for ev in spans}
        assert len(ids) == 2


class TestHeartbeatFields:
    def test_heartbeat_carries_tenant_and_active_sessions(self, harness, caplog):
        # The event holds ingest counters only; the server's log line
        # adds the tenant and the live-session count at beat time.
        files = [(f"f{i:02d}.img", rand(2_000, 100 + i)) for i in range(HEARTBEAT_FILES)]
        with caplog.at_level(logging.INFO, logger="repro.service"):
            with harness.client() as client:
                client.open("alice")
                assert all(r["ok"] for r in client.push_many(files))
                client.commit()
        beats = [r.getMessage() for r in caplog.records if r.name == "repro.service"]
        beats = [m for m in beats if m.startswith("heartbeat ")]
        assert len(beats) == 1, beats
        fields = dict(kv.split("=") for kv in beats[0].split()[1:])
        assert fields["tenant"] == "alice"
        assert fields["files"] == str(HEARTBEAT_FILES)
        assert fields["active_sessions"] == "1"

    def test_heartbeat_event_carries_only_ingest_counters(self):
        event = HeartbeatEvent(files=1, input_bytes=2, unique_bytes=2, duplicate_bytes=0)
        assert [f.name for f in dataclasses.fields(event)] == [
            "files",
            "input_bytes",
            "unique_bytes",
            "duplicate_bytes",
        ]
        assert event.der_so_far == 1.0

    def test_server_active_sessions_counts_open_sessions(self, harness):
        registry = harness.server.registry
        assert registry.active_sessions() == 0
        sink = InMemorySink()
        tel = Telemetry(sinks=[sink], origin="client")
        with harness.client(telemetry=tel) as client:
            client.open("alice")
            assert registry.active_sessions() == 1
            client.put("a.img", rand(10_000, 11))
            client.commit()
            assert registry.active_sessions() == 0
        tel.close()
