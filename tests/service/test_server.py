"""End-to-end tests of the asyncio service front end.

A real :class:`DedupServer` on a loopback port, driven by real
:class:`ServiceClient` sockets — concurrent tenants, incremental
re-pushes, mid-session disconnects, live ``/metrics`` scrapes.
"""

import asyncio
import io
import json
import os
import re
import select
import socket
import threading
import time

import numpy as np
import pytest

from repro.core import DedupConfig
from repro.registry import resolve
from repro.service import (
    DedupServer,
    DedupSession,
    QuotaExceeded,
    QuotaLedger,
    RateLimited,
    ServiceClient,
    ServiceError,
    TenantBusy,
)
from repro.storage import DirectoryBackend, DiskModel
from repro.storage.file_manifest import RESTORE_PIECE_SIZE, FileManifestStore, file_object_ids

CFG = DedupConfig(ecs=1024, sd=8, bloom_bytes=1 << 18)


def rand(n, seed):
    return np.random.default_rng(seed).integers(0, 256, n, dtype=np.uint8).tobytes()


def fsck_ok(view) -> bool:
    dedup = resolve("bf-mhd")(CFG, backend=view)
    dedup.warm_start()
    dedup.process([])
    return dedup.verify_integrity(check_entry_hashes=True).ok


class ServerHarness:
    """A DedupServer on a background event-loop thread."""

    def __init__(self, tmp_path, **kwargs):
        self.backend = kwargs.pop("backend", None) or DirectoryBackend(tmp_path / "store")
        kwargs.setdefault("config", CFG)
        kwargs.setdefault("workers", 8)
        self.server = DedupServer(self.backend, **kwargs)
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

    def client(self) -> ServiceClient:
        return ServiceClient("127.0.0.1", self.port)

    def stop(self):
        asyncio.run_coroutine_threadsafe(self.server.stop(), self.loop).result(30)
        leaked = asyncio.run_coroutine_threadsafe(_other_tasks(), self.loop).result(10)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        self.loop.close()
        assert not leaked, f"tasks still pending after stop(): {leaked}"


async def _other_tasks():
    """Every task on the running loop that is not done, bar this one."""
    me = asyncio.current_task()
    return [t for t in asyncio.all_tasks() if t is not me and not t.done()]


@pytest.fixture
def harness(tmp_path):
    h = ServerHarness(tmp_path)
    yield h
    h.stop()


class TestBasicProtocol:
    def test_ping(self, harness):
        with harness.client() as client:
            assert client.ping()

    def test_push_commit_restore(self, harness):
        blob = rand(40_000, 1)
        with harness.client() as client:
            opened = client.open("alice")
            assert opened["generation"] == 0
            result = client.put("disk.img", blob)
            assert result["store_id"] == "g000000/disk.img"
            committed = client.commit()
            assert committed["usage"]["bytes_used"] == 40_000
        with harness.client() as client:
            assert client.get("alice", "disk.img") == blob
            assert client.list_files("alice") == {"disk.img": "g000000/disk.img"}

    def test_pipelined_push_many(self, harness):
        files = [(f"f{i}.img", rand(20_000, 10 + i)) for i in range(6)]
        with harness.client() as client:
            client.open("alice")
            responses = client.push_many(files)
            assert all(r["ok"] for r in responses)
            assert [r["store_id"] for r in responses] == [
                f"g000000/{path}" for path, _ in files
            ]
            client.commit()
        with harness.client() as client:
            for path, blob in files:
                assert client.get("alice", path) == blob

    def test_unknown_file_is_not_found(self, harness):
        from repro.service import ServiceError

        with harness.client() as client:
            with pytest.raises(ServiceError):
                client.get("alice", "ghost.img")

    def test_bad_tenant_id_refused(self, harness):
        from repro.service import ServiceError

        with harness.client() as client:
            with pytest.raises((ServiceError, ConnectionError)):
                client.open("No/Good")


class TestConcurrentTenants:
    N_FILES = 4

    def test_two_tenants_push_concurrently_fully_isolated(self, harness):
        """The acceptance criterion: concurrent pushes from two tenants,
        byte-identical per-tenant restores, neither tenant's accounting
        observes the other's bytes."""
        blobs = {
            tid: {f"f{i}.img": rand(25_000, seed * 100 + i) for i in range(self.N_FILES)}
            for seed, tid in enumerate(["alice", "bob"], start=1)
        }
        barrier = threading.Barrier(2)
        errors = []

        def push(tid):
            try:
                with harness.client() as client:
                    client.open(tid)
                    barrier.wait(timeout=10)
                    for path, blob in blobs[tid].items():
                        client.put(path, blob)
                    client.commit()
            except BaseException as e:  # noqa: BLE001 - surfaced below
                errors.append((tid, e))

        threads = [threading.Thread(target=push, args=(t,)) for t in blobs]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors, errors

        expected = self.N_FILES * 25_000
        with harness.client() as client:
            for tid in blobs:
                # Quota accounting saw exactly this tenant's bytes.
                usage = client.usage(tid)
                assert usage["bytes_used"] == expected
                assert usage["files_used"] == self.N_FILES
                for path, blob in blobs[tid].items():
                    assert client.get(tid, path) == blob

        # Physical keyspaces are disjoint prefixes of one store.
        prefixes = {ns.split(".")[1] for ns in harness.backend.namespaces()}
        assert prefixes == {"alice", "bob"}
        for tid in blobs:
            assert fsck_ok(harness.server.registry.view(tid))

    def test_incremental_repush_two_generations(self, harness):
        """Generation 1 re-push of overlapping content pays only the
        delta, for both tenants, and every restore is byte-identical."""
        gen0 = {tid: rand(100_000, seed) for seed, tid in enumerate(["alice", "bob"])}
        # Second generation: first 80k unchanged, tail rewritten.
        gen1 = {
            tid: blob[:80_000] + rand(20_000, 50 + seed)
            for seed, (tid, blob) in enumerate(gen0.items())
        }

        for tid in gen0:
            with harness.client() as client:
                client.open(tid)
                client.put("disk.img", gen0[tid])
                client.commit()
        stored_after_gen0 = sum(
            harness.backend.bytes_stored(ns)
            for ns in harness.backend.namespaces()
            if ns.endswith(".chunk")
        )
        for tid in gen1:
            with harness.client() as client:
                opened = client.open(tid)
                assert opened["generation"] == 1
                client.put("disk.img", gen1[tid])
                client.commit()
        stored_after_gen1 = sum(
            harness.backend.bytes_stored(ns)
            for ns in harness.backend.namespaces()
            if ns.endswith(".chunk")
        )
        # Both tenants re-pushed 100k each but only ~20k changed.
        assert stored_after_gen1 - stored_after_gen0 < 2 * 20_000 * 2.5

        with harness.client() as client:
            for tid, blob in gen1.items():
                assert client.list_files(tid)["disk.img"] == "g000001/disk.img"
                assert client.get(tid, blob and "disk.img") == blob


class ListingCounter(DirectoryBackend):
    """Counts enumerations of each FileManifest namespace."""

    def __init__(self, root):
        super().__init__(root)
        self.listings: dict[str, int] = {}

    def keys(self, namespace):
        if namespace.endswith("file_manifest"):
            self.listings[namespace] = self.listings.get(namespace, 0) + 1
        return super().keys(namespace)


class TestGetResolvesFromAKeptListing:
    """``get``/``list``/``open`` share one listing of a tenant's
    FileManifests; commits amend it, so it is made once."""

    @pytest.fixture
    def counting(self, tmp_path):
        h = ServerHarness(tmp_path, backend=ListingCounter(tmp_path / "store"))
        yield h
        h.stop()

    @staticmethod
    def push(h, tenant, files):
        with h.client() as client:
            client.open(tenant)
            client.push_many(files)
            client.commit()

    def test_fifty_gets_list_the_tenant_once(self, counting):
        files = [(f"f{i}.img", rand(8_000, 30 + i)) for i in range(5)]
        self.push(counting, "alice", files)  # its open lists; its commit amends
        with counting.client() as client:
            for i in range(50):
                path, blob = files[i % 5]
                assert client.get("alice", path) == blob
            assert sorted(client.list_files("alice")) == sorted(p for p, _ in files)
            with pytest.raises(ServiceError) as err:
                client.get("alice", "ghost.img")
            assert err.value.code == "not_found"
        assert counting.backend.listings == {"tenant.alice.file_manifest": 1}

    def test_get_after_a_second_commit_sees_the_new_generation(self, counting):
        old, new = rand(30_000, 40), rand(30_000, 41)
        self.push(counting, "alice", [("disk.img", old)])
        with counting.client() as client:
            assert client.get("alice", "disk.img") == old  # listing now kept
        self.push(counting, "alice", [("disk.img", new), ("extra.img", old)])
        with counting.client() as client:
            assert client.get("alice", "disk.img") == new
            assert client.get("alice", "extra.img") == old
            assert client.list_files("alice")["disk.img"] == "g000001/disk.img"

    def test_restart_reads_need_no_session(self, counting, tmp_path):
        """A tenant nobody has opened in this process is listed once too."""
        files = [(f"f{i}.img", rand(8_000, 50 + i)) for i in range(3)]
        self.push(counting, "alice", files)
        restarted = ServerHarness(tmp_path, backend=ListingCounter(tmp_path / "store"))
        try:
            with restarted.client() as client:
                for path, blob in files * 3:
                    assert client.get("alice", path) == blob
            assert restarted.backend.listings == {"tenant.alice.file_manifest": 1}
            # A later session of the tenant amends that same listing.
            self.push(restarted, "alice", [("f0.img", files[1][1])])
            with restarted.client() as client:
                assert client.get("alice", "f0.img") == files[1][1]
            assert restarted.backend.listings == {"tenant.alice.file_manifest": 1}
        finally:
            restarted.stop()


class TestQuotaAndRateOverTheWire:
    def test_quota_refusal_maps_to_exception(self, tmp_path):
        harness = ServerHarness(tmp_path)
        try:
            with harness.client() as client:
                client.open("alice", max_bytes=10_000)
                with pytest.raises(QuotaExceeded):
                    client.put("big.img", rand(20_000, 3))
                client.put("ok.img", rand(5_000, 4))
                client.commit()
        finally:
            harness.stop()

    def test_rate_limit_refusal_carries_retry_after(self, tmp_path):
        harness = ServerHarness(tmp_path, max_rate_delay=0.05)
        try:
            with harness.client() as client:
                client.open("alice", rate_bytes=100.0)
                with pytest.raises(RateLimited) as exc_info:
                    client.put("big.img", rand(50_000, 5))
                assert exc_info.value.retry_after > 0.05
        finally:
            harness.stop()


class TestPoolStarvation:
    """Regressions for the fleet-starvation deadlock: nothing may wait
    (for the tenant lock, or a rate-limit sleep) while holding a pool
    thread."""

    def test_concurrent_opens_of_busy_tenant_do_not_starve_the_pool(self, tmp_path):
        """More queued opens than worker threads used to occupy the whole
        pool waiting for alice's lock, so the lock holder's own writes
        and commit could never run — a permanent service-wide deadlock."""
        harness = ServerHarness(tmp_path, workers=2, open_wait=30.0)
        try:
            holder = harness.client()
            holder.open("alice")
            waiters = [harness.client() for _ in range(4)]
            for w in waiters:
                w._send({"op": "open", "tenant": "alice"})  # don't read yet
            time.sleep(0.3)  # let every open reach the server and park
            blob = rand(20_000, 11)
            holder.put("disk.img", blob)  # needs a pool thread
            holder.commit()  # hung forever before the fix
            holder.close()

            # Liveness: every parked waiter wins the lock in turn.
            def drain(w):
                assert w._recv()["ok"]  # blocks until this waiter's open
                w._send({"op": "abort"})
                w._recv()
                w.close()

            threads = [threading.Thread(target=drain, args=(w,)) for w in waiters]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            with harness.client() as client:
                assert client.get("alice", "disk.img") == blob
        finally:
            harness.stop()

    def test_open_past_open_wait_is_refused_busy(self, tmp_path):
        harness = ServerHarness(tmp_path, open_wait=0.1)
        try:
            holder = harness.client()
            holder.open("alice")
            with harness.client() as client:
                with pytest.raises(TenantBusy) as exc_info:
                    client.open("alice")
                assert exc_info.value.retry_after > 0
            holder.abort()  # the refusal disturbed nothing
            holder.close()
        finally:
            harness.stop()

    def test_rate_limit_sleep_does_not_hold_the_only_worker(self, tmp_path):
        """Alice's 2 s back-pressure sleep happens on the event loop, so
        bob's whole session fits through a single-thread pool meanwhile."""
        harness = ServerHarness(tmp_path, workers=1, max_rate_delay=5.0)
        try:
            slow = harness.client()
            # burst == rate == 20 kB/s; a 60 kB put owes 2 s of debt.
            slow.open("alice", rate_bytes=20_000.0)
            blob = rand(60_000, 21)
            slow_thread = threading.Thread(target=slow.put, args=("slow.img", blob))
            slow_thread.start()
            time.sleep(0.2)  # alice is now sleeping out her delay
            start = time.monotonic()
            with harness.client() as fast:
                fast.open("bob")
                fast.put("fast.img", rand(20_000, 22))
                fast.commit()
            assert time.monotonic() - start < 1.5, (
                "bob waited out alice's rate-limit sleep: a fleet thread "
                "was held during back-pressure"
            )
            slow_thread.join(timeout=30)
            assert not slow_thread.is_alive()
            slow.commit()
            slow.close()
            # Throttled, but still byte-identical.
            with harness.client() as client:
                assert client.get("alice", "slow.img") == blob
        finally:
            harness.stop()


def fail_once(monkeypatch, cls, name):
    """Make ``cls.name`` raise ``RuntimeError("boom")`` on its first call only."""
    real = getattr(cls, name)
    failed = []

    def flaky(self, *args, **kwargs):
        if not failed:
            failed.append(name)
            raise RuntimeError("boom")
        return real(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, flaky)


def end_by_commit(harness, monkeypatch):
    with harness.client() as client:
        client.open("alice")
        client.put("a.img", rand(8_000, 80))
        client.commit()


def end_by_abort(harness, monkeypatch):
    with harness.client() as client:
        client.open("alice")
        client.put("a.img", rand(8_000, 81))
        client.abort()


def end_by_quota_cut_write(harness, monkeypatch):
    # Skip the pre-check, so the ingest's own per-batch charge cuts
    # the write off mid-stream and aborts the session.
    monkeypatch.setattr(QuotaLedger, "check_admit", lambda self, tenant_id, nbytes: None)
    with harness.client() as client:
        client.open("alice", max_bytes=10_000)
        with pytest.raises(QuotaExceeded):
            client.put("big.img", rand(40_000, 82))


def end_by_failed_commit(harness, monkeypatch):
    fail_once(monkeypatch, resolve("bf-mhd"), "finalize")
    with harness.client() as client:
        client.open("alice")
        client.put("a.img", rand(8_000, 83))
        with pytest.raises(ServiceError, match="boom"):
            client.commit()


def end_by_disconnect(harness, monkeypatch):
    sock = socket.create_connection(("127.0.0.1", harness.port), timeout=10)
    rfile = sock.makefile("rb")
    sock.sendall(json.dumps({"op": "open", "tenant": "alice"}).encode() + b"\n")
    assert json.loads(rfile.readline())["ok"]
    sock.sendall(json.dumps({"op": "put", "path": "torn.img", "size": 50_000}).encode() + b"\n")
    sock.sendall(rand(20_000, 84))
    rfile.close()
    sock.shutdown(socket.SHUT_RDWR)
    sock.close()


def end_by_failed_open(harness, monkeypatch):
    fail_once(monkeypatch, resolve("bf-mhd"), "warm_start")
    with harness.client() as client, pytest.raises(ServiceError, match="boom"):
        client.open("alice")


class SlowNamespaces(DirectoryBackend):
    """A store whose namespace listing takes a second."""

    def namespaces(self):
        time.sleep(1.0)
        return super().namespaces()


class TestTenantOpen:
    """The loop queues a busy tenant's opens on its lock in arrival
    order, every way a session ends gives the lock back, and nothing
    an open does stalls the loop."""

    @pytest.mark.parametrize(
        ("end", "sessions"),
        [
            pytest.param(end_by_commit, 1, id="commit"),
            pytest.param(end_by_abort, 1, id="abort"),
            pytest.param(end_by_quota_cut_write, 1, id="quota_cut_write"),
            pytest.param(end_by_failed_commit, 1, id="failed_commit"),
            pytest.param(end_by_disconnect, 1, id="disconnect"),
            pytest.param(end_by_failed_open, 0, id="failed_open"),
        ],
    )
    def test_every_session_end_releases_the_tenant(self, tmp_path, monkeypatch, end, sessions):
        harness = ServerHarness(tmp_path, open_wait=5.0)
        try:
            end(harness, monkeypatch)
            t0 = time.monotonic()
            with harness.client() as client:
                client.open("alice")  # would wait out a kept lock, then refuse busy
                assert time.monotonic() - t0 < 1.0
                client.abort()
            assert harness.server.registry.active_sessions() == 0
            # Each session that opened reported its outcome exactly once.
            slo = harness.server.slo.snapshot()["tenants"]["alice"]
            assert slo["latency"]["count"] == sessions + 1
        finally:
            harness.stop()

    def test_busy_tenant_waiters_are_granted_in_arrival_order(self, tmp_path):
        harness = ServerHarness(tmp_path, open_wait=30.0)
        a, b, c = harness.client(), harness.client(), harness.client()
        try:
            a.open("alice")
            b._send({"op": "open", "tenant": "alice"})
            time.sleep(0.2)
            c._send({"op": "open", "tenant": "alice"})
            time.sleep(0.2)  # both opens now wait for alice's lock
            a.commit()
            assert b._recv()["ok"]
            readable, _, _ = select.select([c._sock], [], [], 0.3)
            assert not readable, "c was granted the lock while b held it"
            b.commit()
            assert c._recv()["ok"]
            c.abort()
        finally:
            for client in (a, b, c):
                client.close()
            harness.stop()

    def test_first_registration_walks_the_store_off_the_loop(self, tmp_path):
        """A new tenant's ledger is seeded from a walk of the store; a
        walk on the event loop would stall every other connection."""
        harness = ServerHarness(tmp_path, backend=SlowNamespaces(tmp_path / "store"))
        opener = harness.client()
        try:
            with harness.client() as pinger:
                opening = threading.Thread(target=opener.open, args=("alice",))
                opening.start()
                time.sleep(0.2)  # the open is registering alice now
                t0 = time.monotonic()
                assert pinger.ping()
                assert time.monotonic() - t0 < 0.3
            opening.join(timeout=30)
            assert not opening.is_alive()
            opener.abort()
        finally:
            opener.close()
            harness.stop()


class TestPutQueue:
    """A connection's puts: bounded admission, one write at a time, in
    order, replies in order."""

    @pytest.mark.parametrize("queue_depth", [1, 3])
    def test_backpressure_order_and_no_overlap(self, tmp_path, monkeypatch, queue_depth):
        """With the first write held, the server admits the writes that
        fit ``queue_depth`` plus the one waiting for room, and stops
        reading; once released, the writes run one at a time in order."""
        release = threading.Event()
        lock = threading.Lock()
        admitted, entered = [], []
        active = [0, 0]  # running writes, most ever at once
        real_admit, real_write = DedupSession.admit, DedupSession.write

        def admit(self, declared_bytes):
            admitted.append(declared_bytes)
            return real_admit(self, declared_bytes)

        def write(self, path, data, **kwargs):
            with lock:
                entered.append(path)
                active[0] += 1
                active[1] = max(active)
            try:
                if path == "p0":
                    assert release.wait(30), "p0 was never released"
                return real_write(self, path, data, **kwargs)
            finally:
                with lock:
                    active[0] -= 1

        monkeypatch.setattr(DedupSession, "admit", admit)
        monkeypatch.setattr(DedupSession, "write", write)
        files = [(f"p{i}", rand(64 << 10, 60 + i)) for i in range(8)]
        harness = ServerHarness(tmp_path, workers=4, queue_depth=queue_depth)
        client = harness.client()
        try:
            client.open("alice")

            def send_all():
                for path, data in files:
                    client._send({"op": "put", "path": path, "size": len(data)}, data)

            sender = threading.Thread(target=send_all)
            sender.start()
            time.sleep(0.5)
            try:
                assert len(admitted) == queue_depth + 1
                assert entered == ["p0"]
            finally:
                release.set()
            sender.join(timeout=30)
            replies = [client._recv() for _ in files]
            assert entered == [path for path, _ in files]
            assert active[1] == 1
            assert [r["store_id"] for r in replies] == [f"g000000/{p}" for p, _ in files]
            client.commit()
        finally:
            release.set()
            client.close()
            harness.stop()

    def test_failed_write_is_answered_in_place(self, harness, monkeypatch):
        """A write that raises on its fleet thread is answered as
        ``failed`` in its place, and the puts queued behind it still run."""
        real_write = DedupSession.write

        def write(self, path, data, **kwargs):
            if path == "bad.img":
                raise RuntimeError("boom")
            return real_write(self, path, data, **kwargs)

        monkeypatch.setattr(DedupSession, "write", write)
        names = ["a.img", "bad.img", "c.img"]
        files = [(name, rand(8_000, 70 + i)) for i, name in enumerate(names)]
        with harness.client() as client:
            client.open("alice")
            replies = client.push_many(files)
            assert [r["ok"] for r in replies] == [True, False, True]
            assert replies[1]["error"] == "failed" and "boom" in replies[1]["message"]
            client.commit()
            assert sorted(client.list_files("alice")) == ["a.img", "c.img"]

    def test_rejects_bad_worker_count(self, tmp_path):
        with pytest.raises(ValueError):
            DedupServer(DirectoryBackend(tmp_path / "store"), workers=0)


def open_files_under(directory):
    """Paths under ``directory`` this process holds open (Linux /proc)."""
    fd_dir = "/proc/self/fd"
    if not os.path.isdir(fd_dir):
        pytest.skip("needs /proc/self/fd")
    held = []
    for fd in os.listdir(fd_dir):
        try:
            target = os.readlink(os.path.join(fd_dir, fd))
        except OSError:  # closed between listdir and readlink
            continue
        if target.startswith(str(directory)):
            held.append(target)
    return held


class TestTraceFiles:
    """A session's trace file exists only once the session is open."""

    def test_busy_refusals_leave_no_trace_file(self, tmp_path):
        traces = tmp_path / "traces"
        harness = ServerHarness(tmp_path, open_wait=0.1, trace_dir=traces)
        try:
            holder = harness.client()
            holder.open("alice")
            for _ in range(3):
                with harness.client() as client, pytest.raises(TenantBusy):
                    client.open("alice")
            holder.abort()
            holder.close()
        finally:
            harness.stop()
        assert sorted(p.name for p in traces.iterdir()) == ["trace-alice-0001.jsonl"]
        assert open_files_under(traces) == []

    def test_failed_warm_start_leaves_no_trace_file(self, tmp_path, monkeypatch):
        def boom(self):
            raise RuntimeError("warm start failed")

        monkeypatch.setattr(resolve("bf-mhd"), "warm_start", boom)
        traces = tmp_path / "traces"
        harness = ServerHarness(tmp_path, trace_dir=traces)
        try:
            with harness.client() as client:
                with pytest.raises(ServiceError, match="warm start failed"):
                    client.open("alice")
                assert open_files_under(traces) == []
        finally:
            harness.stop()
        assert list(traces.iterdir()) == []


class TestBadInputsAnswered:
    """Plausible bad inputs must be answered with a machine-readable
    refusal, never a silent connection drop (regressions for the
    uncaught-exception paths)."""

    def test_unknown_algorithm(self, harness):
        with harness.client() as client:
            with pytest.raises(ServiceError) as exc_info:
                client.open("alice", algorithm="nope")
            assert exc_info.value.code == "bad_request"

    def test_non_numeric_quota(self, harness):
        with harness.client() as client:
            client._send({"op": "open", "tenant": "alice", "max_bytes": "lots"})
            response = client._recv()
            assert response["ok"] is False
            assert response["error"] == "bad_request"

    def test_non_numeric_rate(self, harness):
        with harness.client() as client:
            client._send({"op": "open", "tenant": "alice", "rate_bytes": "fast"})
            assert client._recv()["error"] == "bad_request"

    @pytest.mark.parametrize(
        "request_obj",
        [
            {"op": "list", "tenant": "No/Good"},
            {"op": "get", "tenant": "../../etc", "path": "x"},
            {"op": "usage", "tenant": "UPPER"},
        ],
    )
    def test_bad_tenant_id_in_sessionless_ops(self, harness, request_obj):
        with harness.client() as client:
            client._send(request_obj)
            response = client._recv()
            assert response["ok"] is False
            assert response["error"] == "bad_request"

    def test_overlong_first_line(self, harness):
        sock = socket.create_connection(("127.0.0.1", harness.port), timeout=10)
        rfile = sock.makefile("rb")
        sock.sendall(b'{"op":"ping","pad":"' + b"x" * (1 << 17) + b'"}\n')
        response = json.loads(rfile.readline())
        assert response["ok"] is False
        assert response["error"] == "bad_request"
        rfile.close()
        sock.close()

    def test_overlong_line_mid_protocol(self, harness):
        with harness.client() as client:
            assert client.ping()
            client._send({"op": "ping", "pad": "x" * (1 << 17)})
            assert client._recv()["error"] == "bad_request"

    def test_conflicting_relimit_refused_over_the_wire(self, harness):
        with harness.client() as client:
            client.open("alice", max_bytes=10_000)
            client.abort()
        with harness.client() as client:
            with pytest.raises(ServiceError) as exc_info:
                client.open("alice", max_bytes=99_999)
            assert exc_info.value.code == "bad_request"
            assert "first-registration-sticky" in str(exc_info.value)


class TestDisconnect:
    def test_midsession_disconnect_aborts_and_store_stays_clean(self, harness):
        committed = rand(30_000, 6)
        with harness.client() as client:
            client.open("alice")
            client.put("ok.img", committed)
            client.commit()

        # A raw socket: open a session, send half a payload, vanish.
        sock = socket.create_connection(("127.0.0.1", harness.port), timeout=10)
        rfile = sock.makefile("rb")
        sock.sendall(json.dumps({"op": "open", "tenant": "alice"}).encode() + b"\n")
        assert json.loads(rfile.readline())["ok"]
        sock.sendall(
            json.dumps({"op": "put", "path": "torn.img", "size": 50_000}).encode()
            + b"\n"
        )
        sock.sendall(rand(20_000, 7))  # 30k short of the declared size
        rfile.close()
        sock.shutdown(socket.SHUT_RDWR)  # actually hang up (FIN), then free
        sock.close()

        # Opening a new session synchronises with the server-side abort:
        # the tenant lock is only released once cleanup has repaired the
        # keyspace.
        with harness.client() as client:
            opened = client.open("alice")
            assert opened["ok"]
            client.abort()

        view = harness.server.registry.view("alice")
        assert fsck_ok(view)
        with harness.client() as client:
            assert client.get("alice", "ok.img") == committed
            assert "torn.img" not in client.list_files("alice")


class TestStreamedGet:
    def test_failure_past_the_header_closes_the_connection(self, harness):
        """A container lost behind the first batch: the server has sent the
        header and the first piece, so it closes the connection — the
        client gets a short read, never wrong bytes — and keeps serving."""
        shared, other = rand(1 << 20, 21), rand(20_000, 22)
        big = rand(RESTORE_PIECE_SIZE + (1 << 19), 23) + shared
        with harness.client() as client:
            client.open("alice")
            client.push_many([("shared.img", shared), ("other.img", other)])
            client.commit()
            client.open("alice")
            client.put("big.img", big)
            client.commit()
        view = harness.server.registry.view("alice")
        fm = FileManifestStore(view, DiskModel()).get("g000001/big.img")
        lost = file_object_ids("g000000/shared.img")[0]
        assert fm.extents[0].size > RESTORE_PIECE_SIZE
        assert lost in [e.container_id for e in fm.extents[1:]]
        assert view.delete(DiskModel.CHUNK, lost)

        out = io.BytesIO()
        with harness.client() as client:
            with pytest.raises(ConnectionError, match="short read"):
                client.get_into("alice", "big.img", out)
        got = out.getvalue()
        assert RESTORE_PIECE_SIZE <= len(got) < len(big)
        assert got == big[: len(got)]

        with harness.client() as client:
            assert client.get("alice", "other.img") == other
            assert client.ping()

    def test_abandoned_get_releases_its_files(self, harness):
        """A client that hangs up in the middle of a multi-piece ``get``
        leaves the server holding no more descriptors than before it."""
        big = rand(3 * RESTORE_PIECE_SIZE, 24)
        with harness.client() as client:
            client.open("alice")
            client.put("big.img", big)
            client.commit()
        fd_dir = "/proc/self/fd"
        if not os.path.isdir(fd_dir):
            pytest.skip("needs /proc/self/fd")
        before = len(os.listdir(fd_dir))

        sock = socket.create_connection(("127.0.0.1", harness.port), timeout=10)
        rfile = sock.makefile("rb")
        request = {"op": "get", "tenant": "alice", "path": "big.img"}
        sock.sendall(json.dumps(request).encode() + b"\n")
        assert json.loads(rfile.readline())["size"] == len(big)
        assert rfile.read(1 << 16) == big[: 1 << 16]
        rfile.close()
        sock.shutdown(socket.SHUT_RDWR)
        sock.close()

        deadline = time.monotonic() + 10
        while len(os.listdir(fd_dir)) > before and time.monotonic() < deadline:
            time.sleep(0.02)
        assert len(os.listdir(fd_dir)) <= before
        assert open_files_under(harness.backend._root) == []
        with harness.client() as client:
            assert client.ping()


_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9.e+-]+(e[+-][0-9]+)?$|^# TYPE \S+ (counter|gauge|histogram)$"
)


def http_get(port: int, path: str) -> tuple[int, str]:
    sock = socket.create_connection(("127.0.0.1", port), timeout=10)
    sock.sendall(f"GET {path} HTTP/1.1\r\nHost: x\r\n\r\n".encode())
    data = b""
    while True:
        part = sock.recv(65536)
        if not part:
            break
        data += part
    sock.close()
    head, _, body = data.partition(b"\r\n\r\n")
    status = int(head.split()[1])
    return status, body.decode()


class TestMetricsEndpoint:
    def test_healthz(self, harness):
        status, body = http_get(harness.port, "/healthz")
        assert status == 200 and body == "ok\n"

    def test_unknown_path_404(self, harness):
        status, _body = http_get(harness.port, "/nope")
        assert status == 404

    def test_metrics_are_valid_and_tenant_labeled(self, harness):
        for tid, seed in (("alice", 1), ("bob", 2)):
            with harness.client() as client:
                client.open(tid)
                client.put("disk.img", rand(30_000, seed))
                client.commit()
        status, body = http_get(harness.port, "/metrics")
        assert status == 200

        typed = set()
        for line in body.splitlines():
            assert _SAMPLE_RE.match(line), f"invalid exposition line: {line!r}"
            if line.startswith("# TYPE"):
                name = line.split()[2]
                assert name not in typed, f"duplicate TYPE for {name}"
                typed.add(name)
        assert 'tenant="alice"' in body and 'tenant="bob"' in body
        # Session counters and merged dedup-run metrics both present.
        assert re.search(
            r'repro_service_sessions_committed_total\{tenant="alice"\} 1', body
        )
        assert re.search(
            r'repro_service_ingest_bytes_total\{tenant="bob"\} 30000', body
        )
