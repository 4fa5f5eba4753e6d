"""DedupSession lifecycle: generations, quota aborts, rate limiting.

The acceptance bar for the service core: sessions commit or abort
cleanly, aborted stores pass fsck, re-pushes pay only the delta, and a
rate-limited session still produces byte-identical restores.
"""

import sys
import threading
import time

import pytest

from repro.core import DedupConfig
from repro.registry import resolve
from repro.service import (
    DedupSession,
    QuotaExceeded,
    RateLimited,
    SessionClosed,
    TenantFiles,
    TenantQuota,
    TenantRegistry,
    latest_files,
)
from repro.service.session import split_store_id
from repro.storage import (
    BackendError,
    DirectoryBackend,
    DiskModel,
    FaultInjectingBackend,
    FaultSpec,
)
from repro.storage.file_manifest import file_object_ids

CFG = DedupConfig(ecs=1024, sd=8, bloom_bytes=1 << 18)


def rand(n, seed):
    import numpy as np

    return np.random.default_rng(seed).integers(0, 256, n, dtype=np.uint8).tobytes()


@pytest.fixture
def registry(tmp_path):
    return TenantRegistry(DirectoryBackend(tmp_path / "store"))


def fsck_ok(view) -> bool:
    dedup = resolve("bf-mhd")(CFG, backend=view)
    dedup.warm_start()
    dedup.process([])
    return dedup.verify_integrity(check_entry_hashes=True).ok


class TestStoreIds:
    def test_split_roundtrip(self):
        assert split_store_id("g000002/a/b.img") == (2, "a/b.img")
        assert split_store_id("plain/file") == (-1, "plain/file")


class TestLifecycle:
    def test_commit_then_restore(self, registry):
        tenant = registry.register("alice")
        blob = rand(40_000, 1)
        with DedupSession(tenant, config=CFG) as session:
            store_id = session.write("disk.img", blob)
        assert session.state == "committed"
        assert store_id == "g000000/disk.img"
        assert session.stats is not None and session.stats.input_bytes == 40_000
        assert TenantFiles(registry.view("alice")).restore("disk.img") == blob

    def test_write_after_commit_raises(self, registry):
        session = DedupSession(registry.register("alice"), config=CFG).open()
        session.write("a", b"x" * 2000)
        session.commit()
        with pytest.raises(SessionClosed):
            session.write("b", b"y" * 2000)

    def test_context_manager_aborts_on_error(self, registry):
        tenant = registry.register("alice")
        with pytest.raises(RuntimeError, match="boom"):
            with DedupSession(tenant, config=CFG) as session:
                session.write("a", b"x" * 2000)
                raise RuntimeError("boom")
        assert session.state == "aborted"
        assert fsck_ok(registry.view("alice"))

    def test_close_is_idempotent(self, registry):
        session = DedupSession(registry.register("alice"), config=CFG).open()
        session.close()
        assert session.state == "aborted"
        session.close()  # no-op


class TestGenerations:
    def test_incremental_repush_pays_delta_only(self, registry):
        tenant = registry.register("alice")
        base = rand(120_000, 2)
        with DedupSession(tenant, config=CFG) as s1:
            s1.write("disk.img", base)
        stored_after_gen0 = s1.stats.stored_chunk_bytes

        # Unchanged content, new generation: warm start dedups it away.
        with DedupSession(tenant, config=CFG) as s2:
            assert s2.generation == 1
            s2.write("disk.img", base)
        new_bytes = s2.stats.stored_chunk_bytes - stored_after_gen0
        assert new_bytes < len(base) * 0.05
        assert s2.stats.duplicate_bytes == len(base)

        # An edited tail: only the delta is new.
        edited = base[:100_000] + rand(20_000, 3)
        with DedupSession(tenant, config=CFG) as s3:
            s3.write("disk.img", edited)
        delta = s3.stats.stored_chunk_bytes - s2.stats.stored_chunk_bytes
        assert delta < len(edited) * 0.5

        # latest_files resolves to the newest generation.
        view = registry.view("alice")
        assert latest_files(view)["disk.img"] == "g000002/disk.img"
        assert TenantFiles(view).restore("disk.img") == edited


    def test_a_failed_manifest_put_does_not_brick_the_path(self, tmp_path):
        """The aborted push left its container but no recipe, so the
        next push numbers itself the same generation and writes the
        same store id — under a container id the store has spent."""
        weather = FaultInjectingBackend(
            DirectoryBackend(tmp_path / "store"),
            [FaultSpec("io_error", op="put", namespace="tenant.alice.manifest", at=0)],
        )
        tenant = TenantRegistry(weather).register("alice")
        data = rand(60_000, 8)
        session = DedupSession(tenant, config=CFG).open()
        with pytest.raises(BackendError):
            session.write("disk.img", data)
        assert session.state == "aborted" and session.generation == 0

        with DedupSession(tenant, config=CFG) as retry:
            assert retry.generation == 0
            retry.write("disk.img", data)
        assert tenant.files.restore("disk.img") == data
        assert TenantFiles(tenant.view).restore("disk.img") == data
        assert fsck_ok(tenant.view)

    def test_later_opens_read_no_file_manifest(self, tmp_path):
        """Numbering a generation takes the kept listing, which commits
        amend: only the tenant's first open reads its FileManifests."""

        class CountingReads(DirectoryBackend):
            reads = 0

            def get(self, namespace, key):
                if namespace.endswith(DiskModel.FILE_MANIFEST):
                    self.reads += 1
                return super().get(namespace, key)

        backend = CountingReads(tmp_path / "store")
        with DedupSession(TenantRegistry(backend).register("alice"), config=CFG) as s:
            for i in range(4):
                s.write(f"f{i}.img", rand(10_000, 70 + i))

        tenant = TenantRegistry(backend).register("alice")  # a restarted service
        uncounted = TenantRegistry(DirectoryBackend(tmp_path / "store")).view("alice")
        backend.reads = 0
        for gen in (1, 2, 3):
            with DedupSession(tenant, config=CFG) as s:
                assert s.generation == gen
                s.write("f0.img", rand(10_000, 80 + gen))
                s.write(f"new{gen}.img", rand(10_000, 90 + gen))
            assert backend.reads == 4  # the first open's listing, nothing since
            assert tenant.files.latest() == latest_files(uncounted)
        assert TenantFiles(uncounted).restore("f0.img") == rand(10_000, 83)


class TestKeptListing:
    """``Tenant.files`` keeps the path listing between pushes and every
    session drops it on open, commit and abort."""

    def test_registry_hands_out_one_listing_per_tenant(self, registry):
        files = registry.files("alice")  # readable before registration
        assert registry.register("alice").files is files
        assert registry.files("alice") is files
        assert registry.files("bob") is not files

    def test_commit_amends_the_listing(self, registry):
        tenant = registry.register("alice")
        old, new = rand(20_000, 60), rand(20_000, 61)
        with DedupSession(tenant, config=CFG) as s:
            s.write("disk.img", old)
        assert tenant.files.restore("disk.img") == old
        assert tenant.files.latest() is tenant.files.latest()  # kept
        with DedupSession(tenant, config=CFG) as s:
            s.write("disk.img", new)
            s.write("extra.img", old)
        assert tenant.files.latest() == {
            "disk.img": "g000001/disk.img",
            "extra.img": "g000001/extra.img",
        }
        assert tenant.files.latest() == latest_files(tenant.view)
        assert tenant.files.restore("disk.img") == new
        with pytest.raises(KeyError):
            tenant.files.restore("ghost.img")

    def test_abort_drops_a_listing_made_during_the_push(self, registry):
        """A read during an open push answers from the listing its
        ``open`` made: the committed files.  The abort's recovery may
        remove recipes (here: one whose container is lost first), so the
        next read lists the store again."""
        tenant = registry.register("alice")
        committed, doomed = rand(20_000, 62), rand(20_000, 63)
        with DedupSession(tenant, config=CFG) as s:
            s.write("disk.img", committed)

        session = DedupSession(tenant, config=CFG).open()
        store_id = session.write("disk.img", doomed)
        during = tenant.files.latest()
        assert during == {"disk.img": "g000000/disk.img"}
        container_id, _ = file_object_ids(store_id)
        assert tenant.view.delete(DiskModel.CHUNK, container_id)
        report = session.abort()
        assert report.file_manifests_quarantined == 1

        assert tenant.files.latest() is not during
        assert tenant.files.latest() == {"disk.img": "g000000/disk.img"}
        assert tenant.files.restore("disk.img") == committed

    def test_racing_reads_never_keep_a_stale_listing(self, registry):
        """Readers list while pushes commit; once a commit has returned,
        the listing must show its generation."""
        tenant = registry.register("alice")
        stop = threading.Event()
        errors: list[BaseException] = []

        def reader():
            while not stop.is_set():
                try:
                    tenant.files.latest()
                except BaseException as e:  # noqa: BLE001 - reported below
                    errors.append(e)
                    return

        readers = [threading.Thread(target=reader) for _ in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in readers:
                t.start()
            deadline = time.monotonic() + 20
            for gen in range(8):
                assert time.monotonic() < deadline
                with DedupSession(tenant, config=CFG) as s:
                    s.write("disk.img", rand(4_000, 70 + gen))
                assert tenant.files.latest()["disk.img"] == f"g{gen:06d}/disk.img"
        finally:
            stop.set()
            for t in readers:
                t.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not errors
        assert not any(t.is_alive() for t in readers)


def admit_write(session, path, data):
    """Admission, its back-pressure sleep, then ingest: what the server
    does for one put.  Returns the delay slept."""
    delay = session.admit(len(data))
    time.sleep(delay)
    session.write(path, data)
    return delay


class TestQuota:
    def test_precheck_refusal_keeps_session_open(self, registry):
        tenant = registry.register("bob", quota=TenantQuota(max_bytes=10_000))
        session = DedupSession(tenant, config=CFG).open()
        with pytest.raises(QuotaExceeded):
            admit_write(session, "big.img", rand(20_000, 4))
        assert session.state == "open"  # nothing moved, nothing to repair
        admit_write(session, "small.img", rand(5_000, 5))
        session.commit()

    def test_midstream_quota_aborts_cleanly(self, registry):
        """A stream that outgrows its declared size is cut off at the
        first over-quota batch; the abort leaves no partial manifests
        and an fsck-clean store."""
        tenant = registry.register("bob", quota=TenantQuota(max_bytes=30_000))
        committed = rand(8_000, 6)
        with DedupSession(tenant, config=CFG) as s0:
            s0.write("ok.img", committed)

        big = rand(200_000, 7)  # way past the quota; admitted as tiny
        session = DedupSession(tenant, config=CFG).open()
        assert session.admit(1_000) == 0.0
        with pytest.raises(QuotaExceeded):
            session.write("liar.img", big)
        assert session.state == "aborted"
        assert session.recovery is not None

        view = registry.view("bob")
        assert fsck_ok(view)
        # No partial file manifest leaked; the committed file survived.
        assert list(latest_files(view)) == ["ok.img"]
        assert TenantFiles(view).restore("ok.img") == committed
        # The ledger kept the charge for work actually done, and it is
        # bounded by quota, not by the stream's full size.
        assert tenant.ledger.bytes_used <= 30_000

    def test_file_quota_refused_at_admission(self, registry):
        """The file ceiling trips in the pre-check: refused before any
        byte moves, so the session survives and can still commit."""
        tenant = registry.register("bob", quota=TenantQuota(max_files=1))
        session = DedupSession(tenant, config=CFG).open()
        admit_write(session, "a.img", rand(2_000, 8))
        with pytest.raises(QuotaExceeded):
            admit_write(session, "b.img", rand(2_000, 9))
        assert session.state == "open"
        session.commit()
        assert fsck_ok(registry.view("bob"))
        assert list(latest_files(registry.view("bob"))) == ["a.img"]


class TestLoopSideAdmission:
    """``admit()`` is the one admission step: it returns the
    back-pressure delay and never sleeps, so the server can run it on
    the event loop; ``write()`` then only ingests on the pool thread.
    Regression for the fleet starvation bug — a throttled session must
    never sleep (or wait) while holding a pool thread."""

    def test_admit_returns_delay_without_sleeping(self, registry):
        tenant = registry.register("alice", rate_bytes=1000.0, burst_bytes=1000.0)
        session = DedupSession(tenant, config=CFG, max_rate_delay=10.0).open()
        t0 = time.monotonic()
        delay = session.admit(3000)  # 2000-token debt at 1000 B/s
        assert delay == pytest.approx(2.0)
        debt = tenant.bucket.tokens
        session.write("a", b"x" * 3000)
        assert time.monotonic() - t0 < 1.0  # the caller owns the sleep
        # No second reservation: the debt only shrank as tokens refilled.
        assert tenant.bucket.tokens >= debt
        session.commit()

    def test_admit_refuses_past_max_delay_and_refunds(self, registry):
        tenant = registry.register("bob", rate_bytes=100.0, burst_bytes=100.0)
        session = DedupSession(tenant, config=CFG, max_rate_delay=0.05).open()
        with pytest.raises(RateLimited):
            session.admit(50_000)
        # Tokens were given back: a payable reservation still succeeds.
        assert session.admit(50) == pytest.approx(0.0, abs=0.6)
        session.abort()


class TestRateLimit:
    def test_backpressure_sleeps_then_finishes_identical(self, registry):
        """A rate-limited session is slowed, not corrupted: each write
        sleeps the delay admission hands out and every restore is still
        byte-identical."""
        tenant = registry.register("carol", rate_bytes=1e9, burst_bytes=10_000.0)
        session = DedupSession(tenant, config=CFG, max_rate_delay=60.0)
        blobs = {f"f{i}.img": rand(30_000, 10 + i) for i in range(3)}
        with session:
            delays = [admit_write(session, path, blob) for path, blob in blobs.items()]
        assert all(d > 0 for d in delays)
        view = registry.view("carol")
        for path, blob in blobs.items():
            assert TenantFiles(view).restore(path) == blob

    def test_rejection_past_max_delay(self, registry):
        tenant = registry.register("carol", rate_bytes=10.0, burst_bytes=10.0)
        session = DedupSession(tenant, config=CFG, max_rate_delay=0.5)
        session.open()
        with pytest.raises(RateLimited) as exc_info:
            admit_write(session, "big.img", rand(20_000, 14))
        assert exc_info.value.retry_after > 0.5
        # Refusal happened before any byte moved: session still open,
        # and the refunded tokens let a small write through.
        assert session.state == "open"
        tenant.bucket.cancel(-tenant.bucket.tokens)  # drain test debt
        session.abort()
