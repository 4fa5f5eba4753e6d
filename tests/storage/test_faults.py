"""Tests for fault injection and the retry/backoff layer."""

import pytest

from repro.obs import runtime_anomalies
from repro.storage import (
    BackendError,
    CrashPoint,
    DirectoryBackend,
    DiskChunkStore,
    DiskModel,
    FaultInjectingBackend,
    FaultSpec,
    MemoryBackend,
    RetryingBackend,
    RetryPolicy,
    TransientBackendError,
    recover,
)

KEY1 = b"\x01" * 20
KEY2 = b"\x02" * 20


def injected(*specs, **kw):
    return FaultInjectingBackend(MemoryBackend(), schedule=specs, **kw)


class TestFaultSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            FaultSpec("meteor")

    def test_rejects_unknown_op(self):
        with pytest.raises(ValueError):
            FaultSpec("crash", op="putt")

    def test_rejects_negative_at(self):
        with pytest.raises(ValueError):
            FaultSpec("crash", at=-1)

    def test_matches_filters(self):
        spec = FaultSpec("crash", op="put", namespace="chunk")
        assert spec.matches("put", "chunk")
        assert not spec.matches("get", "chunk")
        assert not spec.matches("put", "hook")
        assert FaultSpec("crash").matches("delete", "anything")


class TestFaultInjectingBackend:
    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            FaultInjectingBackend(MemoryBackend(), transient_rate=1.0)

    def test_no_faults_is_transparent(self):
        b = injected()
        b.put("chunk", KEY1, b"data")
        assert b.get("chunk", KEY1) == b"data"
        assert b.delete("chunk", KEY1)
        assert not b.faults_injected

    def test_io_error_has_no_side_effect(self):
        b = injected(FaultSpec("io_error", op="put"))
        with pytest.raises(BackendError):
            b.put("chunk", KEY1, b"data")
        assert not b.inner.exists("chunk", KEY1)
        assert b.faults_injected["io_error"] == 1

    def test_transient_is_retryable_subtype(self):
        b = injected(FaultSpec("transient", op="put"))
        with pytest.raises(TransientBackendError):
            b.put("chunk", KEY1, b"data")

    def test_torn_put_lands_strict_prefix_then_crashes(self):
        b = injected(FaultSpec("torn", op="put"))
        payload = bytes(range(200))
        with pytest.raises(CrashPoint):
            b.put("chunk", KEY1, payload)
        landed = b.inner.get("chunk", KEY1)
        assert len(landed) < len(payload)
        assert payload.startswith(landed)
        assert b.faults_injected["torn"] == 1

    def test_bit_flip_corrupts_exactly_one_bit(self):
        b = injected(FaultSpec("bit_flip", op="put"))
        payload = bytes(64)
        b.put("chunk", KEY1, payload)  # no exception: silent corruption
        landed = b.inner.get("chunk", KEY1)
        assert landed != payload
        diff = [x ^ y for x, y in zip(landed, payload, strict=True) if x != y]
        assert len(diff) == 1 and diff[0].bit_count() == 1

    def test_crash_before_leaves_nothing(self):
        b = injected(FaultSpec("crash", op="put"))
        with pytest.raises(CrashPoint):
            b.put("chunk", KEY1, b"data")
        assert not b.inner.exists("chunk", KEY1)

    def test_crash_after_completes_the_write(self):
        b = injected(FaultSpec("crash_after", op="put"))
        with pytest.raises(CrashPoint):
            b.put("chunk", KEY1, b"data")
        assert b.inner.get("chunk", KEY1) == b"data"

    def test_crash_after_completes_the_delete(self):
        b = injected(FaultSpec("crash_after", op="delete"))
        b.put("chunk", KEY1, b"data")
        with pytest.raises(CrashPoint):
            b.delete("chunk", KEY1)
        assert not b.inner.exists("chunk", KEY1)

    def test_torn_get_truncates_but_store_is_intact(self):
        b = injected(FaultSpec("torn", op="get"))
        b.put("chunk", KEY1, bytes(range(100)))
        assert len(b.get("chunk", KEY1)) < 100
        assert b.get("chunk", KEY1) == bytes(range(100))  # spec fired once

    def test_spec_counts_only_matching_ops(self):
        # at=1 counts *put* ops in the hook namespace only.
        b = injected(FaultSpec("io_error", op="put", namespace="hook", at=1))
        b.put("chunk", KEY1, b"a")
        b.put("hook", KEY1, b"b")  # hook put #0 — no fault
        b.get("hook", KEY1)
        with pytest.raises(BackendError):
            b.put("hook", KEY2, b"c")  # hook put #1 — fires

    def test_each_spec_fires_once_and_independently(self):
        b = injected(
            FaultSpec("transient", op="put", at=0),
            FaultSpec("transient", op="put", at=0),
        )
        with pytest.raises(TransientBackendError):
            b.put("chunk", KEY1, b"a")
        # Second spec also saw op #0 pass by, so it never fires again.
        b.put("chunk", KEY1, b"a")
        b.put("chunk", KEY2, b"b")
        assert b.faults_injected["transient"] == 1

    def test_transient_rate_is_seed_deterministic(self):
        def run(seed):
            b = FaultInjectingBackend(MemoryBackend(), seed=seed, transient_rate=0.3)
            outcomes = []
            for i in range(64):
                try:
                    b.put("chunk", bytes([i]) * 20, b"x")
                    outcomes.append(True)
                except TransientBackendError:
                    outcomes.append(False)
            return outcomes

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_reads_of_metadata_are_never_injected(self):
        b = FaultInjectingBackend(MemoryBackend(), seed=0, transient_rate=0.99)
        for _ in range(50):  # exists/keys/counts bypass the weather
            assert not b.exists("chunk", KEY1)
            assert b.keys("chunk") == []
            assert b.object_count("chunk") == 0
            assert b.bytes_stored("chunk") == 0
            assert b.namespaces() == []


class TestExtentReadsKeepTheGetFaultPlan:
    """``DiskChunkStore.read`` reaches a fault-injecting backend through
    its ``get``: a fault planned on a chunk-namespace ``get`` still
    fires on an extent read, at the same operation index."""

    CID = b"\x07" * 20
    PAYLOAD = bytes(range(200))

    def store(self, *specs):
        backend = FaultInjectingBackend(MemoryBackend(), schedule=specs)
        backend.inner.put(DiskModel.CHUNK, self.CID, self.PAYLOAD)
        return backend, DiskChunkStore(backend, DiskModel())

    def test_io_error_fires(self):
        backend, chunks = self.store(FaultSpec("io_error", op="get", namespace=DiskModel.CHUNK))
        with pytest.raises(BackendError):
            chunks.read(self.CID, 10, 20)
        assert backend.faults_injected["io_error"] == 1
        assert chunks.read(self.CID, 10, 20) == self.PAYLOAD[10:30]  # fired once

    def test_crash_fires_at_its_index(self):
        backend, chunks = self.store(
            FaultSpec("crash", op="get", namespace=DiskModel.CHUNK, at=2)
        )
        assert chunks.read(self.CID, 0, 5) == self.PAYLOAD[:5]
        assert chunks.size(self.CID) == len(self.PAYLOAD)  # object_size counts as a get
        with pytest.raises(CrashPoint):
            chunks.read(self.CID, 5, 5)

    def test_bit_flip_corrupts_the_extent_read(self):
        backend, chunks = self.store(FaultSpec("bit_flip", op="get", namespace=DiskModel.CHUNK))
        whole = chunks.read(self.CID, 0, len(self.PAYLOAD))
        assert backend.faults_injected["bit_flip"] == 1
        diff = [a ^ b for a, b in zip(whole, self.PAYLOAD, strict=True) if a != b]
        assert len(diff) == 1 and bin(diff[0]).count("1") == 1

    def test_retrying_absorbs_a_transient_extent_read(self):
        backend, _ = self.store(FaultSpec("transient", op="get", namespace=DiskModel.CHUNK))
        retrying = RetryingBackend(backend, sleep=lambda _s: None)
        chunks = DiskChunkStore(retrying, DiskModel())
        assert chunks.read(self.CID, 190, 10) == self.PAYLOAD[190:]
        assert retrying.retries == 1


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)

    def test_delay_grows_and_caps(self):
        p = RetryPolicy(attempts=8, base_delay=0.1, multiplier=2.0, max_delay=0.5)
        assert p.delay(0) == pytest.approx(0.1)
        assert p.delay(1) == pytest.approx(0.2)
        assert p.delay(2) == pytest.approx(0.4)
        assert p.delay(3) == pytest.approx(0.5)  # capped
        assert p.delay(6) == pytest.approx(0.5)


class TestRetryingBackend:
    def retrier(self, *specs, attempts=4):
        sleeps = []
        b = RetryingBackend(
            injected(*specs),
            RetryPolicy(attempts=attempts, base_delay=0.01),
            sleep=sleeps.append,
        )
        return b, sleeps

    def test_absorbs_transient_faults(self):
        b, sleeps = self.retrier(
            FaultSpec("transient", op="put", at=0),
            FaultSpec("transient", op="put", at=1),
        )
        b.put("chunk", KEY1, b"data")
        assert b.get("chunk", KEY1) == b"data"
        assert b.retries == 2
        assert b.giveups == 0
        assert sleeps == [pytest.approx(0.01), pytest.approx(0.02)]

    def test_exhausts_budget_and_reraises(self):
        before = runtime_anomalies().get("anomaly.backend.retry_exhausted", 0)
        specs = [FaultSpec("transient", op="put", at=i) for i in range(3)]
        b, sleeps = self.retrier(*specs, attempts=3)
        with pytest.raises(TransientBackendError):
            b.put("chunk", KEY1, b"data")
        assert b.giveups == 1
        assert len(sleeps) == 2  # no sleep after the final attempt
        after = runtime_anomalies().get("anomaly.backend.retry_exhausted", 0)
        assert after == before + 1

    def test_permanent_errors_pass_through(self):
        b, sleeps = self.retrier(FaultSpec("io_error", op="put"))
        with pytest.raises(BackendError):
            b.put("chunk", KEY1, b"data")
        assert sleeps == [] and b.retries == 0

    def test_crash_points_pass_through(self):
        b, sleeps = self.retrier(FaultSpec("crash", op="put"))
        with pytest.raises(CrashPoint):
            b.put("chunk", KEY1, b"data")
        assert sleeps == []

    def test_keyerror_passes_through(self):
        b, sleeps = self.retrier()
        with pytest.raises(KeyError):
            b.get("chunk", KEY1)
        assert sleeps == []

    def test_full_contract_delegates(self):
        b, _ = self.retrier()
        b.put("chunk", KEY1, b"abc")
        assert b.exists("chunk", KEY1)
        assert b.keys("chunk") == [KEY1]
        assert b.object_count("chunk") == 1
        assert b.bytes_stored("chunk") == 3
        assert b.namespaces() == ["chunk"]
        assert b.get_range("chunk", KEY1, 1, 2) == b"bc"
        assert b.object_size("chunk", KEY1) == 3
        assert b.delete("chunk", KEY1)


@pytest.mark.parametrize("wrap", [FaultInjectingBackend, RetryingBackend])
def test_wrappers_forward_purge_incomplete(tmp_path, wrap):
    """Recovery through a wrapper still sweeps the real backend's debris."""
    inner = DirectoryBackend(tmp_path)
    inner.put("chunk", KEY1, b"payload")
    stray = tmp_path / "chunk" / ".stray.tmp"
    stray.write_bytes(b"half-written junk")
    report = recover(wrap(inner))
    assert report.tmp_purged == 1
    assert not stray.exists()
    assert inner.get("chunk", KEY1) == b"payload"


def test_purge_incomplete_defaults_to_nothing():
    assert MemoryBackend().purge_incomplete() == 0
