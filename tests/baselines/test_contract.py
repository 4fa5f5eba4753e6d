"""Contract tests every deduplicator must satisfy (parametrised).

The fundamental invariant: whatever the algorithm missed or found,
``restore(file) == file`` byte-for-byte, and the accounting identities
hold.
"""

import numpy as np
import pytest

from repro.baselines import (
    BimodalDeduplicator,
    CDCDeduplicator,
    SparseIndexingDeduplicator,
    SubChunkDeduplicator,
)
from repro.core import DedupConfig, MHDDeduplicator, SIMHDDeduplicator
from repro.storage import DiskModel, MemoryBackend, sweep, verify_store
from repro.workloads import BackupFile, tiny_corpus

ALL = [
    CDCDeduplicator,
    BimodalDeduplicator,
    SubChunkDeduplicator,
    SparseIndexingDeduplicator,
    MHDDeduplicator,
    SIMHDDeduplicator,
]


def cfg(**kw):
    defaults = dict(ecs=512, sd=4, bloom_bytes=1 << 16, cache_manifests=16, window=16)
    defaults.update(kw)
    return DedupConfig(**defaults)


def rand(n, seed):
    return np.random.default_rng(seed).integers(0, 256, size=n, dtype=np.uint8).tobytes()


@pytest.fixture(params=ALL, ids=[c.name for c in ALL])
def dedup_cls(request):
    return request.param


class TestRestore:
    def test_empty_file(self, dedup_cls):
        d = dedup_cls(cfg())
        d.process([BackupFile("empty", b"")])
        assert d.restore("empty") == b""

    def test_single_byte(self, dedup_cls):
        d = dedup_cls(cfg())
        d.process([BackupFile("one", b"\x42")])
        assert d.restore("one") == b"\x42"

    def test_unique_files(self, dedup_cls):
        files = [BackupFile(f"f{i}", rand(30_000, i)) for i in range(4)]
        d = dedup_cls(cfg())
        d.process(files)
        for f in files:
            assert d.restore(f.file_id) == f.data

    def test_identical_files(self, dedup_cls):
        data = rand(60_000, 77)
        files = [BackupFile("a", data), BackupFile("b", data), BackupFile("c", data)]
        d = dedup_cls(cfg())
        stats = d.process(files)
        for f in files:
            assert d.restore(f.file_id) == f.data
        # at least the 3rd copy should dedup substantially
        assert stats.stored_chunk_bytes < 2.5 * len(data)

    def test_shifted_content(self, dedup_cls):
        """Insertion at the front (the boundary-shift scenario)."""
        base = rand(80_000, 88)
        files = [BackupFile("a", base), BackupFile("b", rand(333, 89) + base)]
        d = dedup_cls(cfg())
        d.process(files)
        assert d.restore("a") == base
        assert d.restore("b") == files[1].data

    def test_mutated_generations(self, dedup_cls):
        from repro.workloads import EditConfig, mutate

        rng = np.random.default_rng(5)
        gen0 = rand(100_000, 90)
        gen1 = mutate(gen0, rng, EditConfig(change_rate=0.15))
        gen2 = mutate(gen1, rng, EditConfig(change_rate=0.15))
        files = [BackupFile(f"g{i}", d) for i, d in enumerate((gen0, gen1, gen2))]
        d = dedup_cls(cfg())
        stats = d.process(files)
        for f in files:
            assert d.restore(f.file_id) == f.data
        assert stats.duplicate_chunks > 0

    def test_tiny_corpus(self, dedup_cls):
        files = tiny_corpus().files()
        d = dedup_cls(cfg(ecs=1024, sd=8, bloom_bytes=1 << 18))
        d.process(files)
        step = max(1, len(files) // 20)
        for f in files[::step]:
            assert d.restore(f.file_id) == f.data


class TestAccounting:
    def test_identities(self, dedup_cls):
        files = tiny_corpus().files()[:60]
        d = dedup_cls(cfg(ecs=1024, sd=8))
        stats = d.process(files)
        assert stats.input_bytes == sum(f.size for f in files)
        assert stats.input_files == 60
        assert stats.data_only_der >= stats.real_der
        assert stats.metadata_bytes > 0
        assert stats.output_bytes == stats.stored_chunk_bytes + stats.metadata_bytes
        assert 0 < stats.stored_chunk_bytes <= stats.input_bytes

    def test_duplicates_found_on_repeat(self, dedup_cls):
        data = rand(120_000, 99)
        d = dedup_cls(cfg())
        stats = d.process([BackupFile("a", data), BackupFile("b", data)])
        assert stats.duplicate_chunks > 0
        assert stats.duplicate_slices >= 1
        assert stats.data_only_der > 1.5

    def test_peak_ram_tracked(self, dedup_cls):
        d = dedup_cls(cfg())
        stats = d.process([BackupFile("a", rand(50_000, 1))])
        assert stats.peak_ram_bytes > 0

    def test_cannot_ingest_after_finalize(self, dedup_cls):
        d = dedup_cls(cfg())
        d.process([BackupFile("a", rand(1000, 1))])
        with pytest.raises(RuntimeError):
            d.ingest(BackupFile("b", b"zz"))


@pytest.mark.parametrize("restart", [False, True], ids=["same-process", "restart"])
class TestReingest:
    """Ingesting a file id again replaces its recipe; the store names
    the new container and manifest, the old ones are garbage."""

    @staticmethod
    def _ingest_twice(dedup_cls, restart, first, second, second_id="x"):
        backend = MemoryBackend()
        d = dedup_cls(cfg(), backend=backend)
        d.ingest(BackupFile("x", first))
        if restart:
            d.finalize()
            d = dedup_cls(cfg(), backend=backend)
            d.warm_start()
        d.ingest(BackupFile(second_id, second))
        d.finalize()
        assert d.restore(second_id) == second
        report = d.verify_integrity(check_entry_hashes=True)
        assert report.ok, report.errors
        return backend

    @staticmethod
    def _sweep(dedup_cls, backend, expect):
        sweep(backend)
        report = verify_store(backend, check_entry_hashes=True)
        assert report.ok, report.errors
        assert dedup_cls(cfg(), backend=backend).restore("x") == expect

    def test_second_version_sharing_a_prefix(self, dedup_cls, restart):
        a = rand(200_000, 1)
        b = a[:100_000] + rand(100_000, 2)
        backend = self._ingest_twice(dedup_cls, restart, a, b)
        self._sweep(dedup_cls, backend, b)  # keeps what b references of a

    def test_second_version_sharing_nothing(self, dedup_cls, restart):
        a, b = rand(200_000, 1), rand(200_000, 2)
        backend = self._ingest_twice(dedup_cls, restart, a, b)
        assert backend.bytes_stored(DiskModel.CHUNK) == 400_000
        self._sweep(dedup_cls, backend, b)
        assert backend.bytes_stored(DiskModel.CHUNK) == 200_000  # a is reclaimed

    def test_same_version_twice_stores_one_copy(self, dedup_cls, restart):
        a = rand(300_000, 3)
        backend = self._ingest_twice(dedup_cls, restart, a, a)
        stored = backend.bytes_stored(DiskModel.CHUNK)
        # What the algorithm finds of a repeat does not depend on its name ...
        other_name = self._ingest_twice(dedup_cls, restart, a, a, second_id="y")
        assert stored == other_name.bytes_stored(DiskModel.CHUNK)
        # ... and is all of it, bar what Sparse Indexing's sampling misses.
        assert 300_000 <= stored < 300_000 * 1.02
        self._sweep(dedup_cls, backend, a)


class TestVerifyWrites:
    def test_paranoid_mode_passes_on_healthy_pipeline(self, dedup_cls):
        d = dedup_cls(cfg())
        d.verify_writes = True
        files = [BackupFile(f"f{i}", rand(20_000, 40 + i)) for i in range(2)]
        d.process(files)  # raises on any write-verification failure

    def test_paranoid_mode_detects_corruption(self):
        """Sabotage restore to prove the check actually fires."""
        d = CDCDeduplicator(cfg())
        d.verify_writes = True
        d.ingest(BackupFile("good", rand(10_000, 50)))
        original_restore = d.restore
        d.restore = lambda file_id: b"wrong bytes"
        with pytest.raises(RuntimeError, match="write verification failed"):
            d.ingest(BackupFile("bad", rand(10_000, 51)))
        d.restore = original_restore
