"""Tests for retention / garbage collection."""

import numpy as np
import pytest

from repro.baselines import SparseIndexingDeduplicator
from repro.core import DedupConfig, MHDDeduplicator
from repro.storage import DiskModel, verify_store
from repro.storage.gc import delete_file, sweep
from repro.workloads import BackupFile, EditConfig, mutate


def rand(n, seed):
    return np.random.default_rng(seed).integers(0, 256, size=n, dtype=np.uint8).tobytes()


def cfg(**kw):
    defaults = dict(ecs=512, sd=4, bloom_bytes=1 << 16, cache_manifests=16, window=16)
    defaults.update(kw)
    return DedupConfig(**defaults)


@pytest.fixture
def populated():
    """Three unrelated files plus one derived generation."""
    d = MHDDeduplicator(cfg())
    rng = np.random.default_rng(0)
    base = rand(80_000, 1)
    files = {
        "a": rand(60_000, 2),
        "b": base,
        "b2": mutate(base, rng, EditConfig(change_rate=0.1)),
        "c": rand(40_000, 3),
    }
    d.process([BackupFile(k, v) for k, v in files.items()])
    return d, files


class TestDeleteFile:
    def test_delete_existing(self, populated):
        d, _ = populated
        assert delete_file(d.backend, "a")
        with pytest.raises(KeyError):
            d.file_manifests.get("a")

    def test_delete_missing_returns_false(self, populated):
        d, _ = populated
        assert not delete_file(d.backend, "nope")

    def test_delete_leaves_chunks_until_sweep(self, populated):
        d, _ = populated
        before = d.store.usage(DiskModel.CHUNK).nbytes
        delete_file(d.backend, "a")
        assert d.store.usage(DiskModel.CHUNK).nbytes == before


class TestSweep:
    def test_noop_on_fully_referenced_store(self, populated):
        d, files = populated
        report = sweep(d.backend)
        assert report.containers_deleted == 0
        assert report.bytes_reclaimed == 0
        for k, v in files.items():
            assert d.restore(k) == v

    def test_reclaims_unreferenced_file(self, populated):
        d, files = populated
        stored_before = d.store.usage(DiskModel.CHUNK).nbytes
        delete_file(d.backend, "a")
        report = sweep(d.backend)
        assert report.containers_deleted == 1
        assert report.bytes_reclaimed == pytest.approx(len(files["a"]), rel=0.05)
        assert d.store.usage(DiskModel.CHUNK).nbytes < stored_before
        # survivors intact
        for k in ("b", "b2", "c"):
            assert d.restore(k) == files[k]

    def test_shared_data_pinned_by_derived_file(self, populated):
        """Deleting 'b' must NOT reclaim bytes b2 still references."""
        d, files = populated
        delete_file(d.backend, "b")
        report = sweep(d.backend)
        assert d.restore("b2") == files["b2"]
        # b's container survives because b2 references most of it
        assert report.containers_deleted == 0
        assert report.bytes_pinned > 0

    def test_deleting_whole_lineage_reclaims_everything(self, populated):
        d, files = populated
        for k in files:
            delete_file(d.backend, k)
        report = sweep(d.backend)
        assert d.store.usage(DiskModel.CHUNK).objects == 0
        assert d.store.usage(DiskModel.MANIFEST).objects == 0
        assert d.store.usage(DiskModel.HOOK).objects == 0
        assert report.bytes_reclaimed > 0

    def test_swept_store_verifies_clean(self, populated):
        d, _ = populated
        delete_file(d.backend, "a")
        delete_file(d.backend, "b")
        sweep(d.backend)
        report = verify_store(d.backend, check_entry_hashes=True)
        assert report.ok, report.errors[:5]

    def test_sweep_is_idempotent(self, populated):
        d, _ = populated
        delete_file(d.backend, "a")
        first = sweep(d.backend)
        second = sweep(d.backend)
        assert first.containers_deleted >= 0
        assert second.containers_deleted == 0
        assert second.bytes_reclaimed == 0

    def test_report_summary(self, populated):
        d, _ = populated
        delete_file(d.backend, "a")
        report = sweep(d.backend)
        assert "reclaimed" in report.summary()


class TestSweepMultiManifest:
    """GC over SparseIndexing's multi-container manifests."""

    def test_partial_manifest_rewritten_and_verifies(self):
        d = SparseIndexingDeduplicator(cfg(ecs=512, sd=4))
        files = {f"f{i}": rand(50_000, 10 + i) for i in range(4)}
        d.process([BackupFile(k, v) for k, v in files.items()])
        delete_file(d.backend, "f0")
        delete_file(d.backend, "f1")
        sweep(d.backend)
        report = verify_store(d.backend, check_entry_hashes=True)
        assert report.ok, report.errors[:5]
        for k in ("f2", "f3"):
            assert d.restore(k) == files[k]

    def test_full_cleanup(self):
        d = SparseIndexingDeduplicator(cfg(ecs=512, sd=4))
        files = {f"f{i}": rand(30_000, 20 + i) for i in range(3)}
        d.process([BackupFile(k, v) for k, v in files.items()])
        for k in files:
            delete_file(d.backend, k)
        sweep(d.backend)
        assert d.store.usage(DiskModel.CHUNK).objects == 0
        assert d.backend.object_count(DiskModel.MANIFEST) == 0
        assert d.store.usage(DiskModel.HOOK).objects == 0


class TestSweepEdgeCases:
    def test_dangling_hook_removed(self, populated):
        """A hook pointing at a manifest that never existed is swept."""
        from repro.hashing import sha1

        d, _ = populated
        d.backend.put(DiskModel.HOOK, sha1(b"rogue"), sha1(b"ghost-manifest"))
        sweep(d.backend)
        assert not d.backend.exists(DiskModel.HOOK, sha1(b"rogue"))

    def test_sweep_empty_store(self):
        from repro.storage import MemoryBackend

        report = sweep(MemoryBackend())
        assert report.containers_deleted == 0
        assert report.bytes_reclaimed == 0


class TestPinnedBytesAccounting:
    """Shared extents must be union-counted, not summed (regression)."""

    @staticmethod
    def _store_with_shared_extents():
        from repro.hashing import sha1
        from repro.storage import FileExtent, FileManifest, FileManifestStore, MemoryBackend

        backend = MemoryBackend()
        cid = sha1(b"container")
        backend.put(DiskModel.CHUNK, cid, bytes(200))
        recipes = {
            "f1": [FileExtent(cid, 0, 100)],
            # f2 shares f1's extent exactly and extends it — the dedup case.
            "f2": [FileExtent(cid, 0, 100), FileExtent(cid, 100, 50)],
        }
        for fid, extents in recipes.items():
            backend.put(
                DiskModel.FILE_MANIFEST,
                FileManifestStore.key_for(fid),
                FileManifest(fid, extents).to_bytes(),
            )
        return backend

    def test_shared_extents_are_union_counted(self):
        backend = self._store_with_shared_extents()
        report = sweep(backend)
        assert report.containers_kept == 1
        assert report.containers_deleted == 0
        # 200 B container, [0,150) referenced: 50 B pinned.  Summing the
        # three extents (250 B) used to clamp this to 0.
        assert report.bytes_pinned == 50

    def test_union_bytes_merges_overlaps(self):
        from repro.storage.gc import _union_bytes

        assert _union_bytes([(0, 10)]) == 10
        assert _union_bytes([(0, 10), (10, 20)]) == 20
        assert _union_bytes([(0, 10), (5, 15)]) == 15
        assert _union_bytes([(0, 10), (0, 10), (0, 10)]) == 10
        assert _union_bytes([(20, 30), (0, 5), (25, 40)]) == 25
        assert _union_bytes([(0, 50), (10, 20)]) == 50
