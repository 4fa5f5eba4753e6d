"""Tests for the crash-recovery pass (:func:`repro.storage.recover`)."""

import os

import numpy as np
import pytest

from repro.core import DedupConfig, MHDDeduplicator
from repro.hashing import sha1
from repro.storage import (
    QUARANTINE_PREFIX,
    DirectoryBackend,
    DiskChunkStore,
    DiskModel,
    FileManifest,
    FileManifestStore,
    MemoryBackend,
    recover,
    verify_store,
)
from repro.workloads import BackupFile, EditConfig, mutate


def rand(n, seed):
    return np.random.default_rng(seed).integers(0, 256, size=n, dtype=np.uint8).tobytes()


def cfg():
    return DedupConfig(ecs=512, sd=4, bloom_bytes=1 << 16, cache_manifests=16, window=16)


@pytest.fixture
def populated(tmp_path):
    """A real on-disk store with shared data across four files."""
    backend = DirectoryBackend(tmp_path / "store")
    d = MHDDeduplicator(cfg(), backend)
    rng = np.random.default_rng(0)
    base = rand(60_000, 1)
    files = {
        "a": rand(50_000, 2),
        "b": base,
        "b2": mutate(base, rng, EditConfig(change_rate=0.1)),
        "c": rand(30_000, 3),
    }
    d.process([BackupFile(k, v) for k, v in files.items()])
    return backend, files, tmp_path / "store"


def obj_path(root, namespace, key):
    return os.path.join(root, namespace, key.hex())


def restore_all(backend):
    meter = DiskModel()
    fms = FileManifestStore(backend, meter)
    chunks = DiskChunkStore(backend, meter)
    return {fid: b"".join(fms.get(fid).iter_restore(chunks)) for fid in fms.list_ids()}


class TestCleanStore:
    def test_noop_and_idempotent(self, populated):
        backend, files, _ = populated
        report = recover(backend)
        assert report.repairs == 0
        assert report.ok
        assert report.actions == []
        assert recover(backend, check_hashes=True).repairs == 0
        assert restore_all(backend) == files

    def test_memory_backend_supported(self):
        backend = MemoryBackend()
        d = MHDDeduplicator(cfg(), backend)
        d.process([BackupFile("x", rand(20_000, 9))])
        assert recover(backend).repairs == 0


class TestStrays:
    def test_tmp_debris_is_purged(self, populated):
        backend, files, root = populated
        stray = os.path.join(root, "chunk", ".abc123.tmp")
        with open(stray, "wb") as fh:
            fh.write(b"half-written junk")
        report = recover(backend)
        assert report.tmp_purged == 1
        assert report.ok
        assert not os.path.exists(stray)
        assert restore_all(backend) == files


class TestTornManifest:
    def test_quarantined_with_its_hooks(self, populated):
        backend, files, root = populated
        key = sorted(backend.keys(DiskModel.MANIFEST))[0]
        path = obj_path(root, DiskModel.MANIFEST, key)
        with open(path, "rb") as fh:
            raw = fh.read()
        with open(path, "wb") as fh:
            fh.write(raw[: len(raw) // 2])

        hooks_before = backend.object_count(DiskModel.HOOK)
        report = recover(backend)
        assert report.manifests_quarantined == 1
        assert report.hooks_deleted >= 1
        assert report.ok
        # Quarantined, not destroyed: the torn bytes are preserved.
        assert backend.get(QUARANTINE_PREFIX + DiskModel.MANIFEST, key) == raw[: len(raw) // 2]
        assert not backend.exists(DiskModel.MANIFEST, key)
        assert backend.object_count(DiskModel.HOOK) < hooks_before
        # Manifests only steer dedup decisions — every file still restores.
        assert restore_all(backend) == files


class TestMissingContainer:
    def test_dependents_quarantined(self, populated):
        backend, files, root = populated
        # MHD containers are keyed by sha1(file_id).
        victim = sha1(b"c")
        os.remove(obj_path(root, DiskModel.CHUNK, victim))

        report = recover(backend)
        assert report.manifests_quarantined >= 1
        assert report.file_manifests_quarantined == 1
        assert report.ok
        survivors = restore_all(backend)
        assert "c" not in survivors
        assert survivors == {k: v for k, v in files.items() if k != "c"}


class TestBadHooks:
    def test_wrong_size_hook_deleted(self, populated):
        backend, files, _ = populated
        backend.put(DiskModel.HOOK, sha1(b"bogus-hook"), b"short")
        report = recover(backend)
        assert report.hooks_deleted == 1
        assert report.ok

    def test_dangling_hook_deleted(self, populated):
        backend, _, _ = populated
        backend.put(DiskModel.HOOK, sha1(b"dangler"), bytes(sha1(b"no-such-manifest")))
        report = recover(backend)
        assert report.hooks_deleted == 1
        assert report.ok


class TestWrongKey:
    def test_manifest_under_wrong_key_quarantined(self, populated):
        backend, _, _ = populated
        key = sorted(backend.keys(DiskModel.MANIFEST))[0]
        raw = backend.get(DiskModel.MANIFEST, key)
        wrong = sha1(b"not-the-manifest-id")
        backend.delete(DiskModel.MANIFEST, key)
        backend.put(DiskModel.MANIFEST, wrong, raw)
        report = recover(backend)
        assert report.manifests_quarantined == 1
        assert report.ok

    def test_file_manifest_under_wrong_key_quarantined(self, populated):
        backend, files, _ = populated
        key = FileManifestStore.key_for("a")
        raw = backend.get(DiskModel.FILE_MANIFEST, key)
        wrong = sha1(b"not-a-file-id")
        backend.delete(DiskModel.FILE_MANIFEST, key)
        backend.put(DiskModel.FILE_MANIFEST, wrong, raw)
        report = recover(backend)
        assert report.file_manifests_quarantined == 1
        assert report.ok
        assert "a" not in restore_all(backend)


class TestBitFlip:
    def test_check_hashes_quarantines_corrupt_container(self, populated):
        backend, files, root = populated
        victim = sha1(b"a")
        raw = bytearray(backend.get(DiskModel.CHUNK, victim))
        raw[100] ^= 0x40
        with open(obj_path(root, DiskModel.CHUNK, victim), "wb") as fh:
            fh.write(raw)

        # Structural pass alone cannot see silent corruption.
        assert recover(backend).containers_quarantined == 0

        report = recover(backend, check_hashes=True)
        assert report.containers_quarantined == 1
        assert report.file_manifests_quarantined == 1  # 'a' lost its bytes
        assert report.ok
        assert backend.exists(QUARANTINE_PREFIX + DiskModel.CHUNK, victim)
        survivors = restore_all(backend)
        assert "a" not in survivors
        assert survivors == {k: v for k, v in files.items() if k != "a"}


class TestRepeatedRecovery:
    def test_second_recovery_keeps_the_first_quarantined_copy(self):
        """Quarantine frees a file's ids, so pushing the name again and
        tearing it again puts new damage under the same keys; the second
        recovery must not overwrite the first one's evidence."""
        backend = MemoryBackend()
        pushed = {}
        for seed in (1, 2):
            pushed[seed] = rand(30_000, seed)
            MHDDeduplicator(cfg(), backend).process([BackupFile("a", pushed[seed])])
            for cid in backend.keys(DiskModel.CHUNK):
                backend.put(DiskModel.CHUNK, cid, backend.get(DiskModel.CHUNK, cid)[:-10])
            report = recover(backend)
            assert report.file_manifests_quarantined == 1 and report.ok

        for kind in (DiskModel.FILE_MANIFEST, DiskModel.MANIFEST):
            assert backend.object_count(QUARANTINE_PREFIX + kind) == 2, kind
        shadow = QUARANTINE_PREFIX + DiskModel.FILE_MANIFEST
        copies = {
            key: FileManifest.from_bytes(backend.get(shadow, key))
            for key in backend.keys(shadow)
        }
        # The first copy keeps its own key; both describe a whole push.
        first = copies.pop(FileManifestStore.key_for("a"))
        (second,) = copies.values()
        assert first.total_size == second.total_size == 30_000
        assert first.extents[0].container_id == sha1(b"a")
        assert second.extents[0].container_id != sha1(b"a")


class TestReport:
    def test_summary_mentions_status(self, populated):
        backend, _, _ = populated
        report = recover(backend)
        assert "recovery OK" in report.summary()
        assert "0 repairs" in report.summary()

    def test_not_ok_without_integrity_walk(self):
        from repro.storage import RecoveryReport

        assert not RecoveryReport().ok

    def test_quarantine_is_invisible_to_verify(self, populated):
        backend, _, root = populated
        key = sorted(backend.keys(DiskModel.MANIFEST))[0]
        path = obj_path(root, DiskModel.MANIFEST, key)
        with open(path, "ab") as fh:
            fh.write(b"\x00" * 7)  # corrupt trailing bytes
        recover(backend)
        assert verify_store(backend, deep=True).ok
