"""Tests for FileManifests: coalescing, restore, persistence."""

import pytest

from repro.hashing import sha1
from repro.storage import file_manifest
from repro.storage import (
    DiskChunkStore,
    DiskModel,
    FileExtent,
    FileManifest,
    FileManifestStore,
    MemoryBackend,
    Store,
)

C1 = sha1(b"c1")
C2 = sha1(b"c2")


def test_extent_validation():
    with pytest.raises(ValueError):
        FileExtent(C1, -1, 5)
    with pytest.raises(ValueError):
        FileExtent(C1, 0, 0)


class TestCoalescing:
    def test_adjacent_same_container_merges(self):
        fm = FileManifest("f")
        fm.append(C1, 0, 100)
        fm.append(C1, 100, 50)
        assert len(fm.extents) == 1
        assert fm.extents[0] == FileExtent(C1, 0, 150)

    def test_gap_does_not_merge(self):
        fm = FileManifest("f")
        fm.append(C1, 0, 100)
        fm.append(C1, 150, 50)
        assert len(fm.extents) == 2

    def test_different_container_does_not_merge(self):
        fm = FileManifest("f")
        fm.append(C1, 0, 100)
        fm.append(C2, 100, 50)
        assert len(fm.extents) == 2

    def test_total_size(self):
        fm = FileManifest("f")
        fm.append(C1, 0, 100)
        fm.append(C2, 0, 50)
        assert fm.total_size == 150


class TestRestore:
    def test_restore_across_containers(self):
        meter = DiskModel()
        chunks = DiskChunkStore(MemoryBackend(), meter)
        w1 = chunks.open_container(C1)
        w1.append(b"hello ")
        w1.close()
        w2 = chunks.open_container(C2)
        w2.append(b"xxworldxx")
        w2.close()
        fm = FileManifest("greeting")
        fm.append(C1, 0, 6)
        fm.append(C2, 2, 5)
        assert b"".join(fm.iter_restore(chunks)) == b"hello world"
        assert meter.count(DiskModel.CHUNK, "read") == 2
        assert list(fm.iter_restore(chunks)) == [b"hello ", b"world"]

    def test_iter_restore_cuts_large_extents_into_pieces(self, monkeypatch):
        monkeypatch.setattr(file_manifest, "RESTORE_PIECE_SIZE", 4)
        meter = DiskModel()
        chunks = DiskChunkStore(MemoryBackend(), meter)
        w = chunks.open_container(C1)
        w.append(b"0123456789abc")
        w.close()
        fm = FileManifest("f", [FileExtent(C1, 1, 10), FileExtent(C1, 11, 2)])
        pieces = list(fm.iter_restore(chunks))
        assert pieces == [b"1234", b"5678", b"9a", b"bc"]
        # Pieces are metered as the reads they are.
        assert meter.count(DiskModel.CHUNK, "read") == 4
        assert b"".join(fm.iter_restore(chunks)) == b"123456789abc"


class TestSerialization:
    def test_roundtrip(self):
        fm = FileManifest("machine-3/day-5/file.bin")
        fm.append(C1, 0, 100)
        fm.append(C2, 7, 42)
        fm2 = FileManifest.from_bytes(fm.to_bytes())
        assert fm2.file_id == fm.file_id
        assert fm2.extents == fm.extents

    def test_byte_size_matches(self):
        fm = FileManifest("f")
        fm.append(C1, 0, 1)
        assert fm.byte_size() == len(fm.to_bytes())


class TestStore:
    def test_put_get_meters(self):
        s = Store(MemoryBackend())
        store, meter = s.file_manifests, s.meter
        fm = FileManifest("a/b")
        fm.append(C1, 0, 10)
        store.put(fm)
        got = store.get("a/b")
        assert got.extents == fm.extents
        assert meter.count(DiskModel.FILE_MANIFEST, "write") == 1
        assert meter.count(DiskModel.FILE_MANIFEST, "read") == 1
        assert s.usage(DiskModel.FILE_MANIFEST) == (1, fm.byte_size())
