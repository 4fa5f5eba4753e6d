"""Tests for the multi-container manifest (SubChunk / SparseIndexing)."""

import pytest

from repro.hashing import sha1
from repro.storage import DiskModel, ManifestStore, MemoryBackend
from repro.storage.multi_manifest import (
    GROUP_HEADER_SIZE,
    MultiEntry,
    MultiManifest,
)

MID = sha1(b"mm")
C1, C2 = sha1(b"c1"), sha1(b"c2")


def entry(tag, cid, off, size):
    return MultiEntry(sha1(tag), cid, off, size)


class TestEntry:
    def test_validation(self):
        with pytest.raises(ValueError):
            MultiEntry(b"short", C1, 0, 1)
        with pytest.raises(ValueError):
            MultiEntry(sha1(b"x"), b"short", 0, 1)
        with pytest.raises(ValueError):
            entry(b"x", C1, 0, 0)


class TestManifest:
    def test_find_and_contains(self):
        m = MultiManifest(MID, [entry(b"a", C1, 0, 5), entry(b"b", C1, 5, 5)])
        assert m.find(sha1(b"b")) == 1
        assert sha1(b"a") in m
        assert m.find(sha1(b"z")) is None
        assert len(m) == 2

    def test_append_marks_dirty_and_indexes(self):
        m = MultiManifest(MID)
        assert not m.dirty
        _ = m.index  # force index build
        m.append(entry(b"a", C1, 0, 5))
        assert m.dirty
        assert m.find(sha1(b"a")) == 0

    def test_duplicate_digest_keeps_first(self):
        m = MultiManifest(MID)
        m.append(entry(b"a", C1, 0, 5))
        m.append(entry(b"a", C2, 0, 5))
        assert m.find(sha1(b"a")) == 0

    def test_groups_coalesce_consecutive_containers(self):
        m = MultiManifest(
            MID,
            [
                entry(b"a", C1, 0, 5),
                entry(b"b", C1, 5, 5),
                entry(b"c", C2, 0, 5),
                entry(b"d", C1, 10, 5),
            ],
        )
        assert m.groups() == [(C1, 2), (C2, 1), (C1, 1)]

    def test_byte_size_formula(self):
        """36 B/entry + 28 B/group, the paper's SubChunk cost model."""
        m = MultiManifest(MID, [entry(b"a", C1, 0, 5), entry(b"b", C2, 0, 5)])
        assert m.byte_size() == 24 + 2 * GROUP_HEADER_SIZE + 2 * 36
        assert len(m.to_bytes()) == m.byte_size()

    def test_roundtrip(self):
        m = MultiManifest(
            MID,
            [
                entry(b"a", C1, 0, 100),
                entry(b"b", C1, 100, 50),
                entry(b"c", C2, 7, 42),
            ],
        )
        m2 = MultiManifest.from_bytes(m.to_bytes())
        assert m2.manifest_id == MID
        assert m2.entries == m.entries

    def test_empty_roundtrip(self):
        m2 = MultiManifest.from_bytes(MultiManifest(MID).to_bytes())
        assert len(m2) == 0


class TestStore:
    def test_put_get_meters(self):
        meter = DiskModel()
        store = ManifestStore(MemoryBackend(), meter)
        m = MultiManifest(MID, [entry(b"a", C1, 0, 5)])
        store.put(m)
        assert not m.dirty
        assert store.exists(MID)
        got = store.get(MID)
        assert got.entries == m.entries
        assert meter.count(DiskModel.MANIFEST, "write") == 1
        assert meter.count(DiskModel.MANIFEST, "read") == 1
