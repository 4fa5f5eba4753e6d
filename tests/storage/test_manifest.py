"""Tests for Manifest structure, mutation (HHR splits) and persistence."""

import pytest

from repro.hashing import sha1
from repro.storage import (
    ENTRY_SIZE,
    MANIFEST_HEADER_SIZE,
    MHD_ENTRY_SIZE,
    DiskModel,
    Manifest,
    ManifestEntry,
    ManifestStore,
    MemoryBackend,
    Store,
)

MID = sha1(b"manifest")
CID = sha1(b"container")


def entry(tag: bytes, offset: int, size: int, hook: bool = False) -> ManifestEntry:
    return ManifestEntry(sha1(tag), offset, size, hook)


@pytest.fixture
def manifest():
    return Manifest(
        MID,
        CID,
        [entry(b"a", 0, 100, hook=True), entry(b"b", 100, 300), entry(b"c", 400, 50)],
    )


class TestEntry:
    def test_rejects_bad_digest(self):
        with pytest.raises(ValueError):
            ManifestEntry(b"short", 0, 10)

    def test_rejects_bad_extent(self):
        with pytest.raises(ValueError):
            entry(b"a", -1, 10)
        with pytest.raises(ValueError):
            entry(b"a", 0, 0)

    def test_end(self):
        assert entry(b"a", 5, 10).end == 15

    def test_with_hook(self):
        e = entry(b"a", 0, 10)
        assert not e.is_hook
        assert e.with_hook(True).is_hook


class TestManifestLookup:
    def test_find(self, manifest):
        assert manifest.find(sha1(b"b")) == 1
        assert manifest.find(sha1(b"zzz")) is None

    def test_contains(self, manifest):
        assert sha1(b"a") in manifest
        assert sha1(b"nope") not in manifest

    def test_len(self, manifest):
        assert len(manifest) == 3

    def test_duplicate_digest_finds_first(self):
        m = Manifest(MID, CID, [entry(b"x", 0, 10), entry(b"x", 10, 10)])
        assert m.find(sha1(b"x")) == 0


class TestMutation:
    def test_append_updates_index(self, manifest):
        manifest.find(sha1(b"a"))  # force index build
        manifest.append(entry(b"d", 450, 25))
        assert manifest.find(sha1(b"d")) == 3
        assert manifest.dirty

    def test_replace_entry_valid_split(self, manifest):
        reps = [entry(b"b1", 100, 120), entry(b"b2", 220, 100), entry(b"b3", 320, 80)]
        manifest.replace_entry(1, reps)
        assert len(manifest) == 5
        assert manifest.find(sha1(b"b2")) == 2
        manifest.validate_tiling(450)
        assert manifest.dirty

    def test_replace_entry_must_tile(self, manifest):
        with pytest.raises(ValueError):
            manifest.replace_entry(1, [entry(b"b1", 100, 100)])  # short
        with pytest.raises(ValueError):
            manifest.replace_entry(
                1, [entry(b"b1", 100, 100), entry(b"b2", 250, 150)]  # gap
            )
        with pytest.raises(ValueError):
            manifest.replace_entry(1, [])

    def test_validate_tiling_detects_gap(self):
        m = Manifest(MID, CID, [entry(b"a", 0, 10), entry(b"b", 15, 5)])
        with pytest.raises(AssertionError):
            m.validate_tiling()

    def test_validate_tiling_total(self, manifest):
        manifest.validate_tiling(450)
        with pytest.raises(AssertionError):
            manifest.validate_tiling(451)


class TestSizes:
    def test_hook_count(self, manifest):
        assert manifest.hook_count() == 1

    def test_byte_size_mhd(self, manifest):
        assert manifest.byte_size() == MANIFEST_HEADER_SIZE + 3 * MHD_ENTRY_SIZE

    def test_byte_size_baseline(self):
        m = Manifest(MID, CID, [entry(b"a", 0, 10)], entry_size=ENTRY_SIZE)
        assert m.byte_size() == MANIFEST_HEADER_SIZE + ENTRY_SIZE

    def test_entry_size_validation(self):
        with pytest.raises(ValueError):
            Manifest(MID, CID, entry_size=40)

    def test_serialized_length_matches_byte_size(self, manifest):
        assert len(manifest.to_bytes()) == manifest.byte_size()


class TestSerialization:
    @pytest.mark.parametrize("entry_size", [ENTRY_SIZE, MHD_ENTRY_SIZE])
    def test_roundtrip(self, entry_size):
        m = Manifest(
            MID,
            CID,
            [entry(b"a", 0, 100, hook=True), entry(b"b", 100, 55)],
            entry_size=entry_size,
        )
        m2 = Manifest.from_bytes(m.to_bytes())
        assert m2.manifest_id == MID
        assert m2.chunk_id == CID
        assert m2.entry_size == entry_size
        assert [e.digest for e in m2.entries] == [e.digest for e in m.entries]
        assert [e.offset for e in m2.entries] == [0, 100]
        if entry_size == MHD_ENTRY_SIZE:
            assert m2.entries[0].is_hook and not m2.entries[1].is_hook

    def test_empty_roundtrip(self):
        m = Manifest(MID, CID)
        m2 = Manifest.from_bytes(m.to_bytes())
        assert len(m2) == 0


class TestStore:
    def test_put_get_meters(self):
        meter = DiskModel()
        store = ManifestStore(MemoryBackend(), meter)
        m = Manifest(MID, CID, [entry(b"a", 0, 10)])
        store.put(m)
        assert not m.dirty
        got = store.get(MID)
        assert got.entries[0].digest == sha1(b"a")
        assert meter.count(DiskModel.MANIFEST, "write") == 1
        assert meter.count(DiskModel.MANIFEST, "read") == 1
        assert meter.nbytes(DiskModel.MANIFEST, "write") == m.byte_size()

    def test_exists_and_counts(self):
        s = Store(MemoryBackend())
        store = s.manifests
        assert not store.exists(MID)
        store.put(Manifest(MID, CID, [entry(b"a", 0, 10)]))
        assert store.exists(MID)
        assert s.usage(DiskModel.MANIFEST).objects == 1
        assert s.usage(DiskModel.MANIFEST).nbytes > 0
