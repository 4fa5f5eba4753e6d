"""Tests for the DiskChunk container store."""

import pytest

from repro.hashing import sha1
from repro.storage import DiskChunkStore, DiskModel, MemoryBackend, Store

CID = sha1(b"container-1")


@pytest.fixture
def store():
    return DiskChunkStore(MemoryBackend(), DiskModel())


@pytest.fixture
def metered():
    meter = DiskModel()
    return DiskChunkStore(MemoryBackend(), meter), meter


def test_append_returns_offsets(store):
    w = store.open_container(CID)
    assert w.append(b"aaa") == 0
    assert w.append(b"bb") == 3
    assert w.size == 5


def test_read_open_container(store):
    w = store.open_container(CID)
    w.append(b"hello world")
    assert store.read(CID, 6, 5) == b"world"
    assert not w.closed


def test_read_closed_container(store):
    w = store.open_container(CID)
    w.append(b"hello world")
    w.close()
    assert w.closed
    assert store.read(CID, 0, 5) == b"hello"
    assert store.size(CID) == 11


def test_close_is_idempotent(metered):
    store, meter = metered
    w = store.open_container(CID)
    w.append(b"data")
    w.close()
    w.close()
    assert meter.count(DiskModel.CHUNK, "write") == 1


def test_append_after_close_fails(store):
    w = store.open_container(CID)
    w.close()
    with pytest.raises(RuntimeError):
        w.append(b"late")


def test_duplicate_container_id_rejected(store):
    store.open_container(CID)
    with pytest.raises(ValueError):
        store.open_container(CID)


def test_duplicate_after_close_rejected(store):
    w = store.open_container(CID)
    w.append(b"x")
    w.close()
    with pytest.raises(ValueError):
        store.open_container(CID)


def test_empty_container_occupies_nothing():
    s = Store(MemoryBackend())
    w = s.chunks.open_container(CID)
    w.close()
    assert s.usage(DiskModel.CHUNK).objects == 0
    assert s.meter.count(DiskModel.CHUNK, "write") == 0


def test_write_metered_once_per_container(metered):
    store, meter = metered
    w = store.open_container(CID)
    w.append(b"a" * 100)
    w.append(b"b" * 200)
    w.close()
    assert meter.count(DiskModel.CHUNK, "write") == 1
    assert meter.nbytes(DiskModel.CHUNK, "write") == 300


def test_reads_metered_even_when_open(metered):
    store, meter = metered
    w = store.open_container(CID)
    w.append(b"0123456789")
    store.read(CID, 2, 4)
    w.close()
    store.read(CID, 0, 3)
    assert meter.count(DiskModel.CHUNK, "read") == 2
    assert meter.nbytes(DiskModel.CHUNK, "read") == 7


def test_read_beyond_extent_fails(store):
    w = store.open_container(CID)
    w.append(b"short")
    w.close()
    with pytest.raises(ValueError):
        store.read(CID, 3, 10)


def test_read_beyond_extent_fails_on_open_container(store):
    w = store.open_container(CID)
    w.append(b"short")
    with pytest.raises(ValueError):
        store.read(CID, 3, 10)
    assert store.read(CID, 3, 2) == b"rt"  # up to the end is fine
    w.close()


def test_read_invalid_extent(store):
    with pytest.raises(ValueError):
        store.read(CID, -1, 5)


def test_exists(store):
    assert not store.exists(CID)
    w = store.open_container(CID)
    assert store.exists(CID)
    w.append(b"x")
    w.close()
    assert store.exists(CID)


def test_stored_bytes():
    s = Store(MemoryBackend())
    w = s.chunks.open_container(CID)
    w.append(b"abcdef")
    w.close()
    assert s.usage(DiskModel.CHUNK) == (1, 6)
