"""Tests for the Hook store."""

import pytest

from repro.hashing import sha1
from repro.storage import DiskModel, HookStore, MemoryBackend, Store

H = sha1(b"hook-digest")
M1 = sha1(b"manifest-1")
M2 = sha1(b"manifest-2")


@pytest.fixture
def hooks():
    meter = DiskModel()
    return HookStore(MemoryBackend(), meter), meter


def test_put_get(hooks):
    store, meter = hooks
    store.put(H, M1)
    assert store.get(H) == M1
    assert meter.count(DiskModel.HOOK, "write") == 1
    assert meter.count(DiskModel.HOOK, "read") == 1


def test_put_rejects_bad_manifest_id(hooks):
    store, _ = hooks
    with pytest.raises(ValueError):
        store.put(H, b"tiny")


def test_hooks_are_write_once(hooks):
    store, meter = hooks
    store.put(H, M1)
    store.put(H, M2)  # ignored: hooks are immutable
    assert store.get(H) == M1
    assert meter.count(DiskModel.HOOK, "write") == 1


def test_query_meters(hooks):
    store, meter = hooks
    assert not store.query(H)
    store.put(H, M1)
    assert store.query(H)
    assert meter.count(DiskModel.HOOK, "query") == 2


def test_lookup_miss(hooks):
    store, meter = hooks
    assert store.lookup(H) is None
    assert meter.count(DiskModel.HOOK, "query") == 1
    assert meter.count(DiskModel.HOOK, "read") == 0


def test_lookup_hit(hooks):
    store, meter = hooks
    store.put(H, M1)
    assert store.lookup(H) == M1
    assert meter.count(DiskModel.HOOK, "read") == 1


def test_counts():
    s = Store(MemoryBackend())
    s.hooks.put(H, M1)
    s.hooks.put(sha1(b"other"), M2)
    assert s.usage(DiskModel.HOOK) == (2, 40)  # two 20-byte addresses
