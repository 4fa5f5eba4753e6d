"""Tests for the Hook store."""

import pytest

from repro.core import DedupConfig
from repro.hashing import sha1
from repro.registry import resolve
from repro.storage import DirectoryBackend, DiskModel, HookStore, MemoryBackend, Store
from repro.workloads import tiny_corpus

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


CONFIG = dict(ecs=1024, sd=8, bloom_bytes=1 << 16, cache_manifests=8, window=16)


def _ingest(algo, backend):
    dedup = resolve(algo)(DedupConfig(**CONFIG), backend=backend)
    stats = dedup.process(tiny_corpus().files())
    return dedup.store, stats


@pytest.mark.parametrize("algo", ["bf-mhd", "sparse-indexing"])
def test_hooks_of_one_manifest_share_an_inode(algo, tmp_path):
    """On a DirectoryBackend a manifest's (or segment's) hooks are links
    to one file; everything the paper counts is that of a file per hook."""
    store, stats = _ingest(algo, DirectoryBackend(tmp_path / "store"))
    files = list((tmp_path / "store" / DiskModel.HOOK).iterdir())
    inodes = {f.stat().st_ino for f in files}
    addressed = {f.read_bytes() for f in files}  # manifests that have hooks
    assert len(files) == store.usage(DiskModel.HOOK).objects > len(addressed)
    assert len(inodes) <= len(addressed) <= store.usage(DiskModel.MANIFEST).objects

    reference, reference_stats = _ingest(algo, MemoryBackend())
    assert store.usage(DiskModel.HOOK) == reference.usage(DiskModel.HOOK)
    assert store.meter.count(DiskModel.HOOK, "write") == reference.meter.count(
        DiskModel.HOOK, "write"
    )
    assert stats.as_dict() == reference_stats.as_dict()
