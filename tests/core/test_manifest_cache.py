"""Tests for the LRU manifest cache."""

import pytest

from repro.core import DedupConfig, ManifestCache, MHDDeduplicator
from repro.hashing import sha1
from repro.storage import DiskModel, Manifest, ManifestEntry, ManifestStore, MemoryBackend


def make_manifest(tag: str, digests=("x",)):
    mid = sha1(f"m-{tag}".encode())
    cid = sha1(f"c-{tag}".encode())
    entries = [
        ManifestEntry(sha1(d.encode()), i * 10, 10) for i, d in enumerate(digests)
    ]
    return Manifest(mid, cid, entries)


@pytest.fixture
def store():
    return ManifestStore(MemoryBackend(), DiskModel())


@pytest.fixture
def cache(store):
    return ManifestCache(store, capacity=2)


def test_capacity_validation(store):
    with pytest.raises(ValueError):
        ManifestCache(store, capacity=0)


def test_add_and_get(cache):
    m = make_manifest("a")
    cache.add(m)
    assert cache.get(m.manifest_id) is m
    assert m.manifest_id in cache
    assert len(cache) == 1


def test_add_duplicate_rejected(cache):
    m = make_manifest("a")
    cache.add(m)
    with pytest.raises(ValueError):
        cache.add(m)


def test_search_finds_digest(cache):
    m = make_manifest("a", digests=("p", "q"))
    cache.add(m)
    assert cache.search(sha1(b"q")) is m
    assert cache.search(sha1(b"nope")) is None
    assert cache.hits == 1


def test_lru_eviction_order(cache, store):
    a, b, c = make_manifest("a"), make_manifest("b", ("y",)), make_manifest("c", ("z",))
    cache.add(a)
    cache.add(b)
    cache.get(a.manifest_id)  # touch a; b becomes LRU
    cache.add(c)
    assert a.manifest_id in cache
    assert b.manifest_id not in cache
    assert c.manifest_id in cache


def test_eviction_writes_back_dirty(cache, store):
    a = make_manifest("a")
    a.dirty = True
    cache.add(a)
    cache.add(make_manifest("b", ("y",)))
    cache.add(make_manifest("c", ("z",)))  # evicts a
    assert store.exists(a.manifest_id)
    assert cache.writebacks == 1


def test_eviction_skips_clean(cache, store):
    a = make_manifest("a")
    cache.add(a)
    cache.add(make_manifest("b", ("y",)))
    cache.add(make_manifest("c", ("z",)))
    assert not store.exists(a.manifest_id)


def test_evicted_digests_leave_index(cache):
    a = make_manifest("a", digests=("p",))
    cache.add(a)
    cache.add(make_manifest("b", ("y",)))
    cache.add(make_manifest("c", ("z",)))  # evicts a
    assert cache.search(sha1(b"p")) is None


def test_pinned_not_evicted(cache):
    a = make_manifest("a")
    cache.add(a, pin=True)
    cache.add(make_manifest("b", ("y",)))
    cache.add(make_manifest("c", ("z",)))  # would evict a, but pinned
    assert a.manifest_id in cache
    cache.unpin(a.manifest_id)
    cache.add(make_manifest("d", ("w",)))
    assert a.manifest_id not in cache


def test_load_from_disk_counts(cache, store):
    a = make_manifest("a")
    store.put(a)
    got = cache.load(a.manifest_id)
    assert got.manifest_id == a.manifest_id
    assert cache.loads == 1
    # second load is a RAM hit
    assert cache.load(a.manifest_id) is got
    assert cache.loads == 1


def test_reindex_tracks_mutation(cache):
    a = make_manifest("a", digests=("p",))
    cache.add(a)
    a.replace_entry(
        0,
        [
            ManifestEntry(sha1(b"new1"), 0, 4),
            ManifestEntry(sha1(b"new2"), 4, 6),
        ],
    )
    cache.reindex(a)
    assert cache.search(sha1(b"p")) is None
    assert cache.search(sha1(b"new2")) is a


def test_reindex_requires_cached(cache):
    with pytest.raises(KeyError):
        cache.reindex(make_manifest("zz"))


def test_flush_writes_all_dirty(cache, store):
    a, b = make_manifest("a"), make_manifest("b", ("y",))
    a.dirty = True
    cache.add(a)
    cache.add(b)
    cache.flush()
    assert store.exists(a.manifest_id)
    assert not store.exists(b.manifest_id)


def test_ram_bytes(cache):
    a = make_manifest("a", digests=("p", "q"))
    cache.add(a)
    assert cache.ram_bytes() == a.ram_size()


class TestDeterministicSearch:
    def test_shared_digest_picks_smallest_manifest_id(self, store):
        cache = ManifestCache(store, capacity=4)
        a, b, c = make_manifest("a", ("p",)), make_manifest("b", ("p",)), make_manifest("c", ("p",))
        for m in (a, b, c):
            cache.add(m)
        winner = min((a, b, c), key=lambda m: m.manifest_id)
        for _ in range(5):
            assert cache.search(sha1(b"p")) is winner

    def test_regression_under_two_hash_seeds(self):
        """The old `next(iter(ids))` victim choice leaked set iteration
        order (PYTHONHASHSEED) into load/hit counters.  Re-run the same
        workload in subprocesses under two seeds: every statistic must
        match (acceptance criterion of the determinism invariant)."""
        import subprocess
        import sys

        script = (
            "from repro.core import DedupConfig, MHDDeduplicator\n"
            "from repro.workloads import BackupCorpus, CorpusConfig\n"
            "d = MHDDeduplicator(DedupConfig(ecs=512, sd=4, bloom_bytes=1 << 16,\n"
            "                                cache_manifests=4, window=16))\n"
            "stats = d.process(BackupCorpus(CorpusConfig(\n"
            "    machines=2, generations=2, os_count=1, os_bytes=1 << 18,\n"
            "    app_bytes=1 << 16, user_bytes=1 << 16, mean_file=1 << 14, seed=5)))\n"
            "print(stats.unique_chunks, stats.duplicate_chunks,\n"
            "      stats.duplicate_slices, stats.stored_chunk_bytes,\n"
            "      stats.metadata_bytes, stats.io.count(),\n"
            "      d.cache.loads, d.cache.hits, d.cache.writebacks)\n"
        )

        def run(seed):
            import os

            import repro

            src = os.path.dirname(os.path.dirname(repro.__file__))
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
            out = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=env, check=True,
            )
            return out.stdout

        first, second = run(0), run(1)
        assert first == second
        assert first.strip()  # the workload actually produced numbers


class TestFailureSafety:
    class FlakyStore:
        """ManifestBackend whose put fails once on demand."""

        def __init__(self, inner):
            self.inner = inner
            self.fail_next = False

        def put(self, manifest):
            if self.fail_next:
                self.fail_next = False
                raise OSError("injected write-back failure")
            self.inner.put(manifest)

        def get(self, manifest_id):
            return self.inner.get(manifest_id)

    def test_failed_writeback_keeps_dirty_manifest_cached(self, store):
        flaky = self.FlakyStore(store)
        cache = ManifestCache(flaky, capacity=1)
        a = make_manifest("a", ("p",))
        a.dirty = True
        cache.add(a)

        flaky.fail_next = True
        b = make_manifest("b", ("q",))
        with pytest.raises(OSError):
            cache.add(b)  # eviction write-back fails mid-add
        # Nothing was lost: the dirty victim is still cached, indexed,
        # and not on disk; the insert simply didn't happen.
        assert a.manifest_id in cache
        assert a.dirty
        assert cache.search(sha1(b"p")) is a
        assert b.manifest_id not in cache
        assert not store.exists(a.manifest_id)

        cache.add(b)  # retry once the store heals
        assert store.exists(a.manifest_id)
        assert b.manifest_id in cache


class TestUnpinShrinkBack:
    def test_unpin_evicts_temporary_overflow(self, store):
        cache = ManifestCache(store, capacity=1)
        a = make_manifest("a", ("p",))
        a.dirty = True
        cache.add(a, pin=True)
        b = make_manifest("b", ("q",))
        cache.add(b)  # pinned `a` forces a temporary overflow
        assert len(cache) == 2

        cache.unpin(a.manifest_id)
        assert len(cache) == 1  # shrinks back immediately
        assert a.manifest_id not in cache
        assert store.exists(a.manifest_id)  # dirty victim written back
        assert b.manifest_id in cache

    def test_unpin_at_capacity_evicts_nothing(self, store):
        cache = ManifestCache(store, capacity=2)
        a = make_manifest("a", ("p",))
        cache.add(a, pin=True)
        cache.add(make_manifest("b", ("q",)))
        cache.unpin(a.manifest_id)
        assert len(cache) == 2


class TestLocate:
    """``locate`` is the paper's Fig. 4 chain; its three outcomes."""

    @staticmethod
    def _dedup(**kw):
        return MHDDeduplicator(DedupConfig(ecs=512, sd=4, cache_manifests=2, **kw))

    def test_cache_hit_never_asks_the_hook_source(self, cache):
        m = make_manifest("a", digests=("p", "q"))
        cache.add(m)

        def hook_source(digest):
            raise AssertionError("hook source consulted on a cache hit")

        assert cache.locate(sha1(b"q"), hook_source) == (m, 1)
        assert (cache.hits, cache.loads) == (1, 0)

    def test_bloom_negative_costs_no_hook_io(self):
        d = self._dedup(bloom_bytes=1 << 16)
        d.hooks.put(sha1(b"on disk"), sha1(b"m"))  # never added to the Bloom
        assert d.cache.locate(sha1(b"on disk"), d._hook_manifest) is None
        assert d.meter.count(DiskModel.HOOK, "query") == 0
        assert d.meter.count(DiskModel.HOOK, "read") == 0
        assert d.cache.loads == 0

    def test_bloom_false_positive_pays_one_query(self):
        d = self._dedup(bloom_bytes=1 << 16)
        d.bloom.add(sha1(b"ghost"))
        assert d.cache.locate(sha1(b"ghost"), d._hook_manifest) is None
        assert d.meter.count(DiskModel.HOOK, "query") == 1
        assert d.meter.count(DiskModel.HOOK, "read") == 0

    def test_hook_hit_loads_the_manifest(self):
        d = self._dedup(bloom_bytes=1 << 16)
        m = make_manifest("a", digests=("p", "q"))
        d.manifests.put(m)
        d.hooks.put(sha1(b"q"), m.manifest_id)
        d.bloom.add(sha1(b"q"))
        found, idx = d.cache.locate(sha1(b"q"), d._hook_manifest)
        assert (found.manifest_id, idx) == (m.manifest_id, 1)
        assert (d.cache.hits, d.cache.loads) == (0, 1)
        # second time round it is a RAM hit
        assert d.cache.locate(sha1(b"q"), d._hook_manifest) == (found, 1)
        assert (d.cache.hits, d.cache.loads) == (1, 1)

    def test_hook_hit_on_a_manifest_that_lost_the_hash(self):
        d = self._dedup(bloom_bytes=1 << 16)
        m = make_manifest("a", digests=("p",))  # HHR split "q" away
        d.manifests.put(m)
        d.hooks.put(sha1(b"q"), m.manifest_id)
        d.bloom.add(sha1(b"q"))
        assert d.cache.locate(sha1(b"q"), d._hook_manifest) is None
        assert d.cache.loads == 1  # the load was paid for
        assert m.manifest_id in d.cache


class TestDiscard:
    def test_discard_forgets_a_pinned_dirty_manifest_unwritten(self, cache, store):
        a = make_manifest("a", ("p",))
        a.dirty = True
        cache.add(a, pin=True)
        cache.discard(a.manifest_id)
        assert a.manifest_id not in cache
        assert not cache._pinned
        assert cache.search(sha1(b"p")) is None
        assert not store.exists(a.manifest_id)
        assert cache.writebacks == 0
        cache.add(make_manifest("a", ("p",)))  # the id is free again

    def test_discard_of_an_absent_manifest_is_a_noop(self, cache):
        cache.discard(sha1(b"never cached"))
        assert len(cache) == 0
