"""Tests for SI-MHD, the sparse-index variant of MHD."""

import numpy as np

from repro.core import DedupConfig, MHDDeduplicator, SIMHDDeduplicator
from repro.storage import DiskModel
from repro.workloads import BackupFile, tiny_corpus


def rand(n, seed):
    return np.random.default_rng(seed).integers(0, 256, size=n, dtype=np.uint8).tobytes()


def cfg(**kw):
    defaults = dict(ecs=512, sd=4, bloom_bytes=1 << 16, cache_manifests=16, window=16)
    defaults.update(kw)
    return DedupConfig(**defaults)


def test_no_bloom_filter():
    assert SIMHDDeduplicator(cfg()).bloom is None


def test_no_disk_hook_queries():
    """The headline difference: duplicate detection never queries the
    on-disk hook store."""
    files = tiny_corpus().files()[:60]
    si = SIMHDDeduplicator(cfg(ecs=1024, sd=8))
    si.process(files)
    assert si.meter.count(DiskModel.HOOK, "query") == 0
    assert si.meter.count(DiskModel.HOOK, "read") == 0
    bf = MHDDeduplicator(cfg(ecs=1024, sd=8))
    bf.process(files)
    assert bf.meter.count(DiskModel.HOOK, "query") > 0


def test_hooks_still_persisted():
    """Hooks remain on disk (write-once) for recovery and accounting."""
    d = SIMHDDeduplicator(cfg())
    stats = d.process([BackupFile("a", rand(60_000, 1))])
    assert stats.hook_inodes > 0
    assert d.store.usage(DiskModel.HOOK).objects == len(d._hook_index)


def test_same_dedup_as_bf_mhd():
    """With a false-positive-free bloom, BF-MHD and SI-MHD must make
    identical dedup decisions — the index only changes *where* the
    existence answer comes from."""
    files = tiny_corpus().files()
    si = SIMHDDeduplicator(cfg(ecs=1024, sd=8)).process(files)
    bf = MHDDeduplicator(cfg(ecs=1024, sd=8, bloom_bytes=1 << 22)).process(files)
    assert si.stored_chunk_bytes == bf.stored_chunk_bytes
    assert si.unique_chunks == bf.unique_chunks
    assert si.duplicate_chunks == bf.duplicate_chunks


def test_fewer_disk_accesses_than_bf_mhd():
    files = tiny_corpus().files()
    si = SIMHDDeduplicator(cfg(ecs=1024, sd=8)).process(files)
    bf = MHDDeduplicator(cfg(ecs=1024, sd=8)).process(files)
    assert si.io.count() < bf.io.count()


def test_restores_and_integrity():
    files = tiny_corpus().files()[:40]
    d = SIMHDDeduplicator(cfg(ecs=1024, sd=8))
    d.process(files)
    for f in files[::7]:
        assert d.restore(f.file_id) == f.data
    assert d.verify_integrity(check_entry_hashes=True).ok


def test_hook_index_ram_reported():
    d = SIMHDDeduplicator(cfg())
    stats = d.process([BackupFile("a", rand(60_000, 2))])
    assert d.hook_index_bytes() > 0
    assert stats.peak_ram_bytes >= d.hook_index_bytes()


def test_hysteresis_inherited():
    """HHR and EdgeHash behave exactly as in BF-MHD."""
    base = rand(200_000, 41)
    probe = rand(5_000, 42) + base[50_000:150_000] + rand(5_000, 43)
    d = SIMHDDeduplicator(cfg(sd=8))
    d.ingest(BackupFile("base", base))
    d.ingest(BackupFile("probe1", probe))
    reads = d.hhr_reads
    assert reads > 0
    d.ingest(BackupFile("probe2", probe))
    d.finalize()
    assert d.hhr_reads == reads
    assert d.restore("probe2") == probe


def test_warm_start_idempotent(tmp_path):
    from repro.storage import DirectoryBackend

    base = rand(100_000, 60)
    SIMHDDeduplicator(cfg(ecs=1024, sd=8), DirectoryBackend(tmp_path / "s")).process(
        [BackupFile("a", base)]
    )
    d = SIMHDDeduplicator(cfg(ecs=1024, sd=8), DirectoryBackend(tmp_path / "s"))
    first = d.warm_start()
    second = d.warm_start()
    assert first == second == len(d._hook_index)
