"""Integration tests for the MHD deduplicator.

Includes direct re-creations of the paper's illustrative examples
(Fig. 1 hysteresis re-chunking, Fig. 5 SHM, Fig. 6 HHR) plus the
system invariants DESIGN.md §7 commits to.
"""

import numpy as np
import pytest

from repro.core import DedupConfig, MHDDeduplicator
from repro.storage import DiskModel
from repro.workloads import BackupFile, tiny_corpus


def rand(n, seed):
    return np.random.default_rng(seed).integers(0, 256, size=n, dtype=np.uint8).tobytes()


def cfg(**kw):
    defaults = dict(
        ecs=256, sd=4, bloom_bytes=1 << 16, cache_manifests=16, window=16
    )
    defaults.update(kw)
    return DedupConfig(**defaults)


def dedup(**kw):
    return MHDDeduplicator(cfg(**kw))


class TestBasics:
    def test_empty_file(self):
        d = dedup()
        d.process([BackupFile("empty", b"")])
        assert d.restore("empty") == b""

    def test_single_small_file(self):
        d = dedup()
        data = rand(100, 1)
        d.process([BackupFile("f", data)])
        assert d.restore("f") == data

    def test_unique_corpus_roundtrip(self):
        files = [BackupFile(f"f{i}", rand(20_000, i)) for i in range(5)]
        d = dedup()
        stats = d.process(files)
        for f in files:
            assert d.restore(f.file_id) == f.data
        assert stats.duplicate_chunks == 0
        assert stats.stored_chunk_bytes == stats.input_bytes

    def test_identical_file_fully_deduped(self):
        data = rand(50_000, 3)
        d = dedup()
        stats = d.process([BackupFile("a", data), BackupFile("b", data)])
        assert d.restore("a") == data
        assert d.restore("b") == data
        # Second file stores nothing and creates no container/manifest.
        assert stats.stored_chunk_bytes == len(data)
        assert stats.chunk_inodes == 1
        assert stats.manifest_inodes == 1
        assert stats.duplicate_slices >= 1

    def test_ingest_after_finalize_rejected(self):
        d = dedup()
        d.process([BackupFile("a", rand(1000, 1))])
        with pytest.raises(RuntimeError):
            d.ingest(BackupFile("b", b"x"))

    def test_finalize_idempotent(self):
        d = dedup()
        s1 = d.process([BackupFile("a", rand(1000, 1))])
        s2 = d.finalize()
        assert s1.input_bytes == s2.input_bytes


class TestSHMStructure:
    def test_manifest_has_two_entries_per_group(self):
        """N unique chunks at SD -> ~2N/SD entries, N/SD hooks."""
        data = rand(300_000, 9)
        d = dedup(sd=8)
        stats = d.process([BackupFile("a", data)])
        from repro.hashing import sha1

        m = d.manifests.get(sha1(b"a|manifest"))
        n_groups = (stats.unique_chunks + 7) // 8
        assert m.hook_count() == n_groups
        assert len(m.entries) <= 2 * n_groups
        m.validate_tiling(d.chunks.size(sha1(b"a")))
        assert stats.hook_inodes == n_groups

    def test_hooks_are_group_leaders(self):
        from repro.hashing import sha1

        data = rand(100_000, 11)
        d = dedup(sd=4)
        d.process([BackupFile("a", data)])
        m = d.manifests.get(sha1(b"a|manifest"))
        # Entries alternate hook, merged (except possibly a trailing group).
        for i, e in enumerate(m.entries):
            if i % 2 == 0:
                assert e.is_hook
            else:
                assert not e.is_hook


class TestHysteresis:
    def make_aligned_chunks(self, d, data):
        return d.chunker.chunk(data)

    def test_fig1_rechunking_scenario(self):
        """File-2 repeats a slice of File-1; File-3 repeats a slice of
        File-2: duplicates must be found and restores stay exact."""
        base = rand(120_000, 21)
        file1 = BackupFile("file1", base)
        # File-2 = fresh prefix + a middle slice of File-1
        file2 = BackupFile("file2", rand(40_000, 22) + base[30_000:90_000])
        # File-3 = slice of File-2's fresh part + fresh tail
        file3 = BackupFile("file3", rand(10_000, 23) + base[30_000:60_000])
        d = dedup(sd=4)
        stats = d.process([file1, file2, file3])
        for f in (file1, file2, file3):
            assert d.restore(f.file_id) == f.data
        assert stats.duplicate_chunks > 0
        assert stats.stored_chunk_bytes < stats.input_bytes

    def test_hhr_triggered_and_manifest_split(self):
        """A repeat of an interior region must trigger byte reload +
        entry split (the Fig. 6 flow)."""
        base = rand(200_000, 31)
        d = dedup(sd=8)
        d.ingest(BackupFile("base", base))
        assert d.hhr_reads == 0
        # Repeat an interior region (crossing merged entries), embedded
        # in fresh data.
        repeat = rand(5_000, 32) + base[50_000:150_000] + rand(5_000, 33)
        d.ingest(BackupFile("probe", repeat))
        stats = d.finalize()
        assert d.hhr_reads > 0
        assert d.hhr_splits > 0
        assert d.restore("probe") == repeat
        assert d.restore("base") == base
        # most of the repeated region was deduplicated
        assert stats.stored_chunk_bytes < len(base) + 40_000

    def test_edge_hash_prevents_repeat_hhr(self):
        """The same duplicate slice arriving again must not reload bytes."""
        base = rand(200_000, 41)
        probe = rand(5_000, 42) + base[50_000:150_000] + rand(5_000, 43)
        d = dedup(sd=8)
        d.ingest(BackupFile("base", base))
        d.ingest(BackupFile("probe1", probe))
        reads_after_first = d.hhr_reads
        assert reads_after_first > 0
        d.ingest(BackupFile("probe2", probe))
        d.finalize()
        assert d.hhr_reads == reads_after_first, "EdgeHash failed to prevent re-HHR"
        assert d.restore("probe2") == probe

    def test_without_edge_hash_repeat_hhr_happens(self):
        """Ablation: disabling EdgeHash re-triggers byte reloads."""
        base = rand(200_000, 41)
        probe = rand(5_000, 42) + base[50_000:150_000] + rand(5_000, 43)
        d = MHDDeduplicator(cfg(sd=8), edge_hash=False)
        d.ingest(BackupFile("base", base))
        d.ingest(BackupFile("probe1", probe))
        reads_after_first = d.hhr_reads
        d.ingest(BackupFile("probe2", probe))
        d.finalize()
        assert d.hhr_reads >= reads_after_first
        assert d.restore("probe2") == probe

    def test_manifest_tiling_preserved_after_hhr(self):
        from repro.hashing import sha1

        base = rand(150_000, 51)
        probe = rand(3_000, 52) + base[40_000:110_000] + rand(3_000, 53)
        d = dedup(sd=8)
        d.ingest(BackupFile("base", base))
        d.ingest(BackupFile("probe", probe))
        d.finalize()
        m = d.manifests.get(sha1(b"base|manifest"))
        m.validate_tiling(d.chunks.size(sha1(b"base")))

    def test_diskchunks_never_rewritten(self):
        """HHR updates manifests only; chunk containers are write-once."""
        base = rand(150_000, 61)
        probe = base[40_000:110_000]
        d = dedup(sd=8)
        d.ingest(BackupFile("base", base))
        writes_before = d.meter.count(DiskModel.CHUNK, "write")
        stored_before = d.store.usage(DiskModel.CHUNK).nbytes
        d.ingest(BackupFile("probe", probe))
        d.finalize()
        assert d.store.usage(DiskModel.CHUNK).nbytes == stored_before
        assert d.meter.count(DiskModel.CHUNK, "write") == writes_before


class TestCorpusRun:
    def test_tiny_corpus_end_to_end(self):
        files = tiny_corpus().files()
        d = MHDDeduplicator(DedupConfig(ecs=1024, sd=8, bloom_bytes=1 << 18))
        stats = d.process(files)
        for f in files[:: max(1, len(files) // 25)]:
            assert d.restore(f.file_id) == f.data
        assert stats.data_only_der > 1.5
        assert stats.real_der > 1.0
        assert stats.metadata_ratio < 0.2
        assert stats.peak_ram_bytes > 0

    def test_duplicate_slice_count_positive(self):
        files = tiny_corpus().files()
        d = MHDDeduplicator(DedupConfig(ecs=1024, sd=8, bloom_bytes=1 << 18))
        stats = d.process(files)
        assert 0 < stats.duplicate_slices <= stats.duplicate_chunks

    def test_hhr_cost_below_worst_case(self):
        """Fig. 10(b): actual HHR disk reads stay far below 3L."""
        files = tiny_corpus().files()
        d = MHDDeduplicator(DedupConfig(ecs=1024, sd=8, bloom_bytes=1 << 18))
        stats = d.process(files)
        assert d.hhr_reads <= 3 * stats.duplicate_slices

    def test_bloomless_configuration(self):
        files = tiny_corpus().files()[:30]
        d = MHDDeduplicator(DedupConfig(ecs=1024, sd=8, bloom_bytes=0))
        d.process(files)
        for f in files[::7]:
            assert d.restore(f.file_id) == f.data


class TestContiguousSHM:
    def test_every_nondup_slice_owns_a_hook(self):
        """The paper's alternative SHM strategy: flush pending chunks
        when a duplicate ends their run, so no SHM group straddles a
        duplicate slice."""
        base = rand(150_000, 71)
        # probe interleaves fresh slices with repeats of base regions
        probe = (
            rand(6_000, 72)
            + base[20_000:60_000]
            + rand(6_000, 73)
            + base[90_000:130_000]
            + rand(6_000, 74)
        )
        d = MHDDeduplicator(cfg(sd=8), contiguous_shm=True)
        d.ingest(BackupFile("base", base))
        d.ingest(BackupFile("probe", probe))
        d.finalize()
        assert d.restore("probe") == probe
        assert d.verify_integrity(check_entry_hashes=True).ok

    def test_mints_at_least_as_many_hooks(self):
        base = rand(150_000, 75)
        probe = rand(6_000, 76) + base[20_000:60_000] + rand(6_000, 77)
        results = {}
        for contiguous in (False, True):
            d = MHDDeduplicator(cfg(sd=8), contiguous_shm=contiguous)
            d.ingest(BackupFile("base", base))
            d.ingest(BackupFile("probe", probe))
            stats = d.finalize()
            results[contiguous] = stats.hook_inodes
            assert d.restore("probe") == probe
        assert results[True] >= results[False]

    def test_identical_on_dup_free_stream(self):
        """Without duplicates the strategies coincide."""
        files = [BackupFile(f"f{i}", rand(60_000, 80 + i)) for i in range(3)]
        a = MHDDeduplicator(cfg(sd=8), contiguous_shm=False).process(files)
        b = MHDDeduplicator(cfg(sd=8), contiguous_shm=True).process(files)
        assert a.hook_inodes == b.hook_inodes
        assert a.manifest_bytes == b.manifest_bytes
