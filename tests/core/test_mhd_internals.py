"""Targeted tests of MHD's internal paths that integration runs may
exercise only probabilistically: bloom false positives, span-aligned
match extension, token lifecycle."""

import numpy as np
import pytest

from repro.core import DedupConfig, MHDDeduplicator
from repro.core.mhd import _Token
from repro.hashing import sha1
from repro.storage import DiskModel
from repro.workloads import BackupFile


def rand(n, seed):
    return np.random.default_rng(seed).integers(0, 256, size=n, dtype=np.uint8).tobytes()


class TestToken:
    def test_resolve_once(self):
        t = _Token(sha1(b"x"), memoryview(b"abcd"), 4)
        t.resolve(sha1(b"c"), 10)
        assert (t.container_id, t.offset) == (sha1(b"c"), 10)

    def test_double_resolve_rejected(self):
        t = _Token(sha1(b"x"), memoryview(b"abcd"), 4)
        t.resolve(sha1(b"c"), 10)
        with pytest.raises(RuntimeError):
            t.resolve(sha1(b"c"), 20)


class TestBloomFalsePositives:
    def test_fp_causes_wasted_hook_query_but_no_corruption(self):
        """A saturated 8-byte bloom answers 'maybe' for everything, so
        every chunk pays a hook query; results stay correct."""
        cfg = DedupConfig(ecs=512, sd=4, bloom_bytes=8, cache_manifests=4, window=16)
        d = MHDDeduplicator(cfg)
        files = [BackupFile(f"f{i}", rand(40_000, i)) for i in range(3)]
        d.process(files)
        queries = d.meter.count(DiskModel.HOOK, "query")
        # fresh data + saturated filter => many wasted queries
        assert queries > d.store.usage(DiskModel.HOOK).objects
        for f in files:
            assert d.restore(f.file_id) == f.data
        assert d.verify_integrity(check_entry_hashes=True).ok


class TestSpanExtension:
    def test_merged_entry_matched_without_reload_on_aligned_repeat(self):
        """A repeat aligned to flush groups dedups whole merged entries
        by span hash — zero byte reloads."""
        cfg = DedupConfig(ecs=512, sd=4, bloom_bytes=1 << 16, window=16)
        base = rand(100_000, 1)
        d = MHDDeduplicator(cfg)
        d.ingest(BackupFile("base", base))
        assert d.hhr_reads == 0
        d.ingest(BackupFile("repeat", base))  # exact full repeat
        d.finalize()
        # full-file repeat aligns with every group: no HHR needed
        assert d.hhr_reads == 0
        stats = d.snapshot_stats()
        assert stats.stored_chunk_bytes == len(base)
        assert d.restore("repeat") == base

    def test_cpu_compared_only_grows_with_hhr(self):
        cfg = DedupConfig(ecs=512, sd=4, bloom_bytes=1 << 16, window=16)
        base = rand(100_000, 2)
        d = MHDDeduplicator(cfg)
        d.ingest(BackupFile("base", base))
        assert d.cpu.compared == 0
        probe = rand(3_000, 3) + base[30_000:70_000] + rand(3_000, 4)
        d.ingest(BackupFile("probe", probe))
        d.finalize()
        if d.hhr_reads:
            assert d.cpu.compared > 0
        else:
            assert d.cpu.compared == 0


class TestDuplicateSliceAccounting:
    def test_single_interior_repeat_counts_one_slice(self):
        cfg = DedupConfig(ecs=512, sd=4, bloom_bytes=1 << 16, window=16)
        base = rand(120_000, 5)
        d = MHDDeduplicator(cfg)
        d.ingest(BackupFile("base", base))
        d.ingest(BackupFile("probe", rand(4_000, 6) + base[20_000:90_000] + rand(4_000, 7)))
        stats = d.finalize()
        # one contiguous repeated region: the hook-hit count should be
        # small (each hook hit inside the region that extension didn't
        # already consume opens another "slice")
        assert 1 <= stats.duplicate_slices <= 10

    def test_two_separated_repeats_count_at_least_two(self):
        cfg = DedupConfig(ecs=512, sd=4, bloom_bytes=1 << 16, window=16)
        base = rand(200_000, 8)
        d = MHDDeduplicator(cfg)
        d.ingest(BackupFile("base", base))
        probe = (
            rand(4_000, 9)
            + base[10_000:50_000]
            + rand(4_000, 10)
            + base[120_000:160_000]
            + rand(4_000, 11)
        )
        d.ingest(BackupFile("probe", probe))
        stats = d.finalize()
        assert stats.duplicate_slices >= 2
        assert d.restore("probe") == probe
