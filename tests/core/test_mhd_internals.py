"""Targeted tests of MHD's internal paths that integration runs may
exercise only probabilistically: bloom false positives, span-aligned
match extension, duplicate-slice accounting, the recipe of buffered
bytes."""

import numpy as np

from repro.chunking import Chunk
from repro.core import DedupConfig, MHDDeduplicator
from repro.core.mhd import _FileContext
from repro.hashing import sha1
from repro.storage import DiskModel
from repro.workloads import BackupFile


def rand(n, seed):
    return np.random.default_rng(seed).integers(0, 256, size=n, dtype=np.uint8).tobytes()


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


class TestRecipe:
    """A file's recipe names buffered bytes by their place in its own
    container; match extension takes chunks back off the buffer's tail,
    which may reach past a duplicate extent into an earlier run."""

    def context(self):
        dedup = MHDDeduplicator(DedupConfig(ecs=512, sd=4, bloom_bytes=1 << 12))
        return _FileContext(dedup, "f")

    def chunks(self, *sizes, start=0):
        out = []
        for size in sizes:
            out.append(Chunk(start, size, memoryview(bytes(size))))
            start += size
        return out

    def test_claims_cut_runs_in_stream_order(self):
        ctx = self.context()
        own, other, old = ctx.container_id, sha1(b"other"), sha1(b"old")
        run1, run2 = self.chunks(10, 20, 30), self.chunks(5, 15, start=100)
        ctx.buffer_run(run1, [sha1(b"%d" % k) for k in range(3)], 0, 3)
        ctx.extend(other, 500, 40)
        ctx.buffer_run(run2, [sha1(b"%d" % k) for k in range(3, 5)], 0, 2)
        assert ctx.recipe == [(own, 0, 60), (other, 500, 40), (own, 60, 20)]
        # Backward extension claims the buffer's last three chunks, the
        # nearest the hit first: both of the second run, one of the first.
        for _ in range(3):
            ctx.buffer.pop()
            ctx.buffer_digests.pop()
        ctx.unbuffer([(old, 1000, 15), (old, 995, 5), (old, 965, 30)])
        assert ctx.buffer_bytes == 30
        assert ctx.recipe == [
            (own, 0, 30),
            (old, 965, 30),
            (other, 500, 40),
            (old, 995, 5),
            (old, 1000, 15),
        ]
        ctx.emit()  # nothing flushed yet: the first extent waits
        assert len(ctx.recipe) == 5 and not ctx.fm.extents
        ctx.stored = 30
        ctx.emit()
        assert ctx.recipe == []
        assert [(e.container_id, e.offset, e.size) for e in ctx.fm.extents] == [
            (own, 0, 30),
            (old, 965, 30),
            (other, 500, 40),
            (old, 995, 20),
        ]

    def test_emit_hands_over_the_flushed_part_of_a_run(self):
        ctx = self.context()
        ctx.buffer_run(self.chunks(10, 20, 30), [sha1(b"%d" % k) for k in range(3)], 0, 3)
        ctx.stored = 25
        ctx.emit()
        own = ctx.container_id
        assert [(e.container_id, e.offset, e.size) for e in ctx.fm.extents] == [(own, 0, 25)]
        assert ctx.recipe == [(own, 25, 35)]
