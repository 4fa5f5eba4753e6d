"""Shard split: bounded migration, correct restores, measured cost."""

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterRouter,
    RebalanceReport,
    hottest_shard,
    split_shard,
)
from repro.core import DedupConfig
from repro.storage import MemoryBackend
from repro.workloads import tiny_corpus

CFG = DedupConfig(ecs=1024, sd=8, bloom_bytes=1 << 18)


@pytest.fixture(scope="module")
def files():
    return [f for f in tiny_corpus().files() if "/gen000/" in f.file_id]


def loaded_cluster(files, workers=2):
    backend = MemoryBackend()
    router = ClusterRouter(backend, workers=workers, config=ClusterConfig(dedup=CFG))
    originals = {}
    for f in files:
        with f.open() as r:
            originals[f.file_id] = r.read()
        router.put_file(f)
    return router, originals


class TestHottestShard:
    def test_picks_largest_chunk_holder(self, files):
        router, _ = loaded_cluster(files)
        hot = hottest_shard(router)
        sizes = {n: w.stored_chunk_bytes() for n, w in router.workers.items()}
        assert sizes[hot] == max(sizes.values())


class TestSplitShard:
    @pytest.fixture(scope="class")
    def split(self, files):
        router, originals = loaded_cluster(files)
        report = split_shard(router)
        return router, originals, report

    def test_report_shape(self, split):
        router, _, report = split
        assert isinstance(report, RebalanceReport)
        assert report.new_node in router.workers
        assert report.new_node in router.ring
        assert report.hot_node != report.new_node
        assert report.segments_moved > 0
        assert report.bytes_moved > 0
        assert report.recipes_updated > 0
        assert report.residual_hot_bytes >= 0
        d = report.as_dict()
        assert d["segments_moved"] == report.segments_moved

    def test_migration_is_bounded_to_reclaimed_arcs(self, split):
        """Only segments whose canonical key now lands on the joiner
        move; every placement on other nodes is untouched."""
        router, _, report = split
        for fid in router.store.recipes.file_ids():
            for p in router.store.recipes.get(fid).segments:
                if p.node == report.new_node:
                    assert router.ring.route(p.fingerprint) == report.new_node
                elif p.node == report.hot_node:
                    # Anything left on the hot shard was NOT reclaimed.
                    assert router.ring.route(p.fingerprint) != report.new_node

    def test_all_restores_byte_identical_after_split(self, split):
        router, originals, _ = split
        for fid, data in originals.items():
            assert router.restore_file(fid) == data

    def test_moved_segments_single_homed(self, split):
        """The old owner dropped the migrated manifests — restore
        entry points exist on exactly one shard."""
        router, _, report = split
        hot = router.workers[report.hot_node]
        new = router.workers[report.new_node]
        for fid in router.store.recipes.file_ids():
            for p in router.store.recipes.get(fid).segments:
                if p.node == report.new_node:
                    assert new.has_segment(p.segment_id)
                    assert not hot.has_segment(p.segment_id)

    def test_metrics_record_migration(self, split):
        router, _, report = split
        m = router.metrics
        assert m.counter("cluster.rebalance.segments_moved").value == report.segments_moved
        assert m.counter("cluster.rebalance.bytes_moved").value == report.bytes_moved
        assert m.gauge("cluster.ring.nodes").value == len(router.workers)

    def test_fsck_clean_after_split(self, split):
        router, _, _ = split
        assert all(r.ok for r in router.fsck().values())


class TestSplitOptions:
    def test_explicit_hot_and_name(self, files):
        router, originals = loaded_cluster(files)
        report = split_shard(router, hot="worker-00", new_node="fresh-worker")
        assert report.hot_node == "worker-00"
        assert report.new_node == "fresh-worker"
        assert "fresh-worker" in router.workers
        for fid, data in originals.items():
            assert router.restore_file(fid) == data

    def test_unknown_hot_rejected(self, files):
        router, _ = loaded_cluster(files[:4])
        with pytest.raises(ValueError):
            split_shard(router, hot="nope")
