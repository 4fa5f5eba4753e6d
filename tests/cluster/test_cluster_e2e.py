"""Cluster end-to-end: route, dedup, restore, warm restart, metrics."""

import pytest

from repro.cluster import (
    META_NAMESPACE,
    RECIPE_NAMESPACE,
    ClusterConfig,
    ClusterRecipe,
    ClusterRouter,
    FleetResult,
    SegmentPlacement,
)
from repro.core import DedupConfig, MHDDeduplicator
from repro.hashing import sha1
from repro.storage import MemoryBackend
from repro.workloads import BackupFile, tiny_corpus

CFG = DedupConfig(ecs=1024, sd=8, bloom_bytes=1 << 18)


@pytest.fixture(scope="module")
def files():
    # One generation keeps the module fast; cross-file dedup remains.
    return [f for f in tiny_corpus().files() if "/gen000/" in f.file_id]


def build(backend, workers=3, **kw):
    cfg = ClusterConfig(dedup=CFG, **kw)
    return ClusterRouter(backend, workers=workers, config=cfg)


class PutLogBackend(MemoryBackend):
    """A memory backend that remembers every namespace ever put to."""

    def __init__(self):
        super().__init__()
        self.put_namespaces = set()

    def put(self, namespace, key, data):
        self.put_namespaces.add(namespace)
        super().put(namespace, key, data)


class TestIngestRestore:
    @pytest.fixture(scope="class")
    def cluster(self, files):
        backend = PutLogBackend()
        router = build(backend, workers=3, collect_metrics=True)
        originals = {}
        for f in files:
            with f.open() as r:
                originals[f.file_id] = r.read()
            router.put_file(f)
        return router, originals

    def test_every_restore_is_byte_identical(self, cluster):
        router, originals = cluster
        for fid, data in originals.items():
            assert router.restore_file(fid) == data

    def test_recipes_cover_corpus(self, cluster, files):
        router, originals = cluster
        assert router.store.recipes.file_ids() == sorted(originals)
        for fid, data in originals.items():
            recipe = router.store.recipes.get(fid)
            assert recipe.size == len(data)
            assert all(p.node in router.workers for p in recipe.segments)

    def test_coordinator_writes_no_segment_copy(self, cluster):
        """User bytes are written to the shards alone: outside them the
        coordinator puts recipes and membership, never a segment copy."""
        router, _ = cluster
        written = {ns for ns in router.backend.put_namespaces if not ns.startswith("shard.")}
        assert written == {RECIPE_NAMESPACE, META_NAMESPACE}

    def test_segments_spread_over_workers(self, cluster):
        router, _ = cluster
        placed = {
            p.node
            for fid in router.store.recipes.file_ids()
            for p in router.store.recipes.get(fid).segments
        }
        assert len(placed) > 1  # routing actually distributes

    def test_routing_metrics_populated(self, cluster):
        router, _ = cluster
        m = router.metrics
        segs = m.counter("cluster.route.segments").value
        assert segs > 0
        assert m.counter("cluster.segments.acked").value == segs
        assert m.gauge("cluster.ring.nodes").value == 3
        assert m.gauge("cluster.ring.routing_table_bytes").value > 0
        per_node = sum(
            m.counter(f"cluster.route.segments.{n}").value for n in router.workers
        )
        assert per_node == segs

    def test_finalize_returns_fleet_result(self, cluster):
        router, originals = cluster
        fleet = router.finalize()
        assert isinstance(fleet, FleetResult)
        assert {s.shard for s in fleet.shards} == set(router.workers)
        assert fleet.input_bytes >= sum(len(d) for d in originals.values())
        assert fleet.real_der > 1.0
        assert fleet.makespan_seconds <= fleet.aggregate_seconds
        # collect_metrics=True: per-shard registries merge at fleet level.
        assert fleet.metrics().counter("disk.chunk.write.ops").value > 0
        with pytest.raises(Exception, match="finalized"):
            router.finalize()

    def test_fsck_clean(self, cluster):
        router, _ = cluster
        reports = router.fsck()
        assert set(reports) == set(router.workers)
        assert all(r.ok for r in reports.values())


class TestPutAgain:
    def test_second_put_of_a_file_id_replaces_the_first(self, files):
        """A file id is a name, not an idempotency key: pushing other
        bytes under it must ingest them, not acknowledge the old ones."""
        with files[0].open() as r:
            first = r.read()
        second = first[: len(first) // 2] + bytes(reversed(first[len(first) // 2 :]))
        router = build(MemoryBackend(), workers=2)
        router.put_file(BackupFile("doc", first))
        assert router.restore_file("doc") == first
        router.put_file(BackupFile("doc", second))
        assert router.restore_file("doc") == second
        assert router.store.recipes.get("doc").size == len(second)
        assert all(r.ok for r in router.fsck(check_entry_hashes=True).values())

    def test_recipes_naming_retry_suffixed_segments_still_restore(self):
        """Recipes written before the store named retries carry segment
        ids like ``…#seg00000~r1``; a segment id is an opaque string."""
        router = build(MemoryBackend(), workers=["solo"])
        old_id = "doc#seg00000~r1"
        router.workers["solo"].ingest_segment(old_id, b"landed on a retry" * 100)
        router.store.recipes.put(
            ClusterRecipe("doc", (SegmentPlacement("solo", old_id, 1700, sha1(b"fp")),))
        )
        assert router.restore_file("doc") == b"landed on a retry" * 100


class TestCrossShardDerLoss:
    def test_more_shards_cannot_beat_single_node(self, files):
        """The paper-shaped trade: routing splits duplicate runs across
        shards, so cluster DER never exceeds the single-node DER."""
        single = MHDDeduplicator(CFG).process(files)
        single_der = single.data_only_der
        prev = None
        for n in (1, 4):
            router = build(MemoryBackend(), workers=n)
            for f in files:
                router.put_file(f)
            fleet = router.finalize()
            assert fleet.data_only_der <= single_der * 1.001
            if prev is not None:
                assert fleet.data_only_der <= prev * 1.02  # loss grows with n
            prev = fleet.data_only_der


class TestWarmRestart:
    def test_membership_persists_and_dedup_continues(self, files):
        """A new coordinator over the same backend must see the same
        workers (persisted membership) and keep deduplicating against
        the shard state written before the restart."""
        backend = MemoryBackend()
        first = build(backend, workers=["w-a", "w-b"])
        originals = {}
        for f in files[: len(files) // 2]:
            with f.open() as r:
                originals[f.file_id] = r.read()
            first.put_file(f)

        second = build(backend, workers=7)  # ignored: membership is durable
        assert sorted(second.workers) == ["w-a", "w-b"]
        stored_before = sum(w.stored_chunk_bytes() for w in second.workers.values())
        second_input = 0
        for f in files[len(files) // 2 :]:
            with f.open() as r:
                originals[f.file_id] = r.read()
            second_input += len(originals[f.file_id])
            second.put_file(f)
        for fid, data in originals.items():
            assert second.restore_file(fid) == data
        # Content seen before the restart still deduplicates: the
        # warm-started workers grew by less than the new input.
        second.finalize()
        stored_after = sum(w.stored_chunk_bytes() for w in second.workers.values())
        assert stored_after - stored_before < second_input


class TestConfig:
    def test_effective_segment_bytes_defaults_to_dedup(self):
        cfg = ClusterConfig(dedup=CFG)
        assert cfg.effective_segment_bytes() == CFG.segment_bytes
        assert ClusterConfig(dedup=CFG, segment_bytes=4096).effective_segment_bytes() == 4096

    def test_bad_worker_counts_rejected(self):
        with pytest.raises(ValueError):
            ClusterRouter(MemoryBackend(), workers=0)
        with pytest.raises(ValueError):
            ClusterRouter(MemoryBackend(), workers=[])

    def test_add_existing_worker_rejected(self):
        router = build(MemoryBackend(), workers=["solo"])
        with pytest.raises(ValueError):
            router.add_worker("solo")


class TestRecipeCodec:
    def test_round_trip(self):
        recipe = ClusterRecipe(
            file_id="pc00/gen000/os000",
            segments=(
                SegmentPlacement("w-a", "pc00/gen000/os000#seg00000", 4096, sha1(b"x")),
                SegmentPlacement("w-b", "pc00/gen000/os000#seg00001~r1", 100, sha1(b"y")),
            ),
        )
        assert ClusterRecipe.from_bytes(recipe.to_bytes()) == recipe
        assert recipe.size == 4196
