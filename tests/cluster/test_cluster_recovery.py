"""Crash recovery: a worker dying mid-segment loses nothing.

The seeded-kill matrix the issue's acceptance gate asks for: faults
are injected on one worker's shard view, the coordinator respawns it
over the quarantined shard, and every recipe that exists afterwards
restores byte-identically.  The cold-restart half: a coordinator that
dies mid-push leaves no recipe, and the client pushes the file again.
"""

import random

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterError,
    ClusterRouter,
    shard_prefix,
)
from repro.core import DedupConfig
from repro.storage import (
    DiskModel,
    FaultInjectingBackend,
    FaultSpec,
    MemoryBackend,
)
from repro.storage.backend import PrefixedBackend
from repro.workloads import BackupFile, tiny_corpus

CFG = DedupConfig(ecs=1024, sd=8, bloom_bytes=1 << 18)


@pytest.fixture(scope="module")
def files():
    return [f for f in tiny_corpus().files() if "/gen000/" in f.file_id]


def faulted_views(victim, schedule, sink=None):
    """A view_factory injecting ``schedule`` on one worker's shard.

    ``sink`` (a list) receives the injecting backend so tests can read
    ``faults_injected`` afterwards.
    """

    def factory(name, backend):
        view = PrefixedBackend(backend, shard_prefix(name))
        if name == victim:
            view = FaultInjectingBackend(view, schedule=list(schedule))
            if sink is not None:
                sink.append(view)
        return view

    return factory


def dying_views(namespace):
    """A view_factory whose every worker dies on its first put to
    ``namespace`` (with ``max_respawns=0`` the coordinator goes too)."""

    def factory(name, backend):
        return FaultInjectingBackend(
            PrefixedBackend(backend, shard_prefix(name)),
            schedule=[FaultSpec("crash", op="put", namespace=namespace, at=0)],
        )

    return factory


def ingest_all(router, files):
    originals = {}
    for f in files:
        with f.open() as r:
            originals[f.file_id] = r.read()
        router.put_file(f)
    return originals


class TestMidSegmentKill:
    @pytest.mark.parametrize(
        "schedule",
        [
            # Torn chunk write: a strict prefix lands, then the death.
            [FaultSpec("torn", op="put", namespace=DiskModel.CHUNK, at=3)],
            # Death before a manifest write mid-run.
            [FaultSpec("crash", op="put", namespace=DiskModel.MANIFEST, at=10)],
            # Two deaths in one run: torn chunk, then a later crash.
            [
                FaultSpec("torn", op="put", namespace=DiskModel.CHUNK, at=5),
                FaultSpec("crash", op="put", namespace=DiskModel.MANIFEST, at=40),
            ],
            # Death *after* the segment's file manifest landed — the
            # ack was lost but the data was durable.
            [FaultSpec("crash_after", op="put", namespace=DiskModel.FILE_MANIFEST, at=2)],
        ],
        ids=["torn-chunk", "crash-manifest", "double-kill", "crash-after-durable"],
    )
    def test_every_recipe_restores_after_kill(self, files, schedule):
        backend = MemoryBackend()
        fault_backends = []
        router = ClusterRouter(
            backend,
            workers=3,
            config=ClusterConfig(dedup=CFG),
            view_factory=faulted_views("worker-01", schedule, sink=fault_backends),
        )
        originals = ingest_all(router, files)

        # Every fault that fired killed the worker once; at least the
        # first scheduled fault must have fired on this corpus.
        fired = sum(
            sum(fb.faults_injected.values()) for fb in fault_backends
        )
        assert fired >= 1
        crashes = router.metrics.counter("cluster.worker.crashes").value
        assert crashes == fired
        assert router.metrics.counter("cluster.worker.respawns").value == crashes

        # The acceptance gate: byte-identical restores of every recipe.
        assert router.store.recipes.file_ids() == sorted(originals)
        for fid, data in originals.items():
            assert router.restore_file(fid) == data
        # The repaired shards pass a full integrity walk.
        assert all(r.ok for r in router.fsck().values())

    def test_lost_ack_reingests_without_new_chunk_bytes(self, files):
        """The worker dies right after a segment's FileManifest landed:
        the unacknowledged segment is ingested again under its own id
        and finds every chunk already stored."""

        def stored_after_put(view_factory=None):
            router = ClusterRouter(
                MemoryBackend(),
                workers=["solo"],
                config=ClusterConfig(dedup=CFG),
                view_factory=view_factory,
            )
            router.put_file(files[0])
            with files[0].open() as r:
                assert router.restore_file(files[0].file_id) == r.read()
            assert all(r.ok for r in router.fsck(check_entry_hashes=True).values())
            crashes = router.metrics.counter("cluster.worker.crashes").value
            return router.workers["solo"].stored_chunk_bytes(), crashes

        lost_ack = [
            FaultSpec("crash_after", op="put", namespace=DiskModel.FILE_MANIFEST, at=0)
        ]
        assert stored_after_put(faulted_views("solo", lost_ack)) == (
            stored_after_put()[0],
            1,
        )

    def test_crash_loop_gives_up_loudly(self, files):
        """A worker that dies on every attempt must raise ClusterError
        after max_respawns, not spin forever."""
        # Per-spec counters are independent: attempt N's first chunk
        # put is global put #N, so specs at=0..5 crash six straight
        # attempts — more than max_respawns=3 tolerates.
        schedule = [
            FaultSpec("crash", op="put", namespace=DiskModel.CHUNK, at=i)
            for i in range(6)
        ]
        router = ClusterRouter(
            MemoryBackend(),
            workers=2,
            config=ClusterConfig(dedup=CFG, max_respawns=3),
            view_factory=faulted_views("worker-01", schedule),
        )
        with pytest.raises(ClusterError, match="giving up"):
            ingest_all(router, files)

    def test_crash_count_resets_on_ack(self, files):
        """max_respawns bounds *consecutive* crashes: two deaths with
        acknowledged segments between them are two separate faults."""
        schedule = [
            FaultSpec("crash", op="put", namespace=DiskModel.CHUNK, at=2),
            FaultSpec("crash", op="put", namespace=DiskModel.CHUNK, at=30),
        ]
        fault_backends = []
        router = ClusterRouter(
            MemoryBackend(),
            workers=["solo"],
            config=ClusterConfig(dedup=CFG, max_respawns=1),
            view_factory=faulted_views("solo", schedule, sink=fault_backends),
        )
        originals = ingest_all(router, files)
        assert sum(fault_backends[0].faults_injected.values()) == 2
        assert router.metrics.counter("cluster.worker.crashes").value == 2
        assert router.metrics.counter("cluster.worker.respawns").value == 2
        for fid, data in originals.items():
            assert router.restore_file(fid) == data
        assert all(r.ok for r in router.fsck().values())

    def test_dead_push_leaks_nothing_into_the_next(self, files):
        """A push that dies with ClusterError is over: none of its
        segments may be ingested later by another file's push."""
        dead = BackupFile("dead", random.Random(7).randbytes(10 * CFG.segment_bytes))
        router = ClusterRouter(
            MemoryBackend(),
            workers=2,
            config=ClusterConfig(dedup=CFG, max_respawns=0),
            view_factory=faulted_views(
                "worker-00", [FaultSpec("crash", op="put", namespace=DiskModel.CHUNK, at=0)]
            ),
        )
        with pytest.raises(ClusterError):
            router.put_file(dead)
        assert router.store.recipes.file_ids() == []
        survivor = router.workers["worker-01"]
        dead_ids = [f"dead#seg{i:05d}" for i in range(10)]
        landed = [sid for sid in dead_ids if survivor.has_segment(sid)]
        ingested = survivor.segments_ingested

        recipe = router.put_file(files[0])
        assert [sid for sid in dead_ids if survivor.has_segment(sid)] == landed
        own = sum(p.node == "worker-01" for p in recipe.segments)
        assert survivor.segments_ingested - ingested == own
        with files[0].open() as r:
            assert router.restore_file(files[0].file_id) == r.read()


class TestColdRestart:
    def test_dead_push_leaves_no_recipe_and_is_redone(self, files):
        """Coordinator dies mid-push: the file has no recipe, a fresh
        coordinator over the same backend finds the membership and
        clean shards, and pushing again restores byte-identically."""
        backend = MemoryBackend()
        victim = files[0]
        # Every worker dies on its first chunk put and the coordinator
        # tolerates zero respawns: the whole "process" goes down.
        dead = ClusterRouter(
            backend,
            workers=2,
            config=ClusterConfig(dedup=CFG, max_respawns=0),
            view_factory=dying_views(DiskModel.CHUNK),
        )
        with pytest.raises(ClusterError):
            dead.put_file(victim)

        # Warm restart: same backend, clean views, persisted membership.
        reborn = ClusterRouter(backend, config=ClusterConfig(dedup=CFG))
        assert sorted(reborn.workers) == sorted(dead.workers)
        with pytest.raises(KeyError):
            reborn.store.recipes.get(victim.file_id)
        assert all(r.ok for r in reborn.fsck().values())

        # The restarted cluster keeps working end to end.
        originals = ingest_all(reborn, files)
        for fid, data in originals.items():
            assert reborn.restore_file(fid) == data
        assert reborn.metrics.counter("cluster.worker.crashes").value == 0

    def test_repeated_deaths_do_not_brick_the_push(self, files):
        """Coordinators that die *after* a segment's container landed
        leave durable containers behind; the next push must step past
        them (the store names each attempt's container), not collide
        with them forever."""
        backend = MemoryBackend()
        fragile = ClusterConfig(dedup=CFG, max_respawns=0)
        victim = files[0]
        for _ in range(2):
            doomed = ClusterRouter(
                backend, workers=2, config=fragile, view_factory=dying_views(DiskModel.MANIFEST)
            )
            with pytest.raises(ClusterError):
                doomed.put_file(victim)
            assert doomed.store.recipes.file_ids() == []

        reborn = ClusterRouter(backend, config=ClusterConfig(dedup=CFG))
        reborn.put_file(victim)
        with victim.open() as r:
            assert reborn.restore_file(victim.file_id) == r.read()
        assert reborn.metrics.counter("cluster.worker.crashes").value == 0
        assert all(r.ok for r in reborn.fsck().values())
