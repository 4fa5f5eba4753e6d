"""Crash recovery: a worker dying mid-segment loses nothing.

The seeded-kill matrix the issue's acceptance gate asks for: faults
are injected on one worker's shard view, the coordinator respawns it
over the quarantined shard, and every recipe that exists afterwards
restores byte-identically.  The cold-restart half (coordinator dies,
journal survives) is covered by ``replay_wal``.
"""

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterError,
    ClusterRouter,
    WAL_NAMESPACE,
    shard_prefix,
)
from repro.core import DedupConfig
from repro.storage import (
    CrashPoint,
    DiskModel,
    FaultInjectingBackend,
    FaultSpec,
    MemoryBackend,
)
from repro.storage.backend import PrefixedBackend
from repro.workloads import tiny_corpus

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
        assert router.recipe_ids() == sorted(originals)
        for fid, data in originals.items():
            assert router.restore_file(fid) == data
        # Journal fully drained (every segment was acknowledged)...
        assert list(backend.keys(WAL_NAMESPACE)) == []
        # ...and the repaired shards pass a full integrity walk.
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
            assert list(router.backend.keys(WAL_NAMESPACE)) == []
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


class TestColdRestartReplay:
    def test_journal_survives_coordinator_death_and_replays(self, files):
        """Coordinator dies mid-dispatch: unacknowledged journal
        entries survive on the shared backend, and a fresh coordinator
        replays them into durable segments."""
        backend = MemoryBackend()
        # Every worker dies on its first chunk put and the coordinator
        # tolerates zero respawns — the whole "process" goes down with
        # journal entries still pending.
        dead = ClusterRouter(
            backend,
            workers=2,
            config=ClusterConfig(dedup=CFG, max_respawns=0),
            view_factory=dying_views(DiskModel.CHUNK),
        )
        with pytest.raises(ClusterError):
            ingest_all(dead, files)
        pending = list(backend.keys(WAL_NAMESPACE))
        assert pending  # the journal outlived the coordinator

        # Warm restart: same backend, clean views, persisted membership.
        reborn = ClusterRouter(backend, config=ClusterConfig(dedup=CFG))
        assert sorted(reborn.workers) == sorted(dead.workers)
        replayed = reborn.replay_wal()
        assert replayed == len(pending)
        assert list(backend.keys(WAL_NAMESPACE)) == []
        assert reborn.metrics.counter("cluster.wal.replayed").value == replayed
        # Idempotent: nothing left on a second pass.
        assert reborn.replay_wal() == 0
        assert all(r.ok for r in reborn.fsck().values())

        # The restarted cluster keeps working end to end.
        originals = ingest_all(reborn, files)
        for fid, data in originals.items():
            assert reborn.restore_file(fid) == data

    def test_interrupted_replay_does_not_brick_the_next_one(self, files):
        """A coordinator that dies *inside* replay leaves a durable
        container behind; the next replay must step past it (the store
        names each attempt's container, for live dispatch and replay
        alike), not collide with it forever."""
        backend = MemoryBackend()
        fragile = ClusterConfig(dedup=CFG, max_respawns=0)
        victim = files[0]
        dead = ClusterRouter(
            backend, workers=2, config=fragile, view_factory=dying_views(DiskModel.CHUNK)
        )
        with pytest.raises(ClusterError):
            dead.put_file(victim)
        pending = list(backend.keys(WAL_NAMESPACE))
        assert pending

        # Two cold restarts die mid-replay: the segment's container is
        # durable, its manifest is not.
        for _ in range(2):
            doomed = ClusterRouter(
                backend, config=fragile, view_factory=dying_views(DiskModel.MANIFEST)
            )
            with pytest.raises((ClusterError, CrashPoint)):
                doomed.replay_wal()
            assert list(backend.keys(WAL_NAMESPACE)) == pending

        reborn = ClusterRouter(backend, config=ClusterConfig(dedup=CFG))
        assert reborn.replay_wal() == len(pending)
        assert list(backend.keys(WAL_NAMESPACE)) == []
        assert all(r.ok for r in reborn.fsck().values())

        # The file whose push died is pushed again: its segments are
        # re-ingested over what the replay landed, deduplicate against
        # it (no new chunk bytes) and the file restores intact.
        landed = {w.name: w.stored_chunk_bytes() for w in reborn.workers.values()}
        reborn.put_file(victim)
        assert {w.name: w.stored_chunk_bytes() for w in reborn.workers.values()} == landed
        with victim.open() as r:
            assert reborn.restore_file(victim.file_id) == r.read()
        assert reborn.metrics.counter("cluster.worker.crashes").value == 0
        assert all(r.ok for r in reborn.fsck().values())
