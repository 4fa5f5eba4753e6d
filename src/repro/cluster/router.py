"""The cluster coordinator: fingerprint-routed segment ingest.

``ClusterRouter`` turns N :class:`~repro.cluster.worker.ShardWorker`\\ s
into one deduplicating system:

1. incoming files are chunked and hashed once at the edge, grouped
   into segments of ``DedupConfig.segment_bytes`` (the paper's
   ``ECS·SD·5`` setting);
2. each segment is routed by its sampled hooks' votes over the
   consistent-hash ring (:mod:`repro.cluster.fingerprint`) and ingested
   by its worker straight away.  A worker dying mid-segment loses
   nothing: the shard is quarantine-repaired by
   :func:`repro.storage.recover.recover`, the worker is respawned over
   the surviving objects, and the segment, still in the router's RAM,
   is ingested again;
3. a **cluster recipe** (:mod:`repro.storage.cluster_recipe`, kept in
   the router's :class:`~repro.storage.Store`) maps each file to its
   segment placements and routing keys.  It is written only after
   every segment is acknowledged, so a coordinator that dies mid-push
   leaves no recipe and the client pushes the file again.  Restore
   streams the per-worker segment restores in order.

Each segment's chunk sizes and digests travel with its bytes to every
worker that cuts like the router, so each byte is chunked and hashed
once; big-chunk algorithms (Bimodal, SubChunk) take the bytes path.
The fleet-level cost shows up in :meth:`ClusterRouter.finalize`'s
:class:`~repro.cluster.fleet.FleetResult`, the same result type the
by-machine fleet (:func:`~repro.cluster.fleet.dedup_sharded`) reports.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field

from ..analysis.timing import DeviceModel
from ..chunking import Chunk, VectorizedChunker
from ..core.config import DedupConfig
from ..hashing import Digest, sha1_many
from ..obs import MetricsRegistry
from ..storage import StorageBackend, Store
from ..storage.cluster_recipe import ClusterRecipe, SegmentPlacement
from ..storage.verify import IntegrityReport
from ..workloads.machine import BackupFile
from .fingerprint import hooks_of, route_segment, routing_key
from .fleet import FleetResult, fleet_result
from .ring import HashRing
from .worker import ShardWorker

__all__ = ["ClusterConfig", "ClusterError", "ClusterRouter"]


class ClusterError(RuntimeError):
    """A cluster-level failure (unroutable segment, worker crash loop)."""


@dataclass(frozen=True)
class ClusterConfig:
    """Coordinator settings."""

    #: Algorithm every worker runs (any registry name).
    algo: str = "bf-mhd"
    dedup: DedupConfig = field(default_factory=DedupConfig)
    #: Segment size in bytes; 0 uses ``dedup.segment_bytes`` (ECS·SD·5).
    segment_bytes: int = 0
    #: Consecutive crashes tolerated per worker before giving up.
    max_respawns: int = 3
    #: Attach metrics-only telemetry to each worker.
    collect_metrics: bool = False

    def effective_segment_bytes(self) -> int:
        """The configured segment size, defaulting to ``dedup.segment_bytes``."""
        return self.segment_bytes or self.dedup.segment_bytes


class ClusterRouter:
    """Coordinator over a ring of shard workers on one shared backend."""

    def __init__(
        self,
        backend: StorageBackend,
        workers: int | Sequence[str] = 4,
        config: ClusterConfig | None = None,
        device: DeviceModel | None = None,
        view_factory: Callable[[str, StorageBackend], StorageBackend] | None = None,
    ) -> None:
        self.backend = backend
        #: The coordinator's objects (recipes, membership) on the shared backend.
        self.store = Store(backend)
        self.config = config or ClusterConfig()
        self.device = device or DeviceModel()
        #: Test seam: wraps a worker's shard view (fault injection).
        self._view_factory = view_factory
        self.metrics = MetricsRegistry()
        self._chunker = VectorizedChunker(self.config.dedup.small_chunker_config())
        #: Crashes per worker since its last acknowledged segment.
        self._crashes: dict[str, int] = {}
        self._finalized = False

        persisted = self.store.recipes.members()
        if persisted is not None:
            names = persisted  # warm restart: membership is durable state
        elif isinstance(workers, int):
            if workers < 1:
                raise ValueError(f"workers must be >= 1, got {workers}")
            names = [f"worker-{i:02d}" for i in range(workers)]
        else:
            names = list(workers)
        if not names:
            raise ValueError("cluster needs at least one worker")
        self.ring = HashRing(names)
        self.workers: dict[str, ShardWorker] = {}
        for name in names:
            self.workers[name] = self._make_worker(name)
        if persisted is not None:
            # Warm restart: the previous coordinator may have died with
            # shards mid-write — quarantine-repair each one before the
            # RAM indexes are rebuilt over it (recover is a no-op on a
            # clean shard).
            for w in self.workers.values():
                w.recover()
                w.warm_start()
        self.store.recipes.save_members(list(self.workers))
        self._update_ring_metrics()

    # -- membership ------------------------------------------------------

    def _make_worker(self, name: str) -> ShardWorker:
        view = self._view_factory(name, self.backend) if self._view_factory else None
        return ShardWorker(
            name,
            self.backend,
            algo=self.config.algo,
            config=self.config.dedup,
            collect_metrics=self.config.collect_metrics,
            view=view,
        )

    def add_worker(self, name: str) -> ShardWorker:
        """Join a new worker (an empty shard) to the ring."""
        if name in self.workers:
            raise ValueError(f"worker {name!r} already in the cluster")
        worker = self._make_worker(name)
        self.workers[name] = worker
        self.ring.add_node(name)
        self.store.recipes.save_members(list(self.workers))
        self._update_ring_metrics()
        return worker

    # -- ingest ----------------------------------------------------------

    def put_file(self, file: BackupFile) -> ClusterRecipe:
        """Route one file's segments to the fleet; returns its recipe.

        The recipe is persisted only after every segment of the file is
        acknowledged, so a recipe's existence implies the file is fully
        restorable.
        """
        if self._finalized:
            raise ClusterError("cluster already finalized")
        placements: list[SegmentPlacement] = []
        seg_chunks: list[Chunk] = []
        seg_digests: list[Digest] = []
        seg_size = 0
        seg_limit = self.config.effective_segment_bytes()

        def cut_segment() -> None:
            nonlocal seg_chunks, seg_digests, seg_size
            placements.append(self._route(file.file_id, len(placements), seg_chunks, seg_digests))
            seg_chunks, seg_digests, seg_size = [], [], 0

        with file.open() as reader:
            # Chunk views stay valid across windows: the chunker rebinds
            # its carry buffer, never resizing one a view was taken of.
            for batch in self._chunker.chunk_stream(reader):
                digests = sha1_many(chunk.data for chunk in batch)
                for chunk, digest in zip(batch, digests, strict=True):
                    seg_chunks.append(chunk)
                    seg_digests.append(digest)
                    seg_size += chunk.size
                    if seg_size >= seg_limit:
                        cut_segment()
        if seg_chunks:
            cut_segment()
        recipe = ClusterRecipe(file_id=file.file_id, segments=tuple(placements))
        self.store.recipes.put(recipe)
        self.metrics.counter("cluster.files").inc()
        return recipe

    def _route(
        self, file_id: str, index: int, chunks: list[Chunk], digests: list[Digest]
    ) -> SegmentPlacement:
        """Route one segment and ingest it on its worker."""
        segment_id = f"{file_id}#seg{index:05d}"
        data = b"".join(chunk.data for chunk in chunks)
        hooks = hooks_of(digests, self.config.dedup.sd)
        node = route_segment(self.ring, digests, hooks)
        self.metrics.counter("cluster.route.segments").inc()
        self.metrics.counter(f"cluster.route.segments.{node}").inc()
        self.metrics.counter(f"cluster.route.bytes.{node}").inc(len(data))
        self._ingest_acked(node, segment_id, data, [chunk.size for chunk in chunks], digests)
        return SegmentPlacement(node, segment_id, len(data), routing_key(digests, hooks))

    def flush(self) -> None:
        """Nothing to do: ``put_file`` acknowledges every segment before it returns."""

    def _ingest_acked(
        self, node: str, segment_id: str, data: bytes, sizes: list[int], digests: list[Digest]
    ) -> None:
        """Ingest one routed segment under its own id until it succeeds.

        The one path by which a segment becomes durable.  The router's
        chunk ``sizes`` and ``digests`` of ``data`` are handed to a
        worker whose stream chunker cuts like the router's; otherwise
        the worker chunks and hashes the bytes itself.  A crash respawns
        the worker over its quarantine-repaired shard and ingests again:
        the store names the new container, the segment's FileManifest is
        replaced, and a segment that had landed (the worker died between
        its last durable write and the ack) deduplicates against itself.
        The acknowledgment resets the worker's crash count.
        """
        while True:
            worker = self.workers[node]
            try:
                if worker.cuts_like(self._chunker):
                    worker.ingest_chunked(segment_id, data, sizes, digests)
                else:
                    worker.ingest_segment(segment_id, data)
                break
            except Exception as exc:  # noqa: BLE001 - worker failure isolation: any death must not sink the cluster
                self._on_worker_crash(node, exc)
        self._crashes.pop(node, None)
        self.metrics.counter("cluster.segments.acked").inc()

    def _on_worker_crash(self, node: str, exc: BaseException) -> None:
        crashes = self._crashes.get(node, 0) + 1
        self._crashes[node] = crashes
        self.metrics.counter("cluster.worker.crashes").inc()
        if crashes > self.config.max_respawns:
            raise ClusterError(
                f"worker {node!r} crashed {crashes} times in a row; giving up"
            ) from exc
        # Quarantine-repair the shard, then warm-start a replacement
        # over the surviving objects (worker.respawn does both).
        self.workers[node] = self.workers[node].respawn()
        self.metrics.counter("cluster.worker.respawns").inc()

    # -- restore ---------------------------------------------------------

    def iter_restore(self, file_id: str) -> Iterator[bytes]:
        """A file's bytes in order: each segment's restore pieces in turn
        (``KeyError`` here, not on the first piece, if it has no recipe).

        RAM is bounded by one piece
        (:data:`~repro.storage.file_manifest.RESTORE_PIECE_SIZE`).
        """
        recipe = self.store.recipes.get(file_id)
        return itertools.chain.from_iterable(
            self.workers[p.node].iter_segment(p.segment_id) for p in recipe.segments
        )

    def restore_file(self, file_id: str) -> bytes:
        """Reassemble a file from its per-worker segment restores."""
        return b"".join(self.iter_restore(file_id))

    # -- lifecycle -------------------------------------------------------

    def finalize(self) -> FleetResult:
        """Finalize every worker; the fleet-level aggregate.

        The cluster *is* a fleet of shard workers with routing in
        front, so every aggregate of :class:`FleetResult` (makespan vs
        aggregate seconds, DER, CPU, pipeline) applies unchanged.
        """
        if self._finalized:
            raise ClusterError("cluster already finalized")
        self._finalized = True
        return fleet_result(self.workers, self.device)

    def fsck(self, check_entry_hashes: bool = False) -> dict[str, IntegrityReport]:
        """Per-shard integrity reports (all must be ``ok``)."""
        return {
            name: self.workers[name].fsck(check_entry_hashes)
            for name in sorted(self.workers)
        }

    # -- metrics ---------------------------------------------------------

    def _update_ring_metrics(self) -> None:
        self.metrics.gauge("cluster.ring.nodes").set(len(self.ring))
        self.metrics.gauge("cluster.ring.routing_table_bytes").set(
            self.ring.routing_table_bytes()
        )
        for node, share in sorted(self.ring.ownership().items()):
            self.metrics.gauge(f"cluster.ring.ownership_ppm.{node}").set(
                int(share * 1_000_000)
            )
