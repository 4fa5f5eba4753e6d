"""Fleet results, and the by-machine fleet that produces them.

The paper's introduction motivates MHD with distributed deployments:
"Metadata related overhead also greatly impacts the deduplication
performance in distributed systems related applications such as large
scale data backup."  Such systems scale by *partitioning*: each shard
is deduplicated independently by its own node and duplicates *across*
shards are deliberately missed — trading a little DER for scale-out,
exactly like HYDRAstor's supernodes.

Both partitionings this repo offers run on the same substrate — one
:class:`~repro.cluster.worker.ShardWorker` per shard over a shared
backend — and report the same :class:`FleetResult`, so their DER loss
is directly comparable:

* :func:`dedup_sharded` assigns whole files by name (by machine, the
  natural unit of a backup fleet);
* :class:`~repro.cluster.router.ClusterRouter` routes segments by
  their sampled hooks' votes.

A fleet result carries what each shard did — its ``DedupStats`` and,
when collected, its telemetry — and no modelled time.  Time models
belong to the figures that apply them
(``benchmarks/bench_cluster_scaling.py``); callers time the wall clock.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from ..core.base import DedupStats
from ..core.config import DedupConfig
from ..obs import MetricsRegistry
from ..storage import MemoryBackend, StorageBackend
from ..workloads.machine import BackupFile
from .worker import ShardWorker

__all__ = [
    "FleetResult",
    "ShardResult",
    "dedup_sharded",
    "fleet_result",
    "shard_by_machine",
]


@dataclass(frozen=True)
class ShardResult:
    """One shard's outcome."""

    shard: str
    stats: DedupStats
    #: The shard worker's telemetry registry (``None`` unless the fleet
    #: was run with ``collect_metrics=True``).
    metrics: MetricsRegistry | None = None


@dataclass(frozen=True)
class FleetResult:
    """Aggregate over all shards."""

    shards: tuple[ShardResult, ...]

    @property
    def input_bytes(self) -> int:
        """Total bytes ingested across every shard."""
        return sum(s.stats.input_bytes for s in self.shards)

    @property
    def stored_chunk_bytes(self) -> int:
        """Chunk bytes stored by all shards combined."""
        return sum(s.stats.stored_chunk_bytes for s in self.shards)

    @property
    def metadata_bytes(self) -> int:
        """Metadata bytes across all shards combined."""
        return sum(s.stats.metadata_bytes for s in self.shards)

    @property
    def data_only_der(self) -> float:
        """Fleet-level DER excluding metadata."""
        return self.input_bytes / max(1, self.stored_chunk_bytes)

    @property
    def real_der(self) -> float:
        """Fleet-level DER including metadata."""
        return self.input_bytes / max(1, self.stored_chunk_bytes + self.metadata_bytes)

    def metrics(self) -> MetricsRegistry:
        """Merge every shard's telemetry registry into one.

        Merge order does not matter (counters add, gauges max,
        histograms add bucket-wise).  Empty unless the run collected
        metrics; the result is a fresh registry, never a shard's own.
        """
        merged = MetricsRegistry()
        for s in self.shards:
            if s.metrics is not None:
                merged.merge(s.metrics)
        return merged


def fleet_result(workers: Mapping[str, ShardWorker]) -> FleetResult:
    """Finalize every worker and fold the shards into one result.

    The single definition of "a fleet's outcome": both partitionings
    end here, with shards in name order.
    """
    shards: list[ShardResult] = []
    for name in sorted(workers):
        worker = workers[name]
        stats = worker.finalize()
        shards.append(ShardResult(shard=name, stats=stats, metrics=worker.metrics_registry()))
    return FleetResult(shards=tuple(shards))


def shard_by_machine(files: Iterable[BackupFile]) -> dict[str, list[BackupFile]]:
    """Group a backup stream by its machine prefix (``pcNN/...``)."""
    shards: dict[str, list[BackupFile]] = {}
    for f in files:
        shards.setdefault(f.file_id.split("/", 1)[0], []).append(f)
    return shards


def dedup_sharded(
    files: Iterable[BackupFile],
    algo: str = "bf-mhd",
    config: DedupConfig | None = None,
    collect_metrics: bool = False,
    backend: StorageBackend | None = None,
) -> FleetResult:
    """Deduplicate a corpus partitioned by machine, one worker per shard.

    :func:`shard_by_machine` maps the stream to ``{machine: files}``
    (machine names must be valid worker names).  Each shard gets a
    fresh :class:`ShardWorker` over its ``shard.<name>.`` view of
    ``backend`` (a new :class:`MemoryBackend` by default), so a fleet
    written to a persistent backend is restorable and checkable
    afterwards: ``ShardWorker(name, backend, ...)`` + ``warm_start()``
    serves ``restore_segment(file_id)`` and ``fsck()``.  Per-shard
    statistics equal a standalone deduplicator run over that shard's
    files.  An exception in a shard propagates to the caller.
    """
    if backend is None:
        backend = MemoryBackend()
    workers: dict[str, ShardWorker] = {}
    for shard, shard_files in shard_by_machine(files).items():
        worker = workers[shard] = ShardWorker(
            shard, backend, algo=algo, config=config, collect_metrics=collect_metrics
        )
        for f in shard_files:
            worker.ingest(f)
    return fleet_result(workers)
