"""One cluster worker: a deduplicator owning a manifest shard.

A :class:`ShardWorker` is *stateless* in the cluster sense: everything
it must remember lives on its shard view of the shared backend (a
:class:`~repro.storage.backend.PrefixedBackend` under
``shard.<name>.``), and its RAM indexes are rebuilt from that view by
``warm_start`` after a crash.  The coordinator treats workers as
disposable — :meth:`respawn` produces a fresh worker over the same
shard, mirroring a process restart on the same disk.

A routed segment arrives chunked and hashed by the router
(:meth:`ShardWorker.ingest_chunked`); callers holding only bytes use
:meth:`ShardWorker.ingest_segment`.

Crash recovery is delegated to :func:`repro.storage.recover.recover`:
objects torn by a mid-segment death are quarantined, then the
coordinator ingests again, from the bytes it still holds, the segment
the dead worker never acknowledged.
"""

from __future__ import annotations

import re
from collections.abc import Iterator, Sequence
from typing import cast

from ..chunking import Chunker
from ..core.base import Deduplicator, DedupStats
from ..core.config import DedupConfig
from ..hashing import Digest
from ..obs import MetricsRegistry, Telemetry
from ..registry import resolve
from ..storage import DiskModel, StorageBackend
from ..storage.backend import PrefixedBackend
from ..storage.gc import delete_file
from ..storage.recover import RecoveryReport, recover
from ..storage.verify import IntegrityReport, verify_store
from ..workloads.machine import BackupFile

__all__ = ["SHARD_PREFIX", "ShardWorker", "shard_prefix", "validate_worker_name"]

#: Namespace prefix under which every worker's shard lives on the
#: shared backend: ``shard.<worker>.<namespace>``.
SHARD_PREFIX = "shard."

_WORKER_NAME = re.compile(r"^[a-z0-9][a-z0-9_-]{0,63}$")


def validate_worker_name(name: str) -> str:
    """Worker names are namespace components: lowercase, no dots."""
    if not _WORKER_NAME.match(name):
        raise ValueError(
            f"invalid worker name {name!r}: need ^[a-z0-9][a-z0-9_-]{{0,63}}$"
        )
    return name


def shard_prefix(name: str) -> str:
    """The backend namespace prefix of a worker's shard."""
    return f"{SHARD_PREFIX}{validate_worker_name(name)}."


class ShardWorker:
    """A deduplicator bound to one shard of the shared backend."""

    def __init__(
        self,
        name: str,
        backend: StorageBackend,
        algo: str = "bf-mhd",
        config: DedupConfig | None = None,
        collect_metrics: bool = False,
        view: StorageBackend | None = None,
    ) -> None:
        self.name = validate_worker_name(name)
        self.algo = algo
        self.config = config or DedupConfig()
        self.collect_metrics = collect_metrics
        self._shared = backend
        #: The worker's slice of the shared backend.  Tests may inject a
        #: wrapped view (fault injection); by default it is the
        #: ``shard.<name>.`` prefix of the shared backend.
        self.view: StorageBackend = (
            view if view is not None else PrefixedBackend(backend, shard_prefix(name))
        )
        dedup_cls = cast("type[Deduplicator]", resolve(algo))
        self._dedup = dedup_cls(self.config, backend=self.view)
        if collect_metrics:
            self._dedup.telemetry = Telemetry()
        #: Files/segments successfully ingested since this object was built
        #: (not since the shard was created — a respawn resets it).
        self.segments_ingested = 0

    # -- segment I/O -----------------------------------------------------

    def ingest(self, file: BackupFile) -> None:
        """Deduplicate one file (streamed from its source) into the shard."""
        self._dedup.ingest(file)
        self.segments_ingested += 1

    def ingest_segment(self, segment_id: str, data: bytes) -> None:
        """Deduplicate one segment the caller holds only as bytes."""
        self.ingest(BackupFile(segment_id, data))

    def ingest_chunked(
        self, segment_id: str, data: bytes, sizes: Sequence[int], digests: Sequence[Digest]
    ) -> None:
        """Deduplicate one routed segment from the router's chunk sizes
        and digests (:meth:`Deduplicator.ingest_chunked`); valid only
        when :meth:`cuts_like` holds for the router's chunker."""
        self._dedup.ingest_chunked(segment_id, data, sizes, digests)
        self.segments_ingested += 1

    def cuts_like(self, chunker: Chunker) -> bool:
        """Whether ``chunker`` cuts bytes exactly as this shard's primary
        stream does: the same class with an equal configuration."""
        own = self._dedup._stream_chunker()
        return type(own) is type(chunker) and own.config == chunker.config

    def restore_segment(self, segment_id: str) -> bytes:
        """Reconstruct a segment byte-for-byte from the shard."""
        return self._dedup.restore(segment_id)

    def iter_segment(self, segment_id: str) -> Iterator[bytes]:
        """A segment's bytes in bounded pieces (``restore_segment`` is
        their join); ``KeyError`` here if the shard has no such segment."""
        return self._dedup.iter_restore(segment_id)

    def has_segment(self, segment_id: str) -> bool:
        """Whether the shard holds a durable manifest for the segment."""
        return self._dedup.file_manifests.exists(segment_id)

    def forget_segment(self, segment_id: str) -> None:
        """Drop a migrated segment's file manifest (rebalance bookkeeping).

        Chunk data is left in place for garbage collection — only the
        restore entry point moves to the new owner.
        """
        delete_file(self._dedup.store, segment_id)

    # -- lifecycle -------------------------------------------------------

    def finalize(self) -> DedupStats:
        """Flush the shard's dedup state and return its statistics."""
        return self._dedup.finalize()

    def snapshot(self) -> DedupStats:
        """Point-in-time statistics without finalizing."""
        return self._dedup.snapshot_stats()

    def stored_chunk_bytes(self) -> int:
        """Durable chunk bytes on the shard (the rebalancer's heat)."""
        return self._dedup.store.usage(DiskModel.CHUNK).nbytes

    def warm_start(self) -> int:
        """Rebuild the dedup's RAM indexes from the shard."""
        return self._dedup.warm_start()

    def recover(self, check_hashes: bool = False) -> RecoveryReport:
        """Quarantine-repair the shard after a crash."""
        return recover(self.view, check_hashes=check_hashes)

    def fsck(self, check_entry_hashes: bool = False) -> IntegrityReport:
        """Full-store integrity check of the shard view."""
        return verify_store(self.view, check_entry_hashes=check_entry_hashes)

    def respawn(self) -> ShardWorker:
        """A fresh worker over the same shard, as after a process restart.

        The shard is quarantine-repaired first, then the new worker
        warm-starts its RAM indexes from the surviving objects.  The
        caller (coordinator) is responsible for ingesting again the
        segment the dead worker never acknowledged.
        """
        self.recover()
        replacement = ShardWorker(
            self.name,
            self._shared,
            algo=self.algo,
            config=self.config,
            collect_metrics=self.collect_metrics,
            view=self.view,
        )
        replacement.warm_start()
        return replacement

    def metrics_registry(self) -> MetricsRegistry | None:
        """The worker's telemetry registry when metrics are collected."""
        tel = self._dedup.telemetry
        return tel.registry if tel.enabled else None
