"""Typed seams between the dedup core and its pluggable pieces.

The core is deliberately structural: manifest kinds, their stores and
session observers plug in by *shape*, not by inheritance.  This module
writes those shapes down as :class:`typing.Protocol`\\ s so
``mypy --strict`` verifies every implementation instead of relying on
convention:

* :class:`IngestObserver` — the session hooks
  :meth:`repro.core.base.Deduplicator.ingest` wraps around each file;
* :class:`CacheableManifest` / :class:`ManifestBackend` — what the
  shared LRU :class:`repro.core.manifest_cache.ManifestCache` needs
  from a manifest object and its persistence layer, satisfied by both
  :class:`repro.storage.Manifest` (MHD, per-DiskChunk) and
  :class:`repro.storage.multi_manifest.MultiManifest` (SubChunk /
  SparseIndexing bins and segments).

The per-file ingest hooks (``_begin_file`` / ``_ingest_chunks`` /
``_end_file``) and the object store are abstract base classes, not
protocols: :class:`repro.core.base.Deduplicator` and
:class:`repro.storage.backend.StorageBackend`.  The chunk-source seam
(:class:`repro.chunking.base.ChunkSource`) lives with the chunkers.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, Protocol, TypeVar

from ..hashing import Digest
from ..workloads.machine import BackupFile

__all__ = [
    "CacheableManifest",
    "IngestObserver",
    "ManifestBackend",
]


class IngestObserver(Protocol):
    """Session hooks wrapped *around* the per-file ingest hooks.

    :meth:`repro.core.base.Deduplicator.ingest` drives, per file::

        begin_file(file)
        _begin_file(file)
        [observe_batch(nbytes, nchunks); _ingest_chunks(batch, digests)]*
        _end_file()
        end_file(file)

    An observer is how a service session supervises a run it does not
    own the inner loop of: per-tenant quota and rate accounting happen
    in :meth:`observe_batch` *before* the batch reaches the dedup core,
    so an over-quota ingest aborts mid-file without the excess bytes
    ever being stored.  Any exception raised by a hook propagates out
    of ``ingest()``; the store is then repaired with
    :func:`repro.storage.recover.recover` (crash-safe abort — a raise
    here is indistinguishable from a crash at the same point).

    Unlike telemetry (read-only by decree, DDC007), an observer is a
    *control* seam: it may veto work by raising.
    """

    def begin_file(self, file: BackupFile) -> None:
        """Called before the algorithm opens per-file state."""

    def observe_batch(self, nbytes: int, nchunks: int) -> None:
        """Called before each chunk batch reaches the dedup core.

        Raising aborts the file (and the run) mid-stream.
        """

    def end_file(self, file: BackupFile) -> None:
        """Called after the algorithm flushed the file's state."""


class CacheableManifest(Protocol):
    """What the manifest cache needs from a manifest object.

    Both manifest kinds are hash tables with an identity, a dirty flag
    and a RAM cost; the cache touches nothing else.
    """

    @property
    def manifest_id(self) -> Digest:
        """Hash address of this manifest on the simulated disk."""
        ...

    @property
    def dirty(self) -> bool:
        """Whether the manifest must be written back before eviction."""
        ...

    @property
    def index(self) -> Mapping[Digest, Any]:
        """Digest -> position(s); the cache aggregates the key sets."""
        ...

    def find(self, digest: Digest) -> int | None:
        """Index of an entry with ``digest``, or ``None``."""
        ...

    def ram_size(self) -> int:
        """Bytes occupied when cached in RAM (Table IV accounting)."""
        ...


#: The concrete manifest kind a cache instance holds.
M = TypeVar("M", bound=CacheableManifest)


class ManifestBackend(Protocol[M]):
    """Metered persistence for one manifest kind.

    Satisfied by :class:`repro.storage.ManifestStore` (``M`` =
    :class:`~repro.storage.Manifest`) and
    :class:`repro.storage.multi_manifest.MultiManifestStore` (``M`` =
    :class:`~repro.storage.multi_manifest.MultiManifest`).
    """

    def put(self, manifest: M) -> None:
        """Persist ``manifest`` (metered write; clears its dirty flag)."""
        ...

    def get(self, manifest_id: Digest) -> M:
        """Load a manifest from disk (metered read)."""
        ...
