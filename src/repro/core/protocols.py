"""Typed seams between the dedup core and its pluggable pieces.

Session observers plug in by *shape*, not by inheritance:
:class:`IngestObserver` writes down the session hooks
:meth:`repro.core.base.Deduplicator.ingest` wraps around each file, as
a :class:`typing.Protocol` that ``mypy --strict`` verifies.  The two
manifest kinds need no protocol: one
:class:`repro.storage.ManifestStore` persists both, and the
:class:`repro.core.manifest_cache.ManifestCache` holds either.

The per-file ingest hooks (``_begin_file`` / ``_ingest_chunks`` /
``_end_file``) and the object store are abstract base classes, not
protocols: :class:`repro.core.base.Deduplicator` and
:class:`repro.storage.backend.StorageBackend`.  The chunk-source seam
(:class:`repro.chunking.base.ChunkSource`) lives with the chunkers.
"""

from __future__ import annotations

from typing import Protocol

from ..workloads.machine import BackupFile

__all__ = ["IngestObserver"]


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
