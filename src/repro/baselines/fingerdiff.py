"""Fingerdiff (Bobbarjung, Jagannathan & Dubnicki, ToS 2006).

The paper's related work credits Fingerdiff with the coalescing idea
MHD's SHM refines: "Fingerdiff coalesce[s] contiguous non-duplicate
chunks up to a maximal number into one big chunk stored on the disk",
but criticises it because "a database is needed to index each chunk.
The assumption that the database can fit into the RAM might not be
realistic in practical systems."

This implementation is faithful to both properties:

* the stream is chunked at the *small* granularity (``ECS``) and every
  small chunk ("subchunk") is looked up in a full **in-RAM database**
  mapping digest → stored extent;
* consecutive non-duplicate subchunks are coalesced, up to
  ``max_subchunks`` (= ``SD``, to match the granularity convention the
  paper uses for the other algorithms), into one stored chunk with one
  manifest entry — so manifests stay small like MHD's, but the RAM
  database grows with ``N`` like CDC's hook count.

``database_bytes()`` exposes the RAM cost the ICPP paper objects to;
the ablation bench plots it against MHD's bloom+cache budget.
"""

from __future__ import annotations

from ..chunking import VectorizedChunker
from ..hashing import Digest, sha1_spans
from ..storage.manifest import ENTRY_SIZE, ManifestEntry
from ..workloads.machine import BackupFile
from ..core.base import Deduplicator, _FileObjects
from ..core.manifest_cache import ManifestCache

__all__ = ["FingerdiffDeduplicator"]


class FingerdiffDeduplicator(Deduplicator):
    """Subchunk dedup with coalesced storage and a full RAM index."""

    name = "fingerdiff"

    def __init__(self, config=None, backend=None, max_subchunks: int | None = None):
        super().__init__(config, backend)
        self.chunker = VectorizedChunker(self.config.small_chunker_config())
        self.cache = ManifestCache(self.manifests, self.config.cache_manifests)
        if max_subchunks is not None and max_subchunks < 1:
            raise ValueError(f"max_subchunks must be >= 1, got {max_subchunks}")
        self.max_subchunks = max_subchunks if max_subchunks is not None else self.config.sd
        # The in-RAM subchunk database: digest -> (container, offset, size).
        self._db: dict[Digest, tuple[Digest, int, int]] = {}
        # (digest, data, size) of the open coalesce run (reset by _begin_file).
        self._pending: list[tuple[Digest, memoryview, int]] = []

    def database_bytes(self) -> int:
        """RAM held by the subchunk database (the paper's objection)."""
        return len(self._db) * (20 + 36 + 16)

    def _begin_file(self, file: BackupFile) -> None:
        self._ctx = _FileObjects(self, self.cache, file.file_id, ENTRY_SIZE)
        self._pending = []

    def _flush_pending(self) -> None:
        pending = self._pending
        if not pending:
            return
        ctx = self._ctx
        writer = ctx.container()
        base = writer.size
        total = 0
        for digest, data, size in pending:
            offset = writer.append(data)
            self._db[digest] = (ctx.container_id, offset, size)
            ctx.fm.append(ctx.container_id, offset, size)
            total += size
        # One coalesced manifest entry for the whole run; the spans
        # are hashed incrementally without a join copy.
        coalesced = sha1_spans(d for _, d, _ in pending)
        self.cpu.hashed += total
        ctx.manifest.append(ManifestEntry(coalesced, base, total, is_hook=True))
        pending.clear()

    def _ingest_chunks(self, batch, digests) -> None:
        for chunk, digest in zip(batch, digests, strict=True):
            extent = self._db.get(digest)
            if extent is not None:
                self._flush_pending()
                self._count_duplicate(chunk.size)
                self._ctx.fm.append(*extent)
                continue
            self._count_unique(chunk.size)
            self._pending.append((digest, chunk.data, chunk.size))
            if len(self._pending) >= self.max_subchunks:
                self._flush_pending()

    def _end_file(self) -> None:
        self._flush_pending()
        ctx = self._ctx
        entries = ctx.manifest.entries
        self.cache.reindex(ctx.manifest)
        ctx.close(hook=entries[0].digest if entries else None)
        self._observe_ram(self.cache.ram_bytes() + self.database_bytes())

    def _abort_file(self) -> None:
        ctx = self._ctx
        if ctx is not None:
            # Extents of the failed file's container were never written.
            self._db = {
                d: e for d, e in self._db.items() if e[0] != ctx.container_id
            }
        super()._abort_file()

    def _flush(self) -> None:
        self.cache.flush()
