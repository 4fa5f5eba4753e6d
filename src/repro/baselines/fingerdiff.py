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
from ..hashing import Digest, sha1_many, sha1_spans
from ..storage import FileManifest, Manifest, file_object_ids
from ..storage.manifest import ENTRY_SIZE, ManifestEntry
from ..workloads.machine import BackupFile
from ..core.base import Deduplicator
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
        # Per-file state (reset by _begin_file).
        self._container_id: Digest | None = None
        self._manifest: Manifest | None = None
        self._fm: FileManifest | None = None
        self._writer = None
        self._pending: list[tuple[Digest, memoryview, int]] = []

    def database_bytes(self) -> int:
        """RAM held by the subchunk database (the paper's objection)."""
        return len(self._db) * (20 + 36 + 16)

    def _begin_file(self, file: BackupFile) -> None:
        self._container_id, manifest_id = file_object_ids(file.file_id)
        self._manifest = Manifest(manifest_id, self._container_id, entry_size=ENTRY_SIZE)
        self.cache.add(self._manifest, pin=True)
        self._fm = FileManifest(file.file_id)
        self._writer = None
        self._pending = []  # (digest, data, size) of the open coalesce run

    def _flush_pending(self) -> None:
        pending = self._pending
        if not pending:
            return
        if self._writer is None:
            self._writer = self.chunks.open_container(self._container_id)
        writer = self._writer
        base = writer.size
        total = 0
        for digest, data, size in pending:
            offset = writer.append(data)
            self._db[digest] = (self._container_id, offset, size)
            self._fm.append(self._container_id, offset, size)
            total += size
        # One coalesced manifest entry for the whole run; the spans
        # are hashed incrementally without a join copy.
        coalesced = sha1_spans(d for _, d, _ in pending)
        self.cpu.hashed += total
        self._manifest.append(ManifestEntry(coalesced, base, total, is_hook=True))
        pending.clear()

    def _ingest_chunks(self, batch) -> None:
        digests = sha1_many(chunk.data for chunk in batch)
        for chunk, digest in zip(batch, digests, strict=True):
            self.cpu.hashed += chunk.size
            extent = self._db.get(digest)
            if extent is not None:
                self._flush_pending()
                self._count_duplicate(chunk.size)
                self._fm.append(*extent)
                continue
            self._count_unique(chunk.size)
            self._pending.append((digest, chunk.data, chunk.size))
            if len(self._pending) >= self.max_subchunks:
                self._flush_pending()

    def _end_file(self) -> None:
        self._flush_pending()
        manifest = self._manifest
        if self._writer is not None:
            self._writer.close()
        if manifest.entries:
            self.manifests.put(manifest)
            self.hooks.put(manifest.entries[0].digest, manifest.manifest_id)
        self.cache.reindex(manifest)
        self.cache.unpin(manifest.manifest_id)
        self.file_manifests.put(self._fm)
        self._observe_ram(self.cache.ram_bytes() + self.database_bytes())
        self._manifest = None
        self._fm = None
        self._writer = None

    def _flush(self) -> None:
        self.cache.flush()
