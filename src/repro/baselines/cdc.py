"""Plain CDC deduplication — the paper's "CDC" comparison column.

The classic LBFS-style design: every chunk (at granularity ``ECS``) is
individually indexed.  Each unique chunk gets a manifest entry (36
bytes) *and* its own on-disk Hook file — which is why Table I charges
CDC ``N`` hook inodes and ``36·N`` manifest bytes, the metadata burden
MHD's SHM exists to remove.  Data locality is still exploited through
the shared manifest LRU cache (one manifest per file), and the Bloom
filter suppresses disk lookups for never-seen hashes, matching the
"with Bloom Filter" row of Table II.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..chunking import VectorizedChunker
from ..hashing import Digest, sha1_many
from ..storage import FileManifest, Manifest, file_object_ids
from ..storage.manifest import ENTRY_SIZE, ManifestEntry
from ..workloads.machine import BackupFile
from ..core.base import Deduplicator
from ..core.manifest_cache import ManifestCache

__all__ = ["CDCDeduplicator"]


@dataclass
class _FileState:
    """Per-file ingest state threaded through the batch hooks."""

    container_id: Digest
    manifest: Manifest
    fm: FileManifest
    writer: object | None = None


class CDCDeduplicator(Deduplicator):
    """Full-index content-defined-chunking deduplicator."""

    name = "cdc"

    def __init__(self, config=None, backend=None, chunker_cls=VectorizedChunker):
        super().__init__(config, backend)
        self.chunker = chunker_cls(self.config.small_chunker_config())
        self.cache = ManifestCache(self.manifests, self.config.cache_manifests)
        self._ctx: _FileState | None = None

    def _begin_file(self, file: BackupFile) -> None:
        container_id, manifest_id = file_object_ids(file.file_id)
        manifest = Manifest(manifest_id, container_id, entry_size=ENTRY_SIZE)
        self.cache.add(manifest, pin=True)
        self._ctx = _FileState(
            container_id=container_id,
            manifest=manifest,
            fm=FileManifest(file.file_id),
        )

    def _ingest_chunks(self, batch) -> None:
        ctx = self._ctx
        manifest, fm = ctx.manifest, ctx.fm
        digests = sha1_many(chunk.data for chunk in batch)
        for chunk, digest in zip(batch, digests, strict=True):
            self.cpu.hashed += chunk.size
            hit = self._lookup(digest, manifest)
            if hit is not None:
                owner, entry = hit
                self._count_duplicate(chunk.size)
                fm.append(owner.chunk_id, entry.offset, entry.size)
                continue
            self._count_unique(chunk.size)
            if ctx.writer is None:
                ctx.writer = self.chunks.open_container(ctx.container_id)
            offset = ctx.writer.append(chunk.data)
            manifest.append(ManifestEntry(digest, offset, chunk.size, is_hook=True))
            self.hooks.put(digest, manifest.manifest_id)
            if self.bloom is not None:
                self.bloom.add(digest)
            fm.append(ctx.container_id, offset, chunk.size)

    def _end_file(self) -> None:
        ctx = self._ctx
        self.cache.reindex(ctx.manifest)
        if ctx.writer is not None:
            ctx.writer.close()
        if ctx.manifest.entries:
            self.manifests.put(ctx.manifest)
        self.cache.unpin(ctx.manifest.manifest_id)
        self.file_manifests.put(ctx.fm)
        self._observe_ram(self.cache.ram_bytes())
        self._ctx = None

    def _lookup(
        self, digest: Digest, current: Manifest
    ) -> tuple[Manifest, ManifestEntry] | None:
        # The in-progress manifest's own hash table is consulted first:
        # its digests enter the cache-wide index only at file end.
        idx = current.find(digest)
        if idx is not None:
            return current, current.entries[idx]
        manifest = self.cache.search(digest)
        if manifest is None:
            if self.bloom is not None and digest not in self.bloom:
                return None
            manifest_id = self.hooks.lookup(digest)
            if manifest_id is None:
                return None
            manifest = self.cache.load(manifest_id)
        idx = manifest.find(digest)
        if idx is None:
            return None
        return manifest, manifest.entries[idx]

    def _flush(self) -> None:
        self.cache.flush()
