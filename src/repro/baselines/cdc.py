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

from ..chunking import VectorizedChunker
from ..storage.manifest import ENTRY_SIZE, ManifestEntry
from ..workloads.machine import BackupFile
from ..core.base import Deduplicator, _FileObjects
from ..core.manifest_cache import ManifestCache

__all__ = ["CDCDeduplicator"]


class CDCDeduplicator(Deduplicator):
    """Full-index content-defined-chunking deduplicator."""

    name = "cdc"

    def __init__(self, config=None, backend=None, chunker_cls=VectorizedChunker):
        super().__init__(config, backend)
        self.chunker = chunker_cls(self.config.small_chunker_config())
        self.cache = ManifestCache(self.manifests, self.config.cache_manifests)

    def _begin_file(self, file: BackupFile) -> None:
        self._ctx = _FileObjects(self, self.cache, file.file_id, ENTRY_SIZE)

    def _ingest_chunks(self, batch, digests) -> None:
        ctx = self._ctx
        manifest, fm = ctx.manifest, ctx.fm
        for chunk, digest in zip(batch, digests, strict=True):
            hit = ctx.find(digest)
            if hit is not None:
                owner, idx = hit
                entry = owner.entries[idx]
                self._count_duplicate(chunk.size)
                fm.append(owner.chunk_id, entry.offset, entry.size)
                continue
            self._count_unique(chunk.size)
            offset = ctx.container().append(chunk.data)
            manifest.append(ManifestEntry(digest, offset, chunk.size, is_hook=True))
            self.hooks.put(digest, manifest.manifest_id)
            if self.bloom is not None:
                self.bloom.add(digest)
            fm.append(ctx.container_id, offset, chunk.size)

    def _end_file(self) -> None:
        self.cache.reindex(self._ctx.manifest)
        self._ctx.close()
        self._observe_ram(self.cache.ram_bytes())

    def _flush(self) -> None:
        self.cache.flush()
