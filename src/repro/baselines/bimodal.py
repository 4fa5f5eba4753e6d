"""Bimodal chunking deduplication (Kruus, Ungureanu & Dubnicki, FAST'10).

The big-chunk-first strategy the paper compares against:

1. The stream is chunked at the *big* granularity ``ECS · SD``.
2. Each big chunk is queried for duplication (Bloom-gated on-disk
   lookup, as in the paper's improved "with bloom filter" variant).
3. Non-duplicate big chunks at **transition points** — adjacent to a
   duplicate chunk in the stream — are re-chunked at the small
   granularity ``ECS`` and each small chunk deduplicated individually.
4. Everything stored (big chunks and small chunks alike) gets one
   manifest entry *and one on-disk Hook file*, which is why Table I
   charges Bimodal ``N/SD + 2L(SD-1)`` hook inodes: re-chunking at the
   2·L transition points mints ``SD``-ish new hooks each.

Duplicate data *inside* non-duplicate big chunks away from transition
points is missed — the DER deficit the paper's Fig. 8 shows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..chunking import Chunk, VectorizedChunker
from ..hashing import Digest, sha1_many
from ..storage import FileManifest, Manifest, file_object_ids
from ..storage.manifest import ENTRY_SIZE, ManifestEntry
from ..workloads.machine import BackupFile
from ..core.base import Deduplicator
from ..core.manifest_cache import ManifestCache

__all__ = ["BimodalDeduplicator"]

#: A resolved big-chunk lookup: (owning manifest, entry) or None.
_Hit = "tuple[Manifest, ManifestEntry] | None"


@dataclass
class _FileState:
    """Per-file state: the one-big-chunk lookahead window.

    Bimodal's transition rule needs the duplicate status of the *next*
    big chunk, so a big chunk is committed only once its successor has
    been looked up (or the file ended).
    """

    container_id: Digest
    manifest: Manifest
    fm: FileManifest
    writer: object | None = None
    # (chunk, digest, hit) awaiting their successor's hit status.
    pending: list = field(default_factory=list)
    prev_hit: object = None  # hit status of the last committed big chunk


class BimodalDeduplicator(Deduplicator):
    """Big-chunk-first, transition-point re-chunking deduplicator."""

    name = "bimodal"

    def __init__(self, config=None, backend=None):
        super().__init__(config, backend)
        self.big_chunker = VectorizedChunker(self.config.big_chunker_config())
        self.small_chunker = VectorizedChunker(self.config.small_chunker_config())
        self.cache = ManifestCache(self.manifests, self.config.cache_manifests)
        #: big chunks re-chunked at transition points (diagnostic)
        self.rechunked_big = 0
        self._ctx: _FileState | None = None

    def _stream_chunker(self) -> VectorizedChunker:
        return self.big_chunker

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
        digests = sha1_many(chunk.data for chunk in batch)
        for chunk, digest in zip(batch, digests, strict=True):
            self.cpu.hashed += chunk.size
            hit = self._lookup(digest, ctx.manifest, key=digest)
            if hit is not None and hit[0] is ctx.manifest:
                # The big-chunk query is defined against *previous*
                # files' state (the classic design looks every big
                # chunk up before storing any); a hit on this file's
                # own in-progress manifest is therefore a miss.
                hit = None
            ctx.pending.append((chunk, digest, hit))
            while len(ctx.pending) >= 2:
                entry = ctx.pending.pop(0)
                self._commit_big(ctx, *entry, next_hit=ctx.pending[0][2])

    def _end_file(self) -> None:
        ctx = self._ctx
        if ctx.pending:
            self._commit_big(ctx, *ctx.pending.pop(0), next_hit=None)
        self.cache.reindex(ctx.manifest)
        if ctx.writer is not None:
            ctx.writer.close()
        if ctx.manifest.entries:
            self.manifests.put(ctx.manifest)
        self.cache.unpin(ctx.manifest.manifest_id)
        self.file_manifests.put(ctx.fm)
        self._observe_ram(self.cache.ram_bytes())
        self._ctx = None

    def _commit_big(self, ctx: _FileState, chunk, digest, hit, next_hit) -> None:
        """Store / re-chunk one big chunk whose neighbours are decided."""
        if hit is not None:
            owner, entry = hit
            self._count_duplicate(chunk.size)
            ctx.fm.append(owner.chunk_id, entry.offset, entry.size)
        elif self._should_rechunk(chunk, ctx.prev_hit, next_hit):
            self.rechunked_big += 1
            ctx.writer = self._ingest_small(
                chunk, ctx.manifest, ctx.container_id, ctx.writer, ctx.fm
            )
        else:
            self._count_unique(chunk.size)
            ctx.writer = ctx.writer or self.chunks.open_container(ctx.container_id)
            offset = ctx.writer.append(chunk.data)
            self._store_entry(ctx.manifest, digest, offset, chunk.size)
            ctx.fm.append(ctx.container_id, offset, chunk.size)
        ctx.prev_hit = hit

    def _should_rechunk(self, big: Chunk, prev_hit, next_hit) -> bool:
        """Bimodal's transition-point rule: re-chunk a non-duplicate big
        chunk iff a stream neighbour is duplicate.  Subclasses (FBC)
        substitute their own selection strategy."""
        return prev_hit is not None or next_hit is not None

    def _ingest_small(
        self,
        big: Chunk,
        manifest: Manifest,
        container_id: Digest,
        writer,
        fm: FileManifest,
    ):
        """Re-chunk one transition big chunk and dedup its small chunks."""
        # The big chunk's view is chunked in place — no bytes() copy.
        small_chunks = self.small_chunker.chunk(big.data)
        self.cpu.chunked += big.size
        small_digests = sha1_many(chunk.data for chunk in small_chunks)
        for chunk, digest in zip(small_chunks, small_digests, strict=True):
            self.cpu.hashed += chunk.size
            hit = self._lookup(digest, manifest, key=digest)
            if hit is not None:
                owner, entry = hit
                self._count_duplicate(chunk.size)
                fm.append(owner.chunk_id, entry.offset, entry.size)
                continue
            self._count_unique(chunk.size)
            writer = writer or self.chunks.open_container(container_id)
            offset = writer.append(chunk.data)
            self._store_entry(manifest, digest, offset, chunk.size)
            fm.append(container_id, offset, chunk.size)
        return writer

    def _store_entry(
        self, manifest: Manifest, digest: Digest, offset: int, size: int
    ) -> None:
        manifest.append(ManifestEntry(digest, offset, size, is_hook=True))
        self.hooks.put(digest, manifest.manifest_id)
        if self.bloom is not None:
            self.bloom.add(digest)

    def _lookup(
        self, digest: Digest, current: Manifest, key: Digest
    ) -> tuple[Manifest, ManifestEntry] | None:
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
