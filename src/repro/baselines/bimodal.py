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

from ..chunking import Chunk, VectorizedChunker
from ..hashing import Digest, sha1_many
from ..storage import Manifest
from ..storage.manifest import ENTRY_SIZE, ManifestEntry
from ..workloads.machine import BackupFile
from ..core.base import Deduplicator, _FileObjects
from ..core.manifest_cache import ManifestCache

__all__ = ["BimodalDeduplicator"]


class _FileState(_FileObjects):
    """The file's store objects plus the one-big-chunk lookahead window.

    Bimodal's transition rule needs the duplicate status of the *next*
    big chunk, so a big chunk is committed only once its successor has
    been looked up (or the file ended).
    """

    def __init__(self, dedup: BimodalDeduplicator, file_id: str) -> None:
        super().__init__(dedup, dedup.cache, file_id, ENTRY_SIZE)
        # (chunk, digest, hit) awaiting their successor's hit status.
        self.pending: list = []
        self.prev_hit: object = None  # hit status of the last committed big chunk


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

    def _stream_chunker(self) -> VectorizedChunker:
        return self.big_chunker

    def _begin_file(self, file: BackupFile) -> None:
        self._ctx = _FileState(self, file.file_id)

    def _ingest_chunks(self, batch, digests) -> None:
        ctx = self._ctx
        for chunk, digest in zip(batch, digests, strict=True):
            hit = ctx.find(digest)
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
        ctx.close()
        self._observe_ram(self.cache.ram_bytes())

    def _commit_big(self, ctx: _FileState, chunk, digest, hit, next_hit) -> None:
        """Store / re-chunk one big chunk whose neighbours are decided.

        The transition-point rule: a non-duplicate big chunk is
        re-chunked iff a stream neighbour is duplicate."""
        if hit is None and (ctx.prev_hit is not None or next_hit is not None):
            self.rechunked_big += 1
            # The big chunk's view is chunked in place — no bytes() copy.
            smalls = self.small_chunker.chunk(chunk.data)
            self.cpu.chunked += chunk.size
            self.cpu.hashed += chunk.size
            for small, small_digest in zip(
                smalls, sha1_many(c.data for c in smalls), strict=True
            ):
                self._dedup_one(ctx, small, small_digest, ctx.find(small_digest))
        else:
            self._dedup_one(ctx, chunk, digest, hit)
        ctx.prev_hit = hit

    def _dedup_one(
        self,
        ctx: _FileState,
        chunk: Chunk,
        digest: Digest,
        hit: tuple[Manifest, int] | None,
    ) -> None:
        """Reference a found chunk (big or small), or store a new one
        with its manifest entry and on-disk Hook."""
        if hit is not None:
            owner, idx = hit
            entry = owner.entries[idx]
            self._count_duplicate(chunk.size)
            ctx.fm.append(owner.chunk_id, entry.offset, entry.size)
            return
        self._count_unique(chunk.size)
        offset = ctx.container().append(chunk.data)
        ctx.manifest.append(ManifestEntry(digest, offset, chunk.size, is_hook=True))
        self.hooks.put(digest, ctx.manifest.manifest_id)
        if self.bloom is not None:
            self.bloom.add(digest)
        ctx.fm.append(ctx.container_id, offset, chunk.size)

    def _flush(self) -> None:
        self.cache.flush()
