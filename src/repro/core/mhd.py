"""BF-MHD — the paper's Metadata Harnessing Deduplication algorithm.

The deduplication loop (paper Fig. 4) per incoming chunk:

1. SHA-1 the chunk (:meth:`Deduplicator.ingest` digests each batch);
   search the manifest cache (hash tables in RAM).
2. On a cache miss, consult the Bloom filter; only if it says
   "probably seen" query the on-disk Hook store, and on a hook hit
   load the pointed-to Manifest into the LRU cache.  Steps 1–2 are
   :meth:`ManifestCache.locate`.
3. A *non-duplicate* chunk is buffered (capacity ``2·SD`` chunks); when
   the buffer fills, the first ``SD`` chunks are flushed to the
   per-file DiskChunk and represented by two hashes via SHM
   (:mod:`repro.core.shm`).
4. A *duplicate* hit triggers Bi-Directional Match Extension:
   buffered chunk hashes are compared against the manifest entries
   before the hit (BME) and upcoming chunk hashes against the entries
   after it (FME).  When extension mismatches at a merged entry that
   may straddle duplicate/non-duplicate data, the old bytes are
   reloaded and Hysteresis Hash Re-chunking (:mod:`repro.core.hhr`)
   splits the entry — the only mutation metadata ever undergoes.

Only Manifests are updated in place; DiskChunks and Hooks are
write-once, exactly as the paper requires.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from ..chunking import Chunk, Chunker, ChunkerConfig, VectorizedChunker
from ..hashing import Digest, sha1_spans
from ..obs.metrics import COUNT_BUCKETS
from ..storage import Manifest, ManifestEntry, StorageBackend
from ..storage.manifest import MHD_ENTRY_SIZE
from ..workloads.machine import BackupFile
from .base import Deduplicator, _FileObjects
from .config import DedupConfig
from .hhr import (
    Span,
    align_prefix,
    align_suffix,
    apply_split,
    match_prefix_chunks,
    match_suffix_chunks,
    plan_backward_split,
    plan_forward_split,
)
from .manifest_cache import ManifestCache
from .shm import append_group

__all__ = ["MHDDeduplicator"]


class _Token:
    """One stream chunk's fate: pending in RAM, or resolved to an extent.

    Resolving releases the chunk's byte view, so the stream buffers it
    points into can be garbage-collected — the token buffer, not the
    whole file, is MHD's memory footprint.
    """

    __slots__ = ("digest", "data", "size", "container_id", "offset")

    def __init__(self, digest: Digest, data: memoryview, size: int) -> None:
        self.digest = digest
        self.data: memoryview | None = data
        self.size = size
        self.container_id: Digest | None = None
        self.offset = -1

    def view(self) -> memoryview:
        """The pending chunk bytes; only valid before :meth:`resolve`."""
        data = self.data
        if data is None:
            raise RuntimeError("token already resolved")
        return data

    def resolve(self, container_id: Digest, offset: int) -> None:
        if self.container_id is not None:
            raise RuntimeError("token resolved twice")
        self.container_id = container_id
        self.offset = offset
        self.data = None  # free the stream bytes


class _FileContext(_FileObjects):
    """Per-file ingest state: the file's store objects plus MHD's buffers."""

    def __init__(self, dedup: MHDDeduplicator, file_id: str) -> None:
        super().__init__(dedup, dedup.cache, file_id, MHD_ENTRY_SIZE)
        self.tokens: list[_Token] = []
        self.buffer: list[_Token] = []  # unresolved tail
        # Stream chunks not yet consumed by the dedup loop (FME may need
        # forward lookahead that crosses a batch boundary).
        self.pending_chunks: list[Chunk] = []
        self.pending_digests: list[Digest] = []
        # Paused Forward Match Extension: (manifest, entry index) waiting
        # for more stream data before its next decision is final.
        self.fme: tuple[Manifest, int] | None = None
        # Entries matched by the paused FME so far, so the telemetry
        # histogram observes one figure per extension, not per resume.
        self.fme_entries = 0


class MHDDeduplicator(Deduplicator):
    """Bloom-filter-based MHD (the paper's BF-MHD configuration).

    Parameters
    ----------
    edge_hash:
        Ablation switch.  ``True`` (the paper's design) creates
        EdgeHash entries during HHR, preventing a repeated byte reload
        when the same duplicate slice arrives again.  ``False`` splits
        only when duplicate bytes were actually found, and leaves the
        boundary as part of the remainder.
    chunker_cls:
        The chunking algorithm (ablation knob); any
        :class:`repro.chunking.Chunker` subclass.  Default: the
        vectorised Karp–Rabin CDC chunker.
    contiguous_shm:
        The paper's alternative SHM strategy ("SHM can be performed on
        the contiguous non-duplicate chunks of the original input
        stream, to guarantee each non-duplicate data slice of the
        input stream 'owns' at least one Hook"): when a duplicate hit
        ends a run of pending chunks, the survivors are flushed
        immediately, so no SHM group ever merges chunks from opposite
        sides of a duplicate slice.  Costs extra hooks on
        fragmentation-heavy streams; the default (``False``) is the
        buffer-driven strategy the paper's prototype uses.
    """

    name = "bf-mhd"

    def __init__(
        self,
        config: DedupConfig | None = None,
        backend: StorageBackend | None = None,
        edge_hash: bool = True,
        chunker_cls: Callable[[ChunkerConfig], Chunker] = VectorizedChunker,
        contiguous_shm: bool = False,
    ) -> None:
        super().__init__(config, backend)
        self.chunker = chunker_cls(self.config.small_chunker_config())
        self.contiguous_shm = contiguous_shm
        self.cache: ManifestCache[Manifest] = ManifestCache(
            self.manifests, self.config.cache_manifests
        )
        self.edge_hash = edge_hash
        #: HHR statistics for Fig. 10(b): splits performed and the
        #: extra disk reads they caused.
        self.hhr_splits = 0
        self.hhr_reads = 0
        self._buffer_peak_bytes = 0
        # Digests of HHR-created edge entries; a later duplicate match
        # landing on one proves the EdgeHash prevented a re-read.
        self._edge_digests: set[Digest] = set()

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------

    def _begin_file(self, file: BackupFile) -> None:
        self._ctx = _FileContext(self, file.file_id)

    def _context(self) -> _FileContext:
        """The per-file context; only valid between the file hooks."""
        ctx = self._ctx
        if not isinstance(ctx, _FileContext):
            raise RuntimeError("no file is being ingested")
        return ctx

    def _ingest_chunks(self, batch: list[Chunk], digests: list[Digest]) -> None:
        ctx = self._context()
        ctx.pending_chunks.extend(batch)
        ctx.pending_digests.extend(digests)
        with self._telemetry.span("index"):
            self._drain(ctx, eof=False)

    def _end_file(self) -> None:
        ctx = self._context()
        self._drain(ctx, eof=True)
        while ctx.buffer:
            self._flush_group(ctx, min(self.config.sd, len(ctx.buffer)))
        self._emit_resolved(ctx)
        if ctx.tokens:
            raise AssertionError("unresolved token at end of file")
        ctx.close()
        self._observe_ram(self.cache.ram_bytes() + self._buffer_peak_bytes)

    def _drain(self, ctx: _FileContext, eof: bool) -> None:
        """Run the dedup loop over the pending chunks.

        Stops early (leaving the tail pending) whenever a decision
        would need stream data beyond what has arrived; at ``eof`` every
        decision is final and the pending list is fully consumed.
        """
        chunks, digests = ctx.pending_chunks, ctx.pending_digests
        locate, hook_manifest = self.cache.locate, self._hook_manifest
        i = 0
        if ctx.fme is not None:
            manifest, j = ctx.fme
            ctx.fme = None
            i = self._fme(manifest, j, chunks, digests, i, ctx, eof)
        while ctx.fme is None and i < len(chunks):
            chunk, digest = chunks[i], digests[i]
            hit = locate(digest, hook_manifest)
            if hit is None:
                token = _Token(digest, chunk.data, chunk.size)
                ctx.tokens.append(token)
                ctx.buffer.append(token)
                if len(ctx.buffer) >= 2 * self.config.sd:
                    self._flush_group(ctx, self.config.sd)
                i += 1
                continue
            manifest, idx = hit
            entry = manifest.entries[idx]
            self._note_edge_reuse(entry.digest)
            self._break_dup_run()  # a hit always opens a new slice
            self._count_duplicate(chunk.size)
            idx += self._bme(manifest, idx, ctx)
            if self.contiguous_shm:
                # BME has claimed every buffered chunk it can; what is
                # left belongs to the non-duplicate slice that just
                # ended, so it gets its own SHM group(s) and hook now.
                while ctx.buffer:
                    self._flush_group(ctx, min(self.config.sd, len(ctx.buffer)))
            hit_token = _Token(digest, chunk.data, chunk.size)
            hit_token.resolve(manifest.chunk_id, entry.offset)
            ctx.tokens.append(hit_token)
            i += 1
            i = self._fme(manifest, idx + 1, chunks, digests, i, ctx, eof)
        del chunks[:i]
        del digests[:i]
        self._emit_resolved(ctx)

    def _emit_resolved(self, ctx: _FileContext) -> None:
        """Move the resolved token prefix into the file manifest.

        Keeps the token list bounded: only tokens still awaiting a
        container extent (the SHM buffer and anything after it) stay in
        RAM.
        """
        tokens = ctx.tokens
        k = 0
        while k < len(tokens):
            cid = tokens[k].container_id
            if cid is None:
                break
            t = tokens[k]
            ctx.fm.append(cid, t.offset, t.size)
            k += 1
        del tokens[:k]

    # ------------------------------------------------------------------
    # SHM flush
    # ------------------------------------------------------------------

    def _flush_group(self, ctx: _FileContext, count: int) -> None:
        group = ctx.buffer[:count]
        del ctx.buffer[:count]
        datas = [t.view() for t in group]  # resolve() drops t.data
        writer = ctx.container()
        base = writer.size
        with self._telemetry.span("store", chunks=len(group)):
            for t, data in zip(group, datas, strict=True):
                off = writer.append(data)
                t.resolve(ctx.container_id, off)
        self.cpu.hashed += append_group(
            ctx.manifest,
            [t.digest for t in group],
            [t.size for t in group],
            datas,
            base,
        )
        self.cache.reindex(ctx.manifest)
        self.hooks.put(group[0].digest, ctx.manifest.manifest_id)
        if self.bloom is not None:
            self.bloom.add(group[0].digest)
        group_bytes = sum(t.size for t in group)
        self._count_unique_many(len(group), group_bytes)
        if 2 * group_bytes > self._buffer_peak_bytes:
            self._buffer_peak_bytes = 2 * group_bytes
        tel = self._telemetry
        if tel.enabled:
            reg = tel.registry
            reg.counter("mhd.shm.flush_groups").inc()
            reg.counter("mhd.shm.flushed_chunks").inc(len(group))
            reg.histogram("mhd.shm.group_chunks", COUNT_BUCKETS).observe(len(group))

    # ------------------------------------------------------------------
    # Bi-Directional Match Extension + HHR
    # ------------------------------------------------------------------

    def _bme(self, manifest: Manifest, idx: int, ctx: _FileContext) -> int:
        """Backward Match Extension; returns the hit entry's index shift.

        Extension is hierarchical, as the paper describes ("duplication
        detection is conducted using its neighboring data and a
        relatively large chunk size"): first a direct digest compare
        (hook and post-HHR single-chunk entries), then a *span* hash
        over however many buffered chunks tile a merged entry exactly.
        Only when both fail and the entry may straddle duplicate and
        non-duplicate data are its bytes reloaded for HHR.
        """
        j = idx - 1
        shift = 0
        extended = 0  # manifest entries claimed by this extension
        while j >= 0 and ctx.buffer:
            entry = manifest.entries[j]
            tail = ctx.buffer[-1]
            if entry.digest == tail.digest:
                self._note_edge_reuse(entry.digest)
                ctx.buffer.pop()
                tail.resolve(manifest.chunk_id, entry.offset)
                self._count_duplicate(tail.size, run_continues=True)
                j -= 1
                extended += 1
                continue
            if entry.is_hook:
                break
            k = align_suffix([t.size for t in ctx.buffer], entry.size)
            if k is not None and k > 1:
                span = ctx.buffer[-k:]
                self.cpu.hashed += entry.size
                if sha1_spans([t.view() for t in span]) == entry.digest:
                    del ctx.buffer[-k:]
                    pos = entry.offset
                    for t in span:
                        t.resolve(manifest.chunk_id, pos)
                        pos += t.size
                        self._count_duplicate(t.size, run_continues=True)
                    j -= 1
                    extended += 1
                    continue
            if entry.size > tail.size:
                shift += self._hhr_backward(manifest, j, ctx)
            break
        tel = self._telemetry
        if tel.enabled:
            tel.registry.histogram("mhd.bme.extension_entries", COUNT_BUCKETS).observe(
                extended
            )
        return shift

    def _fme(
        self,
        manifest: Manifest,
        j: int,
        chunks: list[Chunk],
        digests: list[Digest],
        i: int,
        ctx: _FileContext,
        eof: bool,
    ) -> int:
        """Forward Match Extension from entry ``j``; returns the next
        stream index.

        Every per-entry decision needs at most ``entry.size + max_size``
        bytes of forward stream: the span tiling stops once cumulative
        size reaches ``entry.size``, HHR's head collection likewise, and
        the edge chunk right after either fits in one more ``max_size``.
        Mid-stream the decision is only taken once that much data has
        arrived; otherwise FME pauses (``ctx.fme``) and resumes on the
        next batch or at EOF, where actuals are final — so any batching
        of the stream makes identical decisions.
        """
        n = len(chunks)
        avail = sum(chunks[t].size for t in range(i, n))
        guard = self.chunker.config.max_size
        ext = 0  # manifest entries claimed since this (re)entry
        while j < len(manifest.entries):
            entry = manifest.entries[j]
            if not eof and avail < entry.size + guard:
                ctx.fme = (manifest, j)
                ctx.fme_entries += ext
                return i
            if i >= n:
                break
            if entry.digest == digests[i]:
                self._note_edge_reuse(entry.digest)
                token = _Token(digests[i], chunks[i].data, chunks[i].size)
                token.resolve(manifest.chunk_id, entry.offset)
                ctx.tokens.append(token)
                self._count_duplicate(chunks[i].size, run_continues=True)
                avail -= chunks[i].size
                i += 1
                j += 1
                ext += 1
                continue
            if entry.is_hook:
                break
            k = align_prefix((chunks[t].size for t in range(i, n)), entry.size)
            if k is not None and k > 1:
                span = chunks[i : i + k]
                self.cpu.hashed += entry.size
                if sha1_spans([c.data for c in span]) == entry.digest:
                    pos = entry.offset
                    for m_k, c in enumerate(span):
                        token = _Token(digests[i + m_k], c.data, c.size)
                        token.resolve(manifest.chunk_id, pos)
                        ctx.tokens.append(token)
                        pos += c.size
                        self._count_duplicate(c.size, run_continues=True)
                        avail -= c.size
                    i += k
                    j += 1
                    ext += 1
                    continue
            if entry.size > chunks[i].size:
                new_i = self._hhr_forward(manifest, j, chunks, digests, i, ctx)
                avail -= sum(chunks[t].size for t in range(i, new_i))
                i = new_i
            break
        tel = self._telemetry
        if tel.enabled:
            tel.registry.histogram("mhd.fme.extension_entries", COUNT_BUCKETS).observe(
                ctx.fme_entries + ext
            )
        ctx.fme_entries = 0
        return i

    def _hhr_backward(self, manifest: Manifest, j: int, ctx: _FileContext) -> int:
        """Reload entry ``j``'s bytes and split at the duplicate suffix."""
        entry = manifest.entries[j]
        old = self.chunks.read(manifest.chunk_id, entry.offset, entry.size)
        self.hhr_reads += 1
        # Views compare content-equal against bytes slices of `old`,
        # so no copies are needed for the suffix match.
        tail = [t.view() for t in ctx.buffer]
        matched, matched_bytes, compared = match_suffix_chunks(old, tail)
        self.cpu.compared += compared
        edge_size = None
        if matched < len(ctx.buffer):
            edge_size = ctx.buffer[-(matched + 1)].size
        if not self.edge_hash:
            edge_size = None
        if matched == 0 and edge_size is None:
            return 0
        spans = plan_backward_split(entry.size, matched_bytes, edge_size)
        shift = self._apply_split(manifest, j, entry, old, spans)
        # Resolve the matched buffer chunks onto the old extent.
        pos = entry.offset + entry.size
        for _ in range(matched):
            t = ctx.buffer.pop()
            pos -= t.size
            t.resolve(manifest.chunk_id, pos)
            self._count_duplicate(t.size, run_continues=True)
        return shift

    def _hhr_forward(
        self,
        manifest: Manifest,
        j: int,
        chunks: list[Chunk],
        digests: list[Digest],
        i: int,
        ctx: _FileContext,
    ) -> int:
        """Reload entry ``j``'s bytes and split at the duplicate prefix."""
        entry = manifest.entries[j]
        old = self.chunks.read(manifest.chunk_id, entry.offset, entry.size)
        self.hhr_reads += 1
        # Only the chunks that can fit in the old extent participate;
        # zero-copy views suffice for the prefix comparison.
        head: list[memoryview] = []
        total = 0
        k = i
        while k < len(chunks) and total + chunks[k].size <= entry.size:
            head.append(chunks[k].data)
            total += chunks[k].size
            k += 1
        matched, matched_bytes, compared = match_prefix_chunks(old, head)
        self.cpu.compared += compared
        edge_size = None
        if i + matched < len(chunks):
            edge_size = chunks[i + matched].size
        if not self.edge_hash:
            edge_size = None
        if matched == 0 and edge_size is None:
            return i
        spans = plan_forward_split(entry.size, matched_bytes, edge_size)
        self._apply_split(manifest, j, entry, old, spans)
        pos = entry.offset
        for k in range(matched):
            token = _Token(digests[i + k], chunks[i + k].data, chunks[i + k].size)
            token.resolve(manifest.chunk_id, pos)
            ctx.tokens.append(token)
            pos += chunks[i + k].size
            self._count_duplicate(chunks[i + k].size, run_continues=True)
        return i + matched

    def _apply_split(
        self,
        manifest: Manifest,
        j: int,
        entry: ManifestEntry,
        old: bytes,
        spans: Sequence[Span],
    ) -> int:
        """Replace entry ``j`` with the planned spans; returns index shift.

        The entry mutation itself lives in :func:`repro.core.hhr.apply_split`
        (the sanctioned DDC002 site); this wrapper folds in the cache
        and statistics bookkeeping.
        """
        shift, hashed = apply_split(manifest, j, entry, old, spans)
        if hashed == 0:
            return 0  # degenerate: nothing learned
        self.cpu.hashed += hashed
        self.cache.reindex(manifest)
        self.hhr_splits += 1
        if self.edge_hash:
            # Replacement entries are 1:1 with the planned spans, so the
            # EdgeHash entries sit at the spans' positions.
            for k, sp in enumerate(spans):
                if sp.role == "edge":
                    self._edge_digests.add(manifest.entries[j + k].digest)
        return shift

    def _note_edge_reuse(self, digest: Digest) -> None:
        """Count a duplicate match that landed on an HHR EdgeHash entry.

        Each such match is a byte reload the EdgeHash ablation would
        have paid — the quantity behind the paper's EdgeHash argument.
        """
        if self._edge_digests and digest in self._edge_digests:
            tel = self._telemetry
            if tel.enabled:
                tel.registry.counter("mhd.edge_hash.reuse").inc()

    # ------------------------------------------------------------------
    # finalize
    # ------------------------------------------------------------------

    def _flush(self) -> None:
        self.cache.flush()
        tel = self._telemetry
        if tel.enabled:
            # Cumulative algorithm counters, mirrored once at the end of
            # the run (the live values stay on the objects themselves).
            reg = tel.registry
            reg.counter("mhd.hhr.splits").inc(self.hhr_splits)
            reg.counter("mhd.hhr.reads").inc(self.hhr_reads)
            reg.counter("mhd.manifest_cache.hits").inc(self.cache.hits)
            reg.counter("mhd.manifest_cache.loads").inc(self.cache.loads)
            reg.counter("mhd.manifest_cache.writebacks").inc(self.cache.writebacks)
