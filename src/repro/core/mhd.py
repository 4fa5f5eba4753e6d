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

The loop here makes those per-chunk decisions a *run* at a time.  A
run of chunks that neither the cache nor the Bloom filter has seen
ends where the buffer reaches ``2·SD`` — so no flush, hook or index
change lands inside it, and every chunk in it would have been decided
"new" one by one — and is probed in one pass
(:meth:`ManifestCache.first_indexed`, :meth:`BloomFilter.negative_run`),
buffered in one list extension and recorded as one extent.  A flush
writes its group with one container append; a run of FME direct digest
matches is claimed in one step.  The decisions, the store operations
and the counters are those of the per-chunk loop.

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

#: One piece of a file's recipe: ``(container id, offset, size)``.
_Extent = tuple[Digest, int, int]


class _FileContext(_FileObjects):
    """Per-file ingest state: the file's store objects plus MHD's buffers.

    The SHM buffer holds the non-duplicate chunks not yet flushed, in
    stream order.  Their bytes are named by where they will land in this
    file's container: flushes append the buffer in order, so buffered
    chunk bytes sit at ``stored`` onwards.  ``recipe`` is the file's
    extent list not yet handed to the FileManifest; an extent of this
    container reaching past ``stored`` still waits for its flush.  Only
    the buffer holds stream bytes, so it, not the file, is MHD's memory
    footprint.
    """

    def __init__(self, dedup: MHDDeduplicator, file_id: str) -> None:
        super().__init__(dedup, dedup.cache, file_id, MHD_ENTRY_SIZE)
        self.buffer: list[Chunk] = []
        self.buffer_digests: list[Digest] = []
        self.buffer_bytes = 0
        self.stored = 0  # bytes flushed into this file's container
        self.recipe: list[_Extent] = []
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

    def extend(self, container_id: Digest, offset: int, size: int) -> None:
        """Add an extent to the recipe, merged into the last when contiguous."""
        recipe = self.recipe
        if recipe:
            cid, off, n = recipe[-1]
            if off + n == offset and cid == container_id:
                recipe[-1] = (cid, off, n + size)
                return
        recipe.append((container_id, offset, size))

    def buffer_run(self, chunks: list[Chunk], digests: list[Digest], i: int, j: int) -> None:
        """Buffer stream chunks ``i..j-1`` as non-duplicates."""
        self.buffer += chunks[i:j]
        self.buffer_digests += digests[i:j]
        nbytes = chunks[j - 1].offset + chunks[j - 1].size - chunks[i].offset
        self.extend(self.container_id, self.stored + self.buffer_bytes, nbytes)
        self.buffer_bytes += nbytes

    def unbuffer(self, claims: list[_Extent]) -> None:
        """Re-place buffered chunks that match extension found duplicate.

        ``claims`` names, for the last ``len(claims)`` chunks popped off
        the buffer's tail (nearest the hit first), the extent each now
        resolves to.  Their bytes were the highest of the container's
        pending positions, so they are cut off the end of the recipe
        extents of this container that hold them, in stream order.
        """
        own, recipe = self.container_id, self.recipe
        cut = self.stored + self.buffer_bytes
        self.buffer_bytes -= sum(size for _, _, size in claims)
        c = 0
        k = len(recipe) - 1
        while c < len(claims):
            if k < 0:
                raise AssertionError("buffered bytes missing from the recipe")
            cid, off, size = recipe[k]
            if cid != own or off + size != cut:
                k -= 1
                continue
            placed: list[_Extent] = []
            while c < len(claims) and cut - claims[c][2] >= off:
                cut -= claims[c][2]
                placed.append(claims[c])
                c += 1
            placed.reverse()
            kept = [(own, off, cut - off)] if cut > off else []
            recipe[k : k + 1] = kept + placed
            k -= 1

    def emit(self) -> None:
        """Move the recipe's settled prefix into the file manifest.

        Keeps the recipe bounded: only extents still waiting for a
        flush (and anything after them) stay in RAM.
        """
        own, stored, recipe, fm = self.container_id, self.stored, self.recipe, self.fm
        k = 0
        for cid, off, size in recipe:
            if cid == own and off + size > stored:
                if off < stored:
                    fm.append(cid, off, stored - off)
                    recipe[k] = (cid, stored, off + size - stored)
                break
            fm.append(cid, off, size)
            k += 1
        del recipe[:k]


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
        ctx.emit()
        if ctx.recipe:
            raise AssertionError("unresolved extent at end of file")
        ctx.close()
        self._observe_ram(self.cache.ram_bytes() + self._buffer_peak_bytes)

    def _negative_run(self, digests: Sequence[Digest], start: int, stop: int) -> int:
        """How many of ``digests[start:stop]``, from the first, the hook
        front end proves never stored — none of them cached.

        The Bloom filter's run probe; a digest that ends the run early
        has been asked, so its lookup goes straight to
        :meth:`_probed_hook_manifest`.
        """
        bloom = self.bloom
        return 0 if bloom is None else bloom.negative_run(digests, start, stop)

    def _probed_hook_manifest(self, digest: Digest) -> Digest | None:
        """:meth:`_hook_manifest` of a digest the front end has already
        answered "maybe" for: the on-disk Hook query alone."""
        return self.hooks.lookup(digest)  # None: Bloom false positive

    def _drain(self, ctx: _FileContext, eof: bool) -> None:
        """Run the dedup loop over the pending chunks.

        Stops early (leaving the tail pending) whenever a decision
        would need stream data beyond what has arrived; at ``eof`` every
        decision is final and the pending list is fully consumed.
        """
        chunks, digests = ctx.pending_chunks, ctx.pending_digests
        n = len(chunks)
        cache, sd = self.cache, self.config.sd
        full = 2 * sd
        i = 0
        if ctx.fme is not None:
            manifest, j = ctx.fme
            ctx.fme = None
            i = self._fme(manifest, j, chunks, digests, i, ctx, eof)
        while ctx.fme is None and i < n:
            # The buffer is below 2·SD here; a run of new chunks stops
            # where it would fill, so the flush there precedes the
            # decision on the next chunk, as one chunk at a time.
            stop = min(n, i + full - len(ctx.buffer))
            cached = cache.first_indexed(digests, i, stop)
            new = i + self._negative_run(digests, i, cached)
            if new > i:
                ctx.buffer_run(chunks, digests, i, new)
                i = new
                if len(ctx.buffer) >= full:
                    self._flush_group(ctx, sd)
                    continue
                if i == n:
                    break
            # Chunk i is cached, or the front end said "maybe" for it.
            hook = self._hook_manifest if i == cached else self._probed_hook_manifest
            hit = cache.locate(digests[i], hook)
            if hit is None:
                ctx.buffer_run(chunks, digests, i, i + 1)
                if len(ctx.buffer) >= full:
                    self._flush_group(ctx, sd)
                i += 1
                continue
            manifest, idx = hit
            entry = manifest.entries[idx]
            size = chunks[i].size
            self._note_edge_reuse(entry.digest)
            self._break_dup_run()  # a hit always opens a new slice
            self._count_duplicate(size)
            idx += self._bme(manifest, idx, ctx)
            if self.contiguous_shm:
                # BME has claimed every buffered chunk it can; what is
                # left belongs to the non-duplicate slice that just
                # ended, so it gets its own SHM group(s) and hook now.
                while ctx.buffer:
                    self._flush_group(ctx, min(sd, len(ctx.buffer)))
            ctx.extend(manifest.chunk_id, entry.offset, size)
            i = self._fme(manifest, idx + 1, chunks, digests, i + 1, ctx, eof)
        del chunks[:i]
        del digests[:i]
        ctx.emit()

    # ------------------------------------------------------------------
    # SHM flush
    # ------------------------------------------------------------------

    def _flush_group(self, ctx: _FileContext, count: int) -> None:
        group = ctx.buffer[:count]
        hook = ctx.buffer_digests[0]
        del ctx.buffer[:count]
        del ctx.buffer_digests[:count]
        data = b"".join([c.data for c in group])
        group_bytes = len(data)
        with self._telemetry.span("store", chunks=count):
            base = ctx.container().append(data)
        ctx.stored += group_bytes
        ctx.buffer_bytes -= group_bytes
        entries, hashed = append_group(ctx.manifest, hook, group[0].size, data, base)
        self.cpu.hashed += hashed
        self.cache.index_delta(ctx.manifest, [e.digest for e in entries])
        self.hooks.put(hook, ctx.manifest.manifest_id)
        if self.bloom is not None:
            self.bloom.add(hook)
        self._count_unique_many(count, group_bytes)
        if 2 * group_bytes > self._buffer_peak_bytes:
            self._buffer_peak_bytes = 2 * group_bytes
        tel = self._telemetry
        if tel.enabled:
            reg = tel.registry
            reg.counter("mhd.shm.flush_groups").inc()
            reg.counter("mhd.shm.flushed_chunks").inc(count)
            reg.histogram("mhd.shm.group_chunks", COUNT_BUCKETS).observe(count)

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
        buffer, buffer_digests = ctx.buffer, ctx.buffer_digests
        entries, cid = manifest.entries, manifest.chunk_id
        claims: list[_Extent] = []  # per claimed chunk, nearest the hit first
        j = idx - 1
        shift = 0
        extended = 0  # manifest entries claimed by this extension
        while j >= 0 and buffer:
            entry = entries[j]
            if entry.digest == buffer_digests[-1]:
                self._note_edge_reuse(entry.digest)
                buffer_digests.pop()
                claims.append((cid, entry.offset, buffer.pop().size))
                j -= 1
                extended += 1
                continue
            if entry.is_hook:
                break
            k = align_suffix([c.size for c in buffer], entry.size)
            if k is not None and k > 1:
                span = buffer[-k:]
                self.cpu.hashed += entry.size
                if sha1_spans([c.data for c in span]) == entry.digest:
                    del buffer[-k:]
                    del buffer_digests[-k:]
                    pos = entry.end
                    for c in reversed(span):
                        pos -= c.size
                        claims.append((cid, pos, c.size))
                    j -= 1
                    extended += 1
                    continue
            if entry.size > buffer[-1].size:
                shift += self._hhr_backward(manifest, j, ctx, claims)
            break
        if claims:
            self._count_duplicate_many(len(claims), sum(size for _, _, size in claims))
            ctx.unbuffer(claims)
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
        of the stream makes identical decisions.  The bytes that have
        arrived past chunk ``i`` are read off the chunks' stream offsets.
        """
        n = len(chunks)
        end = chunks[-1].offset + chunks[-1].size if n else 0
        guard = self.chunker.config.max_size
        entries, cid = manifest.entries, manifest.chunk_id
        ext = 0  # manifest entries claimed since this (re)entry
        while j < len(entries):
            entry = entries[j]
            if not eof and (i >= n or end - chunks[i].offset < entry.size + guard):
                ctx.fme = (manifest, j)
                ctx.fme_entries += ext
                return i
            if i >= n:
                break
            if entry.digest == digests[i]:
                # Claim the run of direct matches, each entry's decision
                # taken on the same forward data as one at a time.
                t, m = i + 1, j + 1
                while t < n and m < len(entries):
                    e = entries[m]
                    if e.digest != digests[t]:
                        break
                    if not eof and end - chunks[t].offset < e.size + guard:
                        break
                    t += 1
                    m += 1
                if self._edge_digests:
                    for digest in digests[i:t]:
                        self._note_edge_reuse(digest)
                nbytes = chunks[t - 1].offset + chunks[t - 1].size - chunks[i].offset
                ctx.extend(cid, entry.offset, nbytes)
                self._count_duplicate_many(t - i, nbytes)
                ext += t - i
                i, j = t, m
                continue
            if entry.is_hook:
                break
            k = align_prefix((chunks[t].size for t in range(i, n)), entry.size)
            if k is not None and k > 1:
                self.cpu.hashed += entry.size
                if sha1_spans([c.data for c in chunks[i : i + k]]) == entry.digest:
                    ctx.extend(cid, entry.offset, entry.size)
                    self._count_duplicate_many(k, entry.size)
                    i += k
                    j += 1
                    ext += 1
                    continue
            if entry.size > chunks[i].size:
                i = self._hhr_forward(manifest, j, chunks, i, ctx)
            break
        tel = self._telemetry
        if tel.enabled:
            tel.registry.histogram("mhd.fme.extension_entries", COUNT_BUCKETS).observe(
                ctx.fme_entries + ext
            )
        ctx.fme_entries = 0
        return i

    def _hhr_backward(
        self, manifest: Manifest, j: int, ctx: _FileContext, claims: list[_Extent]
    ) -> int:
        """Reload entry ``j``'s bytes and split at the duplicate suffix.

        The buffered chunks it matches are popped and added to
        ``claims`` (see :meth:`_FileContext.unbuffer`).
        """
        entry = manifest.entries[j]
        old = self.chunks.read(manifest.chunk_id, entry.offset, entry.size)
        self.hhr_reads += 1
        buffer = ctx.buffer
        # Views compare content-equal against bytes slices of `old`,
        # so no copies are needed for the suffix match.
        matched, matched_bytes, compared = match_suffix_chunks(old, [c.data for c in buffer])
        self.cpu.compared += compared
        edge_size = None
        if matched < len(buffer):
            edge_size = buffer[-(matched + 1)].size
        if not self.edge_hash:
            edge_size = None
        if matched == 0 and edge_size is None:
            return 0
        spans = plan_backward_split(entry.size, matched_bytes, edge_size)
        shift = self._apply_split(manifest, j, entry, old, spans)
        # Claim the matched buffer chunks onto the old extent.
        pos = entry.end
        for _ in range(matched):
            ctx.buffer_digests.pop()
            size = buffer.pop().size
            pos -= size
            claims.append((manifest.chunk_id, pos, size))
        return shift

    def _hhr_forward(
        self,
        manifest: Manifest,
        j: int,
        chunks: list[Chunk],
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
        if matched:
            ctx.extend(manifest.chunk_id, entry.offset, matched_bytes)
            self._count_duplicate_many(matched, matched_bytes)
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
        replacements = manifest.entries[j : j + len(spans)]
        self.cache.index_delta(manifest, [e.digest for e in replacements], [entry.digest])
        self.hhr_splits += 1
        if self.edge_hash:
            # Replacement entries are 1:1 with the planned spans, so the
            # EdgeHash entries sit at the spans' positions.
            for sp, e in zip(spans, replacements, strict=True):
                if sp.role == "edge":
                    self._edge_digests.add(e.digest)
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
