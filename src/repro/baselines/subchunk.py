"""SubChunk — anchor-driven subchunk deduplication (Romanski et al.,
SYSTOR'11), as characterised in the paper's Sections II & IV.

The pipeline:

1. Chunk the stream at the big granularity ``ECS · SD``; query every
   big chunk for duplication (Table II charges ``(N+D)/SD`` big-chunk
   queries — these are *not* Bloom-gated because every previously seen
   big-chunk hash is kept in the index).
2. Re-chunk **every** non-duplicate big chunk into small chunks and
   deduplicate each individually.
3. The non-duplicate small chunks of one big chunk are coalesced into
   one DiskChunk *container* — hence ``N/SD`` container inodes.
4. The per-file manifest records small-chunk→container mappings: 36
   bytes per small chunk plus the shared 28-byte container-group
   header (:class:`repro.storage.multi_manifest.MultiManifest`), i.e.
   Table I's ``36·N + 28·N/SD`` manifest bytes.
5. One Hook per manifest ("each Manifest is conservatively allocated
   with one Hook"), so ``F`` hook inodes.

Because the container mappings do not preserve locality *between* big
chunks, a duplicate slice can straddle mappings that are no longer
cached, costing extra manifest loads — the paper's stated reason for
SubChunk's throughput deficit.
"""

from __future__ import annotations

from ..chunking import VectorizedChunker
from ..hashing import Digest, sha1, sha1_many
from ..storage import DiskModel, FileManifest, file_object_ids
from ..storage.multi_manifest import MultiEntry, MultiManifest
from ..workloads.machine import BackupFile
from ..core.base import Deduplicator
from ..core.manifest_cache import ManifestCache

__all__ = ["SubChunkDeduplicator"]


class SubChunkDeduplicator(Deduplicator):
    """Re-chunk-everything, container-coalescing deduplicator."""

    name = "subchunk"

    def __init__(self, config=None, backend=None):
        super().__init__(config, backend)
        self.big_chunker = VectorizedChunker(self.config.big_chunker_config())
        self.small_chunker = VectorizedChunker(self.config.small_chunker_config())
        self.cache = ManifestCache(self.manifests, self.config.cache_manifests)
        # Big-chunk identity index: big digest -> the extent list that
        # reconstructs it.  Kept in RAM (the SYSTOR design's index);
        # each probe is metered as an on-disk query per Table II.
        self._big_index: dict[Digest, tuple[tuple[Digest, int, int], ...]] = {}
        self._container_serial = 0
        self._manifest: MultiManifest | None = None
        self._fm: FileManifest | None = None

    def _stream_chunker(self) -> VectorizedChunker:
        return self.big_chunker

    def _begin_file(self, file: BackupFile) -> None:
        _, first = file_object_ids(file.file_id)
        manifest = MultiManifest(self.store.allocate_id(first, DiskModel.MANIFEST))
        self.cache.discard(manifest.manifest_id)  # an earlier ingest's, empty and unwritten
        self.cache.add(manifest, pin=True)
        self._manifest = manifest
        self._fm = FileManifest(file.file_id)

    def _ingest_chunks(self, batch, big_digests) -> None:
        manifest, fm = self._manifest, self._fm
        for big, big_digest in zip(batch, big_digests, strict=True):
            # Big-chunk duplication query (one metered disk query).
            self.meter.record(DiskModel.HOOK, "query", 0)
            extents = self._big_index.get(big_digest)
            if extents is not None:
                self._count_duplicate(big.size)
                for container_id, offset, size in extents:
                    fm.append(container_id, offset, size)
                continue
            self._ingest_small(big, big_digest, manifest, fm)

    def _end_file(self) -> None:
        manifest = self._manifest
        if manifest.entries:
            self.manifests.put(manifest)
            # One Hook per manifest (the paper's conservative allocation).
            self.hooks.put(manifest.entries[0].digest, manifest.manifest_id)
        self.cache.reindex(manifest)
        self.cache.unpin(manifest.manifest_id)
        self.file_manifests.put(self._fm)
        self._observe_ram(self.cache.ram_bytes() + self.extra_index_bytes())
        self._manifest = None
        self._fm = None

    def _abort_file(self) -> None:
        super()._abort_file()
        if self._manifest is not None:
            self.cache.discard(self._manifest.manifest_id)
            self._manifest = None

    def _ingest_small(
        self,
        big,
        big_digest: Digest,
        manifest: MultiManifest,
        fm: FileManifest,
    ) -> None:
        """Re-chunk a non-duplicate big chunk; coalesce its new smalls."""
        small_chunks = self.small_chunker.chunk(big.data)
        self.cpu.chunked += big.size
        first = sha1(big_digest + self._container_serial.to_bytes(8, "little"))
        container_id = self.store.allocate_id(first, DiskModel.CHUNK)
        self._container_serial += 1
        writer = None
        extents: list[tuple[Digest, int, int]] = []
        small_digests = sha1_many(chunk.data for chunk in small_chunks)
        for chunk, digest in zip(small_chunks, small_digests, strict=True):
            self.cpu.hashed += chunk.size
            hit = self._lookup_small(digest, manifest)
            if hit is not None:
                self._count_duplicate(chunk.size)
                extents.append(hit)
                fm.append(*hit)
                continue
            self._count_unique(chunk.size)
            if writer is None:
                writer = self.chunks.open_container(container_id)
            offset = writer.append(chunk.data)
            manifest.append(MultiEntry(digest, container_id, offset, chunk.size))
            if self.bloom is not None:
                self.bloom.add(digest)
            extents.append((container_id, offset, chunk.size))
            fm.append(container_id, offset, chunk.size)
        if writer is not None:
            writer.close()
        self._big_index[big_digest] = self._coalesce(extents)

    @staticmethod
    def _coalesce(
        extents: list[tuple[Digest, int, int]]
    ) -> tuple[tuple[Digest, int, int], ...]:
        out: list[tuple[Digest, int, int]] = []
        for cid, off, size in extents:
            if out and out[-1][0] == cid and out[-1][1] + out[-1][2] == off:
                out[-1] = (cid, out[-1][1], out[-1][2] + size)
            else:
                out.append((cid, off, size))
        return tuple(out)

    def _lookup_small(
        self, digest: Digest, current: MultiManifest
    ) -> tuple[Digest, int, int] | None:
        idx = current.find(digest)
        if idx is None:
            # Only one hook per manifest exists, so most on-disk
            # probes miss and the duplicate is missed with them —
            # the locality loss the paper attributes to SubChunk.
            hit = self.cache.locate(digest, self._hook_manifest)
            if hit is None:
                return None
            current, idx = hit
        e = current.entries[idx]
        return (e.container_id, e.offset, e.size)

    def extra_index_bytes(self) -> int:
        """RAM held by the big-chunk index (hash + extent tuples)."""
        total = 0
        for extents in self._big_index.values():
            total += 20 + len(extents) * 36
        return total

    def _flush(self) -> None:
        self.cache.flush()
