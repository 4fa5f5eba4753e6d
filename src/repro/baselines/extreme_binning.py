"""Extreme Binning (Bhagwat, Eshghi, Long & Lillibridge, MASCOTS'09).

The paper's related work: "Extreme Binning uses one chunk from each
file to represent the corresponding file.  If the representative chunk
is found to be a duplicate, data locality information of the
corresponding file is loaded into the RAM.  As only one disk access is
needed per file, the throughput of the Extreme Binning algorithm is
comparatively high."

Design reproduced here:

* a file's **representative** is the minimum chunk digest of its chunk
  set (the Broder min-wise choice the original paper uses);
* the RAM **primary index** maps representative → (whole-file hash,
  bin address).  A whole-file hash match short-circuits everything:
  the file is a complete duplicate;
* on a representative hit, the **bin** — a digest → extent table for
  every chunk of every file that shared the representative — is loaded
  from disk (the one disk access per file), the new file is
  deduplicated against it, and the grown bin is written back;
* on a representative miss, the file's chunks are all stored and a new
  bin is created.  Duplicates between files in *different* bins are
  deliberately missed — Extreme Binning's scalability trade.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..chunking import Chunk, VectorizedChunker
from ..core.base import Deduplicator
from ..core.config import DedupConfig
from ..hashing import Digest, Hasher, sha1
from ..storage import DiskModel, FileManifest, StorageBackend, allocate_id, file_object_ids
from ..storage.multi_manifest import MultiEntry, MultiManifest, MultiManifestStore
from ..workloads.machine import BackupFile

__all__ = ["ExtremeBinningDeduplicator"]


@dataclass
class _PrimaryEntry:
    whole_file_hash: Digest
    bin_id: Digest


class ExtremeBinningDeduplicator(Deduplicator):
    """Representative-chunk binning with one disk access per file."""

    name = "extreme-binning"

    def __init__(
        self,
        config: DedupConfig | None = None,
        backend: StorageBackend | None = None,
    ) -> None:
        super().__init__(config, backend)
        # The primary index replaces the Bloom filter entirely.
        self.bloom = None
        self.chunker = VectorizedChunker(self.config.small_chunker_config())
        self.bin_store = MultiManifestStore(self.backend, self.meter)
        self._primary: dict[Digest, _PrimaryEntry] = {}
        self._bin_serial = 0
        #: whole files skipped via the whole-file-hash shortcut
        self.whole_file_hits = 0
        # Per-file accumulation state (reset by _begin_file).
        self._file_id: str | None = None
        self._chunks: list[Chunk] = []
        self._digests: list[Digest] = []
        self._whole = Hasher()

    def primary_index_bytes(self) -> int:
        """RAM held by the primary index (representative -> bin)."""
        return len(self._primary) * (20 + 20 + 20 + 16)

    def _begin_file(self, file: BackupFile) -> None:
        self._file_id = file.file_id
        # Binning is a per-file decision (representative = min digest,
        # whole-file hash): chunks accumulate until end of file.  The
        # whole-file hash is computed incrementally so the stream is
        # still read through the bounded window.
        self._chunks: list[Chunk] = []
        self._digests: list[Digest] = []
        self._whole = Hasher()

    def _ingest_chunks(self, batch: list[Chunk], digests: list[Digest]) -> None:
        self._digests.extend(digests)
        for chunk in batch:
            self._whole.update(chunk.data)  # the second hash of each byte
            self.cpu.hashed += chunk.size
        self._chunks.extend(batch)

    def _end_file(self) -> None:
        chunks, digests = self._chunks, self._digests
        self._chunks, self._digests = [], []
        fm = FileManifest(self._file_id)
        if not chunks:
            self.file_manifests.put(fm)
            return
        whole = self._whole.digest()
        representative = min(digests)

        primary = self._primary.get(representative)
        if primary is not None and primary.whole_file_hash == whole:
            # Complete duplicate: restore by aliasing the previous file.
            self.whole_file_hits += 1
            bin_manifest = self.bin_store.get(primary.bin_id)  # the 1 disk access
            self._count_whole_file_dup(chunks, digests, bin_manifest, fm)
            self.file_manifests.put(fm)
            return

        if primary is not None:
            bin_manifest = self.bin_store.get(primary.bin_id)  # the 1 disk access
        else:
            self._bin_serial += 1
            first = sha1(b"bin|%d" % self._bin_serial + representative)
            bin_manifest = MultiManifest(allocate_id(self.backend, first, DiskModel.MANIFEST))

        first, _ = file_object_ids(self._file_id)
        container_id = allocate_id(self.backend, first, DiskModel.CHUNK)
        writer = None
        for chunk, digest in zip(chunks, digests, strict=True):
            idx = bin_manifest.find(digest)
            if idx is not None:
                e = bin_manifest.entries[idx]
                self._count_duplicate(chunk.size)
                fm.append(e.container_id, e.offset, e.size)
                continue
            self._count_unique(chunk.size)
            if writer is None:
                writer = self.chunks.open_container(container_id)
            offset = writer.append(chunk.data)
            bin_manifest.append(MultiEntry(digest, container_id, offset, chunk.size))
            fm.append(container_id, offset, chunk.size)
        if writer is not None:
            writer.close()

        self.bin_store.put(bin_manifest)  # write-back (new or grown)
        self._primary[representative] = _PrimaryEntry(whole, bin_manifest.manifest_id)
        self.file_manifests.put(fm)
        self._observe_ram(self.primary_index_bytes())

    def _count_whole_file_dup(
        self,
        chunks: list[Chunk],
        digests: list[Digest],
        bin_manifest: MultiManifest,
        fm: FileManifest,
    ) -> None:
        """Rebuild the file manifest for a complete duplicate from its bin."""
        for chunk, digest in zip(chunks, digests, strict=True):
            idx = bin_manifest.find(digest)
            if idx is None:
                raise AssertionError(
                    "whole-file hash matched but a chunk is missing from the bin"
                )
            e = bin_manifest.entries[idx]
            self._count_duplicate(chunk.size)
            fm.append(e.container_id, e.offset, e.size)
