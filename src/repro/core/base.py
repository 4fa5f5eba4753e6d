"""Deduplicator base class, run statistics and the common plumbing.

Every algorithm in the repository — BF-MHD and the Bimodal, SubChunk,
CDC and SparseIndexing baselines — subclasses :class:`Deduplicator`,
which owns the storage substrate (metered stores over a pluggable
backend), the CPU-work counters the timing model consumes, duplicate-
slice tracking, and the restore/verification path.

Ingest is a bounded-memory streaming pipeline with explicit stages::

    source -> chunker -> hasher -> dedup core -> store

:meth:`Deduplicator.ingest` opens the file's source, drives the
subclass's chunker incrementally (:meth:`Chunker.chunk_stream`),
digests each batch once and hands chunks and digests to the algorithm
through three hooks: :meth:`_begin_file`, :meth:`_ingest_chunks` (per
batch) and :meth:`_end_file`.  The per-file algorithms keep the store
objects a file creates in one :class:`_FileObjects` and find duplicates
through :meth:`ManifestCache.locate`, so a deduplicator implements only
its match decision.  Peak memory is the chunker's carry window plus the
algorithm's own buffer (MHD's ``2·SD`` chunk buffer, a bimodal big
chunk, a sparse-indexing segment) — independent of file size.  Files
constructed with in-memory ``data`` take the same code path as one big
window, so whole-bytes and streamed ingest are decision-identical.
:meth:`Deduplicator.ingest_chunked` feeds the same loop one batch that
its caller has already cut and digested (the cluster router's).

The statistics exposed by :class:`DedupStats` are exactly the paper's
evaluation quantities (Section V):

* data-only DER — input bytes / stored chunk bytes,
* real DER — input bytes / (stored bytes + *all* metadata incl. the
  256-byte inodes of every metadata file),
* MetaDataRatio — metadata bytes / input bytes,
* N, D, L — unique/duplicate chunk and duplicate-slice counts,
* per-namespace disk-access counts (Table II rows),
* peak RAM of the in-memory structures (Table III/IV).
"""

from __future__ import annotations

import logging
from abc import ABC, abstractmethod
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any

import numpy as np

from ..chunking import DEFAULT_STREAM_WINDOW, Chunk, Chunker, StreamStats, chunks_from_cut_points
from ..hashing import HASH_SIZE, BloomFilter, Digest, sha1_many
from ..obs.telemetry import NULL_TELEMETRY, Telemetry
from ..storage import (
    INODE_SIZE,
    KINDS,
    ContainerWriter,
    DiskModel,
    FileManifest,
    IOSnapshot,
    Manifest,
    MemoryBackend,
    StorageBackend,
    Store,
    file_object_ids,
)
from ..storage.verify import IntegrityReport, verify_store
from ..workloads.machine import BackupFile
from .config import DedupConfig
from .manifest_cache import ManifestCache

if TYPE_CHECKING:
    from .protocols import IngestObserver

__all__ = ["CpuWork", "DedupStats", "Deduplicator", "PipelineStats"]

logger = logging.getLogger("repro.dedup")


@dataclass
class CpuWork:
    """Byte counts of the three CPU-bound operations, for the timing model."""

    chunked: int = 0  # bytes scanned by rolling-hash chunkers
    hashed: int = 0  # bytes digested by SHA-1
    compared: int = 0  # bytes memcmp'd during HHR / byte verification


@dataclass
class PipelineStats:
    """Per-stage counters of the streaming ingest pipeline.

    Aggregated across all files of a run; the proof that the
    chunk→hash→index→store path really ran in bounded memory is
    ``peak_buffer_bytes`` staying at window + carry size while
    ``input_bytes`` grows without limit.
    """

    batches: int = 0  # chunk batches delivered to the dedup core
    windows: int = 0  # reads pulled from file sources by the chunkers
    stalls: int = 0  # windows that yielded no stable cut (carried over)
    peak_buffer_bytes: int = 0  # high-water of the chunker carry buffer
    streamed_files: int = 0  # files ingested from a source (not bytes)


@dataclass(frozen=True)
class DedupStats:
    """Everything an experiment reads out of one deduplication run."""

    algorithm: str
    config: DedupConfig
    input_bytes: int
    input_files: int
    stored_chunk_bytes: int
    manifest_bytes: int
    hook_bytes: int
    file_manifest_bytes: int
    chunk_inodes: int
    manifest_inodes: int
    hook_inodes: int
    file_manifest_inodes: int
    unique_chunks: int  # N
    duplicate_chunks: int  # D
    duplicate_slices: int  # L
    io: IOSnapshot
    cpu: CpuWork
    peak_ram_bytes: int
    extra_index_bytes: int = 0  # algorithm-private persistent metadata
    unique_bytes: int = 0  # bytes of the input stored as unique chunks
    duplicate_bytes: int = 0  # bytes of the input found duplicate
    pipeline: PipelineStats = field(default_factory=PipelineStats)

    # ---- the paper's derived metrics ----------------------------------

    @property
    def inode_bytes(self) -> int:
        """Inode overhead of all metadata files (256 B each)."""
        return (
            self.chunk_inodes
            + self.manifest_inodes
            + self.hook_inodes
            + self.file_manifest_inodes
        ) * INODE_SIZE

    @property
    def metadata_bytes(self) -> int:
        """All metadata: manifests + hooks + file manifests + inodes."""
        return (
            self.manifest_bytes
            + self.hook_bytes
            + self.file_manifest_bytes
            + self.inode_bytes
            + self.extra_index_bytes
        )

    @property
    def output_bytes(self) -> int:
        """Stored size "from the perspective of the file system"."""
        return self.stored_chunk_bytes + self.metadata_bytes

    @property
    def data_only_der(self) -> float:
        """Input bytes / stored chunk bytes (metadata excluded)."""
        return self.input_bytes / max(1, self.stored_chunk_bytes)

    @property
    def real_der(self) -> float:
        """Input bytes / total stored bytes including all metadata."""
        return self.input_bytes / max(1, self.output_bytes)

    @property
    def metadata_ratio(self) -> float:
        """The paper's MetaDataRatio (often reported as a percentage)."""
        return self.metadata_bytes / max(1, self.input_bytes)

    @property
    def inodes_per_mb(self) -> float:
        """Fig. 7(a)'s y-axis: metadata inodes per MB of input."""
        total_inodes = (
            self.chunk_inodes
            + self.manifest_inodes
            + self.hook_inodes
            + self.file_manifest_inodes
        )
        return total_inodes / max(1e-9, self.input_bytes / (1 << 20))

    @property
    def manifest_metadata_ratio(self) -> float:
        """Fig. 7(b): (Manifest + Hook bytes) / input bytes."""
        return (self.manifest_bytes + self.hook_bytes) / max(1, self.input_bytes)

    @property
    def file_manifest_metadata_ratio(self) -> float:
        """Fig. 7(c): FileManifest bytes / input bytes."""
        return self.file_manifest_bytes / max(1, self.input_bytes)

    def as_dict(self) -> dict[str, Any]:
        """JSON-serialisable snapshot (raw counters + derived metrics).

        Used by the benches to emit machine-readable results next to
        their text reports.
        """
        return {
            "algorithm": self.algorithm,
            "ecs": self.config.ecs,
            "sd": self.config.sd,
            "input_bytes": self.input_bytes,
            "input_files": self.input_files,
            "stored_chunk_bytes": self.stored_chunk_bytes,
            "manifest_bytes": self.manifest_bytes,
            "hook_bytes": self.hook_bytes,
            "file_manifest_bytes": self.file_manifest_bytes,
            "inode_bytes": self.inode_bytes,
            "metadata_bytes": self.metadata_bytes,
            "unique_chunks": self.unique_chunks,
            "duplicate_chunks": self.duplicate_chunks,
            "duplicate_slices": self.duplicate_slices,
            "unique_bytes": self.unique_bytes,
            "duplicate_bytes": self.duplicate_bytes,
            "data_only_der": self.data_only_der,
            "real_der": self.real_der,
            "metadata_ratio": self.metadata_ratio,
            "inodes_per_mb": self.inodes_per_mb,
            "disk_accesses": self.io.count(),
            "disk_bytes": self.io.nbytes(),
            "cpu_chunked": self.cpu.chunked,
            "cpu_hashed": self.cpu.hashed,
            "cpu_compared": self.cpu.compared,
            "peak_ram_bytes": self.peak_ram_bytes,
            "stream_batches": self.pipeline.batches,
            "stream_windows": self.pipeline.windows,
            "stream_stalls": self.pipeline.stalls,
            "stream_peak_buffer_bytes": self.pipeline.peak_buffer_bytes,
            "streamed_files": self.pipeline.streamed_files,
        }


class _FileObjects:
    """The store objects ingesting one file creates, opened and closed once.

    A per-file deduplicator (MHD, CDC, Bimodal) writes, for each file,
    one DiskChunk container, one Manifest over it and one FileManifest.
    Constructing this opens them — container
    and manifest under ids from :meth:`Store.allocate_id` (a name the store
    has seen gets new ones and its FileManifest is replaced), the
    manifest pinned in the cache so it is not evicted mid-build — and
    :meth:`close` writes them in the one order the crash matrix is built
    on: container, manifest, un-pin, file manifest.  Algorithms subclass
    it for their per-file buffers; :meth:`Deduplicator.ingest` drops it
    if the file fails.
    """

    def __init__(
        self,
        dedup: Deduplicator,
        cache: ManifestCache[Manifest],
        file_id: str,
        entry_size: int,
    ) -> None:
        self._dedup = dedup
        self._cache = cache
        first_container, first_manifest = file_object_ids(file_id)
        self.container_id = dedup.store.allocate_id(first_container, DiskModel.CHUNK)
        manifest_id = dedup.store.allocate_id(first_manifest, DiskModel.MANIFEST)
        self.manifest = Manifest(manifest_id, self.container_id, entry_size=entry_size)
        self.fm = FileManifest(file_id)
        self.writer: ContainerWriter | None = None
        # Free in the store yet cached: the manifest of an all-duplicate
        # earlier ingest of this name, empty and so never written.
        cache.discard(manifest_id)
        cache.add(self.manifest, pin=True)

    def container(self) -> ContainerWriter:
        """The file's container writer, opened on first use."""
        writer = self.writer
        if writer is None:
            writer = self.writer = self._dedup.chunks.open_container(self.container_id)
        return writer

    def find(self, digest: Digest) -> tuple[Manifest, int] | None:
        """:meth:`ManifestCache.locate`, asking this file's own manifest
        first — for algorithms whose in-progress digests enter the
        cache-wide index only at file end."""
        idx = self.manifest.find(digest)
        if idx is not None:
            return self.manifest, idx
        return self._cache.locate(digest, self._dedup._hook_manifest)

    def close(self) -> None:
        """Write the file's objects."""
        dedup = self._dedup
        if self.writer is not None:
            self.writer.close()
        if self.manifest.entries:
            dedup.manifests.put(self.manifest)
        self._cache.unpin(self.manifest.manifest_id)
        dedup.file_manifests.put(self.fm)

    def abort(self) -> None:
        """Forget the in-progress manifest: un-pinned, never written back."""
        self._cache.discard(self.manifest.manifest_id)


class Deduplicator(ABC):
    """Common harness: storage, metering, slice tracking, restore."""

    #: Subclasses set their display name (used in reports/benches).
    name: str = "base"

    #: The chunker defining the algorithm's primary stream.  Declared
    #: here (assigned by subclass ``__init__``) so the default
    #: :meth:`_stream_chunker` seam is fully typed.
    chunker: Chunker

    def __init__(
        self,
        config: DedupConfig | None = None,
        backend: StorageBackend | None = None,
    ) -> None:
        self.config = config or DedupConfig()
        #: Every object the run persists goes through it; below, its parts.
        self.store = Store(backend or MemoryBackend())
        self.backend, self.meter = self.store.backend, self.store.meter
        self.chunks, self.manifests = self.store.chunks, self.store.manifests
        self.hooks, self.file_manifests = self.store.hooks, self.store.file_manifests
        self.bloom = (
            BloomFilter(self.config.bloom_bytes) if self.config.bloom_bytes else None
        )
        self.cpu = CpuWork()
        self.pipeline = PipelineStats()
        self._input_bytes = 0
        self._input_files = 0
        self._unique_chunks = 0
        self._duplicate_chunks = 0
        self._duplicate_slices = 0
        self._unique_bytes = 0
        self._duplicate_bytes = 0
        self._in_dup_run = False
        self._peak_ram = 0
        self._finalized = False
        #: Store objects of the file being ingested: set by the per-file
        #: algorithms' ``_begin_file``, cleared by :meth:`ingest`.
        self._ctx: _FileObjects | None = None
        self._telemetry: Telemetry = NULL_TELEMETRY
        #: Optional session-level control hooks wrapped around the
        #: per-file ingest hooks (see
        #: :class:`repro.core.protocols.IngestObserver`).  ``None`` —
        #: the default — keeps the hot path to a single attribute test.
        self.ingest_observer: IngestObserver | None = None

    # ---- telemetry ------------------------------------------------------

    @property
    def telemetry(self) -> Telemetry:
        """The observing telemetry context (:data:`NULL_TELEMETRY` default).

        Assigning a live :class:`~repro.obs.Telemetry` turns on metric
        collection and (when it has sinks) span tracing for all
        subsequent ingests; the disk meter starts mirroring its
        per-namespace counters into the telemetry registry and its
        span I/O probe is pointed at this run's meter.  Telemetry
        is attached post-construction precisely so none of the six
        algorithm constructors need to know about it.
        """
        return self._telemetry

    @telemetry.setter
    def telemetry(self, tel: Telemetry) -> None:
        self._telemetry = tel
        self.meter.attach_registry(tel.registry if tel.enabled else None)
        tel.set_io_probe(self._io_probe)

    def _io_probe(self) -> tuple[int, int]:
        """Cumulative ``(disk_ops, disk_bytes)`` sampler for span I/O attribution."""
        return self.meter.total_ops, self.meter.total_bytes

    # ---- the ingest API -------------------------------------------------

    #: Paranoid mode: re-read and byte-compare every file right after
    #: ingesting it (off by default; costs a full restore per file).
    verify_writes: bool = False

    #: Read size for the streaming ingest path (source-backed files).
    stream_window_bytes: int = DEFAULT_STREAM_WINDOW

    def ingest(self, file: BackupFile) -> None:
        """Deduplicate one file into the store.

        Drives the streaming pipeline: chunks are pulled from the
        file's source a window at a time, digested, and handed to the
        algorithm in batches, so peak memory is bounded by the chunker
        carry window plus the algorithm's own buffering.  With
        :attr:`verify_writes` enabled the file is restored and
        byte-compared immediately; a mismatch raises ``RuntimeError``
        before any further data is accepted.

        If anything raises mid-file (an :class:`IngestObserver` veto, a
        backend out of retries) the file's in-RAM state is dropped —
        its manifest leaves the cache unwritten, its open container is
        forgotten, the file is not counted — and the exception
        propagates; the same file id can then be ingested again.  The
        store side is untouched: hooks the failed attempt already wrote
        are :func:`repro.storage.recover.recover`'s job, as for a crash
        at the same point.
        """
        # One batched digest call over zero-copy views into the stream
        # buffer: no per-chunk bytes objects are materialised.
        self._ingest(
            file, partial(self._file_batches, file), lambda b: sha1_many(c.data for c in b)
        )

    def ingest_chunked(
        self, file_id: str, data: bytes, sizes: Sequence[int], digests: Sequence[Digest]
    ) -> None:
        """:meth:`ingest` of in-memory ``data`` whose caller already ran
        this deduplicator's stream chunker (chunks of ``sizes`` bytes) and
        SHA-1 (``digests``) over it — the same loop, observer, spans, abort
        path and ``cpu``/``pipeline`` charges, one batch of zero-copy views.
        ``ValueError`` unless ``sizes`` are positive and tile ``data``, one
        20-byte digest each; that each digest is its chunk's SHA-1 is the
        caller's precondition (checking would re-hash what this saves)."""
        if len(digests) != len(sizes):
            raise ValueError(f"{len(digests)} digests for {len(sizes)} chunks")
        if any(size <= 0 for size in sizes) or sum(sizes) != len(data):
            raise ValueError(f"chunk sizes do not tile the {len(data)}-byte input")
        if any(len(d) != HASH_SIZE for d in digests):
            raise ValueError(f"every digest must be {HASH_SIZE} bytes")
        cuts = np.cumsum(sizes, dtype=np.int64)
        known = list(digests)
        self._ingest(
            BackupFile(file_id, data),
            partial(self._memory_batches, data, lambda buf: chunks_from_cut_points(buf, cuts)),
            lambda _batch: known,
        )

    def _ingest(
        self,
        file: BackupFile,
        source: Callable[[StreamStats], Iterator[list[Chunk]]],
        digest: Callable[[list[Chunk]], list[Digest]],
    ) -> None:
        """The one ingest loop: ``source(stream)`` yields chunk batches,
        ``digest(batch)`` names them (see :meth:`ingest`)."""
        if self._finalized:
            raise RuntimeError("deduplicator already finalized")
        self._in_dup_run = False  # duplicate slices do not span files
        logger.debug("%s ingesting %s (%d bytes)", self.name, file.file_id, file.size)
        tel = self._telemetry
        stream = StreamStats()
        if tel.enabled:
            stream.size_hist = tel.registry.histogram("chunk.size_bytes")
        nbytes = 0
        batches = 0
        observer = self.ingest_observer
        try:
            with tel.span("file", file_id=file.file_id, size=file.size):
                if observer is not None:
                    observer.begin_file(file)
                self._begin_file(file)
                # Manual iteration so the time spent *producing* a batch
                # (the chunk stage) and the time *consuming* it (the dedup
                # core) land in separate spans.
                feed = source(stream)
                while True:
                    with tel.span("chunk"):
                        batch = next(feed, None)
                    if batch is None:
                        break
                    if not batch:
                        continue
                    batch_bytes = sum(c.size for c in batch)
                    if observer is not None:
                        # Before the dedup core sees the batch: a raising
                        # observer (quota hit) aborts mid-file with none of
                        # this batch's bytes stored.
                        observer.observe_batch(batch_bytes, len(batch))
                    nbytes += batch_bytes
                    batches += 1
                    self.pipeline.batches += 1
                    with tel.span("dedup", chunks=len(batch)):
                        with tel.span("hash", chunks=len(batch)):
                            digests = digest(batch)
                            self.cpu.hashed += batch_bytes
                        self._ingest_chunks(batch, digests)
                self._input_bytes += nbytes
                self.cpu.chunked += nbytes
                self.pipeline.windows += stream.windows
                self.pipeline.stalls += stream.stalls
                if stream.peak_buffer_bytes > self.pipeline.peak_buffer_bytes:
                    self.pipeline.peak_buffer_bytes = stream.peak_buffer_bytes
                self._observe_ram(stream.peak_buffer_bytes)
                with tel.span("end_file"):
                    self._end_file()
                self._ctx = None
                self._input_files += 1
                if observer is not None:
                    observer.end_file(file)
        except BaseException:
            self._abort_file()
            raise
        if tel.enabled:
            reg = tel.registry
            reg.counter("ingest.files").inc()
            reg.counter("ingest.bytes").inc(nbytes)
            reg.counter("ingest.batches").inc(batches)
            reg.gauge("ram.peak_bytes").set_max(self._peak_ram)
        tel.heartbeat_tick(
            self._input_files,
            self._input_bytes,
            self._unique_bytes,
            self._duplicate_bytes,
        )
        if self.verify_writes:
            with tel.span("verify", file_id=file.file_id):
                expected = file.read_bytes()
                restored = self.restore(file.file_id)
            if restored != expected:
                raise RuntimeError(
                    f"write verification failed for {file.file_id!r}: "
                    f"restored {len(restored)} bytes != input {len(expected)}"
                )

    def _file_batches(
        self, file: BackupFile, stream: StreamStats
    ) -> Iterator[list[Chunk]]:
        """Chunk-batch iterator feeding :meth:`_ingest_chunks`.

        In-memory files go through the degenerate one-big-window path
        (no copy, no carry bookkeeping); source-backed files stream
        through :meth:`Chunker.chunk_stream` in bounded memory.  Both
        paths produce identical cut points, and every algorithm's batch
        hooks are batch-boundary invariant, so the two are
        decision-identical.
        """
        if file.data is not None:
            yield from self._memory_batches(file.data, self._stream_chunker().chunk, stream)
            return
        self.pipeline.streamed_files += 1
        with file.open() as reader:
            yield from self._stream_chunker().chunk_stream(
                reader, self.stream_window_bytes, stream
            )

    @staticmethod
    def _memory_batches(
        data: bytes, cut: Callable[[bytes], list[Chunk]], stream: StreamStats
    ) -> Iterator[list[Chunk]]:
        """In-memory ``data`` as one window: the single batch ``cut(data)``."""
        if data:
            stream.windows += 1
            if len(data) > stream.peak_buffer_bytes:
                stream.peak_buffer_bytes = len(data)
            batch = cut(data)
            if stream.size_hist is not None:
                stream.size_hist.observe_many(c.size for c in batch)
            yield batch

    def _stream_chunker(self) -> Chunker:
        """The chunker that defines this algorithm's primary stream.

        Defaults to the conventional ``self.chunker`` attribute; the
        bimodal-family algorithms override to chunk at the big
        granularity (small chunks are derived per big chunk).
        """
        try:
            return self.chunker
        except AttributeError:
            raise NotImplementedError(
                f"{type(self).__name__} must define self.chunker or override "
                "_stream_chunker()"
            ) from None

    # ---- per-file hooks implemented by the algorithms -------------------

    def _begin_file(self, file: BackupFile) -> None:
        """Open per-file state (manifest, container writer, ...)."""

    @abstractmethod
    def _ingest_chunks(self, batch: list[Chunk], digests: list[Digest]) -> None:
        """Process one batch of stream chunks (absolute offsets) and
        their SHA-1 digests, already charged to ``cpu.hashed``.

        Implementations must be batch-boundary invariant: splitting the
        same chunk sequence into different batches must not change any
        decision, so whole-bytes and streamed ingest stay identical.
        """

    def _end_file(self) -> None:
        """Flush per-file state; the file's chunk stream is complete."""

    def _abort_file(self) -> None:
        """Drop the in-RAM state of a file whose ingest raised."""
        self.chunks.discard_open()
        ctx, self._ctx = self._ctx, None
        if ctx is not None:
            ctx.abort()

    def _hook_manifest(self, digest: Digest) -> Digest | None:
        """Manifest address of ``digest``'s on-disk Hook, Bloom-gated.

        The hook source :meth:`ManifestCache.locate` consults on a cache
        miss; SI-MHD answers from its RAM index instead.
        """
        if self.bloom is not None and digest not in self.bloom:
            return None
        return self.hooks.lookup(digest)  # None: Bloom false positive

    def process(self, files: Iterable[BackupFile]) -> DedupStats:
        """Ingest a whole corpus and finalize."""
        for f in files:
            self.ingest(f)
        return self.finalize()

    def finalize(self) -> DedupStats:
        """Flush algorithm state and assemble the run statistics."""
        if not self._finalized:
            self._flush()
            self._finalized = True
            stats = self._stats()
            logger.info(
                "%s finalized: %d files, %.1f MB in, %.1f MB stored, "
                "real DER %.3f, metadata %.2f%%",
                self.name,
                stats.input_files,
                stats.input_bytes / 1e6,
                stats.stored_chunk_bytes / 1e6,
                stats.real_der,
                stats.metadata_ratio * 100,
            )
            return stats
        return self._stats()

    def snapshot_stats(self) -> DedupStats:
        """Point-in-time statistics without finalizing the run.

        Mid-run numbers: open containers and dirty cached manifests are
        not yet on the backend, so stored/metadata byte counts lag the
        logical state slightly; the final word is :meth:`finalize`.
        """
        return self._stats()

    def _flush(self) -> None:
        """Subclass hook: write back caches / close open containers."""

    # ---- accounting helpers used by subclasses --------------------------

    def _count_unique(self, nbytes: int) -> None:
        """Record one unique (newly stored) chunk of ``nbytes``."""
        self._unique_chunks += 1
        self._unique_bytes += nbytes
        self._in_dup_run = False

    def _count_unique_many(self, count: int, nbytes: int) -> None:
        """Record ``count`` unique chunks totalling ``nbytes`` at once
        (an SHM flush group resolves a whole buffer of survivors)."""
        self._unique_chunks += count
        self._unique_bytes += nbytes
        self._in_dup_run = False

    def _count_duplicate(self, nbytes: int, run_continues: bool = False) -> None:
        """Record a duplicate chunk; a new run opens a duplicate slice.

        ``run_continues=True`` asserts the chunk extends the slice that
        is already open — match-extension paths (BME/FME/HHR) use it so
        the extension can never be miscounted as a fresh slice, however
        the caller interleaves unique flushes.
        """
        self._duplicate_chunks += 1
        self._duplicate_bytes += nbytes
        if not run_continues and not self._in_dup_run:
            self._duplicate_slices += 1
        self._in_dup_run = True

    def _count_duplicate_many(self, count: int, nbytes: int) -> None:
        """Record ``count`` duplicate chunks totalling ``nbytes`` that
        extend the open slice (match extension claims a run at once),
        as ``count`` calls of ``_count_duplicate(run_continues=True)``."""
        if count:
            self._duplicate_chunks += count
            self._duplicate_bytes += nbytes
            self._in_dup_run = True

    def _break_dup_run(self) -> None:
        self._in_dup_run = False

    def _observe_ram(self, current_bytes: int) -> None:
        """Track the peak of the algorithm's in-memory structures."""
        total = current_bytes + (self.bloom.size_bytes if self.bloom else 0)
        if total > self._peak_ram:
            self._peak_ram = total

    def extra_index_bytes(self) -> int:
        """Algorithm-private persistent metadata (e.g. the sparse index)."""
        return 0

    # ---- verification ----------------------------------------------------

    def restore(self, file_id: str) -> bytes:
        """Reconstruct a file byte-for-byte (the dedup invariant)."""
        return b"".join(self.iter_restore(file_id))

    def iter_restore(self, file_id: str) -> Iterator[bytes]:
        """The file's bytes in order, in bounded pieces (streaming restore)."""
        return self.file_manifests.get(file_id).iter_restore(self.chunks)

    def warm_start(self) -> int:
        """Rebuild in-memory indexes from an existing store.

        A deduplicator object starts empty; when pointed at a backend
        that already holds a store (e.g. a ``DirectoryBackend`` from a
        previous process), the on-disk Hooks are re-registered with the
        in-memory front end (the Bloom filter here; subclasses extend
        this for their own RAM indexes) so new ingests deduplicate
        against the existing data.  Returns the number of hooks
        re-registered.

        This mirrors real systems' startup path: the Bloom filter is
        reconstructed by scanning the hook directory once.
        """
        hooks = self.store.ids(DiskModel.HOOK)
        if self.bloom is not None:
            for digest in hooks:
                self.bloom.add(digest)
        return len(hooks)

    def verify_integrity(self, check_entry_hashes: bool = False) -> IntegrityReport:
        """Full-store fsck (see :func:`repro.storage.verify.verify_store`).

        Only meaningful after :meth:`finalize` — open containers and
        cached dirty manifests are not yet on the backend.
        """
        if not self._finalized:
            raise RuntimeError("verify_integrity requires a finalized run")
        return verify_store(self.store, check_entry_hashes=check_entry_hashes)

    # ---- statistics -------------------------------------------------------

    def _stats(self) -> DedupStats:
        chunk, manifest, hook, file_manifest = map(self.store.usage, KINDS)
        return DedupStats(
            algorithm=self.name,
            config=self.config,
            input_bytes=self._input_bytes,
            input_files=self._input_files,
            stored_chunk_bytes=chunk.nbytes,
            manifest_bytes=manifest.nbytes,
            hook_bytes=hook.nbytes,
            file_manifest_bytes=file_manifest.nbytes,
            chunk_inodes=chunk.objects,
            manifest_inodes=manifest.objects,
            hook_inodes=hook.objects,
            file_manifest_inodes=file_manifest.objects,
            unique_chunks=self._unique_chunks,
            duplicate_chunks=self._duplicate_chunks,
            duplicate_slices=self._duplicate_slices,
            io=self.meter.snapshot(),
            cpu=self.cpu,
            peak_ram_bytes=self._peak_ram,
            extra_index_bytes=self.extra_index_bytes(),
            unique_bytes=self._unique_bytes,
            duplicate_bytes=self._duplicate_bytes,
            pipeline=self.pipeline,
        )
