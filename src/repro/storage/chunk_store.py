"""DiskChunkStore — immutable containers of non-duplicate chunk bytes.

MHD "only merge[s] the non-duplicate chunks belonging to one file into
one DiskChunk"; SubChunk coalesces the small chunks of one big chunk
into a container.  Either way, the store's unit is an append-only
*container* that is written to disk once, sequentially, and never
modified afterwards — reads (HHR byte reloads, restores) address a
``(container, offset, size)`` extent.

Metering: one ``write`` operation is recorded when a container closes
(a buffered sequential write — matching Table II's "Chunk Output
Times" of *F* for MHD), with the container's full byte count.  Every
extent read records one ``read`` operation — HHR's reloads are the
"Chunk Input Times 2L" row — and asks the backend for exactly the
extent (``get_range``), so what the meter charges is what the backend
transfers.  A restore's extents go through one ``iter_ranges``
(:meth:`DiskChunkStore.read_many`): still one read of exactly each
extent, but a backend that can hold a file open opens each container
once per restore.  Reads that land on a still-open container are
served from its RAM buffer but metered identically, since those bytes
are conceptually already on disk.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Generator, Iterable

from ..hashing.digest import Digest
from .backend import StorageBackend, check_extent
from .disk_model import DiskModel, MeteredStore

__all__ = ["ContainerWriter", "DiskChunkStore"]


class ContainerWriter:
    """Accumulates one DiskChunk's bytes; closed exactly once."""

    def __init__(self, store: DiskChunkStore, container_id: Digest) -> None:
        self.container_id = container_id
        self._store = store
        self._buf = bytearray()
        self._closed = False

    def append(self, data: bytes | memoryview) -> int:
        """Append bytes; returns the byte offset they landed at."""
        if self._closed:
            raise RuntimeError("container already closed")
        offset = len(self._buf)
        self._buf += data
        return offset

    @property
    def size(self) -> int:
        """Bytes accumulated so far (= the next append offset)."""
        return len(self._buf)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed

    def close(self) -> None:
        """Flush to the backend; meters one sequential write."""
        if self._closed:
            return
        self._closed = True
        self._store._finalize(self)

    def _read(self, offset: int, size: int) -> bytes:
        check_extent(offset, size, len(self._buf))
        return bytes(self._buf[offset : offset + size])


class DiskChunkStore(MeteredStore):
    """Metered store of immutable DiskChunk containers."""

    def __init__(self, backend: StorageBackend, meter: DiskModel) -> None:
        super().__init__(backend, meter)
        self._open: dict[Digest, ContainerWriter] = {}

    def open_container(self, container_id: Digest) -> ContainerWriter:
        """Start a new container; readable immediately, closed once."""
        if container_id in self._open or self._backend.exists(
            DiskModel.CHUNK, container_id
        ):
            raise ValueError(f"container {container_id.hex()[:12]} already exists")
        writer = ContainerWriter(self, container_id)
        self._open[container_id] = writer
        return writer

    def discard_open(self) -> None:
        """Forget every open container unwritten (a failed ingest's)."""
        for writer in self._open.values():
            writer._closed = True
        self._open.clear()

    def _finalize(self, writer: ContainerWriter) -> None:
        data = bytes(writer._buf)
        if data:  # empty containers (fully-duplicate files) occupy nothing
            self._put(DiskModel.CHUNK, writer.container_id, data)
        del self._open[writer.container_id]

    def _charge(self, container_id: Digest, offset: int, size: int) -> ContainerWriter | None:
        """Meter one extent read; the open container holding it, if any."""
        if size < 0 or offset < 0:
            raise ValueError(f"invalid extent offset={offset} size={size}")
        self._meter.record(DiskModel.CHUNK, "read", size)
        return self._open.get(container_id)

    def read(self, container_id: Digest, offset: int, size: int) -> bytes:
        """Read an extent; one metered disk access."""
        open_writer = self._charge(container_id, offset, size)
        if open_writer is not None:
            return open_writer._read(offset, size)
        return self._backend.get_range(DiskModel.CHUNK, container_id, offset, size)

    def read_many(
        self, extents: Iterable[tuple[Digest, int, int]]
    ) -> Generator[bytes, None, None]:
        """:meth:`read` of each ``(container, offset, size)``, in order and
        lazily: one metered read per extent, each charged when its bytes
        are asked for.  The extents of closed containers go through one
        backend ``iter_ranges``, which the generator closes when it ends."""
        queued: deque[tuple[Digest, int, int]] = deque()
        from_backend: Generator[bytes, None, None] | None = None
        try:
            for container_id, offset, size in extents:
                open_writer = self._charge(container_id, offset, size)
                if open_writer is not None:
                    yield open_writer._read(offset, size)
                    continue
                if from_backend is None:
                    # iter_ranges takes one item per piece asked of it,
                    # so each extent is queued just before its piece.
                    from_backend = self._backend.iter_ranges(
                        DiskModel.CHUNK, iter(queued.popleft, None)
                    )
                queued.append((container_id, offset, size))
                yield next(from_backend)
        finally:
            if from_backend is not None:
                from_backend.close()

    def get(self, container_id: Digest) -> bytes:
        """A closed container's whole bytes; one metered read (fsck re-hashing)."""
        return self._get(DiskModel.CHUNK, container_id)

    def size(self, container_id: Digest) -> int:
        """Byte size of a container (open or closed)."""
        open_writer = self._open.get(container_id)
        if open_writer is not None:
            return open_writer.size
        return self._backend.object_size(DiskModel.CHUNK, container_id)

    def exists(self, container_id: Digest) -> bool:
        """Whether a container (open or closed) exists."""
        return container_id in self._open or self._backend.exists(
            DiskModel.CHUNK, container_id
        )
