"""FileManifests — per-file restore recipes.

A FileManifest is the ordered list of DiskChunk extents whose
concatenation reconstructs one input file.  The paper: "a new entry
will only be written into the FileManifest at the terminating point of
neighboring chunks of duplicate or non-duplicate data slices within
one file" — i.e. contiguous runs from the same DiskChunk coalesce into
a single entry, which is why BF-MHD's FileManifests are the smallest
in Fig. 7(c).

Each entry costs 36 bytes (20-byte DiskChunk address + offset + size),
and restoring a file is the correctness oracle for every deduplicator
in this repository: ``b"".join(iter_restore()) == original``
byte-for-byte.
"""

from __future__ import annotations

import struct
from collections.abc import Generator, Iterator
from dataclasses import dataclass

from ..hashing.digest import HASH_SIZE, Digest, sha1
from .chunk_store import DiskChunkStore
from .disk_model import DiskModel, MeteredStore

__all__ = [
    "FileExtent",
    "FileManifest",
    "FileManifestStore",
    "FILE_ENTRY_SIZE",
    "RESTORE_PIECE_SIZE",
    "file_object_ids",
]

#: Per-entry bytes: container address + byte offset + byte size.
FILE_ENTRY_SIZE = 36

#: Largest piece :meth:`FileManifest.iter_restore` yields.
RESTORE_PIECE_SIZE = 4 << 20

_EXTENT_STRUCT = struct.Struct(f"<{HASH_SIZE}sqq")


@dataclass(frozen=True)
class FileExtent:
    """A run of bytes inside one DiskChunk container."""

    container_id: Digest
    offset: int
    size: int

    def __post_init__(self) -> None:
        if self.size <= 0 or self.offset < 0:
            raise ValueError(f"invalid extent offset={self.offset} size={self.size}")


class FileManifest:
    """Ordered extents reconstructing one file."""

    def __init__(
        self, file_id: str, extents: list[FileExtent] | None = None
    ) -> None:
        self.file_id = file_id
        self.extents: list[FileExtent] = list(extents or [])

    def append(self, container_id: Digest, offset: int, size: int) -> None:
        """Add an extent, coalescing with the previous one when adjacent.

        Coalescing is the paper's entry-writing rule: a new entry only
        terminates when the data stops being contiguous in the source
        DiskChunk.
        """
        if self.extents:
            last = self.extents[-1]
            if last.container_id == container_id and last.offset + last.size == offset:
                self.extents[-1] = FileExtent(container_id, last.offset, last.size + size)
                return
        self.extents.append(FileExtent(container_id, offset, size))

    @property
    def total_size(self) -> int:
        """Size of the file this manifest reconstructs."""
        return sum(e.size for e in self.extents)

    def byte_size(self) -> int:
        """Serialized size: 36 bytes per extent plus the name header."""
        return len(self.to_bytes())

    def iter_restore(self, chunks: DiskChunkStore) -> Generator[bytes, None, None]:
        """The file's bytes in order, in pieces of at most :data:`RESTORE_PIECE_SIZE`.

        The one place extents become bytes: one read per extent of at
        most a piece, so RAM is bounded by one piece however large the
        file or its extents.  The reads go through one
        :meth:`DiskChunkStore.read_many`, so each container is opened
        once per restore.  Every restore in the library, the service
        and the cluster is a stream over this, or a join of one.
        """
        return chunks.read_many(
            (e.container_id, e.offset + done, min(RESTORE_PIECE_SIZE, e.size - done))
            for e in self.extents
            for done in range(0, e.size, RESTORE_PIECE_SIZE)
        )

    def to_bytes(self) -> bytes:
        """Serialise (36 B per extent plus the name header)."""
        name = self.file_id.encode()
        parts = [struct.pack("<HI", len(name), len(self.extents)), name]
        for e in self.extents:
            parts.append(_EXTENT_STRUCT.pack(e.container_id, e.offset, e.size))
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, raw: bytes) -> FileManifest:
        name_len, count = struct.unpack_from("<HI", raw, 0)
        off = 6
        name = raw[off : off + name_len].decode()
        off += name_len
        extents: list[FileExtent] = []
        for _ in range(count):
            cid, e_off, e_size = _EXTENT_STRUCT.unpack_from(raw, off)
            extents.append(FileExtent(Digest(cid), e_off, e_size))
            off += _EXTENT_STRUCT.size
        return cls(name, extents)


def file_object_ids(file_id: str) -> tuple[Digest, Digest]:
    """``(container id, manifest id)`` of the first ingest of ``file_id``;
    :meth:`Store.allocate_id <repro.storage.store.Store.allocate_id>` names
    the objects of a later ingest of the name."""
    fid = file_id.encode()
    return sha1(fid), sha1(fid + b"|manifest")


class FileManifestStore(MeteredStore):
    """Metered persistence for FileManifests, keyed by file id."""

    @staticmethod
    def key_for(file_id: str) -> Digest:
        """Backend key for a file id (its SHA-1)."""
        return sha1(file_id.encode())

    def put(self, fm: FileManifest) -> None:
        """Persist a file manifest (metered write)."""
        self._put(DiskModel.FILE_MANIFEST, self.key_for(fm.file_id), fm.to_bytes())

    def get(self, file_id: str) -> FileManifest:
        """Load a file manifest by id (metered read)."""
        return self.load(self.key_for(file_id))

    def load(self, key: Digest) -> FileManifest:
        """Load the file manifest stored under ``key`` (metered read);
        a malformed payload raises its parse error."""
        return FileManifest.from_bytes(self._get(DiskModel.FILE_MANIFEST, key))

    def exists(self, file_id: str) -> bool:
        """Whether ``file_id`` has a stored file manifest (not metered)."""
        return self._backend.exists(DiskModel.FILE_MANIFEST, self.key_for(file_id))

    def list_ids(self) -> list[str]:
        """All stored file ids, sorted: keys are digests of the ids, so the
        names come from reading every manifest (metered)."""
        return sorted(fm.file_id for fm in self.manifests())

    def manifests(self) -> Iterator[FileManifest]:
        """Every stored file manifest, in no particular order (metered reads)."""
        for key in self._backend.keys(DiskModel.FILE_MANIFEST):
            yield self.load(Digest(key))
