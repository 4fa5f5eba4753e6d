"""Multi-container manifests for the SubChunk and SparseIndexing baselines.

Unlike MHD's per-DiskChunk manifest, SubChunk manifests map small
chunks to *container* chunks ("the entries for the small chunks
belonging to the same DiskChunk in the Manifests need to share 28
bytes to indicate the address and the number of the chunks contained
in the same DiskChunk") and SparseIndexing manifests record every
chunk of a segment — duplicates included — wherever its bytes live.

Serialisation matches the paper's cost model: consecutive entries that
reference the same container form a *group* with a 28-byte header
(20-byte container address + 4-byte count + 4 reserved), followed by
36 bytes per entry (20-byte digest + offset + size packed into 16).

The class mirrors enough of :class:`repro.storage.manifest.Manifest`'s
interface (``manifest_id``, ``dirty``, ``index``/``find``,
``ram_size``, ``to_bytes``/``from_bytes``) that the shared
:class:`repro.core.manifest_cache.ManifestCache` can hold either kind
and :class:`repro.storage.manifest.ManifestStore` can persist either.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from ..hashing.digest import HASH_SIZE, Digest

__all__ = ["MultiEntry", "MultiManifest", "GROUP_HEADER_SIZE"]

#: Per-container-group bytes (the paper's shared 28 bytes in SubChunk).
GROUP_HEADER_SIZE = 28

_GROUP_STRUCT = struct.Struct(f"<{HASH_SIZE}sII")
_ENTRY_STRUCT = struct.Struct(f"<{HASH_SIZE}sqq")  # 36 bytes
_HEADER_STRUCT = struct.Struct(f"<{HASH_SIZE}sI")  # manifest id + group count


@dataclass(frozen=True)
class MultiEntry:
    """One chunk record: digest + the extent holding its bytes."""

    digest: Digest
    container_id: Digest
    offset: int
    size: int

    def __post_init__(self) -> None:
        if len(self.digest) != HASH_SIZE or len(self.container_id) != HASH_SIZE:
            raise ValueError(f"digest and container_id must be {HASH_SIZE} bytes")
        if self.size <= 0 or self.offset < 0:
            raise ValueError(f"invalid extent offset={self.offset} size={self.size}")


class MultiManifest:
    """Ordered chunk records spanning one or more containers."""

    def __init__(
        self, manifest_id: Digest, entries: list[MultiEntry] | None = None
    ) -> None:
        self.manifest_id = manifest_id
        self.entries: list[MultiEntry] = list(entries or [])
        self.dirty = False
        self._index: dict[Digest, int] | None = None

    def append(self, entry: MultiEntry) -> None:
        """Add a chunk record (marks the manifest dirty)."""
        self.entries.append(entry)
        if self._index is not None:
            self._index.setdefault(entry.digest, len(self.entries) - 1)
        self.dirty = True

    @property
    def index(self) -> dict[Digest, int]:
        """Digest -> first entry position (the hash table)."""
        if self._index is None:
            idx: dict[Digest, int] = {}
            for i, e in enumerate(self.entries):
                idx.setdefault(e.digest, i)
            self._index = idx
        return self._index

    def find(self, digest: Digest) -> int | None:
        """Position of the first entry with this digest, or ``None``."""
        return self.index.get(digest)

    def __contains__(self, digest: Digest) -> bool:
        return digest in self.index

    def __len__(self) -> int:
        return len(self.entries)

    def groups(self) -> list[tuple[Digest, int]]:
        """Consecutive same-container runs as ``(container, count)``."""
        out: list[tuple[Digest, int]] = []
        for e in self.entries:
            if out and out[-1][0] == e.container_id:
                out[-1] = (e.container_id, out[-1][1] + 1)
            else:
                out.append((e.container_id, 1))
        return out

    def byte_size(self) -> int:
        """Header + 28 B per container group + 36 B per entry."""
        return (
            _HEADER_STRUCT.size
            + GROUP_HEADER_SIZE * len(self.groups())
            + 36 * len(self.entries)
        )

    def ram_size(self) -> int:
        """RAM footprint when cached (= serialized size)."""
        return self.byte_size()

    def to_bytes(self) -> bytes:
        """Serialise with per-group 28 B headers + 36 B entries."""
        groups = self.groups()
        parts = [_HEADER_STRUCT.pack(self.manifest_id, len(groups))]
        i = 0
        for container_id, count in groups:
            parts.append(_GROUP_STRUCT.pack(container_id, count, 0))
            for e in self.entries[i : i + count]:
                parts.append(_ENTRY_STRUCT.pack(e.digest, e.offset, e.size))
            i += count
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, raw: bytes) -> MultiManifest:
        mid, group_count = _HEADER_STRUCT.unpack_from(raw, 0)
        off = _HEADER_STRUCT.size
        entries: list[MultiEntry] = []
        for _ in range(group_count):
            container_id, count, _pad = _GROUP_STRUCT.unpack_from(raw, off)
            off += _GROUP_STRUCT.size
            for _ in range(count):
                digest, e_off, e_size = _ENTRY_STRUCT.unpack_from(raw, off)
                entries.append(
                    MultiEntry(Digest(digest), Digest(container_id), e_off, e_size)
                )
                off += _ENTRY_STRUCT.size
        return cls(Digest(mid), entries)
