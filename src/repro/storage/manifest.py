"""Manifests — the per-DiskChunk metadata the whole paper is about.

A *Manifest* (the paper's DiskChunkManifest) is a sequence of hash
entries describing the data blocks inside one DiskChunk.  Each entry
records the SHA-1 of a block, the block's byte offset and size within
the DiskChunk, and — in MHD only — a one-byte *Hook flag* marking
entries whose hash also exists as an on-disk Hook file.

The paper's metadata budget (Section IV): 36 bytes per entry (20-byte
hash + start position + size), plus one flag byte in MHD, i.e. the
``74N/SD`` term of Table I comes from ``2N/SD`` entries × 37 bytes.
Serialisation here produces exactly those per-entry sizes so that
``backend.bytes_stored("manifest")`` *is* the paper's Manifest byte
count (plus a fixed 44-byte header per manifest file).

Manifests are the only mutable metadata: HHR replaces one merged entry
with up to three new entries (see :mod:`repro.core.hhr`), after which
the manifest is dirty and must be written back — a metered disk write.

The baselines' multi-container manifests
(:mod:`repro.storage.multi_manifest`) share the ``manifest`` namespace:
one :class:`ManifestStore` persists both kinds and tells them apart on
load (:func:`load_manifest`).
"""

from __future__ import annotations

import contextlib
import struct
from bisect import insort
from dataclasses import dataclass, replace

from ..hashing.digest import HASH_SIZE, Digest
from .disk_model import DiskModel, MeteredStore
from .multi_manifest import MultiManifest

__all__ = [
    "ManifestEntry",
    "Manifest",
    "ManifestStore",
    "load_manifest",
    "ENTRY_SIZE",
    "MHD_ENTRY_SIZE",
    "MANIFEST_HEADER_SIZE",
]

#: Per-entry bytes in the non-MHD algorithms (hash + offset + size).
ENTRY_SIZE = 36
#: Per-entry bytes in MHD (adds the one-byte Hook flag).
MHD_ENTRY_SIZE = 37
#: Fixed per-manifest-file header: manifest id + DiskChunk id + count.
MANIFEST_HEADER_SIZE = HASH_SIZE * 2 + 4

_ENTRY_STRUCT = struct.Struct(f"<{HASH_SIZE}sqqB")  # 37 B: MHD entries
_ENTRY_STRUCT_NOFLAG = struct.Struct(f"<{HASH_SIZE}sqq")  # 36 B: baselines


@dataclass(frozen=True)
class ManifestEntry:
    """One hash entry covering ``[offset, offset+size)`` of a DiskChunk."""

    digest: Digest
    offset: int
    size: int
    is_hook: bool = False

    def __post_init__(self) -> None:
        if len(self.digest) != HASH_SIZE:
            raise ValueError(f"digest must be {HASH_SIZE} bytes")
        if self.size <= 0 or self.offset < 0:
            raise ValueError(f"invalid extent offset={self.offset} size={self.size}")

    @property
    def end(self) -> int:
        """Exclusive end offset within the DiskChunk."""
        return self.offset + self.size

    def with_hook(self, is_hook: bool) -> ManifestEntry:
        """Copy of this entry with the Hook flag set as given."""
        return replace(self, is_hook=is_hook)


class Manifest:
    """Mutable in-RAM manifest, organised as a hash table.

    The paper: "The cache contains a number of Manifests, each of
    which is organized as a hash table" — :meth:`find` is an O(1)
    digest lookup; positional access supports match extension over
    neighbouring entries.
    """

    def __init__(
        self,
        manifest_id: Digest,
        chunk_id: Digest,
        entries: list[ManifestEntry] | None = None,
        entry_size: int = MHD_ENTRY_SIZE,
    ) -> None:
        if entry_size not in (ENTRY_SIZE, MHD_ENTRY_SIZE):
            raise ValueError(f"entry_size must be 36 or 37, got {entry_size}")
        self.manifest_id = manifest_id
        self.chunk_id = chunk_id
        self.entries: list[ManifestEntry] = list(entries or [])
        self.entry_size = entry_size
        self.dirty = False
        self._index: dict[Digest, list[int]] | None = None

    # -- hash-table behaviour -------------------------------------------

    def _build_index(self) -> dict[Digest, list[int]]:
        idx: dict[Digest, list[int]] = {}
        for i, e in enumerate(self.entries):
            idx.setdefault(e.digest, []).append(i)
        return idx

    @property
    def index(self) -> dict[Digest, list[int]]:
        """Digest -> entry positions (the manifest's hash table)."""
        if self._index is None:
            self._index = self._build_index()
        return self._index

    def find(self, digest: Digest) -> int | None:
        """Index of the first entry with this digest, or ``None``."""
        hits = self.index.get(digest)
        return hits[0] if hits else None

    def __contains__(self, digest: Digest) -> bool:
        return digest in self.index

    def __len__(self) -> int:
        return len(self.entries)

    # -- mutation (appends during build, splits during HHR) -------------

    def append(self, entry: ManifestEntry) -> None:
        """Add an entry (build-time only; marks the manifest dirty)."""
        self.entries.append(entry)
        if self._index is not None:
            self._index.setdefault(entry.digest, []).append(len(self.entries) - 1)
        self.dirty = True

    def replace_entry(self, i: int, replacements: list[ManifestEntry]) -> None:
        """HHR: substitute entry ``i`` with ``replacements``.

        The replacements must exactly tile the replaced entry's byte
        extent — DiskChunk bytes are immutable, only their *description*
        changes.
        """
        old = self.entries[i]
        if not replacements:
            raise ValueError("replacements must be non-empty")
        if replacements[0].offset != old.offset or replacements[-1].end != old.end:
            raise ValueError(
                f"replacements [{replacements[0].offset}, {replacements[-1].end}) "
                f"must tile the old extent [{old.offset}, {old.end})"
            )
        for a, b in zip(replacements, replacements[1:], strict=False):
            if a.end != b.offset:
                raise ValueError("replacements must be contiguous")
        self.entries[i : i + 1] = replacements
        index = self._index
        if index is not None:
            # Update the hash table in place: drop position i, shift the
            # positions after it, then file the replacements in order.
            positions = index[old.digest]
            positions.remove(i)
            if not positions:
                del index[old.digest]
            shift = len(replacements) - 1
            if shift:
                entries = self.entries
                # Last first, so each old position is still unique in its list.
                for p in range(len(entries) - 1, i + shift, -1):
                    positions = index[entries[p].digest]
                    positions[positions.index(p - shift)] = p
            for k, e in enumerate(replacements, i):
                insort(index.setdefault(e.digest, []), k)
        self.dirty = True

    # -- invariants and sizes --------------------------------------------

    def hook_count(self) -> int:
        """Number of Hook-flagged entries."""
        return sum(1 for e in self.entries if e.is_hook)

    def byte_size(self) -> int:
        """Serialized size (header + entries at this manifest's cost)."""
        return MANIFEST_HEADER_SIZE + len(self.entries) * self.entry_size

    def ram_size(self) -> int:
        """Bytes this manifest occupies when cached in RAM (Table IV)."""
        return self.byte_size()

    def validate_tiling(self, total_size: int | None = None) -> None:
        """Entries must cover the DiskChunk contiguously from offset 0."""
        pos = 0
        for e in self.entries:
            if e.offset != pos:
                raise AssertionError(
                    f"entry at offset {e.offset} does not start at expected {pos}"
                )
            pos = e.end
        if total_size is not None and pos != total_size:
            raise AssertionError(f"entries cover {pos} bytes, DiskChunk has {total_size}")

    # -- serialisation ----------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialise at this manifest's per-entry cost (36/37 B)."""
        parts = [
            self.manifest_id,
            self.chunk_id,
            struct.pack("<I", len(self.entries)),
        ]
        if self.entry_size == MHD_ENTRY_SIZE:
            for e in self.entries:
                parts.append(_ENTRY_STRUCT.pack(e.digest, e.offset, e.size, e.is_hook))
        else:
            for e in self.entries:
                parts.append(_ENTRY_STRUCT_NOFLAG.pack(e.digest, e.offset, e.size))
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, raw: bytes) -> Manifest:
        mid = Digest(raw[:HASH_SIZE])
        cid = Digest(raw[HASH_SIZE : 2 * HASH_SIZE])
        (count,) = struct.unpack_from("<I", raw, 2 * HASH_SIZE)
        body = len(raw) - MANIFEST_HEADER_SIZE
        entry_size = body // count if count else MHD_ENTRY_SIZE
        entries: list[ManifestEntry] = []
        off = MANIFEST_HEADER_SIZE
        if entry_size == MHD_ENTRY_SIZE:
            for _ in range(count):
                digest, offset, size, flag = _ENTRY_STRUCT.unpack_from(raw, off)
                entries.append(
                    ManifestEntry(Digest(digest), offset, size, bool(flag))
                )
                off += _ENTRY_STRUCT.size
        else:
            for _ in range(count):
                digest, offset, size = _ENTRY_STRUCT_NOFLAG.unpack_from(raw, off)
                entries.append(ManifestEntry(Digest(digest), offset, size))
                off += _ENTRY_STRUCT_NOFLAG.size
        return cls(mid, cid, entries, entry_size=entry_size)


def _is_manifest_shaped(raw: bytes) -> bool:
    """Whether ``raw`` has the shape of a :class:`Manifest`'s serialisation:
    a header and its ``count`` entries of 36 bytes, or of 37 whose Hook
    flag bytes are each 0 or 1 — exactly the payloads that a parse
    re-serialises to unchanged."""
    if len(raw) < MANIFEST_HEADER_SIZE:
        return False
    (count,) = struct.unpack_from("<I", raw, 2 * HASH_SIZE)
    body = len(raw) - MANIFEST_HEADER_SIZE
    if body == ENTRY_SIZE * count:
        return True
    if body != MHD_ENTRY_SIZE * count:
        return False
    flags = raw[MANIFEST_HEADER_SIZE + ENTRY_SIZE :: MHD_ENTRY_SIZE]
    return not flags.translate(None, b"\0\1")


def load_manifest(raw: bytes) -> Manifest | MultiManifest:
    """A stored manifest of either kind: a :class:`Manifest` if the payload
    has a Manifest's shape and parses as one, else a :class:`MultiManifest`
    (whose parse errors, ``ValueError`` / ``struct.error``, propagate)."""
    if _is_manifest_shaped(raw):
        with contextlib.suppress(ValueError, struct.error):
            return Manifest.from_bytes(raw)
    return MultiManifest.from_bytes(raw)


class ManifestStore(MeteredStore):
    """Metered, hash-addressed persistence for manifests of either kind."""

    def put(self, manifest: Manifest | MultiManifest) -> None:
        """Persist a manifest (metered write; clears the dirty flag)."""
        self._put(DiskModel.MANIFEST, manifest.manifest_id, manifest.to_bytes())
        manifest.dirty = False

    def get(self, manifest_id: Digest) -> Manifest | MultiManifest:
        """Load a manifest from disk (metered read; :func:`load_manifest`)."""
        return load_manifest(self._get(DiskModel.MANIFEST, manifest_id))

    def exists(self, manifest_id: Digest) -> bool:
        """Whether a manifest is on disk (not metered)."""
        return self._backend.exists(DiskModel.MANIFEST, manifest_id)
