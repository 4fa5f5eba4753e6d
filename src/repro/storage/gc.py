"""Garbage collection — retention and space reclamation.

The paper's pipeline only ever adds data; a production backup store
also *expires* old generations.  Deletion under deduplication is
subtle: a DiskChunk container may hold bytes referenced by many other
files, so space only returns when **no** FileManifest references any
byte of the container.  This module implements the classic two-step:

1. :func:`delete_file` — drop a FileManifest (the only per-file
   object; chunk data is shared and cannot be touched here).
2. :func:`sweep` — mark-and-sweep over the whole store: walk every
   surviving FileManifest, collect the referenced container set,
   delete the unreferenced containers, then run crash recovery's
   :func:`~repro.storage.recover.repair` loop with deletion in place
   of quarantine.  That removes the now-useless metadata: manifests
   whose containers are all gone, the dead entries of multi-container
   manifests, hooks into either.

A swept store passes :func:`repro.storage.verify.verify_store` (the
loop's exit condition) and restores every surviving file
byte-identically (tested).  Anything fsck already rejected before the
sweep is deleted too: run :func:`~repro.storage.recover.recover` first
to keep damaged objects for inspection.

Container granularity means space reclamation is *coarse*: one
surviving reference pins a whole container (real systems defragment
with container rewriting, which would break the paper's write-once
DiskChunk rule, so we deliberately stop at the paper-compatible
design and expose the pinned-bytes figure instead).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hashing.digest import Digest
from .backend import StorageBackend
from .disk_model import DiskModel
from .file_manifest import FileManifestStore
from .recover import repair
from .store import Store, as_store

__all__ = ["GCReport", "delete_file", "sweep"]


@dataclass(frozen=True)
class GCReport:
    """Outcome of one sweep."""

    containers_deleted: int
    containers_kept: int
    bytes_reclaimed: int
    bytes_pinned: int  # unreferenced bytes stuck in partially-used containers
    manifests_deleted: int
    hooks_deleted: int

    def summary(self) -> str:
        """One-line human-readable sweep outcome."""
        return (
            f"gc: reclaimed {self.bytes_reclaimed:,} B in "
            f"{self.containers_deleted} containers "
            f"({self.manifests_deleted} manifests, {self.hooks_deleted} hooks); "
            f"{self.bytes_pinned:,} B pinned in {self.containers_kept} live containers"
        )


def delete_file(store: Store | StorageBackend, file_id: str) -> bool:
    """Drop one file's recipe; returns whether it existed.

    Chunk data is shared, so nothing else is touched — run
    :func:`sweep` afterwards to reclaim space.
    """
    return as_store(store).remove(DiskModel.FILE_MANIFEST, FileManifestStore.key_for(file_id))


def _union_bytes(spans: list[tuple[int, int]]) -> int:
    """Total bytes covered by the union of ``[start, end)`` intervals."""
    spans.sort()
    total = 0
    cur_start, cur_end = spans[0]
    for start, end in spans[1:]:
        if start > cur_end:
            total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    return total + (cur_end - cur_start)


def _referenced_extents(store: Store) -> dict[Digest, int]:
    """Container → *distinct* referenced bytes over all FileManifests.

    Many files can reference the same container extent (that is the
    whole point of deduplication), so referenced bytes are the union of
    the extent intervals, not their sum — summing per reference would
    overcount shared containers past their physical size and make the
    pinned-bytes figure meaningless.
    """
    spans: dict[Digest, list[tuple[int, int]]] = {}
    for fm in store.file_manifests.manifests():
        for e in fm.extents:
            spans.setdefault(e.container_id, []).append((e.offset, e.offset + e.size))
    return {cid: _union_bytes(sp) for cid, sp in spans.items()}


def sweep(store: Store | StorageBackend) -> GCReport:
    """Mark-and-sweep unreferenced containers and their metadata, reading
    and deleting through the :class:`Store` (a new one over a plain backend)."""
    store = as_store(store)
    referenced = _referenced_extents(store)

    containers_deleted = bytes_reclaimed = 0
    containers_kept = bytes_pinned = 0
    for cid in store.ids(DiskModel.CHUNK):
        size = store.chunks.size(cid)
        if cid in referenced:
            containers_kept += 1
            # referenced[cid] is a union of in-bounds extents, so it can
            # only exceed the container size on a corrupt store (extents
            # past the end); clamp defensively rather than go negative.
            bytes_pinned += max(0, size - referenced[cid])
            continue
        store.remove(DiskModel.CHUNK, cid)
        containers_deleted += 1
        bytes_reclaimed += size

    # Whatever the deletions above orphaned is now invalid by fsck's
    # rules; dispose of it the way recovery does, deleting outright.
    _, disposed = repair(store, store.remove)

    return GCReport(
        containers_deleted=containers_deleted,
        containers_kept=containers_kept,
        bytes_reclaimed=bytes_reclaimed,
        bytes_pinned=bytes_pinned,
        manifests_deleted=sum(f.kind == DiskModel.MANIFEST and not f.survivors for f in disposed),
        hooks_deleted=sum(f.kind == DiskModel.HOOK for f in disposed),
    )
