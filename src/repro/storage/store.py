"""The store: every persisted object of one deduplicated store.

The paper's store (Fig. 2/3) holds four object kinds — DiskChunks,
Manifests, Hooks and FileManifests — and Table II counts the disk
accesses to exactly those.  A :class:`Store` owns the
:class:`DiskModel` meter and one metered store per kind (plus the
cluster's recipes and membership); ingest, restore, fsck, recovery and
GC all go through one, so its meter sees every put, get and delete of
a store object.  No other code calls a backend object method on a
store namespace (dedupcheck DDC008).  Listings, sizes and ``exists``
probes are not metered: they are not the paper's disk accesses.
"""

from __future__ import annotations

from typing import NamedTuple

from ..hashing.digest import Digest, sha1
from .backend import StorageBackend
from .chunk_store import DiskChunkStore
from .cluster_recipe import ClusterRecipeStore
from .disk_model import DiskModel
from .file_manifest import FileManifestStore
from .hooks import HookStore
from .manifest import ManifestStore

__all__ = ["KINDS", "QUARANTINE_PREFIX", "Store", "Usage", "as_store"]

#: The paper's four object kinds, in the order stats tables list them.
KINDS = (DiskModel.CHUNK, DiskModel.MANIFEST, DiskModel.HOOK, DiskModel.FILE_MANIFEST)

#: Namespace prefix of quarantined objects: never a live namespace, so
#: invisible to verify/GC/restore walks.
QUARANTINE_PREFIX = "quarantine."


class Usage(NamedTuple):
    """What one kind occupies: objects and payload bytes.

    Objects are names; the paper charges ``INODE_SIZE`` per object.  A
    ``DirectoryBackend`` gives a manifest's hooks one physical inode
    between them (``StorageBackend.put_like``), which no count here sees.
    """

    objects: int
    nbytes: int


class Store:
    """One meter and one metered store per object kind, over one backend."""

    def __init__(self, backend: StorageBackend) -> None:
        self.backend = backend
        self.meter = DiskModel()
        self.chunks = DiskChunkStore(backend, self.meter)
        self.manifests = ManifestStore(backend, self.meter)
        self.hooks = HookStore(backend, self.meter)
        self.file_manifests = FileManifestStore(backend, self.meter)
        self.recipes = ClusterRecipeStore(backend, self.meter)

    def usage(self, kind: str) -> Usage:
        """Objects and payload bytes of ``kind``, as the backend lists them now."""
        return Usage(self.backend.object_count(kind), self.backend.bytes_stored(kind))

    def ids(self, kind: str) -> list[Digest]:
        """Every key of ``kind``, in backend order (one listing)."""
        return [Digest(key) for key in self.backend.keys(kind)]

    def allocate_id(self, first: Digest, *kinds: str) -> Digest:
        """The id a new object gets: ``first``, or its first free successor.

        DiskChunks are write-once and a Manifest belongs to its
        DiskChunk, so an id the store holds is spent.  ``first`` is
        derived from the object's name (``file_object_ids``, a segment
        or bin label); if taken, the answer is the first of
        ``sha1(first + b"~1")``, ``sha1(first + b"~2")``, … naming
        nothing in any of ``kinds``, learnt with ``exists`` probes only.
        """
        tried, attempt = first, 0
        while any(self.backend.exists(kind, tried) for kind in kinds):
            attempt += 1
            tried = sha1(first + b"~%d" % attempt)
        return tried

    def remove(self, kind: str, key: Digest) -> bool:
        """Remove one object (a metered delete); whether it existed."""
        existed = self.backend.delete(kind, key)
        self.meter.record(kind, "delete", 0)
        return existed

    def quarantine(self, kind: str, key: Digest) -> Digest:
        """Move one object under ``quarantine.<kind>``; its key there:
        ``key``, or its first free successor (:meth:`allocate_id`) if an
        earlier quarantine holds it — ids are reused once an object
        leaves, and a later recovery must keep the earlier evidence."""
        raw = self.backend.get(kind, key)
        self.meter.record(kind, "read", len(raw))
        shadow = QUARANTINE_PREFIX + kind
        shadow_key = self.allocate_id(key, shadow)
        self.backend.put(shadow, shadow_key, raw)
        self.meter.record(shadow, "write", len(raw))
        self.remove(kind, key)
        return shadow_key


def as_store(target: Store | StorageBackend) -> Store:
    """``target`` if it is a :class:`Store`, else a new one over it."""
    return target if isinstance(target, Store) else Store(target)
