"""LRU manifest cache with dirty write-back and an aggregate hash index.

"The cache contains a number of Manifests, each of which is organized
as a hash table. ... If the cache becomes full during this process,
one Manifest would be freed following the Least-Recently-Used (LRU)
policy.  A Manifest that has been set dirty, is written back to the
disk before it is freed."

The cache also maintains an aggregate digest → manifest index across
everything cached, so duplicate detection against cached manifests is
O(1) instead of a scan — functionally identical to probing each cached
manifest's hash table, just faster in Python.

Manifests can be *pinned* (the manifest of the file currently being
ingested must not be evicted mid-build).

The cache is generic over the two manifest kinds the
:class:`~repro.storage.ManifestStore` persists — MHD's per-DiskChunk
:class:`~repro.storage.Manifest` and the baselines'
:class:`~repro.storage.multi_manifest.MultiManifest`; one cache holds
one kind.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable, Iterable, Sequence
from typing import Generic, TypeVar, cast

from ..hashing.digest import Digest
from ..storage.manifest import Manifest, ManifestStore
from ..storage.multi_manifest import MultiManifest

__all__ = ["ManifestCache"]

#: The manifest kind a cache instance holds.
M = TypeVar("M", Manifest, MultiManifest)


class ManifestCache(Generic[M]):
    """Bounded LRU of in-RAM manifests over a :class:`ManifestStore`."""

    def __init__(self, store: ManifestStore, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._store = store
        self._capacity = capacity
        self._cache: OrderedDict[Digest, M] = OrderedDict()
        self._pinned: set[Digest] = set()
        # Aggregate index: digest -> manifest ids that contain it, plus
        # the digest set indexed per manifest (so reindexing after a
        # mutation only touches the changed digests).
        self._digest_index: dict[Digest, set[Digest]] = {}
        self._indexed: dict[Digest, set[Digest]] = {}
        self.loads = 0  # disk loads (Table V "Manifests loading")
        self.hits = 0  # cache hits (RAM)
        self.writebacks = 0

    def __len__(self) -> int:
        return len(self._cache)

    def __contains__(self, manifest_id: Digest) -> bool:
        return manifest_id in self._cache

    @property
    def capacity(self) -> int:
        """Maximum number of cached manifests."""
        return self._capacity

    def ram_bytes(self) -> int:
        """Current RAM footprint of all cached manifests."""
        return sum(m.ram_size() for m in self._cache.values())

    # ---- indexing --------------------------------------------------------

    def _index_add(self, manifest: M) -> None:
        mid = manifest.manifest_id
        digests = set(manifest.index)
        self._indexed[mid] = digests
        for digest in digests:
            self._digest_index.setdefault(digest, set()).add(mid)

    def _index_remove(self, manifest_id: Digest) -> None:
        for digest in self._indexed.pop(manifest_id, ()):
            ids = self._digest_index.get(digest)
            if ids is not None:
                ids.discard(manifest_id)
                if not ids:
                    del self._digest_index[digest]

    def reindex(self, manifest: M) -> None:
        """Refresh the aggregate index after a manifest mutation.

        Mutators change entry digests, so the owning deduplicator calls
        this after modifying a cached manifest.  It compares the whole
        manifest with what was indexed; a caller that knows what it
        changed (MHD's SHM appends and HHR splits) passes that to
        :meth:`index_delta` instead.
        """
        mid = manifest.manifest_id
        if mid not in self._cache:
            raise KeyError("manifest is not cached")
        old = self._indexed.get(mid, set())
        new = set(manifest.index)
        for digest in old - new:
            ids = self._digest_index.get(digest)
            if ids is not None:
                ids.discard(mid)
                if not ids:
                    del self._digest_index[digest]
        for digest in new - old:
            self._digest_index.setdefault(digest, set()).add(mid)
        self._indexed[mid] = new

    def index_delta(
        self,
        manifest: M,
        added: Iterable[Digest],
        removed: Iterable[Digest] = (),
    ) -> None:
        """Refresh the aggregate index from what a mutation changed.

        ``added`` are digests the mutation wrote into the cached
        ``manifest``; ``removed`` are digests it took entries away from,
        which leave the index only if the manifest no longer holds them.
        The result equals a :meth:`reindex`, at the cost of the delta.
        """
        mid = manifest.manifest_id
        if mid not in self._cache:
            raise KeyError("manifest is not cached")
        indexed = self._indexed[mid]
        digest_index = self._digest_index
        present = manifest.index
        for digest in removed:
            if digest in indexed and digest not in present:
                indexed.discard(digest)
                ids = digest_index[digest]
                ids.discard(mid)
                if not ids:
                    del digest_index[digest]
        for digest in added:
            if digest not in indexed:
                indexed.add(digest)
                digest_index.setdefault(digest, set()).add(mid)

    # ---- lookup ------------------------------------------------------------

    def first_indexed(self, digests: Sequence[Digest], start: int, stop: int) -> int:
        """Position of the first of ``digests[start:stop]`` that some cached
        manifest holds, or ``stop``.  RAM only; counts nothing."""
        index = self._digest_index
        run = digests[start:stop]
        if index.keys().isdisjoint(run):
            return stop
        return start + next(k for k, digest in enumerate(run) if digest in index)

    def search(self, digest: Digest) -> M | None:
        """Find a cached manifest containing ``digest`` (RAM only).

        Touches the found manifest's LRU position and counts a hit.
        """
        ids = self._digest_index.get(digest)
        if not ids:
            return None
        # The digest may live in several cached manifests; pick the
        # winner deterministically (smallest id).  Iteration order of a
        # set[Digest] is PYTHONHASHSEED-dependent, so `next(iter(ids))`
        # made load/hit counts differ across runs — a violation of the
        # DDC004 determinism invariant.
        mid = min(ids)
        manifest = self._cache[mid]
        self._cache.move_to_end(mid)
        self.hits += 1
        return manifest

    def locate(
        self, digest: Digest, hook_manifest: Callable[[Digest], Digest | None]
    ) -> tuple[M, int] | None:
        """The paper's Fig. 4 lookup chain: ``(manifest, entry index)`` or ``None``.

        Cached manifests first (RAM); on a miss ``hook_manifest`` — the
        one variation point: the Bloom-gated on-disk Hook query
        (:meth:`Deduplicator._hook_manifest`) or SI-MHD's RAM index —
        names the Manifest to load (the metered disk access), which may
        since have lost the hash.
        """
        manifest = self.search(digest)
        if manifest is not None:
            idx = manifest.find(digest)
            if idx is not None:
                return manifest, idx
        manifest_id = hook_manifest(digest)
        if manifest_id is None:
            return None
        manifest = self.load(manifest_id)
        idx = manifest.find(digest)
        if idx is None:
            return None  # hook points at a manifest that lost the hash
        return manifest, idx

    def get(self, manifest_id: Digest) -> M | None:
        """RAM-only fetch by id (no disk fallback)."""
        m = self._cache.get(manifest_id)
        if m is not None:
            self._cache.move_to_end(manifest_id)
        return m

    def load(self, manifest_id: Digest) -> M:
        """Fetch by id, reading from disk (metered) on a cache miss."""
        m = self.get(manifest_id)
        if m is not None:
            return m
        m = cast("M", self._store.get(manifest_id))
        self.loads += 1
        self.add(m)
        return m

    # ---- insertion / eviction ----------------------------------------------

    def add(self, manifest: M, pin: bool = False) -> None:
        """Insert a manifest built or loaded by the caller."""
        mid = manifest.manifest_id
        if mid in self._cache:
            raise ValueError(f"manifest {mid.hex()[:12]} already cached")
        self._evict_to(self._capacity - 1)
        self._cache[mid] = manifest
        self._index_add(manifest)
        if pin:
            self._pinned.add(mid)

    def unpin(self, manifest_id: Digest) -> None:
        """Make a pinned manifest evictable again.

        If pins ever pushed the cache past capacity, shrink back now so
        the overflow really is temporary — without this the cache would
        stay oversized until the next insertion.
        """
        self._pinned.discard(manifest_id)
        if len(self._cache) > self._capacity:
            self._evict_to(self._capacity)

    def discard(self, manifest_id: Digest) -> None:
        """Forget a cached manifest without write-back, pinned or dirty
        as it may be (the in-progress manifest of a failed ingest)."""
        if self._cache.pop(manifest_id, None) is not None:
            self._pinned.discard(manifest_id)
            self._index_remove(manifest_id)

    def _evict_to(self, target: int) -> None:
        while len(self._cache) > target:
            victim_id = next(
                (mid for mid in self._cache if mid not in self._pinned), None
            )
            if victim_id is None:
                return  # everything pinned; allow temporary overflow
            victim = self._cache[victim_id]
            if victim.dirty:
                # Write back *before* dropping the entry: if the store
                # raises (transient backend failure), the dirty manifest
                # stays cached and the eviction can be retried, instead
                # of the mutation being silently lost.
                self._store.put(victim)  # metered write-back
                self.writebacks += 1
            del self._cache[victim_id]
            self._index_remove(victim_id)

    def flush(self) -> None:
        """Write back every dirty cached manifest (run finalisation)."""
        for m in self._cache.values():
            if m.dirty:
                self._store.put(m)
                self.writebacks += 1
