"""Sparse Indexing (Lillibridge et al., FAST'09) — sampling + locality.

The design the paper benchmarks against (and whose manifest/hook tools
MHD borrows):

1. The stream is chunked at ``ECS`` and grouped into *segments* of
   roughly ``ECS · SD · 5`` bytes (the paper's setting).
2. Chunk hashes are sampled into *hooks* with probability ``1/SD``
   (``digest mod SD == 0``), giving ~``(N+D)/SD`` hooks over the whole
   input — sampled from the *input*, duplicates included, which is why
   the paper's Fig. 7(a) shows SparseIndexing with the most inodes.
3. The **sparse index** maps each hook to at most 5 manifests (LRU) —
   and lives in RAM (Table III reports its size).  Hooks are also
   persisted as write-once files for recovery, as inode-bearing
   metadata.
4. For each incoming segment, the manifests sharing the most hooks
   with it are loaded as *champions* (≤ 10); the segment is
   deduplicated only against its champions (duplicates elsewhere are
   deliberately missed).
5. A new manifest records **every** chunk of the segment — duplicate
   or not — preserving stream locality ("one hash may be recorded
   multiple times"), which is why SparseIndexing's manifest volume is
   the largest in Fig. 7(b).
"""

from __future__ import annotations

from collections import Counter

from ..chunking import VectorizedChunker
from ..hashing import Digest, sha1
from ..storage import FileManifest
from ..storage.disk_model import DiskModel
from ..storage.multi_manifest import MultiEntry, MultiManifest
from ..workloads.machine import BackupFile
from ..core.base import Deduplicator
from ..core.manifest_cache import ManifestCache

__all__ = ["SparseIndexingDeduplicator", "rank_champions"]

#: Paper settings: champions per segment, manifests per hook.
MAX_CHAMPIONS = 10
MAX_MANIFESTS_PER_HOOK = 5


def rank_champions(votes: Counter, limit: int = MAX_CHAMPIONS) -> list:
    """Rank vote winners deterministically: most votes first, ties pinned.

    ``Counter.most_common`` breaks ties by insertion order, which here
    depends on hook/segment arrival order — unstable across warm
    restarts and unusable as a routing key.  Ties are pinned with an
    explicit ``(-votes, key)`` sort so equal-vote candidates always
    rank in ascending key order, independent of how the counter was
    populated.  Keys only need to be orderable (digests, node names).
    """
    ranked = sorted(votes.items(), key=lambda kv: (-kv[1], kv[0]))
    return [key for key, _count in ranked[:limit]]


class SparseIndexingDeduplicator(Deduplicator):
    """Segment-based, champion-driven deduplicator."""

    name = "sparse-indexing"

    def __init__(self, config=None, backend=None):
        super().__init__(config, backend)
        # The sparse index replaces the Bloom filter entirely ("no
        # confirmation by disk look-up is needed").
        self.bloom = None
        self.chunker = VectorizedChunker(self.config.small_chunker_config())
        self.cache = ManifestCache(self.manifests, self.config.cache_manifests)
        # The in-RAM sparse index: hook digest -> up to 5 manifest ids,
        # most recent last.
        self._sparse: dict[Digest, list[Digest]] = {}
        self._segment_serial = 0
        self._file_id: str | None = None
        self._fm: FileManifest | None = None
        self._segment: list[tuple] = []  # (digest, chunk)
        self._seg_bytes = 0

    # -- sampling --------------------------------------------------------

    def _is_hook(self, digest: Digest) -> bool:
        return int.from_bytes(digest[:8], "little") % self.config.sd == 0

    def sparse_index_bytes(self) -> int:
        """RAM held by the sparse index (Table III's reported figure)."""
        # Key (20 B) + list overhead approximation + 20 B per manifest id.
        return sum(20 + 16 + 20 * len(v) for v in self._sparse.values())

    def extra_index_bytes(self) -> int:
        return 0  # the sparse index is RAM, not persistent metadata

    # -- ingest ----------------------------------------------------------

    def _begin_file(self, file: BackupFile) -> None:
        self._file_id = file.file_id
        self._fm = FileManifest(file.file_id)
        self._segment, self._seg_bytes = [], 0

    def _ingest_chunks(self, batch, digests) -> None:
        for chunk, digest in zip(batch, digests, strict=True):
            self._segment.append((digest, chunk))
            self._seg_bytes += chunk.size
            if self._seg_bytes >= self.config.segment_bytes:
                self._dedup_segment(self._file_id, self._segment, self._fm)
                self._segment, self._seg_bytes = [], 0

    def _end_file(self) -> None:
        if self._segment:
            self._dedup_segment(self._file_id, self._segment, self._fm)
            self._segment, self._seg_bytes = [], 0
        self.file_manifests.put(self._fm)
        self._observe_ram(self.cache.ram_bytes() + self.sparse_index_bytes())
        self._file_id = None
        self._fm = None

    def _dedup_segment(self, file_id: str, segment: list[tuple], fm: FileManifest) -> None:
        # One id names the segment's container and its manifest.
        first = sha1(f"{file_id}|seg{self._segment_serial}".encode())
        seg_id = self.store.allocate_id(first, DiskModel.CHUNK, DiskModel.MANIFEST)
        self._segment_serial += 1
        hooks = [d for d, _ in segment if self._is_hook(d)]

        champions = self._choose_champions(hooks)
        candidates: dict[Digest, tuple[Digest, int, int]] = {}
        for champ in champions:
            for e in champ.entries:
                candidates.setdefault(e.digest, (e.container_id, e.offset, e.size))

        manifest = MultiManifest(seg_id)
        writer = None
        local: dict[Digest, tuple[Digest, int, int]] = {}
        for digest, chunk in segment:
            extent = local.get(digest) or candidates.get(digest)
            if extent is not None:
                self._count_duplicate(chunk.size)
            else:
                self._count_unique(chunk.size)
                if writer is None:
                    writer = self.chunks.open_container(seg_id)
                offset = writer.append(chunk.data)
                extent = (seg_id, offset, chunk.size)
                local[digest] = extent
            manifest.append(MultiEntry(digest, *extent))
            fm.append(*extent)
        if writer is not None:
            writer.close()
        self.manifests.put(manifest)
        self.cache.add(manifest)
        self.cache.reindex(manifest)

        # Register the segment's hooks: in RAM and as write-once files.
        for h in hooks:
            ids = self._sparse.setdefault(h, [])
            if seg_id in ids:
                continue
            ids.append(seg_id)
            if len(ids) > MAX_MANIFESTS_PER_HOOK:
                ids.pop(0)  # LRU: drop the oldest mapping
            self.hooks.put(h, seg_id)

    def _choose_champions(self, hooks: list[Digest]) -> list[MultiManifest]:
        """Greedy hook-vote champion selection (≤ MAX_CHAMPIONS loads)."""
        votes: Counter[Digest] = Counter()
        for h in hooks:
            for mid in self._sparse.get(h, ()):
                votes[mid] += 1
        return [self.cache.load(mid) for mid in rank_champions(votes)]

    def _flush(self) -> None:
        self.cache.flush()

    # -- restart ---------------------------------------------------------

    def warm_start(self) -> int:
        """Rebuild the RAM sparse index from the persisted hook files.

        Hooks are write-once on disk, so each rebuilt entry holds the
        *first* manifest that registered the hook (the live LRU keeps up
        to :data:`MAX_MANIFESTS_PER_HOOK`).  The rebuild iterates hooks
        in sorted digest order so two processes warm-starting from the
        same store produce byte-identical indexes regardless of backend
        enumeration order.  There is no Bloom filter to fill, so the
        base class's listing is not needed: the namespace is listed once.
        """
        hooks = sorted(self.store.ids(DiskModel.HOOK))
        for hook in hooks:
            mid = self.hooks.get(hook)
            ids = self._sparse.setdefault(hook, [])
            if mid not in ids:
                ids.append(mid)
        return len(hooks)
