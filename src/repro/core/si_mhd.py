"""SI-MHD — MHD over an in-RAM sparse index instead of the Bloom filter.

The paper names this variant without evaluating it: "the MHD algorithm
can also be implemented in conjunction with the sparse index data
structure in SparseIndexing.  In order to distinguish a sparse index
based MHD implementation, we denote the bloom filter based
implementation used in the experiments the BF-MHD algorithm."

SI-MHD replaces BF-MHD's duplicate-detection front end:

* BF-MHD: Bloom filter → on-disk Hook query → Hook read → Manifest
  load (three disk accesses per detected slice, plus false-positive
  queries).
* SI-MHD: an in-RAM map from hook digest → manifest address answers
  the existence question exactly, so only the Manifest load touches
  disk (one access per slice) — at the cost of keeping every hook in
  RAM, exactly the SparseIndexing trade-off the paper's Table III
  quantifies.

Hooks are still persisted as write-once files (recovery + the same
inode accounting as BF-MHD); they are just never *queried* from disk.
Everything downstream — SHM, match extension, HHR — is inherited
unchanged, which is the point: the paper's contribution is orthogonal
to the choice of in-memory index.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

from ..hashing import Digest
from ..storage import DiskModel, StorageBackend
from .base import DedupStats
from .config import DedupConfig
from .mhd import MHDDeduplicator, _FileContext

__all__ = ["SIMHDDeduplicator"]


class SIMHDDeduplicator(MHDDeduplicator):
    """Sparse-index-based MHD (the paper's named but unevaluated variant)."""

    name = "si-mhd"

    def __init__(
        self,
        config: DedupConfig | None = None,
        backend: StorageBackend | None = None,
        edge_hash: bool = True,
        **kw: Any,
    ) -> None:
        super().__init__(config, backend, edge_hash=edge_hash, **kw)
        # The sparse index fully replaces the Bloom filter.
        self.bloom = None
        self._hook_index: dict[Digest, Digest] = {}

    def hook_index_bytes(self) -> int:
        """RAM held by the in-memory hook index (Table III analogue)."""
        # 20-byte key + 20-byte manifest address + dict-slot overhead.
        return len(self._hook_index) * (20 + 20 + 16)

    def warm_start(self) -> int:
        """Rebuild the in-RAM hook index from the on-disk hook files."""
        hooks = self.store.ids(DiskModel.HOOK)
        for digest in hooks:
            self._hook_index.setdefault(digest, self.hooks.get(digest))
        return len(hooks)

    def _hook_manifest(self, digest: Digest) -> Digest | None:
        return self._hook_index.get(digest)  # exact answer: no disk access

    _probed_hook_manifest = _hook_manifest

    def _negative_run(self, digests: Sequence[Digest], start: int, stop: int) -> int:
        index = self._hook_index
        t = start
        while t < stop and digests[t] not in index:
            t += 1
        return t - start

    def _flush_group(self, ctx: _FileContext, count: int) -> None:
        # Reuse the BF-MHD flush (which persists the group-leader hook
        # on disk), then mirror that hook into the in-RAM index.
        super()._flush_group(ctx, count)
        group_hook = next(e for e in reversed(ctx.manifest.entries) if e.is_hook)
        self._hook_index.setdefault(group_hook.digest, ctx.manifest.manifest_id)

    def _stats(self) -> DedupStats:
        # The hook index is RAM, not persistent metadata; fold it into
        # peak RAM so comparisons with BF-MHD's bloom budget are fair.
        self._observe_ram(self.cache.ram_bytes() + self.hook_index_bytes())
        return super()._stats()
