"""Hook store — the on-disk sample index.

A *Hook* is a hash-addressable file named by a sampled chunk hash whose
20-byte payload is the address of the Manifest it belongs to ("each
Hook contains a 20-byte SHA-1 address to the Manifest it belongs to").
Hooks are the disk-resident entry points for duplicate detection: when
the Bloom filter says an incoming hash may exist, the deduplicator
queries this store; a hit yields the Manifest to load.

Hook files are immutable once written.  Metering follows Table II:
``query`` (existence probe), ``read`` (fetch the manifest address on a
hit) and ``write`` (new hook).
"""

from __future__ import annotations

from ..hashing.digest import HASH_SIZE, Digest
from .disk_model import DiskModel, MeteredStore

__all__ = ["HookStore"]


class HookStore(MeteredStore):
    """Metered digest → manifest-address mapping, one file per hook."""

    def put(self, hook_digest: Digest, manifest_id: Digest) -> None:
        """Write a hook file (idempotent for identical content)."""
        if len(manifest_id) != HASH_SIZE:
            raise ValueError(f"manifest_id must be {HASH_SIZE} bytes")
        if self._backend.exists(DiskModel.HOOK, hook_digest):
            # The paper's hooks are write-once; re-registration of the
            # same digest keeps the original mapping.
            return
        self._put(DiskModel.HOOK, hook_digest, manifest_id)

    def query(self, hook_digest: Digest) -> bool:
        """On-disk existence probe; one metered query access."""
        self._meter.record(DiskModel.HOOK, "query", 0)
        return self._backend.exists(DiskModel.HOOK, hook_digest)

    def get(self, hook_digest: Digest) -> Digest:
        """Fetch the manifest address; one metered read."""
        return Digest(self._get(DiskModel.HOOK, hook_digest))

    def lookup(self, hook_digest: Digest) -> Digest | None:
        """Query + read combined: manifest id, or ``None`` if absent."""
        if not self.query(hook_digest):
            return None
        return self.get(hook_digest)
