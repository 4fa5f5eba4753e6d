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

Every hook of one manifest holds the same 20 bytes, and the
deduplicators write a manifest's hooks one after another, so each hook
after a manifest's first is written with ``put_like`` the previous
one: a :class:`~repro.storage.backend.DirectoryBackend` hard-links it
instead of allocating a new inode.  Names, payloads, metered writes and
``Store.usage`` are those of one file per hook.
"""

from __future__ import annotations

from ..hashing.digest import HASH_SIZE, Digest
from .backend import StorageBackend
from .disk_model import DiskModel, MeteredStore

__all__ = ["HookStore"]


class HookStore(MeteredStore):
    """Metered digest → manifest-address mapping, one file per hook."""

    def __init__(self, backend: StorageBackend, meter: DiskModel) -> None:
        super().__init__(backend, meter)
        # (manifest id, hook key) of the last hook written: the hint
        # for the next hook of the same manifest.
        self._last: tuple[Digest, Digest] | None = None

    def put(self, hook_digest: Digest, manifest_id: Digest) -> None:
        """Write a hook file (idempotent for identical content)."""
        if len(manifest_id) != HASH_SIZE:
            raise ValueError(f"manifest_id must be {HASH_SIZE} bytes")
        if self._backend.exists(DiskModel.HOOK, hook_digest):
            # The paper's hooks are write-once; re-registration of the
            # same digest keeps the original mapping.
            return
        last = self._last
        if last is not None and last[0] == manifest_id:
            self._backend.put_like(DiskModel.HOOK, hook_digest, manifest_id, last[1])
        else:
            self._backend.put(DiskModel.HOOK, hook_digest, manifest_id)
        self._meter.record(DiskModel.HOOK, "write", HASH_SIZE)
        self._last = (manifest_id, hook_digest)

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
