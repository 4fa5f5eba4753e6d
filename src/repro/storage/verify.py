"""Store integrity verification — the one definition of a consistent store.

A deduplicated store is only as good as its ability to prove itself
consistent: every Hook must be a 20-byte pointer at an existing
Manifest that still contains the hook's digest; every Manifest must
sit under its own id, tile its DiskChunk exactly and hash-match the
bytes it describes; every FileManifest must sit under the key of its
file id and every extent must lie inside a stored container.  This
module walks a store and checks all of it — the fsck of the
repository.

Every rule is written here and nowhere else.  A violation is reported
as a string in :attr:`IntegrityReport.errors` and as a typed
:class:`Finding` naming the invalid object; crash recovery and GC act
on the findings (:func:`repro.storage.recover.repair`), so "fsck
clean" and "nothing to recover" are one predicate.

Used by tests (including failure-injection tests that corrupt stores
on purpose) and exposed to users via ``Deduplicator.verify_integrity``.
"""

from __future__ import annotations

import logging
import struct
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from ..hashing.digest import HASH_SIZE, Digest, sha1
from .backend import StorageBackend
from .chunk_store import DiskChunkStore
from .disk_model import DiskModel
from .file_manifest import FileManifestStore
from .manifest import Manifest
from .multi_manifest import MultiEntry, MultiManifest
from .store import Store, as_store

__all__ = ["Finding", "IntegrityReport", "verify_store"]

logger = logging.getLogger(__name__)

#: Everything a malformed manifest/file-manifest payload can raise while
#: parsing: truncated structs (``struct.error``), entry validation
#: (``ValueError``) and, for FileManifests, bad name bytes.
_PARSE_ERRORS = (ValueError, struct.error, UnicodeDecodeError)


@dataclass(frozen=True)
class Finding:
    """One stored object that breaks a store rule.

    ``kind`` is the object's namespace (``DiskModel.CHUNK`` /
    ``MANIFEST`` / ``HOOK`` / ``FILE_MANIFEST``).  The object has to
    leave the store for it to be consistent again — unless it is a
    multi-container manifest that lost only some of its containers:
    then ``survivors`` holds the entries still backed by stored bytes,
    and rewriting the manifest down to them repairs it.
    """

    kind: str
    key: Digest
    reason: str
    survivors: tuple[MultiEntry, ...] = ()

    def __str__(self) -> str:
        return f"{self.kind.replace('_', ' ')} {self.key.hex()[:12]}: {self.reason}"


@dataclass
class IntegrityReport:
    """Outcome of a full store walk."""

    manifests_checked: int = 0
    hooks_checked: int = 0
    file_manifests_checked: int = 0
    containers_checked: int = 0
    errors: list[str] = field(default_factory=list)
    findings: list[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when the walk found no inconsistencies."""
        return not self.errors

    def flag(
        self, kind: str, key: Digest, reason: str, survivors: Iterable[MultiEntry] = ()
    ) -> None:
        """Record one invalid object (at most one finding per object per walk)."""
        finding = Finding(kind, key, reason, tuple(survivors))
        self.findings.append(finding)
        self.errors.append(str(finding))

    def summary(self) -> str:
        """One-line human-readable outcome."""
        status = "OK" if self.ok else f"{len(self.errors)} ERRORS"
        return (
            f"integrity {status}: {self.containers_checked} containers, "
            f"{self.manifests_checked} manifests, {self.hooks_checked} hooks, "
            f"{self.file_manifests_checked} file manifests"
        )


def _extent_fault(sizes: dict[Digest, int], cid: Digest, offset: int, size: int) -> str | None:
    """Why ``[offset, offset + size)`` of container ``cid`` is not stored bytes."""
    total = sizes.get(cid)
    if total is None:
        return f"container {cid.hex()[:12]} missing"
    if offset + size > total:
        return f"extent [{offset}, {offset + size}) beyond container size {total}"
    return None


def _container_fault(
    m: Manifest | MultiManifest, sizes: dict[Digest, int]
) -> tuple[str | None, list[MultiEntry]]:
    """Why ``m`` does not fit the stored containers (``None``: it does).

    A Manifest must tile its DiskChunk exactly; every MultiManifest
    entry must lie inside a stored container — the second value is the
    entries of a faulty MultiManifest that do.
    """
    if isinstance(m, Manifest):
        total = sizes.get(m.chunk_id)
        if total is None:
            return f"DiskChunk {m.chunk_id.hex()[:12]} missing", []
        try:
            m.validate_tiling(total)
        except AssertionError as e:
            return f"does not tile its DiskChunk ({e})", []
        return None, []
    live = [
        e for e in m.entries if _extent_fault(sizes, e.container_id, e.offset, e.size) is None
    ]
    if len(live) == len(m.entries):
        return None, []
    return f"{len(m.entries) - len(live)} of {len(m.entries)} entries missing their bytes", live


def _hash_mismatches(
    chunks: DiskChunkStore, m: Manifest | MultiManifest, known: set[Digest]
) -> Iterator[Digest]:
    """Containers (not already ``known`` bad) whose bytes mismatch an entry of ``m``."""
    spans: Iterable[tuple[Digest, Digest, int, int]]
    if isinstance(m, Manifest):
        spans = ((m.chunk_id, e.digest, e.offset, e.size) for e in m.entries)
    else:
        spans = ((e.container_id, e.digest, e.offset, e.size) for e in m.entries)
    loaded: Digest | None = None
    data = b""
    for cid, digest, offset, size in spans:
        if cid in known:
            continue
        if cid != loaded:
            loaded, data = cid, chunks.get(cid)
        if sha1(data[offset : offset + size]) != digest:
            known.add(cid)
            yield cid


def verify_store(
    store: Store | StorageBackend,
    deep: bool = True,
    check_entry_hashes: bool = False,
) -> IntegrityReport:
    """Walk every object of ``store`` and cross-check the invariants.

    Every object is read through the :class:`Store` (one metered read
    each); given a plain backend, a new Store over it does the reading.

    Parameters
    ----------
    deep:
        Also verify manifest extents against container sizes and
        FileManifest extents against containers.
    check_entry_hashes:
        Re-hash every manifest entry's bytes and compare with the
        recorded digest (expensive; catches silent container
        corruption, reported against the container).
    """
    store = as_store(store)
    report = IntegrityReport()
    sizes = {cid: store.chunks.size(cid) for cid in store.ids(DiskModel.CHUNK)}
    report.containers_checked = len(sizes)

    # Manifests a Hook may legitimately point at: the ones that pass
    # every check, so a Hook into an invalid manifest is reported in
    # the same walk as the manifest itself.
    valid: dict[Digest, Manifest | MultiManifest] = {}
    corrupt: set[Digest] = set()
    for key in sorted(store.ids(DiskModel.MANIFEST)):
        try:
            m = store.manifests.get(key)
        except _PARSE_ERRORS as e:
            logger.debug("manifest %s failed to parse", key.hex()[:12], exc_info=True)
            report.flag(DiskModel.MANIFEST, key, f"unparseable ({e})")
            continue
        report.manifests_checked += 1
        if m.manifest_id != key:
            report.flag(
                DiskModel.MANIFEST,
                key,
                f"stored under wrong key (claims {m.manifest_id.hex()[:12]})",
            )
            continue
        if deep:
            fault, survivors = _container_fault(m, sizes)
            if fault is not None:
                report.flag(DiskModel.MANIFEST, key, fault, survivors)
                if not survivors:
                    continue
                m = MultiManifest(key, survivors)
            if check_entry_hashes:
                for cid in _hash_mismatches(store.chunks, m, corrupt):
                    report.flag(
                        DiskModel.CHUNK,
                        cid,
                        f"digest mismatch against manifest {key.hex()[:12]} "
                        "(container bytes corrupted?)",
                    )
        valid[key] = m

    for key in sorted(store.ids(DiskModel.HOOK)):
        report.hooks_checked += 1
        payload = store.hooks.get(key)
        if len(payload) != HASH_SIZE:
            report.flag(
                DiskModel.HOOK, key, f"payload is {len(payload)} bytes, want {HASH_SIZE}"
            )
        elif (target := valid.get(payload)) is None:
            report.flag(DiskModel.HOOK, key, f"dangling manifest {payload.hex()[:12]}")
        elif key not in target:
            # HHR never re-chunks hook entries, so a hook's digest must
            # survive in its manifest for the life of the store.
            report.flag(DiskModel.HOOK, key, "digest no longer present in its manifest")

    for key in sorted(store.ids(DiskModel.FILE_MANIFEST)):
        report.file_manifests_checked += 1
        try:
            fm = store.file_manifests.load(key)
        except _PARSE_ERRORS as e:
            logger.debug("file manifest %s failed to parse", key.hex()[:12], exc_info=True)
            report.flag(DiskModel.FILE_MANIFEST, key, f"unparseable ({e})")
            continue
        if FileManifestStore.key_for(fm.file_id) != key:
            # Restore looks a file up by the key of its id, so a recipe
            # anywhere else is unreachable.
            report.flag(DiskModel.FILE_MANIFEST, key, f"{fm.file_id!r} stored under wrong key")
        elif deep:
            for i, e in enumerate(fm.extents):
                fault = _extent_fault(sizes, e.container_id, e.offset, e.size)
                if fault is not None:
                    report.flag(
                        DiskModel.FILE_MANIFEST, key, f"{fm.file_id!r} extent {i}: {fault}"
                    )
                    break
    return report
