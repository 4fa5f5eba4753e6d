"""Crash recovery — the repairing counterpart of :mod:`.verify`.

:func:`verify_store` *defines* what a consistent store is;
:func:`recover` makes the store consistent again after a crash or a
torn write by disposing of exactly what fsck reports, re-checking until
fsck reports nothing (:func:`repair`).  It follows one rule: **never
delete bytes that might still be wanted** — damaged objects are
*quarantined* (moved to a ``quarantine.<namespace>`` namespace,
invisible to every store walk, by
:meth:`~repro.storage.store.Store.quarantine`, which never overwrites
an earlier quarantined copy) rather than destroyed, except for Hooks,
which are derived data and safe to drop.

What a crash can leave behind, and the repair for each:

* stray ``*.tmp`` files from an interrupted atomic put — deleted
  (:meth:`StorageBackend.purge_incomplete`) before the first walk;
* Manifests and FileManifests fsck rejects (torn/unparseable, stored
  under the wrong key, failing to tile their DiskChunk, pointing at
  missing container bytes — a crash mid-GC-sweep, or a file whose
  container write never completed) — quarantined; a multi-container
  manifest is instead *rewritten* without its dead entries when some
  of its containers survive;
* Hooks fsck rejects (wrong size, dangling, digest gone from the
  manifest) — deleted;
* with ``check_hashes=True``, containers whose bytes no longer match
  their manifest entry digests (silent corruption) — quarantined; the
  next walk then reports everything that referenced them.

Every repair is counted in the :class:`RecoveryReport` and reported
through the telemetry anomaly channel
(:func:`repro.obs.telemetry.note_anomaly`).  The walk that finds
nothing left to repair is the returned ``integrity`` report, so a
clean store is walked exactly once.
"""

from __future__ import annotations

import logging
from collections.abc import Callable
from dataclasses import dataclass, field

from ..hashing.digest import Digest
from ..obs.telemetry import note_anomaly
from .backend import StorageBackend
from .disk_model import DiskModel
from .multi_manifest import MultiManifest
from .store import QUARANTINE_PREFIX, Store, as_store
from .verify import Finding, IntegrityReport, verify_store

__all__ = ["QUARANTINE_PREFIX", "RecoveryReport", "recover", "repair"]

logger = logging.getLogger(__name__)


#: The RecoveryReport counters; each is also an ``anomaly.recover.<name>`` metric.
_COUNTERS = (
    "tmp_purged",
    "containers_quarantined",
    "manifests_quarantined",
    "manifests_rewritten",
    "file_manifests_quarantined",
    "hooks_deleted",
)


@dataclass
class RecoveryReport:
    """What one recovery pass found and repaired."""

    tmp_purged: int = 0
    containers_quarantined: int = 0
    manifests_quarantined: int = 0
    manifests_rewritten: int = 0
    file_manifests_quarantined: int = 0
    hooks_deleted: int = 0
    actions: list[str] = field(default_factory=list)
    integrity: IntegrityReport | None = None

    @property
    def repairs(self) -> int:
        """Total repair actions taken (0 = the store was clean)."""
        return sum(int(getattr(self, name)) for name in _COUNTERS)

    @property
    def ok(self) -> bool:
        """Whether the post-recovery integrity walk came back clean."""
        return self.integrity is not None and self.integrity.ok

    def act(self, msg: str) -> None:
        """Record one repair action."""
        self.actions.append(msg)
        logger.info("recover: %s", msg)

    def summary(self) -> str:
        """One-line human-readable outcome."""
        status = "OK" if self.ok else "NOT CLEAN"
        return (
            f"recovery {status}: {self.repairs} repairs "
            f"({self.tmp_purged} strays purged, "
            f"{self.containers_quarantined + self.manifests_quarantined + self.file_manifests_quarantined} "
            f"objects quarantined, {self.manifests_rewritten} manifests rewritten, "
            f"{self.hooks_deleted} hooks deleted)"
        )


def repair(
    store: Store,
    retire: Callable[[str, Digest], object],
    check_hashes: bool = False,
) -> tuple[IntegrityReport, list[Finding]]:
    """Dispose of everything fsck reports until it reports nothing.

    Each round walks the store once.  A multi-container manifest with
    survivors is rewritten around its dead containers (Manifests are
    the one mutable object kind); every other invalid object is handed
    to ``retire(namespace, key)``, which must take it out of its
    namespace — :func:`recover` quarantines,
    :func:`repro.storage.gc.sweep` deletes.  Retiring an object can
    orphan its dependents (a container's manifests and recipes, a
    rewritten manifest's hooks); the next round reports those.  Every
    round removes or shrinks at least one object, so the loop ends.

    Returns the final, clean report and every finding disposed of.
    """
    disposed: list[Finding] = []
    while True:
        integrity = verify_store(store, check_entry_hashes=check_hashes)
        if integrity.ok:
            return integrity, disposed
        for f in integrity.findings:
            if f.survivors:
                store.manifests.put(MultiManifest(f.key, list(f.survivors)))
            else:
                retire(f.kind, f.key)
        disposed += integrity.findings


#: Namespace of a retired object -> its RecoveryReport counter and action verb.
_RETIRED = {
    DiskModel.CHUNK: ("containers_quarantined", "quarantined"),
    DiskModel.MANIFEST: ("manifests_quarantined", "quarantined"),
    DiskModel.FILE_MANIFEST: ("file_manifests_quarantined", "quarantined"),
    DiskModel.HOOK: ("hooks_deleted", "deleted"),
}


def recover(store: Store | StorageBackend, check_hashes: bool = False) -> RecoveryReport:
    """Repair a store after a crash; returns what was done.

    Every read, quarantine and delete goes through the :class:`Store`
    (a new one over ``store`` if it is a plain backend).

    Safe on a clean store (``report.repairs == 0``) and idempotent: a
    second pass over a recovered store finds nothing to do.

    Parameters
    ----------
    check_hashes:
        Also re-hash every manifest entry's container bytes and
        quarantine silently-corrupted containers (expensive; off by
        default because a crash cannot corrupt an already-durable
        object — only torn/partial writes can, and those are caught
        structurally).
    """
    store = as_store(store)
    report = RecoveryReport()

    # Sweep interrupted-put debris so the walks below never trip over it.
    report.tmp_purged = store.backend.purge_incomplete()
    if report.tmp_purged:
        report.act(f"purged {report.tmp_purged} stray temp files")

    def retire(kind: str, key: Digest) -> None:
        # Hooks are derived data a later run re-creates: the one kind dropped.
        (store.remove if kind == DiskModel.HOOK else store.quarantine)(kind, key)

    report.integrity, disposed = repair(store, retire, check_hashes)
    for f in disposed:
        counter, verb = ("manifests_rewritten", "rewrote") if f.survivors else _RETIRED[f.kind]
        setattr(report, counter, getattr(report, counter) + 1)
        report.act(f"{verb} {f}")

    for name in _COUNTERS:
        if count := int(getattr(report, name)):
            note_anomaly(f"recover.{name}", count=count)
    return report
