"""Simulated storage substrate: metered object stores on pluggable backends.

The layout mirrors the paper's system architecture (Fig. 2/3): a
DiskChunkStore of immutable chunk containers, hash-addressed Manifests
(the only mutable metadata), write-once Hook files pointing at
manifests, and per-file FileManifests for restore.  One :class:`Store`
over a backend owns all four (plus the cluster's recipes and
membership) and the :class:`DiskModel` meter they report to: ingest,
restore, fsck, recovery and GC read, write and delete through it, so
its meter is what the Table II / Table V benches read out.
"""

from .backend import (
    DirectoryBackend,
    MemoryBackend,
    PrefixedBackend,
    StorageBackend,
)
from .chunk_store import ContainerWriter, DiskChunkStore
from .disk_model import INODE_SIZE, DiskModel, IOSnapshot
from .faults import (
    BackendError,
    CrashPoint,
    FaultInjectingBackend,
    FaultSpec,
    RetryingBackend,
    RetryPolicy,
    TransientBackendError,
)
from .file_manifest import (
    FILE_ENTRY_SIZE,
    FileExtent,
    FileManifest,
    FileManifestStore,
    file_object_ids,
)
from .hooks import HookStore
from .manifest import (
    ENTRY_SIZE,
    MANIFEST_HEADER_SIZE,
    MHD_ENTRY_SIZE,
    Manifest,
    ManifestEntry,
    ManifestStore,
    load_manifest,
)
from .multi_manifest import GROUP_HEADER_SIZE, MultiEntry, MultiManifest
from .store import KINDS, QUARANTINE_PREFIX, Store
from .gc import GCReport, delete_file, sweep
from .retention import (
    RetentionPolicy,
    apply_retention,
    default_generation_of,
    plan_retention,
)
from .recover import RecoveryReport, recover
from .verify import Finding, IntegrityReport, verify_store

__all__ = [
    "DirectoryBackend",
    "MemoryBackend",
    "PrefixedBackend",
    "StorageBackend",
    "KINDS",
    "Store",
    "BackendError",
    "TransientBackendError",
    "CrashPoint",
    "FaultSpec",
    "FaultInjectingBackend",
    "RetryPolicy",
    "RetryingBackend",
    "QUARANTINE_PREFIX",
    "RecoveryReport",
    "recover",
    "ContainerWriter",
    "DiskChunkStore",
    "INODE_SIZE",
    "DiskModel",
    "IOSnapshot",
    "FILE_ENTRY_SIZE",
    "FileExtent",
    "FileManifest",
    "FileManifestStore",
    "file_object_ids",
    "HookStore",
    "ENTRY_SIZE",
    "MANIFEST_HEADER_SIZE",
    "MHD_ENTRY_SIZE",
    "Manifest",
    "ManifestEntry",
    "ManifestStore",
    "GROUP_HEADER_SIZE",
    "MultiEntry",
    "MultiManifest",
    "Finding",
    "IntegrityReport",
    "load_manifest",
    "verify_store",
    "GCReport",
    "delete_file",
    "sweep",
    "RetentionPolicy",
    "apply_retention",
    "default_generation_of",
    "plan_retention",
]
