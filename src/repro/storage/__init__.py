"""Simulated storage substrate: metered object stores on pluggable backends.

The layout mirrors the paper's system architecture (Fig. 2/3): a
DiskChunkStore of immutable chunk containers, hash-addressed Manifests
(the only mutable metadata), write-once Hook files pointing at
manifests, and per-file FileManifests for restore.  All disk traffic
flows through a shared :class:`DiskModel` meter, which is what the
Table II / Table V benches read out.
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
    allocate_id,
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
)
from .multi_manifest import (
    GROUP_HEADER_SIZE,
    MultiEntry,
    MultiManifest,
    MultiManifestStore,
)
from .gc import GCReport, delete_file, sweep
from .retention import (
    RetentionPolicy,
    apply_retention,
    default_generation_of,
    plan_retention,
)
from .recover import QUARANTINE_PREFIX, RecoveryReport, recover
from .verify import Finding, IntegrityReport, load_manifest, verify_store

__all__ = [
    "DirectoryBackend",
    "MemoryBackend",
    "PrefixedBackend",
    "StorageBackend",
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
    "allocate_id",
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
    "MultiManifestStore",
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
