"""The Store's meter against the backend it meters: Table II metered vs measured.

Each algorithm runs ingest → restore → delete + sweep → fsck over a
backend that counts its own ``put`` / ``get`` / ``get_range`` /
``delete`` calls, every phase through the deduplicator's one
:class:`~repro.storage.Store`.  Every metered ``(kind, op)`` must equal
the backend's count of the matching calls — ``write`` ↔ ``put``,
``read`` ↔ ``get`` + ``get_range``, ``delete`` ↔ ``delete`` — except for
the two differences named in :func:`test_meter_matches_the_backend`.
"""

from collections import Counter

import numpy as np
import pytest

from repro.core import DedupConfig
from repro.registry import resolve
from repro.storage import DiskModel, MemoryBackend, delete_file, sweep, verify_store
from repro.storage.chunk_store import ContainerWriter
from repro.workloads import BackupFile

CFG = DedupConfig(ecs=512, sd=4, bloom_bytes=1 << 16, cache_manifests=2, window=16)

class CountingBackend(MemoryBackend):
    """Counts data calls by ``(namespace, the meter op they are charged as)``;
    ``exists`` probes and listings are not counted."""

    def __init__(self):
        super().__init__()
        self.calls = Counter()

    def put(self, namespace, key, data):
        self.calls[namespace, "write"] += 1
        super().put(namespace, key, data)

    def get(self, namespace, key):
        self.calls[namespace, "read"] += 1
        return super().get(namespace, key)

    def get_range(self, namespace, key, offset, size):
        self.calls[namespace, "read"] += 1
        return MemoryBackend.get(self, namespace, key)[offset : offset + size]

    def object_size(self, namespace, key):
        return len(MemoryBackend.get(self, namespace, key))

    def delete(self, namespace, key):
        self.calls[namespace, "delete"] += 1
        return super().delete(namespace, key)


def rand(n, seed):
    return np.random.default_rng(seed).integers(0, 256, size=n, dtype=np.uint8).tobytes()


def files():
    base = rand(40_000, 1)
    return [
        BackupFile("f0", base),
        BackupFile("f1", rand(20_000, 2) + base[5_000:30_000]),
        BackupFile("f2", rand(30_000, 3)),
        # Repeats itself: HHR re-reads bytes of its own, still open, container.
        BackupFile("f3", rand(15_000, 4) * 3),
    ]


@pytest.mark.parametrize("algo", ["bf-mhd", "sparse-indexing"])
def test_meter_matches_the_backend(algo, monkeypatch):
    open_reads = Counter()
    read_open = ContainerWriter._read

    def counted_read(self, offset, size):
        open_reads[DiskModel.CHUNK, "read"] += 1
        return read_open(self, offset, size)

    monkeypatch.setattr(ContainerWriter, "_read", counted_read)
    backend = CountingBackend()
    dedup = resolve(algo)(CFG, backend=backend)
    corpus = files()
    dedup.process(corpus)
    for f in corpus:
        assert dedup.restore(f.file_id) == f.data
    assert delete_file(dedup.store, "f2")
    report = sweep(dedup.store)
    assert report.containers_deleted >= 1
    assert verify_store(dedup.store, check_entry_hashes=True).ok

    metered = Counter(dedup.meter.snapshot().ops)
    # Named difference 1: a hook ``query`` is an ``exists`` probe, which
    # the meter charges (Table II's query row) and a backend call count
    # does not include.
    metered.pop((DiskModel.HOOK, "query"), None)
    # Named difference 2: an extent read from a container still being
    # written is served from its RAM buffer, metered as if on disk.
    metered.subtract(open_reads)
    assert metered == backend.calls
    assert metered[DiskModel.CHUNK, "delete"] == report.containers_deleted
