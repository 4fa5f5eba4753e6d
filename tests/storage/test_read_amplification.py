"""Read amplification: the backend transfers what the meter charges.

Counts, not timings.  ``ChunkTransfers`` is a ``DirectoryBackend`` that
records every byte the chunk namespace hands out, by whole-object
``get`` and by extent (``get_range`` and ``iter_ranges``) separately;
restore, an HHR reload, fsck and GC are then held to the bytes they
need rather than the size of the containers that hold them, and a
restore to one open per container.
"""

import os

import numpy as np
import pytest

from repro.core import DedupConfig, MHDDeduplicator
from repro.storage import DirectoryBackend, DiskModel, verify_store
from repro.storage.gc import delete_file, sweep
from repro.workloads import BackupFile


class ChunkTransfers(DirectoryBackend):
    """Records the chunk namespace's ``get``s and ``get_range``s."""

    def __init__(self, root):
        super().__init__(root)
        self.whole_gets = 0
        self.ranges: list[int] = []
        self.transferred = 0

    def get(self, namespace, key):
        data = super().get(namespace, key)
        if namespace == DiskModel.CHUNK:
            self.whole_gets += 1
            self.transferred += len(data)
        return data

    def get_range(self, namespace, key, offset, size):
        data = super().get_range(namespace, key, offset, size)
        if namespace == DiskModel.CHUNK:
            self.ranges.append(size)
            self.transferred += len(data)
        return data

    def iter_ranges(self, namespace, reads):
        for data in super().iter_ranges(namespace, reads):
            if namespace == DiskModel.CHUNK:
                self.ranges.append(len(data))
                self.transferred += len(data)
            yield data


def rand(n, seed):
    return np.random.default_rng(seed).integers(0, 256, size=n, dtype=np.uint8).tobytes()


def cfg():
    return DedupConfig(ecs=512, sd=4, bloom_bytes=1 << 16, cache_manifests=16, window=16)


def store_woven(root):
    """Ingest three files, then one woven from 6 kB runs of each in
    turn; the woven file's bytes."""
    sources = [rand(120_000, seed) for seed in (1, 2, 3)]
    piece = 6_000
    woven = b"".join(
        sources[i % 3][(i // 3) * piece : (i // 3 + 1) * piece] for i in range(45)
    )
    dedup = MHDDeduplicator(cfg(), backend=DirectoryBackend(root))
    dedup.process(
        [BackupFile(f"src{i}", data) for i, data in enumerate(sources)]
        + [BackupFile("woven", woven)]
    )
    return woven


def test_fragmented_restore_transfers_at_most_the_file(tmp_path):
    """A file woven from three earlier files restores from many extents
    of their three containers, and moves no more than its own size."""
    woven = store_woven(tmp_path)
    backend = ChunkTransfers(tmp_path)
    reader = MHDDeduplicator(cfg(), backend=backend)
    extents = reader.file_manifests.get("woven").extents
    assert len(extents) >= 20
    assert len({e.container_id for e in extents}) >= 3

    assert reader.restore("woven") == woven
    assert backend.whole_gets == 0
    assert backend.ranges == [e.size for e in extents]
    assert backend.transferred <= len(woven)
    assert backend.transferred == reader.meter.nbytes(DiskModel.CHUNK, "read")


def test_fragmented_restore_opens_each_container_once(tmp_path, monkeypatch):
    """The woven file's many extents come from its sources' three
    containers and its own (the chunks cut across a run boundary); its
    restore opens each container once, not once per extent."""
    woven = store_woven(tmp_path)
    reader = MHDDeduplicator(cfg(), backend=DirectoryBackend(tmp_path))
    extents = reader.file_manifests.get("woven").extents
    containers = {e.container_id.hex() for e in extents}
    assert len(extents) >= 20 and len(containers) == 4

    chunk_dir = str(tmp_path / DiskModel.CHUNK) + os.sep
    opens = []
    real_open = os.open

    def counting_open(path, *args, **kwargs):
        if os.fspath(path).startswith(chunk_dir):
            opens.append(path)
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(os, "open", counting_open)
    assert reader.restore("woven") == woven
    assert sorted(os.path.basename(path) for path in opens) == sorted(containers)


def test_hhr_reload_transfers_exactly_the_entry(tmp_path):
    """Each HHR reload of a closed container asks for one merged entry's
    bytes — what ``DiskModel`` charges — not the container."""
    backend = ChunkTransfers(tmp_path)
    dedup = MHDDeduplicator(cfg(), backend=backend)
    base = rand(150_000, 4)
    edited = bytearray(base)
    for pos in (20_000, 70_000, 120_000):
        edited[pos : pos + 40] = rand(40, pos)
    dedup.ingest(BackupFile("base", base))
    dedup.ingest(BackupFile("edited", bytes(edited)))

    assert dedup.hhr_reads > 0
    assert backend.whole_gets == 0
    assert len(backend.ranges) == dedup.hhr_reads
    assert backend.transferred == dedup.meter.nbytes(DiskModel.CHUNK, "read")
    assert max(backend.ranges) < len(base) // 4  # an entry, not the container
    dedup.finalize()
    assert dedup.restore("edited") == bytes(edited)


@pytest.fixture
def counted_store(tmp_path):
    dedup = MHDDeduplicator(cfg(), backend=DirectoryBackend(tmp_path))
    dedup.process([BackupFile(f"f{i}", rand(40_000, 10 + i)) for i in range(4)])
    return ChunkTransfers(tmp_path)


def test_fsck_learns_container_sizes_without_reading_them(counted_store):
    report = verify_store(counted_store, check_entry_hashes=False)
    assert report.ok and report.containers_checked == 4
    assert counted_store.transferred == 0

    # Re-hashing entries is the one walk that loads containers: once each.
    assert verify_store(counted_store, check_entry_hashes=True).ok
    assert counted_store.whole_gets == 4


def test_sweep_reads_no_container(counted_store):
    delete_file(counted_store, "f0")
    report = sweep(counted_store)
    assert report.containers_deleted == 1 and report.bytes_reclaimed == 40_000
    assert counted_store.transferred == 0
