"""Crash matrix: kill the pipeline at scheduled points, reopen, recover.

Each scenario runs a real ingest (or GC sweep) over a
:class:`FaultInjectingBackend` wrapping an on-disk store, with one
scheduled ``crash``/``torn`` fault at a chosen backend operation.  The
"process dies" (CrashPoint propagates), the store is reopened in a
*fresh* backend — exactly what a restarted process sees — and
:func:`recover` must bring it back to a state where

* the integrity walk comes back clean,
* a second recovery pass finds nothing left to repair, and
* every file whose recipe survived restores byte-identically.
"""

import numpy as np
import pytest

from repro.core import DedupConfig, MHDDeduplicator
from repro.storage import (
    CrashPoint,
    DirectoryBackend,
    DiskChunkStore,
    DiskModel,
    FaultInjectingBackend,
    FaultSpec,
    FileManifestStore,
    MemoryBackend,
    delete_file,
    recover,
    sweep,
)
from repro.workloads import BackupFile, EditConfig, mutate


def cfg():
    # Tiny manifest cache so evictions write dirty manifests back
    # mid-run — the crash window the paper's LRU rule creates.
    return DedupConfig(ecs=512, sd=4, bloom_bytes=1 << 16, cache_manifests=2, window=16)


def rand(n, seed):
    return np.random.default_rng(seed).integers(0, 256, size=n, dtype=np.uint8).tobytes()


def make_files():
    rng = np.random.default_rng(0)
    base = rand(50_000, 1)
    return {
        "a": rand(40_000, 2),
        "b": base,
        "b2": mutate(base, rng, EditConfig(change_rate=0.08)),
        "c": rand(25_000, 3),
        "c2": mutate(rand(25_000, 3), rng, EditConfig(change_rate=0.15)),
    }


FILES = make_files()


def ingest(backend):
    MHDDeduplicator(cfg(), backend).process(
        [BackupFile(k, v) for k, v in FILES.items()]
    )


class CountingBackend(MemoryBackend):
    """Dry-run probe: how many put ops does the ingest issue, per namespace?"""

    def __init__(self):
        super().__init__()
        self.puts: dict[str, int] = {}

    def put(self, namespace, key, data):
        self.puts[namespace] = self.puts.get(namespace, 0) + 1
        super().put(namespace, key, data)


@pytest.fixture(scope="module")
def put_counts():
    probe = CountingBackend()
    ingest(probe)
    return probe.puts


def reopen_recover_check(store_dir):
    """The restarted process: fresh backend, recover, verify survivors."""
    backend = DirectoryBackend(store_dir)
    report = recover(backend)
    assert report.ok, report.summary()
    assert recover(backend).repairs == 0  # idempotent

    meter = DiskModel()
    fms = FileManifestStore(backend, meter)
    chunks = DiskChunkStore(backend, meter)
    survivors = fms.list_ids()
    for fid in survivors:
        assert b"".join(fms.get(fid).iter_restore(chunks)) == FILES[fid], f"{fid} corrupted"
    return survivors


@pytest.mark.parametrize("kind", ["crash", "torn"])
@pytest.mark.parametrize("fraction", [0.0, 0.25, 0.5, 0.75, 0.99])
def test_kill_during_ingest(tmp_path, put_counts, kind, fraction):
    total = sum(put_counts.values())
    at = min(total - 1, int(total * fraction))
    backend = FaultInjectingBackend(
        DirectoryBackend(tmp_path / "store"),
        schedule=[FaultSpec(kind, op="put", at=at)],
        seed=at,
    )
    with pytest.raises(CrashPoint):
        ingest(backend)
    assert backend.faults_injected[kind] == 1
    reopen_recover_check(tmp_path / "store")


@pytest.mark.parametrize(
    "namespace",
    [DiskModel.CHUNK, DiskModel.MANIFEST, DiskModel.HOOK, DiskModel.FILE_MANIFEST],
)
def test_kill_at_mid_namespace_put(tmp_path, put_counts, namespace):
    """Pin the crash to each object kind: container close, manifest
    write-back (SHM/HHR results included), hook publication, recipe."""
    at = put_counts[namespace] // 2
    backend = FaultInjectingBackend(
        DirectoryBackend(tmp_path / "store"),
        schedule=[FaultSpec("crash", op="put", namespace=namespace, at=at)],
    )
    with pytest.raises(CrashPoint):
        ingest(backend)
    reopen_recover_check(tmp_path / "store")


def test_completed_files_survive_a_late_crash(tmp_path, put_counts):
    """Files whose ingest finished before the kill-point stay durable."""
    total = sum(put_counts.values())
    backend = FaultInjectingBackend(
        DirectoryBackend(tmp_path / "store"),
        schedule=[FaultSpec("crash", op="put", at=total - 1)],
    )
    with pytest.raises(CrashPoint):
        ingest(backend)
    survivors = reopen_recover_check(tmp_path / "store")
    # The last put of the run is metadata for the *last* file at the
    # earliest, so all earlier files must have survived intact.
    assert len(survivors) >= len(FILES) - 1


@pytest.mark.parametrize("at", [0, 1, 2, 5])
def test_kill_during_gc_sweep(tmp_path, at):
    store_dir = tmp_path / "store"
    ingest(DirectoryBackend(store_dir))  # clean ingest first

    backend = FaultInjectingBackend(
        DirectoryBackend(store_dir),
        schedule=[FaultSpec("crash", op="delete", at=at)],
    )
    try:
        delete_file(backend, "a")
        delete_file(backend, "c")
        sweep(backend)
    except CrashPoint:
        pass  # mid-expire/mid-sweep death is the scenario; a clean
        # finish (high `at`, few deletes) degenerates to the happy path
    survivors = reopen_recover_check(store_dir)
    for fid in ("b", "b2"):
        assert fid in survivors


def test_torn_writes_never_corrupt_restores(tmp_path, put_counts):
    """Repeated torn-write crashes with re-ingest between them: the
    classic crash-loop.  Every recovery must leave a clean store."""
    store_dir = tmp_path / "store"
    total = sum(put_counts.values())
    for round_no, fraction in enumerate((0.3, 0.6, 0.9)):
        backend = FaultInjectingBackend(
            DirectoryBackend(store_dir),
            schedule=[FaultSpec("torn", op="put", at=int(total * fraction))],
            seed=round_no,
        )
        try:
            ingest(backend)
        except (CrashPoint, ValueError):
            # ValueError: re-ingesting after a partial run may collide
            # with an already-durable container (write-once rule) —
            # also a legitimate crash of this ingest attempt.
            pass
        reopen_recover_check(store_dir)
