"""A failed ``ingest()`` must not poison the deduplicator.

An exception mid-file (a raising ``IngestObserver``, a backend out of
retries) used to leave the in-progress manifest pinned in the cache,
the container open and the file counted; retrying the same file id
then raised ``ValueError: manifest … already cached``.

The store side: a failed ingest can leave its container (and manifest)
durable, and DiskChunks are never reopened — the retry's objects get
new ids from ``repro.storage.allocate_id`` instead of colliding.
"""

import io

import numpy as np
import pytest

from repro.core import DedupConfig
from repro.registry import available, resolve
from repro.storage import (
    BackendError,
    DiskModel,
    FaultInjectingBackend,
    FaultSpec,
    MemoryBackend,
    recover,
    verify_store,
)
from repro.workloads import BackupFile


def rand(n, seed):
    return np.random.default_rng(seed).integers(0, 256, size=n, dtype=np.uint8).tobytes()


class RaiseOnce:
    """An ``IngestObserver`` that vetoes one batch, once."""

    def __init__(self, at):
        self.batches = 0
        self.at = at

    def begin_file(self, file):
        pass

    def observe_batch(self, nbytes, nchunks):
        self.batches += 1
        if self.batches == self.at:
            raise RuntimeError("vetoed")

    def end_file(self, file):
        pass


def streamed(file_id, data):
    return BackupFile(file_id, source=lambda: io.BytesIO(data), size_hint=len(data))


@pytest.mark.parametrize("algo", available())
def test_retry_after_failed_ingest(algo):
    base = rand(150_000, 1)
    probe = rand(20_000, 2) + base[40_000:110_000] + rand(60_000, 3)
    d = resolve(algo)(
        DedupConfig(ecs=512, sd=4, bloom_bytes=1 << 16, cache_manifests=4, window=16)
    )
    d.stream_window_bytes = 8192
    d.ingest(streamed("base", base))
    # Far enough into the probe that chunks are buffered, a container
    # is open and hooks are written when the veto lands.
    d.ingest_observer = RaiseOnce(at=12)
    with pytest.raises(RuntimeError, match="vetoed"):
        d.ingest(streamed("probe", probe))
    assert d.ingest_observer.batches == 12
    assert not d.chunks._open
    if hasattr(d, "cache"):
        assert not d.cache._pinned

    d.ingest(streamed("probe", probe))  # the same id again
    stats = d.finalize()
    assert stats.input_files == 2
    assert d.restore("probe") == probe
    assert d.restore("base") == base
    assert not d.chunks._open
    if hasattr(d, "cache"):
        assert not d.cache._pinned


CONFIG = dict(ecs=512, sd=4, bloom_bytes=1 << 16, cache_manifests=4, window=16)


@pytest.mark.parametrize(
    "namespace", [DiskModel.CHUNK, DiskModel.MANIFEST, DiskModel.FILE_MANIFEST]
)
@pytest.mark.parametrize("algo", available())
def test_retry_after_failed_put_recover_and_restart(algo, namespace):
    """The first put to ``namespace`` fails for good; the store is
    recovered; a new process retries the same file id."""
    base = rand(60_000, 1)
    probe = rand(20_000, 2) + base[10_000:40_000] + rand(30_000, 3)
    store = MemoryBackend()
    resolve(algo)(DedupConfig(**CONFIG), backend=store).process(
        [BackupFile("base", base)]
    )

    weather = FaultInjectingBackend(
        store, [FaultSpec(kind="io_error", op="put", namespace=namespace, at=0)]
    )
    d = resolve(algo)(DedupConfig(**CONFIG), backend=weather)
    d.warm_start()
    with pytest.raises(BackendError):
        d.ingest(BackupFile("probe", probe))
    assert weather.faults_injected["io_error"] == 1
    recover(store)

    d = resolve(algo)(DedupConfig(**CONFIG), backend=store)
    d.warm_start()
    d.ingest(BackupFile("probe", probe))  # the same id again
    d.finalize()
    assert d.restore("probe") == probe
    assert d.restore("base") == base
    report = verify_store(store, check_entry_hashes=True)
    assert report.ok, report.errors
