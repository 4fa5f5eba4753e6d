"""The router chunks and hashes once; workers ingest its cuts and digests.

Two facts make that sound, and both are checked here on random input:

* the premise — a segment the router cuts out of a file's chunk stream
  chunks, on its own, into exactly the router's chunks (every cut
  decision lies at least ``min_size`` > ``window`` bytes past the
  previous cut, so it never sees bytes of the previous segment), and
  the router's digests are the SHA-1s of those chunks;
* the seam — ``ingest_chunked`` with those sizes and digests does to
  the store exactly what ``ingest_segment`` of the bytes does.
"""

import io

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chunking import VectorizedChunker
from repro.cluster import ClusterConfig, ClusterRouter, ShardWorker
from repro.core import DedupConfig
from repro.hashing import sha1
from repro.registry import available, resolve
from repro.storage import MemoryBackend
from repro.workloads import BackupFile
from tests.test_ingest_behaviour_pin import RecordingBackend

CFG = DedupConfig(ecs=256, sd=4, bloom_bytes=1 << 12, cache_manifests=4)

#: Algorithms whose primary stream is not the router's chunker.
BIG_CHUNK_STREAMS = {"bimodal", "subchunk"}


class Trickle(io.RawIOBase):
    """A reader returning at most ``step`` bytes per read, so the
    router's chunker sees many small windows and rebinds its carry
    buffer while earlier chunk views are still held."""

    def __init__(self, data, step):
        self._data, self._pos, self._step = data, 0, step

    def read(self, n=-1):
        take = self._step if n < 0 else min(n, self._step)
        piece = self._data[self._pos : self._pos + take]
        self._pos += len(piece)
        return piece


def routed_segments(files, segment_bytes):
    """``(segment_id, data, sizes, digests)`` the router hands its worker."""
    router = ClusterRouter(
        MemoryBackend(),
        workers=["solo"],
        config=ClusterConfig(dedup=CFG, segment_bytes=segment_bytes),
    )
    worker = router.workers["solo"]
    seen = []
    real = worker.ingest_chunked

    def record(segment_id, data, sizes, digests):
        seen.append((segment_id, data, list(sizes), list(digests)))
        real(segment_id, data, sizes, digests)

    worker.ingest_chunked = record
    for f in files:
        router.put_file(f)
    return seen


def trickled(file_id, data, step):
    return BackupFile(file_id, source=lambda: Trickle(data, step), size_hint=len(data))


@st.composite
def blobs(draw):
    """Random bytes (~100 chunks at most), sometimes with a zero run
    that forces max-size cuts."""
    size = draw(st.integers(min_value=0, max_value=24_000))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    data = rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()
    if draw(st.booleans()):
        at = draw(st.integers(min_value=0, max_value=size))
        data = data[:at] + bytes(draw(st.integers(min_value=1, max_value=5_000))) + data[at:]
    return data


segment_limits = st.integers(min_value=1, max_value=8_000)
steps = st.integers(min_value=1, max_value=5_000)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=blobs(), segment_bytes=segment_limits, step=steps)
def test_segments_rechunk_to_the_routers_chunks(data, segment_bytes, step):
    chunker = VectorizedChunker(CFG.small_chunker_config())
    segments = routed_segments([trickled("f", data, step)], segment_bytes)
    assert b"".join(seg for _, seg, _, _ in segments) == data
    for _, seg, sizes, digests in segments:
        chunks = chunker.chunk(seg)
        assert [c.size for c in chunks] == sizes
        assert [sha1(c.data) for c in chunks] == digests


def run_segments(algo, segments, chunked):
    backend = RecordingBackend()
    worker = ShardWorker("w", MemoryBackend(), algo=algo, config=CFG, view=backend)
    for segment_id, data, sizes, digests in segments:
        if chunked:
            worker.ingest_chunked(segment_id, data, sizes, digests)
        else:
            worker.ingest_segment(segment_id, data)
    stats = worker.finalize().as_dict()
    return backend.ops, backend.digest(), backend.probes, stats


@pytest.mark.parametrize(
    "algo", [a for a in available() if a not in BIG_CHUNK_STREAMS]
)
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=blobs(), edit=st.binary(min_size=1, max_size=64), segment_bytes=segment_limits)
def test_chunked_ingest_equals_bytes_ingest(algo, data, edit, segment_bytes):
    # Two generations of one file, the second lightly edited, so the
    # store sees duplicates as well as new chunks.
    cut = len(data) // 2
    files = [BackupFile("g0", data), BackupFile("g1", data[:cut] + edit + data[cut:])]
    segments = routed_segments(files, segment_bytes)
    assert run_segments(algo, segments, chunked=True) == run_segments(
        algo, segments, chunked=False
    )


@pytest.mark.parametrize("algo", available())
def test_workers_take_the_routers_cuts_only_from_the_same_chunker(algo):
    worker = ShardWorker("w", MemoryBackend(), algo=algo, config=CFG)
    router_chunker = VectorizedChunker(CFG.small_chunker_config())
    assert worker.cuts_like(router_chunker) == (algo not in BIG_CHUNK_STREAMS)
    other_seed = DedupConfig(ecs=256, sd=4, seed=7).small_chunker_config()
    assert not worker.cuts_like(VectorizedChunker(other_seed))


@pytest.mark.parametrize("algo", sorted(BIG_CHUNK_STREAMS))
def test_big_chunk_streams_take_the_bytes_path(algo):
    data = bytes(range(256)) * 200
    router = ClusterRouter(
        MemoryBackend(), workers=2, config=ClusterConfig(algo=algo, dedup=CFG)
    )
    router.put_file(BackupFile("f", data))
    assert router.restore_file("f") == data
    assert all(r.ok for r in router.fsck(check_entry_hashes=True).values())


class TestIngestChunkedRejectsMalformedInput:
    DATA = bytes(range(200))
    DIGESTS = [sha1(DATA[:120]), sha1(DATA[120:])]

    @pytest.mark.parametrize(
        "sizes",
        [[120, 70], [120, 90], [200, 0], [250, -50], [120]],
        ids=["short", "long", "zero", "negative", "missing"],
    )
    def test_sizes_must_tile_data(self, sizes):
        dedup = resolve("bf-mhd")(CFG)
        digests = self.DIGESTS[: len(sizes)]
        with pytest.raises(ValueError):
            dedup.ingest_chunked("f", self.DATA, sizes, digests)

    def test_one_digest_per_chunk(self):
        dedup = resolve("bf-mhd")(CFG)
        with pytest.raises(ValueError, match="1 digests for 2 chunks"):
            dedup.ingest_chunked("f", self.DATA, [120, 80], self.DIGESTS[:1])
        with pytest.raises(ValueError, match="20 bytes"):
            dedup.ingest_chunked("f", self.DATA, [120, 80], [b"short", self.DIGESTS[1]])

    def test_rejection_leaves_the_deduplicator_usable(self):
        dedup = resolve("bf-mhd")(CFG)
        with pytest.raises(ValueError):
            dedup.ingest_chunked("f", self.DATA, [100, 100], self.DIGESTS[:1])
        dedup.ingest_chunked("f", self.DATA, [120, 80], self.DIGESTS)
        assert dedup.restore("f") == self.DATA
        assert dedup.finalize().input_files == 1
