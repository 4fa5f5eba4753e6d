"""MHD's run-at-a-time loop at the two places where a run must end.

A run of chunks the Bloom filter proves new is decided in one step, so
it must stop where the SHM buffer reaches ``2·SD``: the flush there adds
a hook to the filter and the cache, and a chunk after it may be that
hook again.  Each case is fed as whole bytes and through a 137-byte
stream window; both feeds must do the same to the store and count the
same, and the chunk that repeats a flushed hook must be a duplicate.
Chunks are fixed-size so each case places its chunks exactly.
"""

import io

import numpy as np
import pytest

from repro.chunking import FixedChunker
from repro.core import DedupConfig, MHDDeduplicator
from repro.workloads import BackupFile
from tests.test_ingest_behaviour_pin import RecordingBackend

SD = 4
BLOCK = 512
CFG = DedupConfig(ecs=BLOCK, sd=SD, bloom_bytes=1 << 12, cache_manifests=4, window=16)
#: Counters a stream window may move (how the input was read).
FEED_FIELDS = ("stream_", "streamed_files", "peak_ram_bytes")


def blocks(n, seed):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 256, size=BLOCK, dtype=np.uint8).tobytes() for _ in range(n)]


def ingest(data, window):
    backend = RecordingBackend()
    dedup = MHDDeduplicator(CFG, backend=backend, chunker_cls=FixedChunker)
    if window is None:
        file = BackupFile("img", data)
    else:
        dedup.stream_window_bytes = window
        file = BackupFile("img", source=lambda: io.BytesIO(data), size_hint=len(data))
    stats = dedup.process([file])
    assert dedup.restore("img") == data
    counted = {
        k: v for k, v in stats.as_dict().items() if not k.startswith(FEED_FIELDS)
    }
    return (backend.ops, backend.digest(), backend.probes), counted


def run_both_feeds(data):
    ops, stats = ingest(data, None)
    assert ingest(data, 137) == (ops, stats)
    return stats


def test_negative_run_crosses_a_flush_then_repeats_its_hook():
    """Zero blocks, as a disk image has them: the run of new chunks
    reaches 2·SD in the middle of the zeros, the flush there makes a
    zero block a hook, and the next zero block is its duplicate."""
    head = blocks(3, 1)
    zero = bytes(BLOCK)
    tail = blocks(2, 2)
    # 3 + 5 zero blocks fill the buffer: group [h0 h1 h2 z] is flushed
    # (hook h0).  4 more zeros fill it again: group [z z z z] is flushed
    # (hook z).  The 10th zero hits that hook, and backward extension
    # re-chunks the first group's merged entry to claim the 9th, whose
    # bytes end it.
    data = b"".join(head + [zero] * 10 + tail)
    stats = run_both_feeds(data)
    assert stats["duplicate_chunks"] == 2
    assert stats["duplicate_slices"] == 1
    assert stats["unique_chunks"] == 3 + 8 + 2
    assert stats["duplicate_bytes"] == 2 * BLOCK


def test_run_ends_exactly_at_the_buffer_edge():
    """2·SD new chunks fill the buffer exactly; the flush at its edge
    makes the first of them a hook, and the chunk right after the edge
    repeats it."""
    new = blocks(2 * SD + 3, 3)
    data = b"".join(new[: 2 * SD] + [new[0]] + new[2 * SD :])
    stats = run_both_feeds(data)
    assert stats["duplicate_chunks"] == 1
    assert stats["unique_chunks"] == 2 * SD + 3


@pytest.mark.parametrize("extra", [0, 1, SD])
def test_hook_repeat_just_past_the_edge_is_found(extra):
    """However far past the edge the repeat lands, it is a duplicate
    of the flushed hook."""
    new = blocks(2 * SD + extra + 2, 4)
    data = b"".join(new[: 2 * SD + extra] + [new[0]] + new[2 * SD + extra :])
    stats = run_both_feeds(data)
    assert stats["duplicate_chunks"] == 1
