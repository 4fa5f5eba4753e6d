"""Performance guardrails.

Generous wall-clock bounds that catch order-of-magnitude regressions
(an accidentally quadratic loop, a lost vectorisation) without being
flaky on slow CI machines.
"""

import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from repro.chunking import ChunkerConfig, VectorizedChunker, _cdc
from repro.core import DedupConfig, MHDDeduplicator
from repro.hashing import BloomFilter, sha1
from repro.workloads import tiny_corpus


def test_vectorized_chunker_throughput_floor():
    """≥ 5 MB/s (typically ~580 compiled, ~145 on the NumPy fallback); the
    reference runs at ~1 MB/s, so this also guards against silently
    falling back to scalar code."""
    data = np.random.default_rng(0).integers(0, 256, size=16 << 20, dtype=np.uint8).tobytes()
    chunker = VectorizedChunker(ChunkerConfig(expected_size=4096))
    start = time.perf_counter()
    chunker.cut_points(data)
    elapsed = time.perf_counter() - start
    mbps = 16 / elapsed
    assert mbps > 5, f"chunker at {mbps:.1f} MB/s"


def test_vectorized_chunker_memory_ceiling(numpy_path):
    """The NumPy path chunks 8 MiB in < 16 MiB beyond the input: a one-byte
    candidate mask per input byte plus two block-sized scratch arrays, not
    five input-sized ones (which traced ≈ 50 MiB), and the shared cache
    holds two power tables per multiplier — the finaliser is folded into
    one, not kept beside it."""
    from repro.chunking import vectorized

    data = np.random.default_rng(2).integers(0, 256, size=8 << 20, dtype=np.uint8).tobytes()
    chunker = VectorizedChunker(ChunkerConfig(expected_size=2048))
    tracemalloc.start()
    try:
        chunks = chunker.chunk(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(c.size for c in chunks) == len(data)
    assert peak < 16 << 20, f"chunk(8 MiB) peaked at {peak / 2**20:.1f} MiB"
    per_multiplier: Counter[int] = Counter()
    for (mult, _final), tables in vectorized._POWER_TABLES.items():
        per_multiplier[mult] += len(tables)
    assert per_multiplier and max(per_multiplier.values()) <= 2, per_multiplier


def _zero_run_peak():
    """Peak traced bytes of cutting 4 MiB of zeros, where every position
    is a cut candidate, so every chunk is min_size (1 KiB) long."""
    data = bytes(4 << 20)
    chunker = VectorizedChunker(ChunkerConfig(expected_size=4096))
    chunker.cut_points(data[: 1 << 20])  # load the kernel, fill the power tables
    tracemalloc.start()
    try:
        cuts = chunker.cut_points(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(cuts, np.arange(1, 4097) * 1024)
    return peak


def test_zero_run_memory_on_the_numpy_path(numpy_path):
    """Zero-filled blocks are common in disk images.  Walking a Python int
    per candidate cost ~48x the input (16 MiB of zeros: 7 MB/s, 769 MiB
    peak); the mask and the binary-search hop stay below 10x."""
    assert _zero_run_peak() < 10 * (4 << 20)


def test_zero_run_memory_on_the_compiled_path():
    if _cdc.compiled() is None:
        pytest.skip("this process cuts with NumPy")
    assert _zero_run_peak() < 1 << 20


def test_bloom_negative_probe_floor():
    """An absent digest costs < 6 µs per probe (typically ~1.2) at the
    e2e benchmark's filter (1 MiB, k=7): new data stops at the first
    clear bit.  A per-probe NumPy path took ~14 µs, so losing the
    pure-Python fast path fails here."""
    bloom = BloomFilter(1 << 20, 7)
    for i in range(20_000):
        bloom.add(sha1(i.to_bytes(4, "little")))
    absent = [sha1(i.to_bytes(4, "little")) for i in range(20_000, 120_000)]
    start = time.perf_counter()
    hits = sum(1 for d in absent if d in bloom)
    elapsed = time.perf_counter() - start
    assert hits == 0  # ~1e-12 false positives each at under 2 % load
    us = elapsed / len(absent) * 1e6
    assert us < 6, f"bloom negative probe at {us:.2f} µs"


def test_mhd_pipeline_throughput_floor():
    """End-to-end MHD ≥ 2 MB/s on the tiny corpus (typically 20-40)."""
    files = tiny_corpus().files()
    total = sum(f.size for f in files)
    d = MHDDeduplicator(DedupConfig(ecs=2048, sd=8))
    start = time.perf_counter()
    d.process(files)
    elapsed = time.perf_counter() - start
    mbps = total / 1e6 / elapsed
    assert mbps > 2, f"MHD at {mbps:.1f} MB/s"


def test_ingest_scales_linearly():
    """Doubling the input must not quadruple the time (quadratic-loop
    guard).  Uses one big unique file so chunk counts dominate."""
    rng = np.random.default_rng(1)
    small = rng.integers(0, 256, size=2 << 20, dtype=np.uint8).tobytes()
    big = rng.integers(0, 256, size=8 << 20, dtype=np.uint8).tobytes()
    from repro.workloads import BackupFile

    def run(data):
        d = MHDDeduplicator(DedupConfig(ecs=1024, sd=8))
        start = time.perf_counter()
        d.process([BackupFile("x", data)])
        return time.perf_counter() - start

    t_small = run(small)
    t_big = run(big)
    # 4x the data may cost at most ~10x the time (noise headroom).
    assert t_big < t_small * 10 + 0.5, (t_small, t_big)
