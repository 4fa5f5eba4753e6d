"""Ablation: chunker throughput (real wall-clock, pytest-benchmark).

The paper's repro risk note: "byte-level chunking slow" in Python.
This bench quantifies the vectorisation win — the NumPy Karp–Rabin
chunker versus its byte-at-a-time reference, plus TTTD (the CDC
variant the paper's Section II describes) and the fixed-size chunker
as the no-CDC floor.
"""

import numpy as np
import pytest

from conftest import write_report
from repro.chunking import (
    ChunkerConfig,
    FixedChunker,
    ReferenceChunker,
    TTTDChunker,
    VectorizedChunker,
)

CFG = ChunkerConfig(expected_size=4096)
FAST_DATA = np.random.default_rng(7).integers(0, 256, size=8 << 20, dtype=np.uint8).tobytes()
SLOW_DATA = FAST_DATA[: 256 << 10]  # the reference chunker is ~1000x slower


@pytest.mark.parametrize("cls", [VectorizedChunker, TTTDChunker, FixedChunker])
def test_fast_chunker_throughput(benchmark, cls):
    chunker = cls(CFG)
    cuts = benchmark(chunker.cut_points, FAST_DATA)
    assert int(cuts[-1]) == len(FAST_DATA)
    if benchmark.stats is not None:  # absent under --benchmark-disable
        benchmark.extra_info["throughput_MBps"] = round(
            len(FAST_DATA) / (1 << 20) / benchmark.stats.stats.mean, 1
        )


def test_reference_chunker_throughput(benchmark):
    chunker = ReferenceChunker(CFG)
    cuts = benchmark.pedantic(chunker.cut_points, args=(SLOW_DATA,), rounds=2, iterations=1)
    assert int(cuts[-1]) == len(SLOW_DATA)


def test_vectorized_beats_reference_by_10x(benchmark):
    """The headline vectorisation claim, asserted on equal input."""
    import time

    ref, vec = ReferenceChunker(CFG), VectorizedChunker(CFG)
    t0 = time.perf_counter()
    ref.cut_points(SLOW_DATA)
    t_ref = time.perf_counter() - t0

    def run_vec():
        t = time.perf_counter()
        out = vec.cut_points(SLOW_DATA)
        run_vec.elapsed = time.perf_counter() - t
        return out

    benchmark.pedantic(run_vec, rounds=3, iterations=1)
    t_vec = (
        benchmark.stats.stats.mean if benchmark.stats is not None else run_vec.elapsed
    )
    mbps_ref = len(SLOW_DATA) / (1 << 20) / t_ref
    mbps_vec = len(SLOW_DATA) / (1 << 20) / t_vec
    write_report(
        "ablation_chunkers",
        f"reference chunker: {mbps_ref:.2f} MB/s\n"
        f"vectorized chunker: {mbps_vec:.2f} MB/s\n"
        f"speedup: {t_ref / t_vec:.1f}x on {len(SLOW_DATA) >> 10} KB",
        extra={
            "input_bytes": len(SLOW_DATA),
            "reference_seconds": t_ref,
            "vectorized_seconds": t_vec,
            "speedup": t_ref / t_vec,
        },
    )
    assert t_ref / t_vec > 10, f"vectorized only {t_ref / t_vec:.1f}x faster"
