"""The batched (NumPy) kernel must be byte-identical to the scalar spec.

The scalar loop is the executable specification; these tests prove
the vectorised Karp–Rabin kernel never diverges from it — on hypothesis-random
buffers, on lengths that straddle the vectorised chunker's internal
block boundary (``n % block ∈ {0, 1, window-1}``), and on the 137-byte
tiny-window streaming case from PR 1.
"""

import io

import numpy as np
import pytest
from hypothesis import given, settings

from repro.chunking import ChunkerConfig, ReferenceChunker, VectorizedChunker

from .conftest import buffers, random_bytes

SMALL = ChunkerConfig(expected_size=256, min_size=64, max_size=1024, window=16)


@settings(max_examples=40, deadline=None)
@given(data=buffers)
def test_karp_rabin_scalar_batched_identical(data):
    b = VectorizedChunker(SMALL)
    s = ReferenceChunker(SMALL)
    assert np.array_equal(b.candidates(data), s.candidates(data))
    assert np.array_equal(b.cut_points(data), s.cut_points(data))


@pytest.mark.parametrize("window", [4, 16, 48, 64])
@pytest.mark.parametrize("rem_kind", ["zero", "one", "window_minus_one"])
def test_block_boundary_straddle(window, rem_kind):
    """Lengths with ``n % block ∈ {0, 1, window-1}`` around a tiny
    vectorised block size: candidate positions must stay globally exact
    across the internal block seam."""
    cfg = ChunkerConfig(expected_size=256, min_size=64, max_size=1024, window=window)
    block = 1024
    rem = {"zero": 0, "one": 1, "window_minus_one": max(0, window - 1)}[rem_kind]
    for blocks in (1, 3):
        n = blocks * block + rem
        data = random_bytes(n, seed=1000 + window + rem)
        v = VectorizedChunker(cfg, block_size=block)
        r = ReferenceChunker(cfg)
        assert np.array_equal(v.candidates(data), r.candidates(data)), (window, n)
        assert np.array_equal(v.cut_points(data), r.cut_points(data)), (window, n)


@pytest.mark.parametrize(
    "make_pair",
    [
        lambda cfg: (VectorizedChunker(cfg), ReferenceChunker(cfg)),
    ],
    ids=["karp-rabin"],
)
def test_tiny_window_137_byte_stream(make_pair):
    """The 137 B streaming window from PR 1: batched and scalar kernels
    agree chunk-for-chunk even when reads are pathologically small."""
    cfg = ChunkerConfig(expected_size=256, min_size=64, max_size=1024, window=16)
    batched, scalar = make_pair(cfg)
    data = random_bytes(50_000, seed=137)
    whole = [tuple(c) for c in _stream_cuts(batched, data, window_bytes=1 << 20)]
    tiny_b = [tuple(c) for c in _stream_cuts(batched, data, window_bytes=137)]
    tiny_s = [tuple(c) for c in _stream_cuts(scalar, data, window_bytes=137)]
    assert tiny_b == whole
    assert tiny_s == whole


def _stream_cuts(chunker, data, window_bytes):
    for batch in chunker.chunk_stream(io.BytesIO(data), window_bytes=window_bytes):
        for c in batch:
            yield (c.offset, c.size)
