"""Chunking invariants common to all chunkers (property-based).

1. Cut points tile the input exactly (concatenation invariant).
2. Sizes respect the configured bounds (all but the final chunk).
3. Content-defined chunkers resynchronise after a prefix edit — the
   property that motivates CDC over fixed-size chunking in the paper's
   introduction (the "boundary-shifting problem").
"""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chunking import (
    ChunkerConfig,
    FixedChunker,
    ReferenceChunker,
    TTTDChunker,
    VectorizedChunker,
)

from .conftest import buffers, random_bytes

SMALL = ChunkerConfig(expected_size=256, min_size=64, max_size=1024, window=16)

ALL_CHUNKERS = [VectorizedChunker, TTTDChunker, FixedChunker]
CDC_CHUNKERS = [VectorizedChunker, TTTDChunker]


@pytest.mark.parametrize("cls", ALL_CHUNKERS)
@given(data=buffers)
@settings(max_examples=25, deadline=None)
def test_chunks_tile_input(cls, data):
    chunker = cls(SMALL)
    chunks = chunker.chunk(data)
    assert b"".join(c.tobytes() for c in chunks) == data
    pos = 0
    for c in chunks:
        assert c.offset == pos
        pos += c.size
    assert pos == len(data)


@pytest.mark.parametrize("cls", ALL_CHUNKERS)
@given(data=buffers)
@settings(max_examples=25, deadline=None)
def test_cut_contract(cls, data):
    chunker = cls(SMALL)
    cuts = chunker.cut_points(data)
    chunker.validate_cuts(len(data), cuts)


@pytest.mark.parametrize("cls", ALL_CHUNKERS)
@given(data=buffers, window=st.integers(1, 3000))
@settings(max_examples=25, deadline=None)
def test_streaming_equals_whole(cls, data, window):
    """``chunk_stream`` cuts where one whole-buffer call does, for any read
    size (``VectorizedChunker`` on its compiled kernel wherever it built)."""
    chunker = cls(SMALL)
    stream = chunker.chunk_stream(io.BytesIO(data), window_bytes=window)
    assert [c.offset + c.size for batch in stream for c in batch] == (
        chunker.cut_points(data).tolist()
    )


@pytest.mark.parametrize("cls", CDC_CHUNKERS)
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_size_bounds(cls, seed):
    data = random_bytes(60_000, seed=seed)
    sizes = np.diff(np.concatenate([[0], cls(SMALL).cut_points(data)]))
    # All chunks except possibly the last respect the bounds.
    assert np.all(sizes[:-1] >= SMALL.min_size)
    assert np.all(sizes <= SMALL.max_size)


@pytest.mark.parametrize("cls", CDC_CHUNKERS)
def test_mean_size_near_expected(cls):
    """On random data the mean chunk size ~ min_size + ECS (clamping)."""
    data = random_bytes(2_000_000, seed=42)
    cuts = cls(SMALL).cut_points(data)
    mean = len(data) / len(cuts)
    assert SMALL.expected_size * 0.7 < mean < SMALL.expected_size * 2.2, mean


@pytest.mark.parametrize("cls", CDC_CHUNKERS)
@given(seed=st.integers(0, 2**32 - 1), edit=st.integers(1, 64))
@settings(max_examples=15, deadline=None)
def test_cdc_resynchronises_after_prefix_insertion(cls, seed, edit):
    """Inserting bytes near the start must leave most boundaries intact."""
    data = random_bytes(80_000, seed=seed)
    edited = random_bytes(edit, seed=seed ^ 0xFFFF) + data
    chunker = cls(SMALL)
    orig = set(int(p) for p in chunker.cut_points(data))
    new = set(int(p) - edit for p in chunker.cut_points(edited))
    # At least half the original boundaries reappear (far more in practice).
    common = len(orig & new)
    assert common >= len(orig) // 2, (common, len(orig))


def test_fixed_chunker_does_not_resynchronise():
    """The boundary-shifting problem: FSP loses all alignment."""
    data = random_bytes(80_000, seed=7)
    chunker = FixedChunker(SMALL)
    orig = set(int(p) for p in chunker.cut_points(data))
    shifted = set(int(p) - 1 for p in chunker.cut_points(b"!" + data))
    interior = {p for p in orig if p < len(data)}
    assert not (interior & shifted)


@pytest.mark.parametrize("cls", ALL_CHUNKERS + [ReferenceChunker])
def test_empty_input(cls):
    chunker = cls(SMALL)
    assert chunker.cut_points(b"").size == 0
    assert chunker.chunk(b"") == []


@pytest.mark.parametrize("cls", ALL_CHUNKERS)
def test_single_byte(cls):
    chunker = cls(SMALL)
    assert list(chunker.cut_points(b"x")) == [1]


@pytest.mark.parametrize("cls", CDC_CHUNKERS)
def test_determinism(cls):
    data = random_bytes(30_000, seed=3)
    a = cls(SMALL).cut_points(data)
    b = cls(SMALL).cut_points(data)
    assert np.array_equal(a, b)


def test_tttd_rejects_tiny_ecs():
    with pytest.raises(ValueError):
        TTTDChunker(ChunkerConfig(expected_size=64))


def test_tttd_forced_cuts_rarer_than_plain_cdc():
    """TTTD's backup divisor should replace most max_size forced cuts."""
    # Data with long low-candidate regions: constant runs.
    rng = np.random.default_rng(5)
    parts = []
    for _ in range(200):
        parts.append(rng.integers(0, 256, size=100, dtype=np.uint8).tobytes())
        parts.append(bytes([rng.integers(0, 256)]) * rng.integers(200, 800))
    data = b"".join(parts)
    cfg = ChunkerConfig(expected_size=256, min_size=64, max_size=512, window=16)
    plain_sizes = np.diff(np.concatenate([[0], VectorizedChunker(cfg).cut_points(data)]))
    tttd_sizes = np.diff(np.concatenate([[0], TTTDChunker(cfg).cut_points(data)]))
    plain_forced = int(np.sum(plain_sizes == cfg.max_size))
    tttd_forced = int(np.sum(tttd_sizes == cfg.max_size))
    assert tttd_forced <= plain_forced
