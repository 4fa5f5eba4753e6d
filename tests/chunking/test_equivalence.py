"""The reference chunker is the spec; the vectorised chunker must match it.

These are the most important chunking tests in the repository: every
higher layer assumes the fast chunker implements exactly the documented
Karp–Rabin cut condition.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chunking import ChunkerConfig, ReferenceChunker, VectorizedChunker
from repro.chunking.base import Chunker

from .conftest import buffers, random_bytes

SMALL = ChunkerConfig(expected_size=256, min_size=64, max_size=1024, window=16)


@given(buffers)
@settings(max_examples=50, deadline=None)
def test_candidates_identical(data):
    ref = ReferenceChunker(SMALL)
    vec = VectorizedChunker(SMALL)
    assert np.array_equal(ref.candidates(data), vec.candidates(data))


@given(buffers)
@settings(max_examples=50, deadline=None)
def test_cut_points_identical(data):
    """Both paths: the default (compiled where it built) and NumPy."""
    ref = ReferenceChunker(SMALL)
    vec = VectorizedChunker(SMALL)
    want = ref.cut_points(data)
    assert np.array_equal(want, vec.cut_points(data))
    assert np.array_equal(want, Chunker._cut_points_ctx(vec, data, 0))


@given(st.integers(0, 2**32 - 1), st.sampled_from([17, 100, 333, 4096]))
@settings(max_examples=25, deadline=None)
def test_block_size_does_not_change_candidates(seed, block):
    """Blocked evaluation must be globally exact (content-defined)."""
    data = random_bytes(20_000, seed=seed)
    whole = VectorizedChunker(SMALL, block_size=1 << 30)
    blocked = VectorizedChunker(SMALL, block_size=block)
    assert np.array_equal(whole.candidates(data), blocked.candidates(data))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_different_seeds_give_different_cuts(seed):
    data = random_bytes(50_000, seed=seed)
    a = VectorizedChunker(ChunkerConfig(expected_size=256, window=16, seed=1))
    b = VectorizedChunker(ChunkerConfig(expected_size=256, window=16, seed=2))
    ca, cb = a.cut_points(data), b.cut_points(data)
    # Same trailing cut, but interior boundaries should disagree.
    assert not np.array_equal(ca, cb)


def test_equivalence_on_structured_data():
    """Low-entropy input (the hash-bias trap for mod-2^64 Karp-Rabin)."""
    data = (b"\x00" * 1000 + b"ab" * 800 + bytes(range(256)) * 20) * 3
    ref = ReferenceChunker(SMALL)
    vec = VectorizedChunker(SMALL)
    assert np.array_equal(ref.cut_points(data), vec.cut_points(data))


def test_input_shorter_than_window():
    cfg = ChunkerConfig(expected_size=256, window=48)
    data = b"short"
    ref, vec = ReferenceChunker(cfg), VectorizedChunker(cfg)
    assert ref.candidates(data).size == 0
    assert vec.candidates(data).size == 0
    # Still one chunk covering everything.
    assert list(ref.cut_points(data)) == [5]
    assert list(vec.cut_points(data)) == [5]
