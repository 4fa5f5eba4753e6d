"""Edge-condition tests specific to the vectorised chunker.

The power-table tests look inside the NumPy kernel, so they run on the
NumPy path (``numpy_path``) whether or not the compiled kernel built.
"""

import numpy as np
import pytest

from repro.chunking import ChunkerConfig, ReferenceChunker, VectorizedChunker

from .conftest import random_bytes


def test_block_size_must_exceed_window():
    with pytest.raises(ValueError):
        VectorizedChunker(ChunkerConfig(expected_size=256, window=48), block_size=48)


def test_block_size_one_more_than_window():
    cfg = ChunkerConfig(expected_size=256, window=16)
    data = random_bytes(5_000, seed=1)
    tight = VectorizedChunker(cfg, block_size=17)
    wide = VectorizedChunker(cfg)
    assert np.array_equal(tight.candidates(data), wide.candidates(data))


def test_input_exactly_window_length():
    cfg = ChunkerConfig(expected_size=256, window=16)
    data = random_bytes(16, seed=2)
    v = VectorizedChunker(cfg)
    r = ReferenceChunker(cfg)
    assert np.array_equal(v.candidates(data), r.candidates(data))
    assert list(v.cut_points(data)) == [16]


def test_input_one_byte_short_of_window():
    cfg = ChunkerConfig(expected_size=256, window=16)
    data = random_bytes(15, seed=3)
    assert VectorizedChunker(cfg).candidates(data).size == 0


def test_power_table_cache_reused_across_calls(numpy_path):
    cfg = ChunkerConfig(expected_size=256, window=16)
    v = VectorizedChunker(cfg)
    a = random_bytes(50_000, seed=4)
    b = random_bytes(30_000, seed=5)
    first = v.cut_points(a)
    table_id = id(v._pow_minv)
    v.cut_points(b)  # shorter input: cache must be reused, not rebuilt
    assert id(v._pow_minv) == table_id
    assert np.array_equal(v.cut_points(a), first)  # cache is content-neutral


def test_non_power_of_two_ecs_mean():
    """ECS=768 (the paper's Fig. 10 point) really averages ~768+min."""
    cfg = ChunkerConfig(expected_size=768)
    data = random_bytes(3_000_000, seed=6)
    cuts = VectorizedChunker(cfg).cut_points(data)
    mean = len(data) / len(cuts)
    assert 700 < mean < 1700, mean


def test_non_power_of_two_matches_reference():
    cfg = ChunkerConfig(expected_size=768, window=16, min_size=64, max_size=4096)
    data = random_bytes(100_000, seed=7)
    assert np.array_equal(
        ReferenceChunker(cfg).cut_points(data),
        VectorizedChunker(cfg).cut_points(data),
    )


def test_memoryview_input():
    cfg = ChunkerConfig(expected_size=256, window=16)
    data = random_bytes(20_000, seed=8)
    v = VectorizedChunker(cfg)
    assert np.array_equal(v.cut_points(data), v.cut_points(memoryview(data)))


def test_modinv_rejects_even_multiplier():
    from repro.chunking.vectorized import _modinv_pow2

    for even in (0, 2, 0x9E3779B97F4A7C16):
        with pytest.raises(ValueError, match="odd"):
            _modinv_pow2(even)


def test_modinv_verified_for_odd_multipliers():
    from repro.chunking.vectorized import _modinv_pow2

    for a in (1, 3, 0x9E3779B97F4A7C15, (1 << 64) - 1):
        assert (a * _modinv_pow2(a)) & ((1 << 64) - 1) == 1


def test_power_table_cache_keyed_by_multiplier(numpy_path):
    """Two differently-seeded configs in one process must not share
    power tables — a shared-cache regression would silently corrupt one
    chunker's hashes with the other's multiplier."""
    cfg_a = ChunkerConfig(expected_size=256, window=16, seed=0x1111)
    cfg_b = ChunkerConfig(expected_size=256, window=16, seed=0x2222)
    data = random_bytes(80_000, seed=7)
    # Expected cuts from fresh single-config processes (reference spec).
    expect_a = ReferenceChunker(cfg_a).cut_points(data)
    expect_b = ReferenceChunker(cfg_b).cut_points(data)
    va, vb = VectorizedChunker(cfg_a), VectorizedChunker(cfg_b)
    # Interleave calls so a mis-keyed cache would cross-contaminate.
    assert np.array_equal(va.cut_points(data), expect_a)
    assert np.array_equal(vb.cut_points(data), expect_b)
    assert np.array_equal(va.cut_points(data), expect_a)
    assert id(va._pow_minv) != id(vb._pow_minv)
    # Different seeds must really produce different cut decisions for
    # the contamination check above to have teeth.
    assert not np.array_equal(expect_a, expect_b)


def test_power_table_cache_shared_for_same_multiplier(numpy_path):
    cfg = ChunkerConfig(expected_size=256, window=16)
    data = random_bytes(40_000, seed=8)
    v1, v2 = VectorizedChunker(cfg), VectorizedChunker(cfg)
    v1.cut_points(data)
    v2.cut_points(data)
    assert v1._pow_minv is v2._pow_minv  # one table per multiplier
