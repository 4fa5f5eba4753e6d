"""Unit and property tests for the Bloom filter."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing import BloomFilter, optimal_bits, optimal_num_hashes, sha1


def test_rejects_nonpositive_size():
    with pytest.raises(ValueError):
        BloomFilter(0)
    with pytest.raises(ValueError):
        BloomFilter(-5)


def test_rejects_bad_num_hashes():
    with pytest.raises(ValueError):
        BloomFilter(64, num_hashes=0)


def test_empty_filter_contains_nothing():
    bf = BloomFilter(1024)
    assert sha1(b"anything") not in bf
    assert bf.fill_ratio() == 0.0


def test_no_false_negatives_small():
    bf = BloomFilter(4096)
    digests = [sha1(str(i).encode()) for i in range(200)]
    for d in digests:
        bf.add(d)
    for d in digests:
        assert d in bf


@given(st.sets(st.integers(0, 10**6), min_size=1, max_size=300))
@settings(max_examples=30, deadline=None)
def test_no_false_negatives_property(keys):
    bf = BloomFilter.for_expected_items(len(keys), fp_rate=0.01)
    digests = [sha1(str(k).encode()) for k in keys]
    for d in digests:
        bf.add(d)
    assert all(d in bf for d in digests)


def test_false_positive_rate_near_theoretical():
    n = 2000
    bf = BloomFilter.for_expected_items(n, fp_rate=0.01)
    for i in range(n):
        bf.add(sha1(f"in-{i}".encode()))
    trials = 5000
    fps = sum(1 for i in range(trials) if sha1(f"out-{i}".encode()) in bf)
    measured = fps / trials
    # Within 3x of the 1% design point: loose but catches broken probing.
    assert measured < 0.03, f"FP rate {measured:.4f} too high"


def test_stats_counters():
    bf = BloomFilter(1024)
    d = sha1(b"x")
    bf.add(d)
    assert d in bf
    assert sha1(b"y") not in bf or True  # query recorded either way
    assert bf.stats.adds == 1
    assert bf.stats.queries == 2
    assert bf.stats.positives >= 1
    assert bf.stats.negatives == bf.stats.queries - bf.stats.positives


def test_for_expected_items_sizing():
    bf = BloomFilter.for_expected_items(10_000, fp_rate=0.01)
    # ~9.6 bits/item for 1% -> ~12 KB
    assert 8_000 < bf.size_bytes < 20_000
    assert 1 <= bf.num_hashes <= 16


def test_optimal_bits_monotone_in_items():
    assert optimal_bits(1000, 0.01) < optimal_bits(10_000, 0.01)


def test_optimal_bits_rejects_bad_rate():
    with pytest.raises(ValueError):
        optimal_bits(100, 0.0)
    with pytest.raises(ValueError):
        optimal_bits(100, 1.0)


def test_optimal_num_hashes_bounds():
    assert optimal_num_hashes(100, 0) == 1
    assert 1 <= optimal_num_hashes(10**9, 10) <= 16


def test_theoretical_fp_rate_increases_with_items():
    bf = BloomFilter(1024)
    assert bf.theoretical_fp_rate(100) < bf.theoretical_fp_rate(10_000)


def test_fill_ratio_grows():
    bf = BloomFilter(256)
    before = bf.fill_ratio()
    for i in range(50):
        bf.add(sha1(str(i).encode()))
    assert bf.fill_ratio() > before


def test_for_expected_items_zero_items():
    bf = BloomFilter.for_expected_items(0)
    assert bf.size_bytes >= 8
    assert sha1(b"x") not in bf


def test_fill_ratio_does_not_expand_the_bit_array():
    """Reporting the load of a filter must not cost a multiple of it
    (the paper's filter is 100 MB; one byte per bit would be 800 MB)."""
    size = 1 << 20
    tracemalloc.start()
    try:
        bf = BloomFilter(size)
        for i in range(64):
            bf.add(sha1(str(i).encode()))
        tracemalloc.reset_peak()
        ratio = bf.fill_ratio()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0.0 < ratio <= 64 * bf.num_hashes / (size * 8)
    assert peak < 2 * size, f"fill_ratio peaked at {peak} B for a {size} B filter"


# ---- uint64 oracle -------------------------------------------------------
# The NumPy ``uint64`` double-hashing formula the filter shipped with,
# kept here as the executable spec for the probe positions: false-positive
# patterns, and with them every metered Hook lookup in the paper-figure
# benches, depend on these exact positions.


def _oracle_positions(digest, k, num_bits):
    h1 = int.from_bytes(digest[0:8], "little")
    h2 = int.from_bytes(digest[8:16], "little") | 1
    with np.errstate(over="ignore"):
        idx = np.uint64(h1) + np.arange(k, dtype=np.uint64) * np.uint64(h2)
    return (idx % np.uint64(num_bits)).astype(np.int64)


class _OracleBloom:
    """Bit array + counters driven by :func:`_oracle_positions`."""

    def __init__(self, size_bytes, k):
        self.bits = np.zeros(size_bytes, dtype=np.uint8)
        self.k = k
        self.queries = self.positives = 0

    def _split(self, digest):
        pos = _oracle_positions(digest, self.k, self.bits.size * 8)
        return pos >> 3, np.left_shift(np.uint8(1), (pos & 7).astype(np.uint8))

    def add(self, digest):
        byte, mask = self._split(digest)
        np.bitwise_or.at(self.bits, byte, mask)

    def __contains__(self, digest):
        byte, mask = self._split(digest)
        hit = bool(np.all(self.bits[byte] & mask))
        self.queries += 1
        self.positives += hit
        return hit


def _filter_bytes(bf):
    # Whatever holds the bits (ndarray or bytearray), compare as bytes.
    return bytes(bf._bits)


#: Digests whose ``h1 + i*h2`` wraps past 2**64 within the first few
#: probes, next to plain random ones.
_digests = st.one_of(
    st.binary(min_size=20, max_size=20),
    st.builds(
        lambda lo, tail: b"\xff" * 7 + bytes([0xF0 | lo]) + b"\xff" * 8 + tail,
        st.integers(0, 15),
        st.binary(min_size=4, max_size=4),
    ),
)
#: 8·size_bytes is a power of two only when size_bytes is; most of these are not.
_sizes = st.sampled_from([1, 3, 8, 13, 64, 100, 257, 1024, 4099])


@given(digest=_digests, size_bytes=_sizes, k=st.integers(1, 16))
@settings(max_examples=200, deadline=None)
def test_positions_match_uint64_oracle(digest, size_bytes, k):
    bf = BloomFilter(size_bytes, num_hashes=k)
    assert list(bf._positions(digest)) == list(
        _oracle_positions(digest, k, size_bytes * 8)
    )


def test_positions_overflow_case_really_overflows():
    digest = b"\xff" * 16 + b"\0\0\0\0"
    h1 = int.from_bytes(digest[:8], "little")
    h2 = int.from_bytes(digest[8:16], "little") | 1
    assert h1 + h2 >= 1 << 64  # unbounded ints would diverge from uint64 here
    bf = BloomFilter(13, num_hashes=7)
    assert list(bf._positions(digest)) == list(_oracle_positions(digest, 7, 104))


@given(
    digests=st.lists(_digests, min_size=1, max_size=60),
    size_bytes=_sizes,
    k=st.integers(1, 16),
)
@settings(max_examples=100, deadline=None)
def test_bit_array_after_adds_matches_oracle(digests, size_bytes, k):
    bf, oracle = BloomFilter(size_bytes, num_hashes=k), _OracleBloom(size_bytes, k)
    for d in digests:
        bf.add(d)
        oracle.add(d)
    assert _filter_bytes(bf) == oracle.bits.tobytes()
    assert bf.stats.adds == len(digests)


@given(
    ops=st.lists(st.tuples(st.booleans(), _digests), min_size=1, max_size=80),
    size_bytes=_sizes,
    k=st.integers(1, 16),
)
@settings(max_examples=100, deadline=None)
def test_mixed_add_probe_sequence_matches_oracle(ops, size_bytes, k):
    bf, oracle = BloomFilter(size_bytes, num_hashes=k), _OracleBloom(size_bytes, k)
    for is_add, d in ops:
        if is_add:
            bf.add(d)
            oracle.add(d)
        else:
            assert (d in bf) == (d in oracle)
    assert (bf.stats.queries, bf.stats.positives) == (oracle.queries, oracle.positives)
    assert _filter_bytes(bf) == oracle.bits.tobytes()


# ---- run probe -------------------------------------------------------------


def _in_loop(bf, digests, start, stop):
    """The per-digest probe that ``negative_run`` stands for."""
    n = 0
    for digest in digests[start:stop]:
        if digest in bf:
            break
        n += 1
    return n


@settings(max_examples=200, deadline=None)
@given(
    added=st.lists(st.binary(min_size=20, max_size=20), max_size=30),
    probed=st.lists(st.binary(min_size=20, max_size=20), max_size=40),
    size_bytes=st.integers(1, 64),
    k=st.integers(1, 8),
    bounds=st.tuples(st.integers(0, 45), st.integers(0, 45)),
)
def test_negative_run_equals_a_loop_of_in(added, probed, size_bytes, k, bounds):
    """Same length and the same stats as ``in`` digest by digest, up to
    and including the positive that ends the run."""
    # Half the probes are added digests, so runs end on real members too.
    digests = [d for pair in zip(probed, added + probed, strict=False) for d in pair]
    start, stop = (min(b, len(digests)) for b in bounds)
    run, loop = BloomFilter(size_bytes, k), BloomFilter(size_bytes, k)
    for bf in (run, loop):
        for d in added:
            bf.add(d)
    assert run.negative_run(digests, start, stop) == _in_loop(loop, digests, start, stop)
    assert run.stats == loop.stats


def test_negative_run_stops_before_a_member():
    bf = BloomFilter(1 << 12, 4)
    digests = [sha1(b"%d" % i) for i in range(10)]
    bf.add(digests[6])
    assert bf.negative_run(digests, 2, 10) == 4
    assert (bf.stats.queries, bf.stats.positives) == (5, 1)
    assert bf.negative_run(digests, 7, 10) == 3
    assert bf.negative_run(digests, 5, 5) == 0
    assert (bf.stats.queries, bf.stats.positives) == (8, 1)
