"""In-memory Bloom filter used to avoid disk lookups for new hashes.

The paper configures a 100 MB in-memory Bloom filter for the Bimodal,
SubChunk and BF-MHD prototypes.  Before querying the on-disk Hook
store for an incoming chunk hash, the deduplicator consults the filter:
a negative answer proves the hash has never been stored, so the chunk
is non-duplicate and no disk access is needed.  A positive answer may
be a false positive, in which case the (wasted) Hook lookup still
happens — exactly the behaviour the paper's Table II "with Bloom
Filter" rows assume.

The implementation is a flat ``bytearray`` bit array with ``k`` probe
positions derived from a digest by double hashing (Kirsch &
Mitzenmacher), which lets us split one SHA-1 into two 64-bit values
instead of computing ``k`` independent hashes.  ``add`` and the
membership probe run on Python ints only — on k ≈ 7 positions a NumPy
call costs ten times the arithmetic it performs — and a probe returns
at the first clear bit, so a negative (the common answer for new data)
touches one or two positions.  :meth:`BloomFilter.negative_run` probes
a whole run of digests in one call, the way MHD meets a slice of new
data.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from .digest import Digest

__all__ = ["BloomFilter", "optimal_num_hashes", "optimal_bits"]

_U64 = (1 << 64) - 1

#: A 20-byte digest's first 64-bit half (little-endian), the rest skipped.
_FIRST_HALF = struct.Struct("<Q12x")

#: Bytes popcounted per step by :meth:`BloomFilter.fill_ratio`.
_POPCOUNT_SLICE = 1 << 16


def optimal_num_hashes(bits: int, expected_items: int) -> int:
    """Optimal number of probes ``k = (m/n) ln 2`` clamped to ``[1, 16]``."""
    if expected_items <= 0:
        return 1
    k = round(bits / expected_items * math.log(2))
    return max(1, min(16, k))


def optimal_bits(expected_items: int, fp_rate: float) -> int:
    """Bits required for a target false-positive rate.

    ``m = -n ln p / (ln 2)^2``; returns at least 64 bits.
    """
    if not 0.0 < fp_rate < 1.0:
        raise ValueError(f"fp_rate must be in (0, 1), got {fp_rate}")
    if expected_items <= 0:
        return 64
    m = -expected_items * math.log(fp_rate) / (math.log(2) ** 2)
    return max(64, int(math.ceil(m)))


@dataclass
class BloomStats:
    """Counters describing filter usage, reported by experiments."""

    adds: int = 0
    queries: int = 0
    positives: int = 0

    @property
    def negatives(self) -> int:
        return self.queries - self.positives


class BloomFilter:
    """Fixed-size Bloom filter over 20-byte digests.

    Parameters
    ----------
    size_bytes:
        RAM budget for the bit array.  The paper uses 100 MB; scaled
        experiments size the filter with :meth:`for_expected_items`.
    num_hashes:
        Number of probe positions per item; if ``None`` it is chosen
        assuming the filter will be loaded to ~50% of its bits.
    """

    def __init__(self, size_bytes: int, num_hashes: int | None = None) -> None:
        if size_bytes <= 0:
            raise ValueError(f"size_bytes must be positive, got {size_bytes}")
        self._bits = bytearray(size_bytes)
        self._num_bits = size_bytes * 8
        # Heuristic: assume the operator sized the array for its load.
        self._k = num_hashes if num_hashes is not None else 7
        if self._k < 1:
            raise ValueError(f"num_hashes must be >= 1, got {num_hashes}")
        self.stats = BloomStats()

    @classmethod
    def for_expected_items(
        cls, expected_items: int, fp_rate: float = 0.01
    ) -> BloomFilter:
        """Construct a filter sized for ``expected_items`` at ``fp_rate``."""
        bits = optimal_bits(expected_items, fp_rate)
        size_bytes = (bits + 7) // 8
        return cls(size_bytes, optimal_num_hashes(size_bytes * 8, expected_items))

    @property
    def size_bytes(self) -> int:
        """RAM occupied by the bit array (the paper's 100 MB budget)."""
        return len(self._bits)

    @property
    def num_hashes(self) -> int:
        """Probe positions tested per membership operation."""
        return self._k

    def _positions(self, digest: Digest) -> Iterator[int]:
        # Double hashing: derive k positions from two 64-bit halves of
        # the digest.  SHA-1 is 20 bytes; use bytes [0:8] and [8:16].
        # ``h1 + i*h2`` wraps at 64 bits *before* the modulo (uint64
        # arithmetic), which is what fixes the positions when the
        # filter size is not a power of two.  Lazy, so a probe that
        # stops at its first clear bit computes nothing further.
        idx = int.from_bytes(digest[0:8], "little")
        h2 = int.from_bytes(digest[8:16], "little") | 1  # force odd
        num_bits = self._num_bits
        for _ in range(self._k):
            yield (idx & _U64) % num_bits
            idx += h2

    def add(self, digest: Digest) -> None:
        """Insert a digest (sets its k probe bits)."""
        bits = self._bits
        for pos in self._positions(digest):
            bits[pos >> 3] |= 1 << (pos & 7)
        self.stats.adds += 1

    def __contains__(self, digest: Digest) -> bool:
        """Membership query; ``False`` is definitive, ``True`` may be a FP."""
        stats = self.stats
        stats.queries += 1
        if not self._all_set(digest):
            return False
        stats.positives += 1
        return True

    def negative_run(self, digests: Sequence[Digest], start: int, stop: int) -> int:
        """How many of ``digests[start:stop]``, from the first, the filter
        proves new: the run ends before the first "maybe".

        Exactly a loop of ``in`` over the slice that stops at the first
        positive — the same answer and the same :attr:`stats`, the
        positive that ends the run counted.  A digest's first probe
        position is its first 64-bit half modulo the filter's bits, and
        on a filter loaded as sized that bit alone answers almost every
        new digest, so the halves are read in one unpack and only a set
        first bit costs a full probe.
        """
        bits, num_bits = self._bits, self._num_bits
        t = start
        for (h1,) in _FIRST_HALF.iter_unpack(b"".join(digests[start:stop])):
            pos = h1 % num_bits
            if bits[pos >> 3] >> (pos & 7) & 1 and self._all_set(digests[t]):
                self.stats.queries += t - start + 1
                self.stats.positives += 1
                return t - start
            t += 1
        run = max(stop - start, 0)
        self.stats.queries += run
        return run

    def _all_set(self, digest: Digest) -> bool:
        """Whether all of ``digest``'s probe bits are set (counts nothing)."""
        bits = self._bits
        for pos in self._positions(digest):
            if not bits[pos >> 3] >> (pos & 7) & 1:
                return False
        return True

    def fill_ratio(self) -> float:
        """Fraction of bits set — diagnostic for over-full filters."""
        # Popcount in bounded slices: a paper-sized 100 MB filter must
        # not need a multiple of its own size to report its load.
        bits = self._bits
        ones = sum(
            int.from_bytes(bits[i : i + _POPCOUNT_SLICE], "little").bit_count()
            for i in range(0, len(bits), _POPCOUNT_SLICE)
        )
        return ones / self._num_bits

    def theoretical_fp_rate(self, items: int) -> float:
        """Expected false-positive probability after ``items`` inserts."""
        m, k = self._num_bits, self._k
        return (1.0 - math.exp(-k * items / m)) ** k
