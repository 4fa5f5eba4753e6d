"""Hashing primitives: SHA-1 content digests and the Bloom filter."""

from .bloom import BloomFilter, optimal_bits, optimal_num_hashes
from .digest import (
    HASH_SIZE,
    Digest,
    hex_short,
    sha1,
    sha1_many,
    sha1_spans,
)

__all__ = [
    "BloomFilter",
    "optimal_bits",
    "optimal_num_hashes",
    "HASH_SIZE",
    "Digest",
    "hex_short",
    "sha1",
    "sha1_many",
    "sha1_spans",
]
