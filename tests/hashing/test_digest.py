"""Unit tests for SHA-1 digest helpers."""

import hashlib

from hypothesis import given
from hypothesis import strategies as st

from repro.hashing import (
    HASH_SIZE,
    hex_short,
    sha1,
    sha1_many,
    sha1_spans,
)


def test_sha1_matches_hashlib():
    assert sha1(b"hello") == hashlib.sha1(b"hello").digest()


def test_sha1_length():
    assert len(sha1(b"")) == HASH_SIZE == 20


def test_sha1_accepts_memoryview():
    data = b"some chunk bytes"
    assert sha1(memoryview(data)) == sha1(data)


@given(st.lists(st.binary(max_size=64), max_size=8))
def test_sha1_spans_equals_concatenation(parts):
    assert sha1_spans(parts) == sha1(b"".join(parts))


def test_sha1_spans_empty():
    assert sha1_spans([]) == sha1(b"")


def test_sha1_spans_mixed_views():
    parts = [b"abc", memoryview(b"def"), b""]
    assert sha1_spans(parts) == sha1(b"abcdef")


def test_hex_short_prefix():
    d = sha1(b"x")
    assert hex_short(d, 8) == d.hex()[:8]
    assert len(hex_short(d)) == 10


@given(st.binary(max_size=128), st.binary(max_size=128))
def test_distinct_inputs_distinct_digests(a, b):
    # SHA-1 collisions are not going to appear from hypothesis.
    if a != b:
        assert sha1(a) != sha1(b)
    else:
        assert sha1(a) == sha1(b)


def test_sha1_many_matches_scalar():
    parts = [b"", b"a", b"chunk one", memoryview(b"chunk two")]
    assert sha1_many(parts) == [sha1(p) for p in parts]


def test_sha1_many_empty():
    assert sha1_many([]) == []


def test_sha1_many_accepts_generator_of_views():
    buf = memoryview(b"abcdefghij")
    spans = (buf[i : i + 2] for i in range(0, 10, 2))
    assert sha1_many(spans) == [sha1(buf[i : i + 2]) for i in range(0, 10, 2)]

