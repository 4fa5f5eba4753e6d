"""Content hashing primitives.

The paper's systems identify data by SHA-1 digests.  Three digest
roles appear throughout the codebase:

* **chunk hash** — SHA-1 over a single content-defined chunk's bytes.
* **merged hash** — SHA-1 over the concatenation of several contiguous
  chunks (the Sampling-and-Hash-Merging representation of ``SD-1``
  chunks as a single manifest entry).
* **address hash** — the name of a hash-addressable file (DiskChunk,
  Manifest, Hook) on the simulated disk.

All digests are raw 20-byte values wrapped in the :data:`Digest`
``NewType`` — a ``bytes`` at runtime, but a distinct type to the
checker, so arbitrary byte strings can't silently flow into digest
positions.  :data:`HASH_SIZE` is the constant the paper uses when
budgeting metadata bytes (each Hook file holds one 20-byte address).

This module is the *only* place allowed to touch :mod:`hashlib`
(dedupcheck rule DDC001): routing every digest through one door keeps
the paper's 20-byte metadata budget a fact rather than a convention.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable
from typing import NewType

__all__ = [
    "HASH_SIZE",
    "Digest",
    "sha1",
    "sha1_many",
    "sha1_spans",
    "hex_short",
]

#: Size in bytes of a SHA-1 digest (the paper's 20-byte hash values).
HASH_SIZE = 20

#: A raw 20-byte digest.  ``NewType`` is erased at runtime (a plain
#: ``bytes``), so digests remain usable as dict keys and struct fields;
#: statically it marks the boundary where arbitrary bytes become
#: content/address hashes.
Digest = NewType("Digest", bytes)


def sha1(data: bytes | bytearray | memoryview) -> Digest:
    """Return the 20-byte SHA-1 digest of ``data``.

    This is the content hash used for duplicate detection in every
    algorithm in the repository.
    """
    return Digest(hashlib.sha1(data).digest())


def sha1_many(parts: Iterable[bytes | bytearray | memoryview]) -> list[Digest]:
    """SHA-1 each element of ``parts``; the batch form of :func:`sha1`.

    The ingest hot path hashes every chunk of a batch back to back;
    hoisting the constructor lookup out of the loop and keeping the
    loop free of per-call attribute resolution is worth a few percent
    of wall clock at 4 KiB chunk sizes — small, but this is the single
    hottest loop in the pipeline, and the batch form also gives the
    telemetry layer one span per batch instead of one per chunk.
    Accepts ``memoryview`` spans directly, so callers feed zero-copy
    chunk views straight from :meth:`Chunker.chunk_stream`.
    """
    ctor = hashlib.sha1
    return [Digest(ctor(p).digest()) for p in parts]


def sha1_spans(parts: Iterable[bytes | bytearray | memoryview]) -> Digest:
    """Return the SHA-1 digest of the concatenation of ``parts``.

    Used by SHM to compute one *merged hash* over ``SD-1`` contiguous
    chunks without materialising their concatenation, and by HHR when
    re-hashing sub-spans of a reloaded DiskChunk region.
    """
    h = hashlib.sha1()
    for part in parts:
        h.update(part)
    return Digest(h.digest())


def hex_short(digest: Digest, length: int = 10) -> str:
    """Human-readable short form of a digest for logs and examples."""
    return digest.hex()[:length]
