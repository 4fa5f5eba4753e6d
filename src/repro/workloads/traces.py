"""Dataset-characteristic measurement (the paper's Section V-D).

Computes algorithm-independent properties of a corpus at a given
chunking granularity by running an *exact* chunk-level deduplication
(a full in-memory hash set — the oracle no real system can afford):

* ``N`` / ``D`` — final counts of non-duplicate and duplicate chunks,
* ``L`` — number of *duplicate data slices* (maximal runs of
  consecutive duplicate chunks in the input stream),
* data-only DER ``(D+N)/N`` by chunk count and by bytes,
* DAD — Duplication Aggregation Degree: duplicate bytes per duplicate
  slice, the paper's measure of how concentrated duplication is
  (Fig. 10(a): 90–220 KB on their corpus),
* ``F`` — files not completely duplicate (the Manifest count in the
  paper's analysis).

These ground-truth numbers parameterise the Table I/II formula benches
and validate the synthetic corpus against the paper's dataset shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable

from ..chunking import Chunker
from ..hashing import sha1
from .machine import BackupFile

__all__ = ["TraceStats", "trace_corpus"]


@dataclass(frozen=True)
class TraceStats:
    """Ground-truth duplication statistics of a corpus."""

    total_bytes: int
    total_chunks: int
    unique_chunks: int  # N
    duplicate_chunks: int  # D
    unique_bytes: int
    duplicate_bytes: int
    duplicate_slices: int  # L
    total_files: int
    partial_files: int  # F: files that are not completely duplicate

    @property
    def n(self) -> int:
        """The paper's N (non-duplicate chunks)."""
        return self.unique_chunks

    @property
    def d(self) -> int:
        """The paper's D (duplicate chunks)."""
        return self.duplicate_chunks

    @property
    def l(self) -> int:  # noqa: E741 - the paper's symbol
        """The paper's L (duplicate data slices)."""
        return self.duplicate_slices

    @property
    def f(self) -> int:
        """The paper's F (files not completely duplicate)."""
        return self.partial_files

    @property
    def chunk_der(self) -> float:
        """The paper's (D+N)/N duplication elimination ratio."""
        return (self.duplicate_chunks + self.unique_chunks) / max(1, self.unique_chunks)

    @property
    def byte_der(self) -> float:
        """Data-only DER by bytes (input / unique bytes)."""
        return self.total_bytes / max(1, self.unique_bytes)

    @property
    def dad(self) -> float:
        """Duplication Aggregation Degree: dup bytes per dup slice."""
        return self.duplicate_bytes / max(1, self.duplicate_slices)


def trace_corpus(files: Iterable[BackupFile], chunker: Chunker) -> TraceStats:
    """Exact-dedup oracle over a corpus at ``chunker``'s granularity."""
    seen: set[bytes] = set()
    total_bytes = total_chunks = 0
    unique_chunks = duplicate_chunks = 0
    unique_bytes = duplicate_bytes = 0
    slices = 0
    total_files = partial_files = 0
    for f in files:
        total_files += 1
        in_dup_run = False
        any_unique = False
        with f.open() as reader:
            for batch in chunker.chunk_stream(reader):
                for chunk in batch:
                    total_chunks += 1
                    total_bytes += chunk.size
                    digest = sha1(chunk.data)
                    if digest in seen:
                        duplicate_chunks += 1
                        duplicate_bytes += chunk.size
                        if not in_dup_run:
                            slices += 1
                            in_dup_run = True
                    else:
                        seen.add(digest)
                        unique_chunks += 1
                        unique_bytes += chunk.size
                        in_dup_run = False
                        any_unique = True
        if any_unique:
            partial_files += 1
    return TraceStats(
        total_bytes=total_bytes,
        total_chunks=total_chunks,
        unique_chunks=unique_chunks,
        duplicate_chunks=duplicate_chunks,
        unique_bytes=unique_bytes,
        duplicate_bytes=duplicate_bytes,
        duplicate_slices=slices,
        total_files=total_files,
        partial_files=partial_files,
    )
