"""HHR — Hysteresis Hash Re-chunking (pure helpers).

When Bi-Directional Match Extension stops at a *merged* manifest entry
(one hash covering many original chunks) whose extent may straddle
duplicate and non-duplicate data, the old bytes are reloaded from the
DiskChunk and byte-compared against the incoming chunks.  The merged
entry is then split into at most three new entries:

* the **duplicate** span — the old bytes the incoming chunks matched
  (at the entry's *suffix* for backward extension, *prefix* for
  forward), represented by one new hash;
* the **EdgeHash** span — the old bytes aligned with the first
  *mismatching* incoming chunk (same size).  Its job is hysteresis:
  the next time the same duplicate slice arrives, its neighbour chunk
  hash-mismatches a small EdgeHash entry instead of a big merged one,
  so no byte reload is triggered again;
* the **remainder** span — whatever is left of the old extent.

The matching/planning helpers are pure byte/offset arithmetic so the
split logic is unit-testable in isolation.  :func:`apply_split`
materialises a plan onto a manifest — it is the **only sanctioned
manifest-entry mutation site** outside the SHM build path (dedupcheck
rule DDC002); the surrounding orchestration (cache updates, metering,
token resolution) stays in :mod:`repro.core.mhd`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from ..chunking import Buffer
from ..hashing import sha1
from ..storage import Manifest, ManifestEntry

__all__ = [
    "Span",
    "HHRPlan",
    "match_suffix_chunks",
    "match_prefix_chunks",
    "plan_backward_split",
    "plan_forward_split",
    "apply_split",
    "align_suffix",
    "align_prefix",
]


def align_suffix(sizes: Sequence[int], span: int) -> int | None:
    """Number of trailing elements whose sizes sum exactly to ``span``.

    Bi-Directional Match Extension compares *span* hashes: the hash of
    the last ``span`` buffered bytes against a merged manifest entry.
    The comparison is only attempted when whole buffered chunks tile
    the span exactly; returns ``None`` otherwise (or when the buffer is
    too short) — the caller then falls back to byte reloading.
    """
    total = 0
    k = 0
    for size in reversed(sizes):
        if total >= span:
            break
        total += size
        k += 1
    return k if total == span else None


def align_prefix(sizes: Sequence[int], span: int) -> int | None:
    """Number of leading elements whose sizes sum exactly to ``span``."""
    total = 0
    k = 0
    for size in sizes:
        if total >= span:
            break
        total += size
        k += 1
    return k if total == span else None


@dataclass(frozen=True)
class Span:
    """A sub-extent of the old entry, relative to the entry start."""

    offset: int
    size: int
    role: str  # "remainder" | "edge" | "duplicate"

    @property
    def end(self) -> int:
        """Exclusive end offset of this span."""
        return self.offset + self.size


@dataclass(frozen=True)
class HHRPlan:
    """Outcome of one HHR byte comparison."""

    matched_chunks: int  # whole incoming chunks found duplicate
    matched_bytes: int
    compared_bytes: int  # bytes memcmp'd (CPU accounting)
    spans: tuple[Span, ...]  # replacement tiling of the old extent


def match_suffix_chunks(
    old: bytes, tail_chunks: Sequence[Buffer]
) -> tuple[int, int, int]:
    """Match whole chunks backwards against the *suffix* of ``old``.

    ``tail_chunks`` is ordered as in the stream; matching proceeds from
    its last element (the chunk nearest the hit) towards the first.
    Returns ``(matched_count, matched_bytes, compared_bytes)``.
    """
    pos = len(old)
    matched = 0
    matched_bytes = 0
    compared = 0
    for chunk in reversed(tail_chunks):
        n = len(chunk)
        if n > pos:
            break  # old extent exhausted
        compared += n
        if old[pos - n : pos] == chunk:
            pos -= n
            matched += 1
            matched_bytes += n
        else:
            break
    return matched, matched_bytes, compared


def match_prefix_chunks(
    old: bytes, head_chunks: Sequence[Buffer]
) -> tuple[int, int, int]:
    """Match whole chunks forwards against the *prefix* of ``old``."""
    pos = 0
    matched = 0
    matched_bytes = 0
    compared = 0
    for chunk in head_chunks:
        n = len(chunk)
        if pos + n > len(old):
            break
        compared += n
        if old[pos : pos + n] == chunk:
            pos += n
            matched += 1
            matched_bytes += n
        else:
            break
    return matched, matched_bytes, compared


def _spans_or_none(spans: list[Span]) -> tuple[Span, ...]:
    return tuple(s for s in spans if s.size > 0)


def plan_backward_split(
    entry_size: int, matched_bytes: int, edge_chunk_size: int | None
) -> tuple[Span, ...]:
    """Replacement spans for a backward (suffix-matched) HHR.

    Layout: ``[remainder][edge][duplicate]``.  The edge is sized like
    the first mismatching incoming chunk, clipped to the bytes left of
    the duplicate span; ``None`` means the buffer ran out before a
    mismatch was seen (no edge needed).
    """
    if not 0 <= matched_bytes <= entry_size:
        raise ValueError(f"matched_bytes {matched_bytes} outside [0, {entry_size}]")
    dup_start = entry_size - matched_bytes
    edge = 0 if edge_chunk_size is None else min(edge_chunk_size, dup_start)
    return _spans_or_none(
        [
            Span(0, dup_start - edge, "remainder"),
            Span(dup_start - edge, edge, "edge"),
            Span(dup_start, matched_bytes, "duplicate"),
        ]
    )


def plan_forward_split(
    entry_size: int, matched_bytes: int, edge_chunk_size: int | None
) -> tuple[Span, ...]:
    """Replacement spans for a forward (prefix-matched) HHR.

    Layout: ``[duplicate][edge][remainder]``.
    """
    if not 0 <= matched_bytes <= entry_size:
        raise ValueError(f"matched_bytes {matched_bytes} outside [0, {entry_size}]")
    rest = entry_size - matched_bytes
    edge = 0 if edge_chunk_size is None else min(edge_chunk_size, rest)
    return _spans_or_none(
        [
            Span(0, matched_bytes, "duplicate"),
            Span(matched_bytes, edge, "edge"),
            Span(matched_bytes + edge, rest - edge, "remainder"),
        ]
    )


def apply_split(
    manifest: Manifest,
    index: int,
    entry: ManifestEntry,
    old: bytes,
    spans: Sequence[Span],
) -> tuple[int, int]:
    """Materialise an HHR plan: replace entry ``index`` with the spans.

    Each span's bytes are re-hashed from the reloaded extent ``old`` and
    written as a fresh (non-hook) entry; the DiskChunk bytes themselves
    never move, only their description is refined.

    Returns ``(index_shift, hashed_bytes)`` — how many extra entries the
    manifest gained and the SHA-1 work done (CPU accounting).  A
    degenerate plan (a single remainder span: nothing was learned)
    leaves the manifest untouched and returns ``(0, 0)``.
    """
    if len(spans) == 1 and spans[0].role == "remainder":
        return 0, 0
    replacements = [
        ManifestEntry(
            sha1(old[s.offset : s.end]), entry.offset + s.offset, s.size, is_hook=False
        )
        for s in spans
    ]
    manifest.replace_entry(index, replacements)
    return len(replacements) - 1, sum(s.size for s in spans)
