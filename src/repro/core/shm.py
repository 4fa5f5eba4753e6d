"""SHM — Sampling and Hash Merging (pure helpers).

A flushed group of ``SD`` non-duplicate chunks is represented in the
Manifest by exactly two hashes: the group's first chunk becomes a
**Hook** (its own SHA-1, also written as an on-disk Hook file), and
the remaining ``SD - 1`` chunks are merged under one SHA-1 computed
over their concatenation.  This is what drives MHD's ``2N/SD`` Table I
manifest-entry count.

:func:`build_group_entries` is pure: it takes the group's
digests/sizes/bytes and the container offset where the group's data
begins, and returns manifest entries plus the number of extra bytes
hashed (CPU accounting for the merged digest).
:func:`append_group` writes one flush group, given as its bytes in
stream order, onto a manifest — the
build-time manifest append lives here so that, together with HHR's
:func:`repro.core.hhr.apply_split`, all manifest-entry writes happen
inside the SHM/HHR machinery (dedupcheck rule DDC002).
"""

from __future__ import annotations

from collections.abc import Sequence

from ..hashing import Digest, sha1, sha1_spans
from ..storage import Manifest, ManifestEntry

__all__ = ["build_group_entries", "append_group"]


def build_group_entries(
    digests: Sequence[Digest],
    sizes: Sequence[int],
    datas: Sequence[bytes | memoryview],
    base_offset: int,
) -> tuple[list[ManifestEntry], int]:
    """Manifest entries for one SHM flush group.

    Parameters
    ----------
    digests, sizes, datas:
        Per-chunk digest / byte size / content, in stream order.
    base_offset:
        Byte offset in the DiskChunk container where the group starts.

    Returns ``(entries, extra_hashed_bytes)``: one hook entry plus (for
    groups of two or more chunks) one merged entry, and the bytes
    SHA-1'd to form the merged digest.
    """
    if not digests:
        raise ValueError("flush group must contain at least one chunk")
    if not (len(digests) == len(sizes) == len(datas)):
        raise ValueError("digests, sizes and datas must have equal lengths")
    entries = [ManifestEntry(digests[0], base_offset, sizes[0], is_hook=True)]
    extra_hashed = 0
    if len(digests) > 1:
        merged_size = sum(sizes[1:])
        merged_digest = sha1_spans(datas[1:])
        extra_hashed = merged_size
        entries.append(
            ManifestEntry(
                merged_digest, base_offset + sizes[0], merged_size, is_hook=False
            )
        )
    return entries, extra_hashed


def append_group(
    manifest: Manifest,
    hook: Digest,
    hook_size: int,
    data: bytes,
    base_offset: int,
) -> tuple[list[ManifestEntry], int]:
    """Append one SHM flush group's entries to ``manifest``.

    ``data`` is the group's bytes in stream order, its first
    ``hook_size`` bytes the hook chunk whose digest is ``hook``; the
    rest is merged under one SHA-1.  Returns the appended entries and
    the extra bytes SHA-1'd for the merged digest (CPU accounting).
    The caller remains responsible for writing the hook file and
    refreshing any cache index.
    """
    entries = [ManifestEntry(hook, base_offset, hook_size, is_hook=True)]
    merged_size = len(data) - hook_size
    if merged_size:
        merged_digest = sha1(memoryview(data)[hook_size:])
        entries.append(ManifestEntry(merged_digest, base_offset + hook_size, merged_size))
    for e in entries:
        manifest.append(e)
    return entries, merged_size
