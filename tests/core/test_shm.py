"""Unit tests for Sampling and Hash Merging."""

import pytest

from repro.core import append_group, build_group_entries
from repro.hashing import sha1
from repro.storage import Manifest


def group(*parts: bytes):
    digests = [sha1(p) for p in parts]
    sizes = [len(p) for p in parts]
    return digests, sizes, list(parts)


def test_single_chunk_group_is_one_hook():
    digests, sizes, datas = group(b"only")
    entries, extra = build_group_entries(digests, sizes, datas, base_offset=10)
    assert len(entries) == 1
    assert entries[0].is_hook
    assert entries[0].offset == 10
    assert entries[0].size == 4
    assert extra == 0


def test_group_merges_tail_into_one_hash():
    digests, sizes, datas = group(b"head", b"middle", b"tail!")
    entries, extra = build_group_entries(digests, sizes, datas, base_offset=0)
    assert len(entries) == 2
    hook, merged = entries
    assert hook.is_hook and not merged.is_hook
    assert hook.digest == sha1(b"head")
    assert merged.digest == sha1(b"middletail!")
    assert merged.offset == 4
    assert merged.size == len(b"middletail!")
    assert extra == len(b"middletail!")  # CPU bytes for the merged hash


def test_entries_tile_the_group_extent():
    digests, sizes, datas = group(b"a" * 100, b"b" * 200, b"c" * 50)
    entries, _ = build_group_entries(digests, sizes, datas, base_offset=1000)
    assert entries[0].offset == 1000
    assert entries[-1].offset + entries[-1].size == 1000 + 350


def test_paper_fig5_example():
    """10 chunks with SD=5: two groups -> 4 hash values (Fig. 5)."""
    chunks = [bytes([i]) * 10 for i in range(10)]
    all_entries = []
    for start in (0, 5):
        g = chunks[start : start + 5]
        digests = [sha1(c) for c in g]
        entries, _ = build_group_entries(
            digests, [len(c) for c in g], g, base_offset=start * 10
        )
        all_entries.extend(entries)
    assert len(all_entries) == 4  # the paper's "4 hash values"
    assert [e.is_hook for e in all_entries] == [True, False, True, False]
    # merged entries cover chunks 2-5 and 7-10 in the paper's numbering
    assert all_entries[1].size == 40
    assert all_entries[3].size == 40


def test_rejects_empty_group():
    with pytest.raises(ValueError):
        build_group_entries([], [], [], 0)


def test_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        build_group_entries([sha1(b"a")], [1, 2], [b"a"], 0)


@pytest.mark.parametrize("parts", [[b"only"], [b"head", b"middle", b"tail!"], [b"a" * 9] * 5])
def test_append_group_of_joined_bytes_matches_the_pure_helper(parts):
    """The flush path hands SHM the group's bytes joined; the entries
    and the hashing charge are the per-chunk helper's."""
    digests, sizes, datas = group(*parts)
    manifest = Manifest(sha1(b"m"), sha1(b"c"))
    appended = append_group(manifest, digests[0], sizes[0], b"".join(datas), 64)
    assert appended == build_group_entries(digests, sizes, datas, base_offset=64)
    assert manifest.entries == appended[0]
