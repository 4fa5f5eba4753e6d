"""Property-based tests for manifest structures.

Serialisation round-trips and mutation chains over randomly generated
entry layouts — the HHR mutation path in particular must preserve the
tiling invariant through arbitrary split sequences.
"""

import struct

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hashing import sha1
from repro.storage import (
    ENTRY_SIZE,
    MANIFEST_HEADER_SIZE,
    MHD_ENTRY_SIZE,
    Manifest,
    ManifestEntry,
    MultiEntry,
    MultiManifest,
)
from repro.storage.manifest import load_manifest

MID = sha1(b"m")
CID = sha1(b"c")
CONTAINERS = [sha1(f"c{i}".encode()) for i in range(4)]


@st.composite
def tiled_entries(draw, max_size=30):
    """Contiguous entries starting at 0 (the manifest invariant)."""
    sizes = draw(st.lists(st.integers(1, 10_000), min_size=0, max_size=max_size))
    entries = []
    pos = 0
    for i, size in enumerate(sizes):
        entries.append(
            ManifestEntry(
                sha1(f"e{i}".encode()), pos, size, is_hook=draw(st.booleans())
            )
        )
        pos += size
    return entries


@given(tiled_entries(), st.sampled_from([ENTRY_SIZE, MHD_ENTRY_SIZE]))
@settings(max_examples=60, deadline=None)
def test_manifest_roundtrip_property(entries, entry_size):
    m = Manifest(MID, CID, entries, entry_size=entry_size)
    m2 = Manifest.from_bytes(m.to_bytes())
    if entries:  # empty manifests can't carry their entry size
        assert m2.entry_size == entry_size
    assert [(e.digest, e.offset, e.size) for e in m2.entries] == [
        (e.digest, e.offset, e.size) for e in entries
    ]
    if entry_size == MHD_ENTRY_SIZE:
        assert [e.is_hook for e in m2.entries] == [e.is_hook for e in entries]
    assert len(m.to_bytes()) == m.byte_size()


@given(
    tiled_entries(),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_split_chains_preserve_tiling(entries, data):
    """Random sequences of HHR-style splits keep the manifest tiled."""
    m = Manifest(MID, CID, entries)
    total = sum(e.size for e in entries)
    for _round in range(data.draw(st.integers(0, 4))):
        if not m.entries:
            break
        i = data.draw(st.integers(0, len(m.entries) - 1))
        victim = m.entries[i]
        if victim.size < 2:
            continue
        cut = data.draw(st.integers(1, victim.size - 1))
        parts = [
            ManifestEntry(sha1(b"p1" + victim.digest), victim.offset, cut),
            ManifestEntry(
                sha1(b"p2" + victim.digest), victim.offset + cut, victim.size - cut
            ),
        ]
        m.replace_entry(i, parts)
        # find stays consistent with positions after every mutation
        for j, e in enumerate(m.entries):
            assert m.find(e.digest) is not None
    m.validate_tiling(total if entries else None)


@st.composite
def multi_entries(draw):
    out = []
    for i in range(draw(st.integers(0, 25))):
        out.append(
            MultiEntry(
                sha1(f"d{i}".encode()),
                CONTAINERS[draw(st.integers(0, 3))],
                draw(st.integers(0, 2**40)),
                draw(st.integers(1, 2**30)),
            )
        )
    return out


@given(multi_entries())
@settings(max_examples=60, deadline=None)
def test_multi_manifest_roundtrip_property(entries):
    m = MultiManifest(MID, entries)
    m2 = MultiManifest.from_bytes(m.to_bytes())
    assert m2.entries == entries
    assert len(m.to_bytes()) == m.byte_size()
    # group count never exceeds entry count; group sizes sum to total
    groups = m.groups()
    assert sum(count for _c, count in groups) == len(entries)
    assert len(groups) <= max(1, len(entries))


def round_trip_kind(raw: bytes) -> type:
    """The kind a payload is by re-serialisation: a ``Manifest`` if it
    parses as one and ``to_bytes`` gives it back, else a ``MultiManifest``."""
    try:
        if Manifest.from_bytes(raw).to_bytes() == raw:
            return Manifest
    except (ValueError, struct.error):
        pass
    return MultiManifest


def loaded_kind(raw: bytes) -> type:
    """The kind ``load_manifest`` decides (a failed MultiManifest parse
    is still that kind's decision)."""
    try:
        return type(load_manifest(raw))
    except (ValueError, struct.error):
        return MultiManifest


@st.composite
def manifest_payloads(draw):
    """Serialised manifests of both kinds, then maybe one mutation: a
    Hook flag byte, any byte, the entry count, or the length."""
    if draw(st.booleans()):
        entry_size = draw(st.sampled_from([ENTRY_SIZE, MHD_ENTRY_SIZE]))
        entries = draw(tiled_entries(max_size=80))
        raw = bytearray(Manifest(MID, CID, entries, entry_size).to_bytes())
    else:
        entry_size, entries = MHD_ENTRY_SIZE, draw(multi_entries())
        raw = bytearray(MultiManifest(MID, entries).to_bytes())
    mutation = draw(st.sampled_from(["none", "flag", "byte", "count", "cut", "grow"]))
    flags = range(MANIFEST_HEADER_SIZE + ENTRY_SIZE, len(raw), entry_size)
    if mutation == "flag" and flags:
        raw[draw(st.sampled_from(flags))] = draw(st.integers(0, 255))
    elif mutation == "byte" and raw:
        raw[draw(st.integers(0, len(raw) - 1))] = draw(st.integers(0, 255))
    elif mutation == "count" and len(raw) >= MANIFEST_HEADER_SIZE:
        count = max(0, len(entries) + draw(st.integers(-3, 3)))
        struct.pack_into("<I", raw, MANIFEST_HEADER_SIZE - 4, count)
    elif mutation == "cut":
        del raw[len(raw) - draw(st.integers(0, min(len(raw), 80))) :]
    elif mutation == "grow":
        raw += draw(st.binary(min_size=1, max_size=80))
    return bytes(raw)


def _miscounted(entries: int, count: int) -> bytes:
    """A 36-byte-entry Manifest of ``entries`` entries claiming ``count``."""
    raw = bytearray(
        Manifest(MID, CID, [ManifestEntry(MID, i, 1) for i in range(entries)], ENTRY_SIZE)
        .to_bytes()
    )
    struct.pack_into("<I", raw, MANIFEST_HEADER_SIZE - 4, count)
    return bytes(raw)


@given(st.one_of(manifest_payloads(), st.binary(max_size=200)))
@example(_miscounted(40, 39))  # parses as 39 entries of 36 B, with 36 B left over
@settings(max_examples=300, deadline=None)
def test_load_manifest_kind_matches_the_round_trip(raw):
    """``load_manifest`` tells the kinds apart by shape alone, and agrees
    with re-serialising on every payload."""
    assert loaded_kind(raw) is round_trip_kind(raw)
