"""Index deltas equal full reindexing.

MHD tells the manifest cache what each SHM append and HHR split
changed (:meth:`ManifestCache.index_delta`) instead of comparing the
whole manifest (:meth:`ManifestCache.reindex`), and
:meth:`Manifest.replace_entry` updates the manifest's own hash table in
place.  Random appends and splits over a few cached manifests — with
digests drawn from a small alphabet, so they repeat within and across
manifests — must leave both exactly as a rebuild would.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ManifestCache
from repro.core.hhr import apply_split, plan_backward_split, plan_forward_split
from repro.core.shm import append_group
from repro.hashing import sha1
from repro.storage import DiskModel, Manifest, ManifestStore, MemoryBackend

OPS = st.lists(
    st.tuples(st.sampled_from(["append", "split"]), st.integers(0, 2), st.integers(0, 2**32)),
    max_size=40,
)


def _cache():
    return ManifestCache(ManifestStore(MemoryBackend(), DiskModel()), capacity=8)


def _append(manifest, container, rng):
    """One SHM flush group of 1-4 chunks of repetitive bytes."""
    sizes = [rng.choice((1, 2, 3)) for _ in range(rng.randint(1, 4))]
    data = b"".join(bytes([rng.randint(0, 2)]) * size for size in sizes)
    base = len(container)
    container += data
    entries, _ = append_group(manifest, sha1(data[: sizes[0]]), sizes[0], data, base)
    return [e.digest for e in entries], []


def _split(manifest, container, rng):
    """One HHR split of a random entry of two or more bytes."""
    candidates = [j for j, e in enumerate(manifest.entries) if e.size >= 2]
    if not candidates:
        return [], []
    j = rng.choice(candidates)
    entry = manifest.entries[j]
    plan = rng.choice((plan_forward_split, plan_backward_split))
    edge = rng.choice((None, 1, 2))
    spans = plan(entry.size, rng.randint(0, entry.size - 1), edge)
    old = bytes(container[entry.offset : entry.end])
    _, hashed = apply_split(manifest, j, entry, old, spans)
    if not hashed:
        return [], []
    return [e.digest for e in manifest.entries[j : j + len(spans)]], [entry.digest]


@settings(max_examples=150, deadline=None)
@given(ops=OPS)
def test_deltas_equal_a_full_reindex(ops):
    delta, full = _cache(), _cache()
    manifests = [Manifest(sha1(b"m%d" % k), sha1(b"c%d" % k)) for k in range(3)]
    containers = [bytearray() for _ in manifests]
    for m in manifests:
        delta.add(m)
        full.add(m)
    for op, k, seed in ops:
        rng = random.Random(seed)
        manifest = manifests[k]
        manifest.index  # noqa: B018 - build the hash table, so splits update it
        mutate = _append if op == "append" else _split
        added, removed = mutate(manifest, containers[k], rng)
        delta.index_delta(manifest, added, removed)
        full.reindex(manifest)
        assert manifest.index == manifest._build_index()
        assert delta._indexed == full._indexed
        assert delta._digest_index == full._digest_index
