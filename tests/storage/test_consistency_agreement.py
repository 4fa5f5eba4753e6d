"""fsck, crash recovery and GC agree on what a consistent store is.

``verify_store`` is the one definition; ``recover`` and ``gc.sweep``
dispose of what it reports.  For every single-object corruption the
three must agree: fsck flags it iff recovery repairs something, the
recovered store is clean and stays clean, and a sweep ends clean too.
"""

import copy

import numpy as np
import pytest

from repro.baselines import SparseIndexingDeduplicator
from repro.core import DedupConfig, MHDDeduplicator
from repro.hashing import sha1
from repro.storage import (
    QUARANTINE_PREFIX,
    DirectoryBackend,
    DiskModel,
    FileManifest,
    FileManifestStore,
    Manifest,
    MemoryBackend,
    MultiManifest,
    load_manifest,
    recover,
    verify_store,
)
from repro.storage.gc import delete_file, sweep
from repro.workloads import BackupFile

CFG = DedupConfig(ecs=512, sd=4, bloom_bytes=1 << 16, cache_manifests=16, window=16)
C, M, H, F = DiskModel.CHUNK, DiskModel.MANIFEST, DiskModel.HOOK, DiskModel.FILE_MANIFEST


def rand(n, seed):
    return np.random.default_rng(seed).integers(0, 256, size=n, dtype=np.uint8).tobytes()


def build(cls):
    base = rand(40_000, 1)
    d = cls(CFG, MemoryBackend())
    d.process(
        [
            BackupFile("f0", base),
            BackupFile("f1", rand(20_000, 2) + base[5_000:30_000]),
            BackupFile("f2", rand(30_000, 3)),
        ]
    )
    return d.backend


@pytest.fixture(scope="module")
def stores():
    return {"mhd": build(MHDDeduplicator), "sparse": build(SparseIndexingDeduplicator)}


def first(b, ns):
    return sorted(b.keys(ns))[0]


def move(b, ns, key, new_key):
    b.put(ns, new_key, b.get(ns, key))
    b.delete(ns, key)


def truncate(b, ns):
    key = first(b, ns)
    b.put(ns, key, b.get(ns, key)[:-10])


def manifest_missing_container(b):
    b.delete(C, load_manifest(b.get(M, first(b, M))).chunk_id)


def manifest_not_tiling(b):
    key = first(b, M)
    m = Manifest.from_bytes(b.get(M, key))
    b.put(M, key, Manifest(key, m.chunk_id, m.entries[:-1], m.entry_size).to_bytes())


def multi_manifests(b):
    """Multi-container manifests as (key, containers referenced)."""
    out = {}
    for key in sorted(b.keys(M)):
        m = load_manifest(b.get(M, key))
        assert isinstance(m, MultiManifest)
        out[key] = sorted({e.container_id for e in m.entries})
    return out


def multi_some_containers_dead(b):
    spanning = [cids for cids in multi_manifests(b).values() if len(cids) > 1]
    b.delete(C, spanning[0][0])


def multi_all_containers_dead(b):
    for cid in next(iter(multi_manifests(b).values())):
        b.delete(C, cid)


def file_manifest_out_of_bounds(b):
    fm = FileManifest("evil")
    fm.append(first(b, C), 0, 10**9)
    b.put(F, FileManifestStore.key_for("evil"), fm.to_bytes())


def hook_digest_lost(b):
    hook = first(b, H)
    elsewhere = next(
        k
        for k in sorted(b.keys(M))
        if k != b.get(H, hook) and hook not in load_manifest(b.get(M, k))
    )
    b.put(H, hook, elsewhere)


def container_bit_flip(b):
    key = first(b, C)
    raw = bytearray(b.get(C, key))
    raw[len(raw) // 2] ^= 0x40
    b.put(C, key, bytes(raw))


#: name -> (store, corruption, check_hashes, what fsck must say about it)
CORRUPTIONS = {
    "clean": ("mhd", lambda b: None, False, None),
    "clean-multi": ("sparse", lambda b: None, True, None),
    "manifest-unparseable": ("mhd", lambda b: truncate(b, M), False, "unparseable"),
    "manifest-wrong-key": (
        "mhd",
        lambda b: move(b, M, first(b, M), sha1(b"elsewhere")),
        False,
        "wrong key",
    ),
    "manifest-missing-container": ("mhd", manifest_missing_container, False, "missing"),
    "manifest-not-tiling": ("mhd", manifest_not_tiling, False, "manifest"),
    "multi-some-containers-dead": ("sparse", multi_some_containers_dead, False, "missing"),
    "multi-all-containers-dead": ("sparse", multi_all_containers_dead, False, "missing"),
    "file-manifest-unparseable": ("mhd", lambda b: truncate(b, F), False, "unparseable"),
    "file-manifest-wrong-key": (
        "mhd",
        lambda b: move(b, F, FileManifestStore.key_for("f2"), sha1(b"not-a-file-id")),
        False,
        "wrong key",
    ),
    "file-manifest-out-of-bounds": (
        "mhd",
        file_manifest_out_of_bounds,
        False,
        "beyond container",
    ),
    "hook-short": (
        "mhd",
        lambda b: b.put(H, sha1(b"bogus-hook"), b"short"),
        False,
        "payload is 5 bytes",
    ),
    "hook-dangling": (
        "mhd",
        lambda b: b.put(H, sha1(b"rogue"), sha1(b"no-manifest")),
        False,
        "dangling",
    ),
    "hook-digest-lost": ("mhd", hook_digest_lost, False, "no longer present"),
    "container-bit-flip": ("mhd", container_bit_flip, True, "digest mismatch"),
}


def damage(stores, name):
    store, corrupt, check_hashes, expected = CORRUPTIONS[name]
    damaged = copy.deepcopy(stores[store])
    corrupt(damaged)
    return damaged, check_hashes, expected


def objects(b):
    """Every (namespace, key) of the kinds recovery may never destroy."""
    return {
        (ns.removeprefix(QUARANTINE_PREFIX), key)
        for ns in b.namespaces()
        if ns.removeprefix(QUARANTINE_PREFIX) in (C, M, F)
        for key in b.keys(ns)
    }


@pytest.mark.parametrize("name", CORRUPTIONS)
def test_fsck_and_recover_agree(stores, name):
    damaged, check_hashes, expected = damage(stores, name)

    fsck = verify_store(damaged, check_entry_hashes=check_hashes)
    assert fsck.ok == (expected is None)
    assert len(fsck.findings) == len(fsck.errors)
    if expected is not None:
        assert any(expected in e for e in fsck.errors), fsck.errors

    recovered = copy.deepcopy(damaged)
    report = recover(recovered, check_hashes=check_hashes)
    assert (report.repairs == 0) == fsck.ok
    assert report.ok
    assert verify_store(recovered, check_entry_hashes=check_hashes).ok
    assert recover(recovered, check_hashes=check_hashes).repairs == 0
    # Quarantine only: no container, manifest or recipe was destroyed.
    assert objects(recovered) == objects(damaged)


#: Sweep marks from the recipes, so it refuses (raises) to run over one
#: it cannot read; every other damaged store it can sweep directly.
SWEEPS = [(name, True) for name in CORRUPTIONS] + [
    (name, False) for name in CORRUPTIONS if name != "file-manifest-unparseable"
]


@pytest.mark.parametrize(("name", "recover_first"), SWEEPS)
def test_sweep_ends_fsck_clean(stores, name, recover_first):
    """GC runs recovery's cascade with delete as the disposal."""
    b, check_hashes, _ = damage(stores, name)
    if recover_first:
        recover(b, check_hashes=check_hashes)
    quarantined = {ns for ns in b.namespaces() if ns.startswith(QUARANTINE_PREFIX)}
    delete_file(b, "f0")
    sweep(b)
    assert verify_store(b).ok
    assert {ns for ns in b.namespaces() if ns.startswith(QUARANTINE_PREFIX)} == quarantined


class ListingCounter(DirectoryBackend):
    def __init__(self, root):
        super().__init__(root)
        self.listings = []

    def keys(self, namespace):
        self.listings.append(namespace)
        return super().keys(namespace)


def test_recover_walks_a_clean_store_once(tmp_path):
    backend = ListingCounter(tmp_path)
    MHDDeduplicator(CFG, backend).process([BackupFile("x", rand(30_000, 7))])
    backend.listings.clear()
    report = recover(backend)
    assert report.repairs == 0 and report.ok
    assert backend.listings.count(C) == 1
