"""Pins what every registered algorithm *does* to its store on ``tiny_corpus``.

For each algorithm and each way of feeding it (whole ``bytes``, a
source read through a 137-byte window, a source read through the
default window) the run goes into a recording ``MemoryBackend`` and
four things are pinned:

* the count and a digest of the *data* operation sequence ``(op,
  namespace, key, len)`` over ``put`` / ``get`` / ``get_range`` /
  ``object_size`` / ``delete`` / ``keys`` — the order the crash
  matrix's fault-plan op indexes depend on, which no other test states
  (it is the same for all three feeds: batching is invisible to the
  store);
* the count of ``exists`` probes, kept apart because fault plans never
  fire on a probe: a change that only asks the store more questions
  moves this number and nothing else (``repro.storage.allocate_id``
  did: +2 per file — 288 over the corpus's 144 files — for the
  per-file algorithms, +413 SubChunk and +380 Sparse Indexing, which
  allocate per container / segment, +183 Extreme Binning);
* a digest of ``DedupStats.as_dict()``;
* for ``bf-mhd``, the HHR and manifest-cache counters.

A refactor of the ingest path must pass this file unedited.  To print
the table for a *deliberate* behaviour change::

    PYTHONPATH=src python tests/test_ingest_behaviour_pin.py
"""

import hashlib
import io
import json

import pytest

from repro.chunking.base import DEFAULT_STREAM_WINDOW
from repro.core import DedupConfig
from repro.registry import available, resolve
from repro.storage import MemoryBackend
from repro.workloads import BackupFile, tiny_corpus

CONFIG = dict(ecs=1024, sd=8, bloom_bytes=1 << 16, cache_manifests=8, window=16)

#: feed mode -> stream window (``None`` = in-memory ``data=`` files)
MODES = {"bytes": None, "w137": 137, "wdefault": DEFAULT_STREAM_WINDOW}


class RecordingBackend(MemoryBackend):
    """A ``MemoryBackend`` that folds every data operation into a digest
    and counts the ``exists`` probes beside it."""

    def __init__(self):
        super().__init__()
        self.ops = 0
        self.probes = 0
        self._h = hashlib.sha1()

    def _note(self, op, namespace, key, length):
        self.ops += 1
        self._h.update(f"{op}|{namespace}|{key.hex()}|{length}\n".encode())

    def digest(self):
        return self._h.hexdigest()

    def put(self, namespace, key, data):
        self._note("put", namespace, key, len(data))
        super().put(namespace, key, data)

    def get(self, namespace, key):
        data = super().get(namespace, key)
        self._note("get", namespace, key, len(data))
        return data

    def get_range(self, namespace, key, offset, size):
        self._note(f"get_range@{offset}", namespace, key, size)
        return MemoryBackend.get(self, namespace, key)[offset : offset + size]

    def object_size(self, namespace, key):
        self._note("object_size", namespace, key, 0)
        return len(MemoryBackend.get(self, namespace, key))

    def exists(self, namespace, key):
        self.probes += 1
        return super().exists(namespace, key)

    def delete(self, namespace, key):
        self._note("delete", namespace, key, 0)
        return super().delete(namespace, key)

    def keys(self, namespace):
        self._note("keys", namespace, b"", 0)
        return super().keys(namespace)


def _files(window):
    files = tiny_corpus().files()
    if window is None:
        return files
    return [
        BackupFile(f.file_id, source=lambda d=f.data: io.BytesIO(d), size_hint=f.size)
        for f in files
    ]


def observe(algo, mode):
    """Run ``algo`` over the corpus in ``mode``; return the pinned facts."""
    backend = RecordingBackend()
    dedup = resolve(algo)(DedupConfig(**CONFIG), backend=backend)
    window = MODES[mode]
    if window is not None:
        dedup.stream_window_bytes = window
    stats = dedup.process(_files(window)).as_dict()
    stats_digest = hashlib.sha1(
        json.dumps(stats, sort_keys=True).encode()
    ).hexdigest()
    facts = [backend.ops, backend.digest()[:16], backend.probes, stats_digest[:16]]
    if algo == "bf-mhd":
        cache = dedup.cache
        facts.append(
            [dedup.hhr_splits, dedup.hhr_reads, cache.hits, cache.loads, cache.writebacks]
        )
    return facts


# {algo: {mode: [data ops, data-op digest, exists probes, stats digest(, bf-mhd counters)]}}
PINNED = json.loads(
    """
{
 "bf-mhd": {
  "bytes": [1161, "153dcdbec5798cd1", 821, "3d607ce442c211ed", [120, 120, 107, 145, 87]],
  "w137": [1161, "153dcdbec5798cd1", 821, "84907b4b1bda1fb4", [120, 120, 107, 145, 87]],
  "wdefault": [1161, "153dcdbec5798cd1", 821, "51a2c9c507afc3e5", [120, 120, 107, 145, 87]]
 },
 "si-mhd": {
  "bytes": [1016, "9c0ad722b07b6f49", 676, "092eb9c076e5439e"],
  "w137": [1016, "9c0ad722b07b6f49", 676, "06572ac5849f7381"],
  "wdefault": [1016, "9c0ad722b07b6f49", 676, "9a1ac17574b6b67c"]
 },
 "cdc": {
  "bytes": [2035, "cee8393610d7daeb", 1896, "e19ddfa73cfbcd61"],
  "w137": [2035, "cee8393610d7daeb", 1896, "8573a9f8d3225e86"],
  "wdefault": [2035, "cee8393610d7daeb", 1896, "48928d298d4cb7e8"]
 },
 "bimodal": {
  "bytes": [1568, "e85417b01d0e5c99", 1426, "fae6174c19e8163c"],
  "w137": [1568, "e85417b01d0e5c99", 1426, "a7070dd2bc7bb84d"],
  "wdefault": [1568, "e85417b01d0e5c99", 1426, "c2c7e2327210e9ab"]
 },
 "subchunk": {
  "bytes": [795, "8f7dc712141b39c9", 1275, "3a007dbdec2320fb"],
  "w137": [795, "8f7dc712141b39c9", 1275, "aedb8dcdda96dd28"],
  "wdefault": [795, "8f7dc712141b39c9", 1275, "42403e06a877eb82"]
 },
 "sparse-indexing": {
  "bytes": [912, "5bbad14e01409a5d", 989, "6eef413b4fdae9b6"],
  "w137": [912, "5bbad14e01409a5d", 989, "206040d1a83bc149"],
  "wdefault": [912, "5bbad14e01409a5d", 989, "8aab6b0ab3834c9a"]
 }
}
"""
)


@pytest.mark.parametrize("mode", list(MODES))
@pytest.mark.parametrize("algo", available())
def test_ingest_behaviour_is_pinned(algo, mode):
    assert observe(algo, mode) == PINNED[algo][mode]


if __name__ == "__main__":
    table = {a: {m: observe(a, m) for m in MODES} for a in available()}
    print(json.dumps(table, indent=1))
