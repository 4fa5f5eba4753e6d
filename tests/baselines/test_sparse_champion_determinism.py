"""Champion selection must not depend on hash seed or arrival order.

The regression behind the fix: ``Counter.most_common`` breaks ties by
*insertion order*, and the sparse index's vote counters are populated
in hook-iteration order — which varies with ``PYTHONHASHSEED`` and
with warm-restart rebuild order.  ``rank_champions`` pins ties with an
explicit ``(-votes, key)`` sort; these tests hold that pin in place.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.baselines.sparse_indexing import (
    MAX_CHAMPIONS,
    SparseIndexingDeduplicator,
    rank_champions,
)
from repro.core import DedupConfig
from repro.storage import DiskModel, MemoryBackend
from repro.workloads import tiny_corpus

CFG = DedupConfig(ecs=1024, sd=8, bloom_bytes=1 << 18)

SRC = str(Path(__file__).resolve().parents[2] / "src")


class TestRankChampions:
    def test_sorted_by_votes_then_key(self):
        votes = Counter({b"c": 3, b"a": 1, b"b": 3, b"d": 2})
        assert rank_champions(votes) == [b"b", b"c", b"d", b"a"]

    def test_limit_respected(self):
        votes = Counter({bytes([i]): 1 for i in range(30)})
        assert len(rank_champions(votes)) == MAX_CHAMPIONS
        assert rank_champions(votes, limit=3) == [b"\x00", b"\x01", b"\x02"]

    def test_insertion_order_is_irrelevant(self):
        """The exact bug: equal-vote candidates inserted in different
        orders must rank identically (most_common would not)."""
        forward = Counter()
        backward = Counter()
        keys = [f"m{i:02d}".encode() for i in range(12)]
        for k in keys:
            forward[k] = 2
        for k in reversed(keys):
            backward[k] = 2
        assert rank_champions(forward) == rank_champions(backward)
        assert rank_champions(forward) == sorted(keys)[:MAX_CHAMPIONS]

    def test_empty_votes(self):
        assert rank_champions(Counter()) == []


_SEED_PROBE = """
import json, sys
from collections import Counter
from repro.baselines.sparse_indexing import rank_champions

# Populate tied votes by iterating a *set* of byte keys: the iteration
# order varies with PYTHONHASHSEED, so any insertion-order dependence
# in the ranking shows up as run-to-run divergence.
labels = {f"manifest-{i:03d}".encode() for i in range(60)}
votes = Counter()
for name in labels:
    votes[name] = 3 if name.endswith((b"0", b"5")) else 1
print(json.dumps([k.decode() for k in rank_champions(votes)]))
"""


class TestHashSeedIndependence:
    def test_identical_champions_across_hash_seeds(self):
        """Run the ranking in subprocesses under different (including
        random) hash seeds; every run must agree."""
        outputs = set()
        for seed in ("0", "1", "31337", "random", "random"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
            out = subprocess.run(
                [sys.executable, "-c", _SEED_PROBE],
                env=env,
                capture_output=True,
                text=True,
                check=True,
                timeout=60,
            )
            outputs.add(out.stdout.strip())
        assert len(outputs) == 1
        ranked = json.loads(outputs.pop())
        assert ranked == sorted(ranked)  # tied head: ascending keys


_PIPELINE_PROBE = """
import json
from repro.baselines.sparse_indexing import SparseIndexingDeduplicator
from repro.core import DedupConfig
from repro.workloads import tiny_corpus

cfg = DedupConfig(ecs=1024, sd=8, bloom_bytes=1 << 18)
files = [f for f in tiny_corpus().files() if "/gen000/" in f.file_id][:12]
stats = SparseIndexingDeduplicator(cfg).process(files)
print(json.dumps({
    "stored": stats.stored_chunk_bytes,
    "unique": stats.unique_chunks,
    "duplicate": stats.duplicate_chunks,
    "metadata": stats.metadata_bytes,
}, sort_keys=True))
"""


class TestPipelineDeterminism:
    def test_full_pipeline_identical_across_hash_seeds(self):
        """End to end: champion choice feeds dedup decisions, so any
        seed-dependence surfaces as differing stored bytes."""
        outputs = set()
        for seed in ("0", "random"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
            out = subprocess.run(
                [sys.executable, "-c", _PIPELINE_PROBE],
                env=env,
                capture_output=True,
                text=True,
                check=True,
                timeout=300,
            )
            outputs.add(out.stdout.strip())
        assert len(outputs) == 1


class TestWarmStartChampions:
    @pytest.fixture(scope="class")
    def store(self):
        backend = MemoryBackend()
        dedup = SparseIndexingDeduplicator(CFG, backend=backend)
        files = [f for f in tiny_corpus().files() if "/gen000/" in f.file_id][:12]
        dedup.process(files)
        return backend, dedup

    def test_two_warm_starts_agree_exactly(self, store):
        """Two processes warm-starting from the same store must build
        byte-identical sparse indexes and hence identical champions."""
        backend, _ = store
        a = SparseIndexingDeduplicator(CFG, backend=backend)
        a.warm_start()
        b = SparseIndexingDeduplicator(CFG, backend=backend)
        b.warm_start()
        assert a._sparse == b._sparse
        probe = sorted(a._sparse)[:20]
        va = Counter()
        vb = Counter()
        for h in probe:
            for mid in a._sparse[h]:
                va[mid] += 1
            for mid in b._sparse[h]:
                vb[mid] += 1
        assert rank_champions(va) == rank_champions(vb)

    def test_warm_start_keeps_first_registrant_per_hook(self, store):
        """Hook files are write-once: the rebuilt entry must be the
        first manifest the live run registered for that hook."""
        backend, live = store
        warm = SparseIndexingDeduplicator(CFG, backend=backend)
        warm.warm_start()
        assert set(warm._sparse) == set(live._sparse)
        for hook, ids in warm._sparse.items():
            assert len(ids) == 1
            live_ids = live._sparse[hook]
            if len(live_ids) < 5:  # oldest not yet LRU-evicted
                assert ids[0] == live_ids[0]

    def test_warm_start_lists_the_hooks_once(self, store):
        """One listing of the hook namespace per warm start, and the
        index it builds: every hook, in sorted order, mapped to the
        manifest its file names."""
        backend, _ = store
        listings = []

        class ListingCounter(MemoryBackend):
            def keys(self, namespace):
                listings.append(namespace)
                return backend.keys(namespace)

            def get(self, namespace, key):
                return backend.get(namespace, key)

        warm = SparseIndexingDeduplicator(CFG, backend=ListingCounter())
        count = warm.warm_start()
        assert listings.count(DiskModel.HOOK) == 1
        hooks = sorted(backend.keys(DiskModel.HOOK))
        assert count == len(hooks)
        assert list(warm._sparse.items()) == [
            (hook, [backend.get(DiskModel.HOOK, hook)]) for hook in hooks
        ]

    def test_warm_started_dedup_still_restores(self, store):
        backend, _ = store
        warm = SparseIndexingDeduplicator(CFG, backend=backend)
        warm.warm_start()
        files = [f for f in tiny_corpus().files() if "/gen000/" in f.file_id][:3]
        for f in files:
            with f.open() as r:
                assert warm.restore(f.file_id) == r.read()
