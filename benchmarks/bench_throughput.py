"""Real wall-clock MB/s of the chunk→hash hot path (ROADMAP item 2).

Measures — with ``time.perf_counter`` over real buffers, never with
device-model seconds — the scalar ("pre") vs batched ("post") boundary
detection throughput of every chunker family at multiple window sizes,
plus the digest primitives feeding the ingest hooks:

* **karp-rabin** — ``ReferenceChunker`` (scalar spec) vs
  ``VectorizedChunker`` (NumPy prefix-hash kernel),
* **gear** — ``GearChunker(batched=False)`` vs ``batched=True``,
* **fastcdc** — ``FastCDCChunker(batched=False)`` vs ``batched=True``,
* **hashing** — per-chunk ``sha1`` loop, batched ``sha1_many``,
  ``blake2b20_many`` and the duplicate-memoising ``StagedHasher``
  (which machine wins sha1-vs-blake2 depends on SHA-NI; the numbers
  record the truth for this host rather than assuming either way),
* **bloom** — ``BloomFilter.add`` and the membership probe on digests
  that are absent (the answer for new data: stops at the first clear
  bit) and present (all k positions), at the e2e benchmark's setting
  (1 MiB, k=7), in µs per op and ops/s.

Scalar throughput is measured on a smaller slice of the same buffer
(byte-at-a-time Python over many MiB would dominate the suite) — the
reported MB/s is still a genuine measurement, just over fewer bytes.

Emits ``BENCH_throughput.json`` whose ``throughput_mb_s`` and ``ops_s``
leaves are picked up by ``tools/bench_regress.py`` against the
committed baseline.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import SCALE, write_report
from repro.analysis import format_table
from repro.chunking import (
    ChunkerConfig,
    FastCDCChunker,
    GearChunker,
    ReferenceChunker,
    VectorizedChunker,
)
from repro.hashing import BloomFilter, StagedHasher, blake2b20_many, sha1, sha1_many

#: Buffer sizes per scale: (batched bytes, scalar slice bytes).
_SIZES = {
    "tiny": (4 << 20, 128 << 10),
    "small": (16 << 20, 512 << 10),
    "large": (64 << 20, 1 << 20),
}
BATCHED_BYTES, SCALAR_BYTES = _SIZES.get(SCALE, _SIZES["small"])

WINDOWS = [16, 48]

#: The e2e benchmark's filter (``DEDUP_CONFIG`` in benchmarks/e2e).
BLOOM_BYTES, BLOOM_HASHES = 1 << 20, 7
#: Digests per bloom pass (as many again are probed as absent).
BLOOM_OPS = 20_000

_MB = 1 << 20


def _buffer(n: int, seed: int = 42) -> bytes:
    """A dedup-shaped buffer: random spans with repeated regions."""
    rng = np.random.default_rng(seed)
    span = rng.integers(0, 256, size=n // 4, dtype=np.uint8).tobytes()
    return (span + span[: n // 8] + span + span[: n // 8])[:n] or b"\0" * n


def _best_seconds(fn, min_repeats: int = 1) -> float:
    """Fastest wall-clock run of ``fn()`` over ``min_repeats`` tries."""
    best = float("inf")
    for _ in range(min_repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return max(best, 1e-9)


def _mb_s(nbytes: int, fn, *, min_repeats: int = 1) -> float:
    """Wall-clock megabytes per second of ``fn()`` over ``nbytes``."""
    return nbytes / _MB / _best_seconds(fn, min_repeats)


def _bloom_section() -> dict:
    """``add`` / absent probe / present probe cost of one filter."""
    digests = [sha1(i.to_bytes(4, "little")) for i in range(2 * BLOOM_OPS)]
    present, absent = digests[:BLOOM_OPS], digests[BLOOM_OPS:]
    bloom = BloomFilter(BLOOM_BYTES, BLOOM_HASHES)

    def add_all() -> None:
        for d in present:
            bloom.add(d)

    def probe(batch) -> int:
        return sum(1 for d in batch if d in bloom)

    # ``add`` runs first so the probes see a loaded filter; its repeats
    # set bits that are already set, which costs the same.
    timed = {
        "add": add_all,
        "contains_negative": lambda: probe(absent),
        "contains_positive": lambda: probe(present),
    }
    section = {}
    for name, fn in timed.items():
        seconds = _best_seconds(fn, min_repeats=3)
        section[name] = {
            "ops": BLOOM_OPS,
            "us_per_op": round(seconds / BLOOM_OPS * 1e6, 3),
            "ops_s": round(BLOOM_OPS / seconds),
        }
    assert probe(present) == BLOOM_OPS, "bloom filter lost a digest it was given"
    # k=7 at under 2 % load: a false positive among the absent is ~1e-12 each.
    assert probe(absent) == 0, "absent digests must take the early exit"
    return section


def _chunker_pairs(window: int):
    cfg = ChunkerConfig(expected_size=4096, window=window)
    return {
        "karp-rabin": (ReferenceChunker(cfg), VectorizedChunker(cfg)),
        "gear": (GearChunker(cfg, batched=False), GearChunker(cfg, batched=True)),
        "fastcdc": (
            FastCDCChunker(cfg, batched=False),
            FastCDCChunker(cfg, batched=True),
        ),
    }


@pytest.fixture(scope="module")
def measurements():
    """All chunker/hash throughput numbers, measured once per session."""
    data = _buffer(BATCHED_BYTES)
    scalar_slice = data[:SCALAR_BYTES]
    chunkers: dict[str, dict] = {}
    for window in WINDOWS:
        for name, (scalar, batched) in _chunker_pairs(window).items():
            # Cut-point identity on the slice both kernels chunk —
            # the bench itself re-proves what the equivalence suite
            # guarantees before trusting the timings.
            assert np.array_equal(
                scalar.cut_points(scalar_slice), batched.cut_points(scalar_slice)
            ), (name, window)
            pre = _mb_s(len(scalar_slice), lambda s=scalar: s.cut_points(scalar_slice))
            post = _mb_s(
                len(data), lambda b=batched: b.cut_points(data), min_repeats=2
            )
            chunkers[f"{name}_w{window}"] = {
                "chunker": name,
                "window": window,
                "scalar": {"bytes": len(scalar_slice), "throughput_mb_s": round(pre, 3)},
                "batched": {"bytes": len(data), "throughput_mb_s": round(post, 3)},
                "speedup": round(post / max(pre, 1e-9), 2),
            }

    # Hashing over the real chunk views of the batched corpus; the
    # duplicated regions of _buffer make the staged path meaningful.
    views = [c.data for c in VectorizedChunker(ChunkerConfig()).chunk(data)]
    nbytes = sum(len(v) for v in views)
    staged_runs: list[StagedHasher] = []

    def _staged_pass() -> None:
        # A fresh hasher per repeat: the memo must start cold so the
        # timing reflects first-sight probing, not a warm cache.
        h = StagedHasher()
        h.digest_many(views)
        staged_runs.append(h)

    hashing = {
        "sha1_loop": _mb_s(nbytes, lambda: [sha1(v) for v in views], min_repeats=3),
        "sha1_many": _mb_s(nbytes, lambda: sha1_many(views), min_repeats=3),
        "blake2b20_many": _mb_s(nbytes, lambda: blake2b20_many(views), min_repeats=3),
        "staged": _mb_s(nbytes, _staged_pass, min_repeats=3),
    }
    staged = staged_runs[-1]
    return {
        "chunkers": chunkers,
        "hashing": {
            mode: {"bytes": nbytes, "throughput_mb_s": round(v, 3)}
            for mode, v in hashing.items()
        },
        "bloom": _bloom_section(),
        "staged_probe_hits": staged.probe_hits,
        "staged_unique": staged.unique_seen,
        "chunk_count": len(views),
    }


def test_throughput_report(benchmark, measurements):
    def build() -> str:
        rows = [
            [
                rec["chunker"],
                rec["window"],
                f"{rec['scalar']['throughput_mb_s']:.1f}",
                f"{rec['batched']['throughput_mb_s']:.1f}",
                f"{rec['speedup']:.0f}x",
            ]
            for rec in measurements["chunkers"].values()
        ]
        parts = [
            f"Chunk→hash hot path, measured MB/s (scale={SCALE}, "
            f"{BATCHED_BYTES >> 20} MiB batched / {SCALAR_BYTES >> 10} KiB scalar)",
            format_table(
                ["chunker", "window", "scalar MB/s", "batched MB/s", "speedup"],
                rows,
                title="boundary detection",
            ),
            format_table(
                ["mode", "MB/s"],
                [
                    [mode, f"{rec['throughput_mb_s']:.0f}"]
                    for mode, rec in measurements["hashing"].items()
                ],
                title=(
                    "digesting "
                    f"({measurements['chunk_count']} chunks, staged memo hits: "
                    f"{measurements['staged_probe_hits']})"
                ),
            ),
            format_table(
                ["op", "us/op", "ops/s"],
                [
                    [op, f"{rec['us_per_op']:.2f}", f"{rec['ops_s']:.0f}"]
                    for op, rec in measurements["bloom"].items()
                ],
                title=f"bloom filter ({BLOOM_BYTES >> 10} KiB, k={BLOOM_HASHES})",
            ),
        ]
        return "\n\n".join(parts)

    report = benchmark.pedantic(build, rounds=1, iterations=1)
    write_report("throughput", report, extra=measurements)


def test_batched_path_is_faster(measurements):
    """The tentpole claim: every batched kernel beats its scalar spec
    by a wide margin on this host (the papers report 2–10×; NumPy vs
    a Python byte loop clears 2× with room everywhere we run)."""
    for label, rec in measurements["chunkers"].items():
        assert rec["speedup"] > 2, (label, rec)


def test_staged_hasher_observed_duplicates(measurements):
    """The bench corpus really exercises the memoised path."""
    assert measurements["staged_probe_hits"] > 0
    assert measurements["staged_unique"] < measurements["chunk_count"]
