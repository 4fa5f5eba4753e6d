"""Match layer, wall clock: what a chunk costs in each stage of a bf-mhd ingest.

The chunk → hash → match → store links of the layer chain, as
measured microseconds per chunk.  Two disk-image corpora are built with
``repro.workloads`` in the shapes of the e2e ``images-unique`` (no
duplicates: Bloom negatives, SHM flushes and container writes) and
``images-churn`` (generational churn: hook hits, BME/FME, HHR)
workloads, written to files, and ingested with bf-mhd on a fresh
``DirectoryBackend`` through ``BackupFile.from_path``.  Per corpus,
``BENCH_match_loop.json`` at the repository root records µs per chunk
of:

* ``chunk`` — the chunker producing batches, reading the file included;
* ``hash`` — ``sha1_many`` over each batch;
* ``store`` — every call into the backend;
* ``match`` — the rest of the ingest: the dedup loop (cache and Bloom
  probes, buffering, SHM, BME/FME, HHR, recipes) and the in-RAM
  container appends;

plus ``total`` and the ingest's MB/s.  Each figure is the median over
``--repeat`` ingests, each in a process of its own with the e2e
benchmark's malloc settings.  ``change`` is the ``src/`` beside this
file; with ``--parent REV``, ``parent`` is ``git archive REV src``,
measured alternately with it on the same files.  Run (it finds
``src/`` beside itself)::

    python benchmarks/bench_match_loop.py [--parent REV] [--repeat N] [--scale tiny|full]

``--scale tiny`` uses the e2e smoke shapes (a few MB; a quick check
that the script runs).  ``--dir`` is where corpus files and scratch
stores go (default: the system temp directory).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from collections.abc import Callable, Iterator
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[1]

#: The e2e benchmark's library settings (``benchmarks/e2e`` README).
CONFIG = {"ecs": 2048, "sd": 16, "bloom_bytes": 1 << 20, "window": 48, "cache_manifests": 64}
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20), "MALLOC_TRIM_THRESHOLD_": str(2**31 - 1)}
SEED = 101
_BASE = {"os_bytes": 1 << 20, "app_bytes": 1 << 18, "user_bytes": 1 << 19, "mean_file": 1 << 16}
_SMOKE = {"os_bytes": 1 << 17, "app_bytes": 1 << 15, "user_bytes": 1 << 16, "mean_file": 1 << 14}
#: Corpus shapes: the e2e ``images-unique`` and ``images-churn`` workloads.
SHAPES = {
    "full": {
        "unique": {
            **_BASE,
            "machines": 16,
            "generations": 1,
            "os_count": 16,
            "app_count": 32,
            "user_bytes": 1 << 20,
        },
        "churn": {**_BASE, "machines": 4, "generations": 5, "os_count": 2},
    },
    "tiny": {
        "unique": {**_SMOKE, "machines": 3, "generations": 1, "os_count": 3, "app_count": 6},
        "churn": {**_SMOKE, "machines": 2, "generations": 2, "os_count": 2},
    },
}
STAGES = ("chunk", "hash", "match", "store")


# ---- one ingest, in a process of its own ------------------------------------


def measure(src: str, corpus_dir: Path, store_root: Path) -> dict[str, Any]:
    """Stage seconds of one bf-mhd ingest per corpus, with ``repro`` from ``src``."""
    sys.path.insert(0, src)
    import repro.core.base as base
    from repro.chunking import VectorizedChunker
    from repro.core import DedupConfig
    from repro.registry import resolve
    from repro.storage import DirectoryBackend
    from repro.workloads import BackupFile

    clock = dict.fromkeys(("chunk", "hash", "store"), 0.0)
    perf = time.perf_counter

    class TimedChunker(VectorizedChunker):
        def chunk_stream(self, *args: Any, **kwargs: Any) -> Iterator[Any]:
            feed = super().chunk_stream(*args, **kwargs)
            while True:
                start = perf()
                batch = next(feed, None)
                clock["chunk"] += perf() - start
                if batch is None:
                    return
                yield batch

    sha1_many = base.sha1_many

    def timed_sha1_many(parts: Any) -> Any:
        start = perf()
        out = sha1_many(parts)
        clock["hash"] += perf() - start
        return out

    base.sha1_many = timed_sha1_many

    class TimedBackend(DirectoryBackend):
        """Times each outermost backend call."""

        busy = False

    def _timed(name: str) -> Callable[..., Any]:
        call = getattr(DirectoryBackend, name)

        def timed(self: TimedBackend, *args: Any, **kwargs: Any) -> Any:
            if self.busy:
                return call(self, *args, **kwargs)
            self.busy = True
            start = perf()
            try:
                return call(self, *args, **kwargs)
            finally:
                clock["store"] += perf() - start
                self.busy = False

        return timed

    for name in ("put", "put_like", "get", "get_range", "iter_ranges", "exists", "keys"):
        if hasattr(DirectoryBackend, name):
            setattr(TimedBackend, name, _timed(name))

    # Load the compiled chunk kernel before the clocks run.
    VectorizedChunker(DedupConfig(**CONFIG).small_chunker_config()).chunk(os.urandom(1 << 16))
    out = {}
    for corpus in sorted(os.listdir(corpus_dir)):
        files = sorted((corpus_dir / corpus).iterdir())
        for key in clock:
            clock[key] = 0.0
        store = tempfile.mkdtemp(dir=store_root)
        dedup = resolve("bf-mhd")(
            DedupConfig(**CONFIG),
            backend=TimedBackend(store, fsync="none"),
            chunker_cls=TimedChunker,
        )
        start = perf()
        for path in files:
            dedup.ingest(BackupFile.from_path(path, path.name))
        stats = dedup.finalize()
        wall = perf() - start
        shutil.rmtree(store)
        out[corpus] = {
            "wall": wall,
            **clock,
            "match": wall - sum(clock.values()),
            "chunks": stats.unique_chunks + stats.duplicate_chunks,
            "bytes": stats.input_bytes,
            "stored_chunk_bytes": stats.stored_chunk_bytes,
            "metadata_bytes": stats.metadata_bytes,
        }
    return out


# ---- the columns, run alternately ---------------------------------------------


def build_corpora(scale: str, corpus_dir: Path) -> dict[str, Any]:
    """Write each corpus's files under ``corpus_dir/<name>/``."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.workloads import BackupCorpus, CorpusConfig

    shapes = SHAPES[scale]
    out = {}
    for name, shape in shapes.items():
        d = corpus_dir / name
        d.mkdir(parents=True)
        files = list(BackupCorpus(CorpusConfig(seed=SEED, as_disk_images=True, **shape)))
        for k, f in enumerate(files):
            (d / f"{k:03d}").write_bytes(f.read_bytes())
        out[name] = {"shape": shape, "files": len(files), "bytes": sum(f.size for f in files)}
    return out


def export_parent(rev: str, into: Path) -> Path:
    """``git archive rev src`` extracted under ``into``; returns its ``src``."""
    tar = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
        check=True,
        capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return into / "src"


def run_worker(src: Path, corpus_dir: Path, scratch: Path) -> dict[str, Any]:
    env = {**os.environ, **MALLOC_ENV}
    proc = subprocess.run(
        [sys.executable, __file__, "--worker", str(src), "--corpus-dir", str(corpus_dir),
         "--dir", str(scratch)],
        check=True,
        capture_output=True,
        text=True,
        env=env,
    )
    result: dict[str, Any] = json.loads(proc.stdout.splitlines()[-1])
    return result


def summarise(runs: list[dict[str, Any]]) -> dict[str, Any]:
    """Median µs per chunk per stage, and MB/s, for one column."""
    out = {}
    for corpus in runs[0]:
        rows = [r[corpus] for r in runs]
        chunks = rows[0]["chunks"]
        median = {k: statistics.median(r[k] for r in rows) for k in (*STAGES, "wall")}
        us = {stage: round(median[stage] / chunks * 1e6, 2) for stage in STAGES}
        out[corpus] = {
            "us_per_chunk": {**us, "total": round(median["wall"] / chunks * 1e6, 2)},
            "ingest_mb_s": round(rows[0]["bytes"] / median["wall"] / 1e6, 2),
            "chunks": chunks,
            "stored_chunk_bytes": rows[0]["stored_chunk_bytes"],
            "metadata_bytes": rows[0]["metadata_bytes"],
        }
    return out


def compare(parent: dict[str, Any], change: dict[str, Any]) -> dict[str, Any]:
    """Per corpus: the change's match µs and ingest MB/s against the
    parent's, and whether the two stored the same bytes."""
    out = {}
    for corpus, new in change.items():
        old = parent[corpus]
        out[corpus] = {
            "match_us_ratio": round(new["us_per_chunk"]["match"] / old["us_per_chunk"]["match"], 3),
            "ingest_speedup": round(new["ingest_mb_s"] / old["ingest_mb_s"], 3),
            "same_space": all(
                new[k] == old[k] for k in ("chunks", "stored_chunk_bytes", "metadata_bytes")
            ),
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="git revision measured as the parent column")
    parser.add_argument("--repeat", type=int, default=9, help="ingests per column (median)")
    parser.add_argument("--scale", choices=sorted(SHAPES), default="full")
    parser.add_argument("--dir", default=tempfile.gettempdir(), help="scratch directory")
    parser.add_argument("--out", default=str(ROOT / "BENCH_match_loop.json"))
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    parser.add_argument("--corpus-dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(measure(args.worker, Path(args.corpus_dir), Path(args.dir))))
        return 0
    scratch = Path(tempfile.mkdtemp(prefix="bench_match_loop-", dir=args.dir))
    try:
        corpus_dir = scratch / "corpus"
        corpora = build_corpora(args.scale, corpus_dir)
        columns = {"change": ROOT / "src"}
        if args.parent:
            columns = {"parent": export_parent(args.parent, scratch / "parent"), **columns}
        names = list(columns)
        runs: dict[str, list[dict[str, Any]]] = {name: [] for name in names}
        for name in names:  # warm-up: imports, the compiled chunk kernel
            run_worker(columns[name], corpus_dir, scratch)
        for r in range(args.repeat):
            for name in names[r % 2 :] + names[: r % 2]:
                runs[name].append(run_worker(columns[name], corpus_dir, scratch))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    summary = {name: summarise(col) for name, col in runs.items()}
    result: dict[str, Any] = {
        "bench": "match_loop",
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count()},
        "config": {"algorithm": "bf-mhd", **CONFIG},
        "scale": args.scale,
        "seed": SEED,
        "repeat": args.repeat,
        "parent": args.parent,
        "corpora": corpora,
        "columns": summary,
    }
    if args.parent:
        result["change_over_parent"] = compare(summary["parent"], summary["change"])
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
