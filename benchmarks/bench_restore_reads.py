"""Restore layer, wall clock: what a file's extents cost on a ``DirectoryBackend``.

The restore link of the layer chain, as measured microseconds rather
than ``DiskModel`` counts.  A churned disk-image corpus (the shape of
the e2e ``images-churn`` workload: ``repro.workloads`` with
``machines=4, generations=5, os_count=2, as_disk_images=True``) is
ingested once with bf-mhd on a fresh ``DirectoryBackend``; every image
is then restored two ways, and ``BENCH_restore_reads.json`` at the
repository root records:

* ``fragmentation`` — per restored image: extents and distinct
  containers (median and max), the share of extents whose container the
  same restore has already read, and the share of those revisits that
  start where the container's previous extent ended (what coalescing
  could merge);
* ``opens_per_file`` — container ``open`` calls per restored image,
  through a ``get_range`` per extent and through one ``iter_ranges``;
* ``us_per_extent`` — one extent read straight off the backend, both
  ways, plus ``open_us``: one ``open`` + ``fstat`` + ``close`` of a
  container;
* ``restore_mb_s`` — whole restores (``FileManifest.iter_restore``)
  both ways, and ``open_share``: the opens' estimated share of that
  restore wall (opens × ``open_us`` / wall).

``get_range`` is a ``DirectoryBackend`` whose ``iter_ranges`` is the
``StorageBackend`` default (the ``get_range`` loop); ``iter_ranges`` is
the backend as shipped.  Run (it finds ``src/`` beside itself)::

    python benchmarks/bench_restore_reads.py [--dir DIR] [--repeat N] [--seed S]

``--dir`` is where the scratch store goes (default: the system temp
directory; it must be on the file system being measured).  Each timed
figure is the median over ``--repeat`` passes (default 25).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from collections.abc import Callable, Iterator
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.core import DedupConfig  # noqa: E402
from repro.registry import resolve  # noqa: E402
from repro.storage import DirectoryBackend, DiskModel, StorageBackend, Store  # noqa: E402
from repro.storage.file_manifest import RESTORE_PIECE_SIZE, FileManifest  # noqa: E402
from repro.workloads import BackupCorpus, CorpusConfig  # noqa: E402

#: The e2e benchmark's library settings (``benchmarks/e2e`` README).
CONFIG = DedupConfig(ecs=2048, sd=16, bloom_bytes=1 << 20, window=48, cache_manifests=64)
#: The e2e ``images-churn`` corpus.
CORPUS = {
    "machines": 4,
    "generations": 5,
    "os_count": 2,
    "as_disk_images": True,
    "os_bytes": 1 << 20,
    "app_bytes": 1 << 18,
    "user_bytes": 1 << 19,
    "mean_file": 1 << 16,
}
OPEN_CALLS = 2000


class RangeLoopBackend(DirectoryBackend):
    """The same store, read with the contract's default ``iter_ranges``:
    one ``get_range`` — open, ``fstat``, ``pread``, close — per extent."""

    iter_ranges = StorageBackend.iter_ranges


WAYS: dict[str, type[DirectoryBackend]] = {
    "get_range": RangeLoopBackend,
    "iter_ranges": DirectoryBackend,
}


@contextlib.contextmanager
def counted_opens(directory: str) -> Iterator[list[str]]:
    """Every ``os.open`` of a path under ``directory`` while the block runs."""
    opened: list[str] = []
    real_open = os.open

    def counting(path: str, *args: Any, **kwargs: Any) -> int:
        if path.startswith(directory):
            opened.append(path)
        return real_open(path, *args, **kwargs)

    os.open = counting
    try:
        yield opened
    finally:
        os.open = real_open


def _pieces(fm: FileManifest) -> list[tuple[bytes, int, int]]:
    """The extent reads ``iter_restore`` issues for ``fm``."""
    return [
        (e.container_id, e.offset + done, min(RESTORE_PIECE_SIZE, e.size - done))
        for e in fm.extents
        for done in range(0, e.size, RESTORE_PIECE_SIZE)
    ]


def fragmentation(manifests: list[FileManifest]) -> dict[str, float]:
    """Extents and containers per file, and how often a restore revisits one."""
    extents, containers = [], []
    reads = revisits = adjacent = 0
    for fm in manifests:
        ends: dict[bytes, int] = {}
        for e in fm.extents:
            reads += 1
            if e.container_id in ends:
                revisits += 1
                adjacent += ends[e.container_id] == e.offset
            ends[e.container_id] = e.offset + e.size
        extents.append(len(fm.extents))
        containers.append(len(ends))
    return {
        "extents_median": statistics.median(extents),
        "extents_max": max(extents),
        "containers_median": statistics.median(containers),
        "containers_max": max(containers),
        "revisit_share": round(revisits / reads, 3),
        "revisits_adjacent_share": round(adjacent / max(revisits, 1), 3),
    }


def open_us(store_dir: str, keys: list[bytes]) -> float:
    """µs per ``open`` + ``fstat`` + ``close`` of a container file."""
    paths = [os.path.join(store_dir, DiskModel.CHUNK, key.hex()) for key in keys]
    start = time.perf_counter()
    for i in range(OPEN_CALLS):
        fd = os.open(paths[i % len(paths)], os.O_RDONLY)
        os.fstat(fd)
        os.close(fd)
    return (time.perf_counter() - start) / OPEN_CALLS * 1e6


def _timed(fn: Callable[[], object]) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def one_pass(
    store_dir: str, ids: list[str], reads: list[list[tuple[bytes, int, int]]]
) -> dict[str, dict[str, float]]:
    """Per way: µs per extent read off the backend, restore MB/s."""
    nbytes = sum(size for file_reads in reads for _, _, size in file_reads)
    extents = sum(len(file_reads) for file_reads in reads)
    row = {}
    for way, backend_class in WAYS.items():
        backend = backend_class(store_dir)
        store = Store(backend)
        manifests = [store.file_manifests.get(file_id) for file_id in ids]

        def extents_off_backend() -> None:
            for file_reads in reads:
                for _ in backend.iter_ranges(DiskModel.CHUNK, file_reads):
                    pass

        def restores() -> None:
            for fm in manifests:
                for _ in fm.iter_restore(store.chunks):
                    pass

        row[way] = {
            "us_per_extent": _timed(extents_off_backend) / extents * 1e6,
            "restore_mb_s": nbytes / _timed(restores) / 1e6,
        }
    return row


def opens_per_file(store_dir: str, ids: list[str]) -> dict[str, dict[str, float]]:
    """Container opens per restored file, both ways (an untimed pass)."""
    out = {}
    for way, backend_class in WAYS.items():
        store = Store(backend_class(store_dir))
        counts = []
        for file_id in ids:
            fm = store.file_manifests.get(file_id)
            with counted_opens(os.path.join(store_dir, DiskModel.CHUNK)) as opened:
                for _ in fm.iter_restore(store.chunks):
                    pass
            counts.append(len(opened))
        out[way] = {"median": statistics.median(counts), "max": max(counts), "total": sum(counts)}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dir", default=tempfile.gettempdir(), help="scratch directory")
    parser.add_argument("--repeat", type=int, default=25, help="timed passes (median)")
    parser.add_argument("--seed", type=int, default=201, help="corpus seed")
    parser.add_argument("--out", default=str(ROOT / "BENCH_restore_reads.json"))
    args = parser.parse_args(argv)
    scratch = tempfile.mkdtemp(prefix="bench_restore_reads-", dir=args.dir)
    try:
        files = BackupCorpus(CorpusConfig(**CORPUS, seed=args.seed)).files()
        dedup = resolve("bf-mhd")(CONFIG, backend=DirectoryBackend(scratch))
        dedup.process(files)
        ids = [f.file_id for f in files]
        store = Store(DirectoryBackend(scratch))
        manifests = [store.file_manifests.get(file_id) for file_id in ids]
        for f, fm in zip(files, manifests, strict=True):
            if b"".join(fm.iter_restore(store.chunks)) != f.data:
                raise SystemExit(f"{f.file_id}: restore mismatch")
        reads = [_pieces(fm) for fm in manifests]
        opens = opens_per_file(scratch, ids)
        passes = [one_pass(scratch, ids, reads) for _ in range(args.repeat)]
        per_open = statistics.median(
            open_us(scratch, store.ids(DiskModel.CHUNK)) for _ in range(args.repeat)
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    nbytes = sum(f.size for f in files)
    timed = {
        way: {
            key: round(statistics.median(p[way][key] for p in passes), 2)
            for key in ("us_per_extent", "restore_mb_s")
        }
        for way in WAYS
    }
    for way, row in timed.items():
        wall = nbytes / (row["restore_mb_s"] * 1e6)
        row["open_share"] = round(opens[way]["total"] * per_open * 1e-6 / wall, 3)
    result = {
        "bench": "restore_reads",
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count()},
        "corpus": {"shape": CORPUS, "seed": args.seed, "files": len(files), "bytes": nbytes},
        "config": {"algorithm": "bf-mhd", "ecs": CONFIG.ecs, "sd": CONFIG.sd},
        "repeat": args.repeat,
        "fragmentation": fragmentation(manifests),
        "opens_per_file": opens,
        "open_us": round(per_open, 2),
        "ways": timed,
        "restore_speedup": round(
            timed["iter_ranges"]["restore_mb_s"] / timed["get_range"]["restore_mb_s"], 2
        ),
    }
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
