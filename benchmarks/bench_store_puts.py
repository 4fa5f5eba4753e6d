"""Store layer, wall clock: what one put costs on a ``DirectoryBackend``.

The store link of the layer chain (chunk → hash → match → store), as
measured microseconds rather than ``DiskModel`` counts.  Three parts,
written to ``BENCH_store_puts.json`` at the repository root:

* ``host`` — this file system's cost of the calls a put is made of:
  an inode-allocating create (``open(O_CREAT | O_EXCL)`` + write +
  close), a ``link`` and a ``rename``, in µs per call;
* ``ingest`` — one bf-mhd ingest of ``repro.workloads.small_corpus()``
  on a fresh ``DirectoryBackend``, per object kind: puts and µs per
  put, the kind's share of the ingest, and the ingest's MB/s.  Run
  twice: ``linked`` is the store as shipped (a manifest's hooks after
  the first go through ``put_like`` and share its inode), ``put`` takes
  the ``StorageBackend`` default, a new file per hook;
* ``hooks`` — µs per 20-byte hook of one manifest written through
  ``put`` and through ``put_like`` the previous hook.

Run (it finds ``src/`` beside itself)::

    python benchmarks/bench_store_puts.py [--dir DIR] [--repeat N]

``--dir`` is where the scratch stores go (default: the system temp
directory; it must be on the file system being measured).  Each figure
is the median over ``--repeat`` runs (default 5).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from collections.abc import Callable
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.core import DedupConfig  # noqa: E402
from repro.hashing import sha1  # noqa: E402
from repro.registry import resolve  # noqa: E402
from repro.storage import DirectoryBackend, DiskModel, StorageBackend  # noqa: E402
from repro.workloads import small_corpus  # noqa: E402

#: The e2e benchmark's library settings (``benchmarks/e2e`` README).
CONFIG = DedupConfig(ecs=2048, sd=16, bloom_bytes=1 << 20, window=48)
HOST_CALLS = 500
HOOKS = 1000


class TimedBackend(DirectoryBackend):
    """A ``DirectoryBackend`` that times each outermost put per namespace.

    A ``put_like`` that falls back to ``put`` is one timed put.
    """

    def __init__(self, root: str | os.PathLike[str]) -> None:
        super().__init__(root)
        self.puts: Counter[str] = Counter()
        self.seconds: Counter[str] = Counter()
        self._busy = False

    def _timed(self, put: Callable[..., None], namespace: str, *args: bytes) -> None:
        if self._busy:
            put(namespace, *args)
            return
        self._busy = True
        start = time.perf_counter()
        try:
            put(namespace, *args)
        finally:
            self.seconds[namespace] += time.perf_counter() - start
            self.puts[namespace] += 1
            self._busy = False

    def put(self, namespace: str, key: bytes, data: bytes) -> None:
        self._timed(super().put, namespace, key, data)

    def put_like(self, namespace: str, key: bytes, data: bytes, like: bytes) -> None:
        self._timed(super().put_like, namespace, key, data, like)


class UnlinkedBackend(TimedBackend):
    """The same, with the contract's default ``put_like``: a new file."""

    def put_like(self, namespace: str, key: bytes, data: bytes, like: bytes) -> None:
        StorageBackend.put_like(self, namespace, key, data, like)


def _us_per_call(seconds: float, calls: int) -> float:
    return round(seconds / calls * 1e6, 1)


def host_calls(scratch: Path) -> dict[str, float]:
    """µs per create, link and rename in one fresh directory."""
    d = Path(tempfile.mkdtemp(dir=scratch))
    names = [str(d / f"c{i}") for i in range(HOST_CALLS)]
    start = time.perf_counter()
    for name in names:
        fd = os.open(name, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        os.write(fd, b"\0" * 20)
        os.close(fd)
    create = time.perf_counter() - start
    start = time.perf_counter()
    for name in names:
        os.link(names[0], name + "l")
    link = time.perf_counter() - start
    start = time.perf_counter()
    for name in names:
        os.rename(name + "l", name + "r")
    rename = time.perf_counter() - start
    shutil.rmtree(d)
    return {
        "create_us": _us_per_call(create, HOST_CALLS),
        "link_us": _us_per_call(link, HOST_CALLS),
        "rename_us": _us_per_call(rename, HOST_CALLS),
    }


def ingest(scratch: Path, backend_class: type[TimedBackend], files: list) -> dict:
    """One bf-mhd ingest of ``files``; per-kind put counts and µs."""
    d = tempfile.mkdtemp(dir=scratch)
    backend = backend_class(d)
    dedup = resolve("bf-mhd")(CONFIG, backend=backend)
    start = time.perf_counter()
    dedup.process(files)
    wall = time.perf_counter() - start
    user_bytes = sum(f.size for f in files)
    hook_dir = Path(d) / DiskModel.HOOK
    row = {
        "ingest_s": round(wall, 3),
        "ingest_mb_s": round(user_bytes / wall / 1e6, 2),
        "hook_inodes": len({entry.stat().st_ino for entry in hook_dir.iterdir()}),
        "kinds": {
            kind: {
                "puts": backend.puts[kind],
                "us_per_put": _us_per_call(backend.seconds[kind], max(backend.puts[kind], 1)),
                "share_of_ingest": round(backend.seconds[kind] / wall, 3),
            }
            for kind in sorted(backend.puts)
        },
    }
    shutil.rmtree(d)
    return row


def hook_puts(scratch: Path) -> dict[str, float]:
    """µs per hook of one manifest, through ``put`` and ``put_like``."""
    manifest_id = sha1(b"manifest")
    keys = [sha1(b"hook %d" % i) for i in range(HOOKS)]
    out = {}
    for name in ("put", "put_like"):
        d = tempfile.mkdtemp(dir=scratch)
        backend = DirectoryBackend(d)
        backend.put(DiskModel.HOOK, keys[0], manifest_id)
        start = time.perf_counter()
        for like, key in zip(keys, keys[1:]):
            if name == "put":
                backend.put(DiskModel.HOOK, key, manifest_id)
            else:
                backend.put_like(DiskModel.HOOK, key, manifest_id, like)
        out[f"{name}_us"] = _us_per_call(time.perf_counter() - start, HOOKS - 1)
        shutil.rmtree(d)
    return out


def _median_rows(rows: list[dict]) -> dict:
    """Element-wise median of equally shaped nested dicts of numbers."""
    first = rows[0]
    if isinstance(first, dict):
        return {k: _median_rows([r[k] for r in rows]) for k in first}
    if isinstance(first, int) and len(set(rows)) == 1:
        return first
    return round(statistics.median(rows), 3)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dir", default=tempfile.gettempdir(), help="scratch directory")
    parser.add_argument("--repeat", type=int, default=5, help="runs per figure (median)")
    parser.add_argument("--out", default=str(ROOT / "BENCH_store_puts.json"))
    args = parser.parse_args(argv)
    scratch = Path(tempfile.mkdtemp(prefix="bench_store_puts-", dir=args.dir))
    try:
        files = small_corpus().files()
        runs = [
            {
                "host": host_calls(scratch),
                "hooks": hook_puts(scratch),
                "ingest": {
                    "put": ingest(scratch, UnlinkedBackend, files),
                    "linked": ingest(scratch, TimedBackend, files),
                },
            }
            for _ in range(args.repeat)
        ]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result = {
        "bench": "store_puts",
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count()},
        "corpus": {"name": "small_corpus", "files": len(files), "bytes": sum(f.size for f in files)},
        "config": {"algorithm": "bf-mhd", "ecs": CONFIG.ecs, "sd": CONFIG.sd},
        "repeat": args.repeat,
        **_median_rows(runs),
    }
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
