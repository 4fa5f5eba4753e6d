"""One repetition of a workload through its surface.

A repetition is: ingest phase (timed per unit and whole, including
``finalize``/``commit``/``flush``), space measurement at the backend, one
digest-verified restore of every file, then ``restore_passes`` timed
restore passes.  In a traced repetition the backend is wrapped in
:class:`~e2ebench.backend.CountingBackend`, every call into a layer is a
span, the verified restore is the one (timed) restore pass, and the
store must pass ``verify_integrity`` / ``fsck``.
"""

from __future__ import annotations

import hashlib
import os
import resource
import signal
import subprocess
import sys
import threading
import time
import traceback
import urllib.request
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.cluster import ClusterConfig, ClusterRouter
from repro.registry import resolve
from repro.service.client import ServiceClient
from repro.service.quotas import ServiceError
from repro.service.session import latest_files
from repro.service.tenancy import TenantRegistry, tenant_namespace_prefix
from repro.storage import DirectoryBackend, StorageBackend
from repro.storage.verify import verify_store
from repro.workloads.machine import BackupFile

from . import SRC_DIR
from .backend import CountingBackend, SpaceUse, space_use
from .corpus import Corpus, InputFile, Unit
from .settings import ALGORITHM, DEDUP_CONFIG, FSYNC, Workload, dedup_config
from .spans import Tracer

WARM_TENANT = "warm"
SERVER_UNIT = "server"
_CLK_TCK = os.sysconf("SC_CLK_TCK")
_SERVER_READY_TIMEOUT = 60.0
_SERVER_STOP_TIMEOUT = 20.0
_TRACED_PINGS = 20

Window = tuple[float, float]


@dataclass
class RepResult:
    """Everything one repetition measured."""

    user_bytes: int
    #: Start and end of the phase in ``time.perf_counter`` time.
    ingest_window: Window
    unit_seconds: list[float]
    #: The timed restore passes and the bytes they returned.
    restore_wall: float
    restored_bytes: int
    restore_window: Window
    space: SpaceUse
    attempted: int
    failed: int
    #: Exact counters read from public attributes / responses.
    counters: dict[str, float] = field(default_factory=dict)
    #: ``None`` unless this was a traced repetition.
    fsck_clean: bool | None = None
    extras: dict[str, float] = field(default_factory=dict)

    @property
    def ingest_wall(self) -> float:
        return self.ingest_window[1] - self.ingest_window[0]


class Tally:
    """Attempted/failed operation counts, shared by client threads."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self._lock = threading.Lock()

    def record(self, ok: bool, what: str) -> None:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                print(f"e2e benchmark: operation failed: {what}", file=sys.stderr)

    @contextmanager
    def op(self, what: str) -> Iterator[None]:
        """Count the block as one operation; it fails if it raises.

        The exception is reported and swallowed so one failed operation
        does not hide the outcome of the ones after it.
        """
        try:
            yield
        except Exception:  # noqa: BLE001 - benchmark boundary: count, report, keep measuring
            traceback.print_exc(file=sys.stderr)
            self.record(False, what)
        else:
            self.record(True, what)


def _check(data: bytes, f: InputFile) -> None:
    """Raise unless ``data`` is the file the set-up digested."""
    if hashlib.sha1(data).hexdigest() != f.sha1:
        raise ValueError(f"{f.file_id}: restored bytes do not match the set-up digest")


def peak_rss_mb() -> float:
    """This process's peak resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _restore_phases(
    restore: Callable[[str], bytes],
    corpus: Corpus,
    passes: int,
    tracer: Tracer,
    tally: Tally,
) -> tuple[float, int, Window]:
    """Digest-verified restore of every file, then the timed passes.

    Returns ``(timed wall seconds, bytes returned, window)``.  Traced:
    the verified pass is the timed one; its wall is the restore calls'
    own time, the digesting between them excluded.
    """
    files = corpus.files
    start = time.perf_counter()
    verify_wall = 0.0
    verified = 0
    for f in files:
        with tally.op(f"verified restore of {f.file_id}"):
            t = time.perf_counter()
            with tracer.span("core.restore", unit=f.file_id, nbytes=f.size):
                data = restore(f.file_id)
            verify_wall += time.perf_counter() - t
            verified += len(data)
            _check(data, f)
    if tracer.enabled:
        return verify_wall, verified, (start, time.perf_counter())
    nbytes = 0
    t0 = time.perf_counter()
    for _ in range(passes):
        for f in files:
            with tally.op(f"restore of {f.file_id}"):
                size = len(restore(f.file_id))
                nbytes += size
                if size != f.size:
                    raise ValueError(f"{f.file_id}: restored {size} bytes of {f.size}")
    end = time.perf_counter()
    return end - t0, nbytes, (t0, end)


def _open_backend(store_dir: Path, tracer: Tracer) -> tuple[StorageBackend, DirectoryBackend]:
    """``(backend the program gets, the real backend)``."""
    real = DirectoryBackend(store_dir, fsync=FSYNC)
    if tracer.enabled:
        return CountingBackend(real, tracer), real
    return real, real


def _ingest_units(
    ingest: Callable[[BackupFile], Any],
    corpus: Corpus,
    tracer: Tracer,
    tally: Tally,
    call_span: str,
) -> list[float]:
    """Ingest unit by unit; returns each unit's wall seconds."""
    unit_seconds = []
    for unit in corpus.units:
        t = time.perf_counter()
        with tracer.span("unit", unit=unit.unit_id, nbytes=unit.size, gen=unit.generation):
            with tally.op(f"ingest {unit.unit_id}"):
                for f in unit.files:
                    with tracer.span(call_span, nbytes=f.size):
                        ingest(BackupFile.from_path(f.path, f.file_id))
        unit_seconds.append(time.perf_counter() - t)
    return unit_seconds


def run_library(workload: Workload, corpus: Corpus, store_dir: Path, tracer: Tracer) -> RepResult:
    """Ingest and restore through ``MHDDeduplicator`` in this process."""
    backend, real = _open_backend(store_dir, tracer)
    dedup = resolve(ALGORITHM)(dedup_config(workload), backend=backend)
    tally = Tally()
    t0 = time.perf_counter()
    unit_seconds = _ingest_units(dedup.ingest, corpus, tracer, tally, "core.ingest")
    with tracer.span("core.finalize"):
        stats = dedup.finalize()
    ingest_window = (t0, time.perf_counter())
    space = space_use(real)
    restore_wall, restored, restore_window = _restore_phases(
        dedup.restore, corpus, workload.restore_passes, tracer, tally
    )
    fsck_clean = bool(dedup.verify_integrity().ok) if tracer.enabled else None
    return RepResult(
        user_bytes=corpus.user_bytes,
        ingest_window=ingest_window,
        unit_seconds=unit_seconds,
        restore_wall=restore_wall,
        restored_bytes=restored,
        restore_window=restore_window,
        space=space,
        attempted=tally.attempted,
        failed=tally.failed,
        counters=_library_counters(dedup, stats),
        fsck_clean=fsck_clean,
    )


def _library_counters(dedup: Any, stats: Any) -> dict[str, float]:
    chunks = stats.unique_chunks + stats.duplicate_chunks
    lookups = dedup.cache.hits + dedup.cache.loads
    bloom = dedup.bloom.stats
    return {
        "core.duplicate_chunk_share": stats.duplicate_chunks / max(1, chunks),
        "core.duplicate_slices": stats.duplicate_slices,
        "core.hhr_splits": dedup.hhr_splits,
        "core.hhr_reads": dedup.hhr_reads,
        "core.manifest_loads": dedup.cache.loads,
        "core.manifest_cache_hit_rate": dedup.cache.hits / max(1, lookups),
        "core.bloom_positive_rate": bloom.positives / max(1, bloom.queries),
    }


# --------------------------------------------------------------------------
# cluster
# --------------------------------------------------------------------------


def run_cluster(workload: Workload, corpus: Corpus, store_dir: Path, tracer: Tracer) -> RepResult:
    """Ingest and restore through an in-process ``ClusterRouter``."""
    backend, real = _open_backend(store_dir, tracer)
    workers = int(workload.extra["workers"])
    # Worker metric registries are the only public source of the
    # shards' HHR and manifest-cache counters; collected when traced.
    config = ClusterConfig(dedup=dedup_config(workload), collect_metrics=tracer.enabled)
    router = ClusterRouter(backend, workers=workers, config=config)
    tally = Tally()
    t0 = time.perf_counter()
    unit_seconds = _ingest_units(router.put_file, corpus, tracer, tally, "cluster.put_file")
    with tracer.span("cluster.flush"):
        router.flush()
        fleet = router.finalize()
    ingest_window = (t0, time.perf_counter())
    space = space_use(real)
    restore_wall, restored, restore_window = _restore_phases(
        router.restore_file, corpus, workload.restore_passes, tracer, tally
    )
    result = RepResult(
        user_bytes=corpus.user_bytes,
        ingest_window=ingest_window,
        unit_seconds=unit_seconds,
        restore_wall=restore_wall,
        restored_bytes=restored,
        restore_window=restore_window,
        space=space,
        attempted=tally.attempted,
        failed=tally.failed,
        counters=_cluster_counters(fleet),
    )
    if tracer.enabled:
        result.fsck_clean = all(r.ok for r in router.fsck().values())
        t = time.perf_counter()
        ClusterRouter(backend, workers=workers, config=config)
        result.extras["cluster.cold_restart_s"] = time.perf_counter() - t
        shard_bytes = [v for scope, v in space.chunk_bytes_by_scope.items() if scope]
        mean = sum(shard_bytes) / max(1, len(shard_bytes))
        result.extras["cluster.shard_bytes_skew"] = max(shard_bytes, default=0) / max(1.0, mean)
    return result


def _cluster_counters(fleet: Any) -> dict[str, float]:
    """Sum the shards' public stats (and their registries when collected)."""
    unique = sum(s.stats.unique_chunks for s in fleet.shards)
    dup = sum(s.stats.duplicate_chunks for s in fleet.shards)
    out: dict[str, float] = {
        "core.duplicate_chunk_share": dup / max(1, unique + dup),
        "core.duplicate_slices": sum(s.stats.duplicate_slices for s in fleet.shards),
    }
    registries = [s.metrics for s in fleet.shards if s.metrics is not None]
    if registries:
        out.update(
            _mhd_counters(lambda name: sum(r.counter(f"mhd.{name}").value for r in registries))
        )
    return out


def _mhd_counters(total: Callable[[str], float]) -> dict[str, float]:
    """HHR and manifest-cache counters from the ``mhd.*`` metric family."""
    hits, loads = total("manifest_cache.hits"), total("manifest_cache.loads")
    return {
        "core.hhr_splits": total("hhr.splits"),
        "core.hhr_reads": total("hhr.reads"),
        "core.manifest_loads": loads,
        "core.manifest_cache_hit_rate": hits / max(1.0, hits + loads),
    }


# --------------------------------------------------------------------------
# service
# --------------------------------------------------------------------------


class Server:
    """A ``repro.cli serve`` subprocess on a fresh store directory.

    With ``span_file`` it is started through ``serve_traced.py`` — the
    same server with its backend wrapped — and leaves its storage spans
    there when stopped.
    """

    def __init__(self, workload: Workload, store_dir: Path, span_file: Path | None = None) -> None:
        self.store_dir = store_dir
        #: The server's stderr (its shutdown notice, or why it failed).
        self.log = store_dir.with_name("server.log")
        args = [
            "--store-dir", str(store_dir),
            "--port", "0",
            "--workers", str(workload.extra["server_workers"]),
            "--cache", str(workload.cache_manifests),
            "--ecs", str(DEDUP_CONFIG["ecs"]),
            "--sd", str(DEDUP_CONFIG["sd"]),
            "--bloom-kb", str(DEDUP_CONFIG["bloom_bytes"] // 1024),
        ]  # fmt: skip
        if span_file is None:
            cmd = [sys.executable, "-m", "repro.cli", "serve", *args]
        else:
            launcher = Path(__file__).with_name("serve_traced.py")
            cmd = [sys.executable, str(launcher), "--span-file", str(span_file), *args]
        env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
        t0 = time.perf_counter()
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(
                cmd, stdout=subprocess.PIPE, stderr=log, env=env, text=True
            )
        try:
            self.port = self._wait_ready()
        except BaseException:
            self.stop()
            sys.stderr.write(self.log.read_text())
            raise
        self.start_s = time.perf_counter() - t0

    def _wait_ready(self) -> int:
        stdout = self.proc.stdout
        assert stdout is not None
        lines: list[str] = []
        reader = threading.Thread(target=lambda: lines.append(stdout.readline()), daemon=True)
        reader.start()
        reader.join(_SERVER_READY_TIMEOUT)
        if not lines or "serving on" not in lines[0]:
            raise RuntimeError(f"server did not become ready: {lines!r}")
        return int(lines[0].rsplit(":", 1)[1])

    def cpu_seconds(self) -> float:
        """User + system CPU time of the server process so far."""
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def metrics_text(self) -> str:
        with urllib.request.urlopen(f"http://127.0.0.1:{self.port}/metrics", timeout=30) as r:
            return str(r.read().decode())

    def stop(self) -> None:
        """Interrupt the server and wait until it has ended."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(_SERVER_STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def units_by_tenant(corpus: Corpus, tenants: int) -> dict[str, list[Unit]]:
    """Deal machines to tenants in contiguous blocks, in backup order."""
    machines = sorted({u.machine for u in corpus.units})
    per = max(1, len(machines) // tenants)
    out: dict[str, list[Unit]] = {f"t{i}": [] for i in range(tenants)}
    for unit in corpus.units:
        out[f"t{min(tenants - 1, machines.index(unit.machine) // per)}"].append(unit)
    return out


def _run_per_tenant(tenants: list[str], target: Callable[[str], None]) -> Window:
    """Run ``target(tenant)`` on one thread per tenant, started together."""
    barrier = threading.Barrier(len(tenants) + 1)
    errors: list[BaseException] = []

    def body(tenant: str) -> None:
        barrier.wait()
        try:
            target(tenant)
        except BaseException as exc:  # noqa: BLE001 - re-raised on the main thread below
            errors.append(exc)

    threads = [threading.Thread(target=body, args=(t,)) for t in tenants]
    for th in threads:
        th.start()
    barrier.wait()
    t0 = time.perf_counter()
    for th in threads:
        th.join()
    window = (t0, time.perf_counter())
    if errors:
        raise errors[0]
    return window


def run_service(
    workload: Workload,
    corpus: Corpus,
    store_dir: Path,
    tracer: Tracer,
    span_file: Path | None = None,
) -> RepResult:
    """Push and restore through a fresh ``serve`` subprocess."""
    server = Server(workload, store_dir, span_file if tracer.enabled else None)
    try:
        result = _drive_service(workload, corpus, server, tracer)
    finally:
        server.stop()
    if tracer.enabled and span_file is not None:
        tracer.adopt(span_file, unit=SERVER_UNIT)
    return result


def _drive_service(
    workload: Workload, corpus: Corpus, server: Server, tracer: Tracer
) -> RepResult:
    by_tenant = units_by_tenant(corpus, int(workload.extra["tenants"]))
    tally = Tally()
    lock = threading.Lock()
    refusals: list[str] = []
    session_stats: list[dict[str, Any]] = []
    unit_seconds: list[float] = []

    # Fresh server per repetition: one small session by a throw-away
    # tenant stands in for the warm-up repetition.
    with ServiceClient("127.0.0.1", server.port) as warm:
        warm.open(WARM_TENANT)
        warm.put("warm/4k", bytes(4096))
        warm.commit()
        for _ in range(_TRACED_PINGS if tracer.enabled else 0):
            with tracer.span("service.ping"):
                warm.ping()

    def push(tenant: str) -> None:
        with ServiceClient("127.0.0.1", server.port, timeout=120.0) as client:
            for unit in by_tenant[tenant]:
                payload = [(f.file_id, Path(f.path).read_bytes()) for f in unit.files]
                stats = None
                t = time.perf_counter()
                with tracer.span("unit", unit=unit.unit_id, nbytes=unit.size, gen=unit.generation):
                    try:
                        with tracer.span("service.open"):
                            client.open(tenant)
                        with tracer.span("service.push", nbytes=unit.size):
                            responses = client.push_many(payload)
                        refused = [str(r.get("error")) for r in responses if not r.get("ok")]
                        if refused:
                            client.abort()
                        else:
                            with tracer.span("service.commit"):
                                stats = client.commit()["stats"]
                    except ServiceError as exc:
                        refused = [type(exc).__name__]
                dt = time.perf_counter() - t
                tally.record(stats is not None, f"session {tenant} {unit.unit_id}: {refused}")
                with lock:
                    unit_seconds.append(dt)
                    refusals.extend(refused)
                    if stats is not None:
                        session_stats.append(stats)

    cpu0 = server.cpu_seconds()
    ingest_window = _run_per_tenant(list(by_tenant), push)
    push_cpu = server.cpu_seconds() - cpu0

    # Each tenant gets every file of its first machine's last generation
    # over the sessionless read path; digests are compared after the
    # clock stops.
    fetched: list[tuple[InputFile, bytes]] = []

    def pull(tenant: str) -> None:
        last = max(u.generation for u in by_tenant[tenant])
        unit = next(u for u in by_tenant[tenant] if u.generation == last)
        with ServiceClient("127.0.0.1", server.port, timeout=120.0) as client:
            for f in unit.files:
                with tally.op(f"get {tenant} {f.file_id}"):
                    with tracer.span("service.get", unit=f.file_id, nbytes=f.size):
                        data = client.get(tenant, f.file_id)
                    with lock:
                        fetched.append((f, data))

    restore_window = _run_per_tenant(list(by_tenant), pull)
    for f, data in fetched:
        with tally.op(f"digest of fetched {f.file_id}"):
            _check(data, f)

    counters = _service_counters(session_stats, server.metrics_text() if tracer.enabled else "")
    peak = server.peak_rss_mb()
    server.stop()

    # With the server gone, read its store through the library: space
    # use, and a digest-verified restore of every file of every tenant.
    backend = DirectoryBackend(server.store_dir, fsync=FSYNC)
    space = space_use(backend, skip_scope=tenant_namespace_prefix(WARM_TENANT))
    registry = TenantRegistry(backend)
    fsck_clean = True
    for tenant, units in by_tenant.items():
        view = registry.view(tenant)
        ids = latest_files(view)
        reader = resolve(ALGORITHM)(dedup_config(workload), backend=view)
        for unit in units:
            for f in unit.files:
                with tally.op(f"verify {tenant} {f.file_id}"):
                    _check(reader.restore(ids[f.file_id]), f)
        if tracer.enabled:
            fsck_clean = fsck_clean and bool(verify_store(view).ok)

    return RepResult(
        user_bytes=corpus.user_bytes,
        ingest_window=ingest_window,
        unit_seconds=unit_seconds,
        restore_wall=restore_window[1] - restore_window[0],
        restored_bytes=sum(len(d) for _, d in fetched),
        restore_window=restore_window,
        space=space,
        attempted=tally.attempted,
        failed=tally.failed,
        counters=counters,
        fsck_clean=fsck_clean if tracer.enabled else None,
        extras={
            "server_peak_rss_mb": peak,
            "server_start_s": server.start_s,
            "server_push_cpu_s": push_cpu,
            "service.refusals": len(refusals),
        },
    )


def _service_counters(session_stats: list[dict[str, Any]], metrics_text: str) -> dict[str, float]:
    """Exact counters from commit responses and the ``/metrics`` endpoint."""
    unique = sum(int(s["unique_chunks"]) for s in session_stats)
    dup = sum(int(s["duplicate_chunks"]) for s in session_stats)
    out: dict[str, float] = {
        "core.duplicate_chunk_share": dup / max(1, unique + dup),
        "core.duplicate_slices": sum(int(s["duplicate_slices"]) for s in session_stats),
    }
    if metrics_text:
        lines = [
            line
            for line in metrics_text.splitlines()
            if line.startswith("repro_mhd_") and f'tenant="{WARM_TENANT}"' not in line
        ]

        def total(name: str) -> float:
            prefix = "repro_mhd_" + name.replace(".", "_") + "_total{"
            return sum(float(line.rsplit(" ", 1)[1]) for line in lines if line.startswith(prefix))

        out.update(_mhd_counters(total))
    return out
