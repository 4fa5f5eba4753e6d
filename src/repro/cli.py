"""Command-line interface: ``repro-dedup``.

Sub-commands:

* ``run`` — deduplicate a synthetic corpus (or a real directory) with a
  chosen algorithm and print the paper's metrics.
* ``compare`` — run every algorithm over the same corpus and print the
  comparison table (the Fig. 8 summary view).
* ``trace`` — print corpus ground truth (N, D, L, DER, DAD — the
  Fig. 10(a) characteristics).
* ``restore`` — list or extract files from a persistent store created
  by ``run --store-dir``.
* ``gc`` — expire files from a persistent store and reclaim space.
* ``stats`` — summarise a persistent store's contents.
* ``fsck`` — check a persistent store's integrity; with ``--repair``,
  quarantine damaged objects and reconcile metadata after a crash.
* ``list`` — enumerate the registered algorithms with one-line
  descriptions.
* ``serve`` — run the multi-tenant dedup service (JSON-lines ingest
  protocol + HTTP ``/metrics`` on one port).
* ``client`` — talk to a running service: push files, restore them,
  list a tenant's store, show quota usage.
* ``gen-corpus`` — write the seeded synthetic corpus to a directory.
* ``inspect`` — dump one file's recipe and the manifests behind it.
* ``trace-view`` — render the per-stage time/I/O attribution table of
  one span trace, or merge several (e.g. a client trace plus the
  server's session trace) into one cross-process tree first.
* ``profile`` — run any other sub-command under the continuous stack
  sampler and write a collapsed-stack (flamegraph-ready) profile.

Examples::

    repro-dedup run --algo bf-mhd --ecs 2048 --sd 16
    repro-dedup compare --machines 4 --generations 5
    repro-dedup trace --ecs 1024
    repro-dedup run --input-dir ~/files --store-dir /backup/store --verify --fsck
    repro-dedup run --algo bf-mhd --trace t.jsonl --metrics m.prom --progress
    repro-dedup trace-view t.jsonl
    repro-dedup run --store-dir /backup/store --fsync data --retries 3 --fault-rate 0.01
    repro-dedup fsck --store-dir /backup/store --repair
    repro-dedup restore --store-dir /backup/store --list
    repro-dedup restore --store-dir /backup/store --output-dir /tmp/out
    repro-dedup gc --store-dir /backup/store --delete 'pc00/gen000/*'
    repro-dedup list
    repro-dedup serve --store-dir /srv/dedup --port 7846 --max-bytes 1073741824
    repro-dedup serve --store-dir /srv/dedup --trace-dir /srv/traces
    repro-dedup client push --tenant alice --port 7846 ~/disks/*.img
    repro-dedup client push --tenant alice --port 7846 --trace push.jsonl ~/disks/*.img
    repro-dedup trace-view push.jsonl /srv/traces/trace-alice-0001.jsonl
    repro-dedup profile --out run.folded run --algo bf-mhd --machines 2
    repro-dedup client restore --tenant alice --port 7846 --output-dir /tmp/out
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import os
import sys
from collections.abc import Iterable, Iterator
from typing import BinaryIO

from .analysis import DeviceModel, format_table
from .storage import (
    INODE_SIZE,
    KINDS,
    DirectoryBackend,
    DiskModel,
    FaultInjectingBackend,
    MemoryBackend,
    RetentionPolicy,
    RetryingBackend,
    RetryPolicy,
    StorageBackend,
    Store,
    apply_retention,
    delete_file,
    recover,
    sweep,
    verify_store,
)
from .chunking import VectorizedChunker
from .core import DedupConfig
from .obs import (
    HeartbeatEvent,
    JsonlTraceSink,
    PromTextSink,
    Telemetry,
    load_trace,
    merge_traces,
    summarize,
)
from .obs.traceview import render_table as render_span_table
from .registry import available, resolve
from .workloads import BackupCorpus, BackupFile, CorpusConfig, make_corpus, profile_names, trace_corpus


def _add_corpus_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--machines", type=int, default=4, help="fleet size")
    p.add_argument("--generations", type=int, default=5, help="backups per machine")
    p.add_argument("--seed", type=int, default=2013)
    p.add_argument(
        "--input-dir",
        help="deduplicate real files from this directory instead of the synthetic corpus",
    )
    p.add_argument(
        "--profile",
        choices=profile_names(),
        help="use a named corpus preset instead of the machines/generations knobs",
    )


def _add_dedup_args(p: argparse.ArgumentParser, store_dir: bool = True) -> None:
    p.add_argument("--ecs", type=int, default=2048, help="expected chunk size (bytes)")
    p.add_argument("--sd", type=int, default=16, help="sampling distance (hashes)")
    p.add_argument("--bloom-kb", type=int, default=1024, help="bloom filter budget (KB)")
    p.add_argument("--cache", type=int, default=64, help="manifest cache capacity")
    if store_dir:
        p.add_argument(
            "--store-dir",
            help="persist the deduplicated store as real files under this directory",
        )


def _corpus(args) -> Iterable[BackupFile]:
    if args.input_dir:
        return _walk_dir(args.input_dir)
    if getattr(args, "profile", None):
        return make_corpus(args.profile, seed=args.seed)
    return BackupCorpus(
        CorpusConfig(
            machines=args.machines,
            generations=args.generations,
            os_count=2,
            os_bytes=1 << 20,
            app_bytes=1 << 18,
            user_bytes=1 << 19,
            mean_file=1 << 16,
            seed=args.seed,
        )
    )


def _walk_dir(root: str) -> list[BackupFile]:
    # Source-backed records: content is streamed through the bounded
    # ingest window at process time, never loaded whole.
    files = []
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            try:
                with open(path, "rb"):
                    pass  # probe readability now, like the old eager read
                files.append(BackupFile.from_path(path, os.path.relpath(path, root)))
            except OSError as e:
                print(f"skipping {path}: {e}", file=sys.stderr)
    if not files:
        raise SystemExit(f"no readable files under {root}")
    return files


def _config(args) -> DedupConfig:
    return DedupConfig(
        ecs=args.ecs,
        sd=args.sd,
        bloom_bytes=args.bloom_kb * 1024,
        cache_manifests=args.cache,
    )


def _print_stats(stats, device: DeviceModel) -> None:
    rows = [
        ["input", f"{stats.input_bytes:,} B in {stats.input_files} files"],
        ["stored chunk data", f"{stats.stored_chunk_bytes:,} B"],
        ["metadata", f"{stats.metadata_bytes:,} B ({stats.metadata_ratio:.2%})"],
        ["data-only DER", f"{stats.data_only_der:.3f}"],
        ["real DER", f"{stats.real_der:.3f}"],
        ["unique / duplicate chunks", f"{stats.unique_chunks:,} / {stats.duplicate_chunks:,}"],
        ["duplicate slices (L)", f"{stats.duplicate_slices:,}"],
        ["disk accesses", f"{stats.io.count():,}"],
        ["throughput ratio", f"{device.throughput_ratio(stats):.3f}"],
        ["peak RAM", f"{stats.peak_ram_bytes:,} B"],
    ]
    print(format_table(["metric", "value"], rows, title=f"{stats.algorithm} results"))


def _run_telemetry(args) -> Telemetry | None:
    """Build the run's telemetry from ``--trace``/``--metrics``/``--progress``."""
    sinks = []
    if args.trace:
        sinks.append(JsonlTraceSink(args.trace))
    if args.metrics:
        sinks.append(PromTextSink(args.metrics))
    heartbeat = None
    if args.progress:

        def _beat(ev: HeartbeatEvent) -> None:
            print(
                f"  {ev.files} files, {ev.input_bytes / 1e6:.1f} MB in, "
                f"DER so far {ev.der_so_far:.3f}",
                file=sys.stderr,
            )

        heartbeat = _beat
    if not sinks and heartbeat is None:
        return None
    return Telemetry(sinks=sinks, heartbeat=heartbeat)


def _run_backend(args) -> StorageBackend | None:
    """Compose the run's backend stack from the durability/chaos flags.

    ``RetryingBackend(FaultInjectingBackend(DirectoryBackend))`` — the
    retry layer outermost so injected transient errors are absorbed the
    way a production store would absorb real ones.
    """
    backend: StorageBackend | None = None
    if args.store_dir:
        backend = DirectoryBackend(args.store_dir, fsync=args.fsync)
    if args.fault_rate:
        backend = FaultInjectingBackend(
            backend or MemoryBackend(),
            seed=args.fault_seed,
            transient_rate=args.fault_rate,
        )
    if args.retries:
        backend = RetryingBackend(
            backend or MemoryBackend(),
            RetryPolicy(attempts=args.retries + 1, base_delay=0.001),
        )
    return backend


def cmd_run(args) -> int:
    backend = _run_backend(args)
    dedup = resolve(args.algo)(_config(args), backend)
    if args.store_dir:
        dedup.warm_start()  # dedup against what the store holds; same names get replaced
    tel = _run_telemetry(args)
    if tel is None:
        stats = dedup.process(_corpus(args))
    else:
        dedup.telemetry = tel
        # One root span over ingest *and* finalize, so trace-view's
        # per-stage self times partition the whole run duration.
        with tel.span("run", algo=args.algo):
            stats = dedup.process(_corpus(args))
        tel.close()
        if args.trace:
            print(f"trace written to {args.trace}")
        if args.metrics:
            print(f"metrics written to {args.metrics}")
    _print_stats(stats, DeviceModel())
    layer: StorageBackend | None = backend
    while layer is not None:
        if isinstance(layer, RetryingBackend):
            print(
                f"transient backend errors: {layer.retries} retried, "
                f"{layer.giveups} exhausted the retry budget"
            )
        if isinstance(layer, FaultInjectingBackend):
            fired = dict(sorted(layer.faults_injected.items()))
            print(f"faults injected (seed {args.fault_seed}): {fired or 'none'}")
        layer = getattr(layer, "inner", None)
    if args.verify:
        files = list(_corpus(args))
        bad = [f.file_id for f in files if dedup.restore(f.file_id) != f.read_bytes()]
        if bad:
            print(f"RESTORE FAILURES: {bad}", file=sys.stderr)
            return 1
        print(f"verified: all {len(files)} files restore byte-identically")
    if args.fsck:
        report = dedup.verify_integrity(check_entry_hashes=True)
        print(report.summary())
        if not report.ok:
            for err in report.errors[:20]:
                print(f"  {err}", file=sys.stderr)
            return 1
    if args.store_dir:
        print(f"store persisted under {args.store_dir}")
    return 0


def cmd_restore(args) -> int:
    store = Store(DirectoryBackend(args.store_dir))
    ids = store.file_manifests.list_ids()
    if args.list:
        for file_id in ids:
            print(file_id)
        print(f"{len(ids)} files in store", file=sys.stderr)
        return 0
    targets = args.files or ids
    unknown = sorted(set(targets) - set(ids))
    if unknown:
        print(f"not in store: {unknown}", file=sys.stderr)
        return 1
    for file_id in targets:
        with _restore_to(args.output_dir, file_id) as fh:
            fh.writelines(store.file_manifests.get(file_id).iter_restore(store.chunks))
    print(f"restored {len(targets)} files to {args.output_dir}")
    return 0


@contextlib.contextmanager
def _restore_to(output_dir: str, name: str) -> Iterator[BinaryIO]:
    """A file to stream one restored file into, for ``output_dir/name``.

    The bytes go to ``<path>.part``, renamed when the block succeeds, so
    a restore that fails part-way leaves no short file under the real
    name.
    """
    out_path = os.path.join(output_dir, name)
    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    part = out_path + ".part"
    try:
        with open(part, "wb") as fh:
            yield fh
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(part)
        raise
    os.replace(part, out_path)


def cmd_compare(args) -> int:
    files = list(_corpus(args))
    device = DeviceModel()
    rows = []
    for name in available():
        stats = resolve(name)(_config(args)).process(files)
        rows.append(
            [
                name,
                f"{stats.data_only_der:.3f}",
                f"{stats.real_der:.3f}",
                f"{stats.metadata_ratio:.2%}",
                f"{stats.io.count():,}",
                f"{device.throughput_ratio(stats):.3f}",
            ]
        )
    print(
        format_table(
            ["algorithm", "data DER", "real DER", "metadata", "disk IOs", "tput ratio"],
            rows,
            title=f"comparison (ECS={args.ecs}, SD={args.sd}, "
            f"{sum(f.size for f in files) / 1e6:.1f} MB)",
        )
    )
    return 0


def cmd_trace(args) -> int:
    config = _config(args)
    stats = trace_corpus(_corpus(args), VectorizedChunker(config.small_chunker_config()))
    rows = [
        ["total bytes", f"{stats.total_bytes:,}"],
        ["total chunks", f"{stats.total_chunks:,}"],
        ["unique chunks (N)", f"{stats.unique_chunks:,}"],
        ["duplicate chunks (D)", f"{stats.duplicate_chunks:,}"],
        ["duplicate slices (L)", f"{stats.duplicate_slices:,}"],
        ["partial files (F)", f"{stats.partial_files:,} of {stats.total_files:,}"],
        ["data-only DER (bytes)", f"{stats.byte_der:.3f}"],
        ["chunk DER (D+N)/N", f"{stats.chunk_der:.3f}"],
        ["DAD", f"{stats.dad / 1024:.1f} KB"],
    ]
    print(format_table(["characteristic", "value"], rows, title=f"corpus trace @ ECS={args.ecs}"))
    return 0


def cmd_inspect(args) -> int:
    from .hashing import hex_short
    from .storage import Manifest

    store = Store(DirectoryBackend(args.store_dir))
    try:
        fm = store.file_manifests.get(args.file)
    except KeyError:
        print(f"{args.file!r} not in store", file=sys.stderr)
        return 1

    print(f"file {fm.file_id!r}: {fm.total_size:,} bytes in {len(fm.extents)} extents")
    rows = [
        [i, hex_short(e.container_id), f"{e.offset:,}", f"{e.size:,}"]
        for i, e in enumerate(fm.extents)
    ]
    print(format_table(["#", "container", "offset", "size"], rows, title="recipe"))

    if not args.manifests:
        return 0
    # Show the manifests that describe the touched containers.
    touched = {e.container_id for e in fm.extents}
    shown = 0
    for key in store.ids(DiskModel.MANIFEST):
        manifest = store.manifests.get(key)
        if isinstance(manifest, Manifest):
            containers = {manifest.chunk_id}
        else:
            containers = {e.container_id for e in manifest.entries}
        if not (containers & touched):
            continue
        shown += 1
        print(f"\nmanifest {hex_short(manifest.manifest_id)} "
              f"({len(manifest.entries)} entries)")
        rows = []
        for i, e in enumerate(manifest.entries[: args.limit]):
            hook = getattr(e, "is_hook", False)
            rows.append(
                [i, hex_short(e.digest), f"{e.offset:,}", f"{e.size:,}",
                 "hook" if hook else ""]
            )
        print(format_table(["#", "digest", "offset", "size", "flag"], rows))
        if len(manifest.entries) > args.limit:
            print(f"  ... {len(manifest.entries) - args.limit} more entries")
    print(f"\n{shown} manifest(s) reference this file's containers")
    return 0


def cmd_trace_view(args) -> int:
    try:
        loaded = [load_trace(p) for p in args.trace_files]
        if len(loaded) == 1:
            spans = loaded[0][0]
        else:
            spans = merge_traces([s for s, _ in loaded])
        metrics: dict = {}
        for _, m in loaded:
            metrics.update(m)
        summary = summarize(spans)
    except (OSError, ValueError) as e:
        print(f"invalid trace: {e}", file=sys.stderr)
        return 1
    if not spans:
        print(f"{', '.join(args.trace_files)}: trace contains no spans", file=sys.stderr)
        return 1
    trace_ids = {ev.trace_id for ev in spans if ev.trace_id}
    print(render_span_table(summary))
    print(
        f"{summary.span_count} spans; run {summary.run_s:.4f}s; "
        f"stage self-times cover {summary.coverage:.1%}; "
        f"wait {summary.wait_s:.4f}s / work {summary.work_s:.4f}s"
    )
    if len(loaded) > 1:
        print(
            f"merged {len(loaded)} trace files; "
            f"{len(trace_ids) or 1} distinct trace id(s)"
        )
    if args.show_metrics:
        if not metrics:
            print("(trace carries no metrics record)", file=sys.stderr)
        else:
            rows = []
            for name in sorted(metrics):
                v = metrics[name]
                if isinstance(v, dict) and "counts" in v:
                    v = f"histogram n={v.get('count')} sum={v.get('sum')}"
                rows.append([name, str(v)])
            print(format_table(["metric", "value"], rows, title="final metrics"))
    return 0


def cmd_gen_corpus(args) -> int:
    corpus = _corpus(args)
    if args.input_dir:
        raise SystemExit("gen-corpus generates data; --input-dir makes no sense here")
    count = corpus.write_to(args.output_dir)
    total = sum(f.size for f in corpus)
    print(f"wrote {count} files ({total / 1e6:.1f} MB) under {args.output_dir}")
    return 0


def cmd_stats(args) -> int:
    store = Store(DirectoryBackend(args.store_dir))
    usage = {kind: store.usage(kind) for kind in KINDS}
    rows = [
        [kind, f"{u.objects:,}", f"{u.nbytes:,} B", f"{u.objects * INODE_SIZE:,} B"]
        for kind, u in usage.items()
    ]
    print(format_table(["namespace", "objects", "payload", "inode bytes"], rows,
                       title=f"store {args.store_dir}"))
    # The table's kinds only: quarantined objects and other prefixes
    # (a service store's tenants) are not this store's metadata.
    data = usage[DiskModel.CHUNK].nbytes
    meta = sum(u.nbytes + u.objects * INODE_SIZE for u in usage.values()) - data
    print(f"chunk data {data:,} B; metadata (incl. inodes) {meta:,} B")
    if args.fsck:
        report = verify_store(store, check_entry_hashes=True)
        print(report.summary())
        return 0 if report.ok else 1
    return 0


def cmd_fsck(args) -> int:
    store = Store(DirectoryBackend(args.store_dir))
    if not args.repair:
        report = verify_store(store, deep=True, check_entry_hashes=args.check_hashes)
        print(report.summary())
        for err in report.errors[:20]:
            print(f"  {err}", file=sys.stderr)
        return 0 if report.ok else 1
    rep = recover(store, check_hashes=args.check_hashes)
    print(rep.summary())
    for action in rep.actions:
        print(f"  {action}")
    assert rep.integrity is not None
    print(rep.integrity.summary())
    for err in rep.integrity.errors[:20]:
        print(f"  {err}", file=sys.stderr)
    return 0 if rep.ok else 1


def cmd_gc(args) -> int:
    import fnmatch

    store = Store(DirectoryBackend(args.store_dir))
    ids = store.file_manifests.list_ids()
    victims = [
        file_id
        for file_id in ids
        if any(fnmatch.fnmatch(file_id, pat) for pat in args.delete)
    ]
    if args.delete and not victims:
        print("no stored files match the given patterns", file=sys.stderr)
        return 1
    if args.keep_last is not None:
        policy = RetentionPolicy(keep_last=args.keep_last, keep_every=args.keep_every)
        expired, report = apply_retention(store, ids, policy)
        for file_id in victims:
            delete_file(store, file_id)
        for file_id in expired + victims:
            print(f"deleted {file_id}")
        report = sweep(store) if victims else report
    else:
        for file_id in victims:
            delete_file(store, file_id)
            print(f"deleted {file_id}")
        report = sweep(store)
    print(report.summary())
    check = verify_store(store)
    print(check.summary())
    return 0 if check.ok else 1


def cmd_list(args) -> int:
    from .registry import entries

    width = max(len(name) for name, _ in entries())
    for name, desc in entries():
        print(f"{name:<{width}}  {desc}")
    return 0


def cmd_serve(args) -> int:
    import asyncio

    from .service import DedupServer, TenantQuota

    backend: StorageBackend = DirectoryBackend(args.store_dir)
    server = DedupServer(
        backend,
        host=args.host,
        port=args.port,
        default_quota=TenantQuota(max_bytes=args.max_bytes, max_files=args.max_files),
        default_rate_bytes=args.rate_bytes,
        algorithm=args.algo,
        config=_config(args),
        workers=args.workers,
        queue_depth=args.queue_depth,
        max_rate_delay=args.max_rate_delay,
        trace_dir=args.trace_dir,
    )
    async def _run() -> None:
        await server.start()
        # Machine-parsable ready line (the CI smoke test and scripts
        # wait for it, then read the bound port from it).
        print(f"serving on {server.host}:{server.port}", flush=True)
        print(f"store: {args.store_dir}  algo: {args.algo}", flush=True)
        if args.trace_dir:
            print(f"traces: {args.trace_dir}", flush=True)
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("interrupted; server stopped", file=sys.stderr)
    return 0


def _client_files(paths: list[str]) -> list[tuple[str, bytes]]:
    """Expand CLI path arguments into (client path, content) pairs."""
    out: list[tuple[str, bytes]] = []
    for p in paths:
        if os.path.isdir(p):
            for f in _walk_dir(p):
                out.append((f.file_id, f.read_bytes()))
        else:
            with open(p, "rb") as fh:
                out.append((os.path.basename(p), fh.read()))
    return out


def cmd_client(args) -> int:
    tel: Telemetry | None = None
    if getattr(args, "trace", None):
        tel = Telemetry(sinks=[JsonlTraceSink(args.trace)], origin="client")
    try:
        return _cmd_client_inner(args, tel)
    finally:
        if tel is not None:
            trace_id = tel.trace_id
            tel.close()
            print(
                f"client trace written to {args.trace} (trace id {trace_id})",
                file=sys.stderr,
            )


def _cmd_client_inner(args, tel: Telemetry | None) -> int:
    from .service import ServiceClient, ServiceError

    with ServiceClient(args.host, args.port, telemetry=tel) as client:
        try:
            if args.action == "push":
                files = _client_files(args.paths)
                client.open(
                    args.tenant,
                    algorithm=args.algo,
                    max_bytes=args.max_bytes or None,
                    max_files=args.max_files or None,
                    rate_bytes=args.rate_bytes or None,
                )
                responses = client.push_many(files)
                failed = 0
                for (path, data), r in zip(files, responses):
                    if r.get("ok"):
                        print(f"pushed {path} ({len(data):,} B) -> {r['store_id']}")
                    else:
                        failed += 1
                        print(f"REFUSED {path}: {r.get('message')}", file=sys.stderr)
                if failed:
                    return 1
                result = client.commit()
                usage = result["usage"]
                print(
                    f"committed session {result['session']}: "
                    f"{usage['bytes_used']:,} B / {usage['files_used']} files used"
                )
            elif args.action == "restore":
                targets = args.paths or sorted(client.list_files(args.tenant))
                for path in targets:
                    with _restore_to(args.output_dir, path) as fh:
                        client.get_into(args.tenant, path, fh)
                print(f"restored {len(targets)} files to {args.output_dir}")
            elif args.action == "list":
                files = client.list_files(args.tenant)
                for path, store_id in files.items():
                    print(f"{path}\t{store_id}")
                print(f"{len(files)} files", file=sys.stderr)
            elif args.action == "usage":
                usage = client.usage(args.tenant)
                for key, value in usage.items():
                    print(f"{key}: {value:,}")
        except ServiceError as e:
            print(f"service refused: {e}", file=sys.stderr)
            return 1
    return 0


def cmd_profile(args) -> int:
    from .obs.profile import StackSampler

    rest = [a for a in args.rest if a != "--"]
    if not rest:
        print("profile: give a sub-command to run, e.g. "
              "`repro-dedup profile --out p.txt run --algo bf-mhd`", file=sys.stderr)
        return 2
    if rest[0] == "profile":
        print("profile: cannot profile itself", file=sys.stderr)
        return 2
    inner = build_parser().parse_args(rest)
    prefixes = None
    if args.threads:
        prefixes = tuple(p for p in args.threads.split(",") if p)
    sampler = StackSampler(interval_s=args.interval, thread_prefixes=prefixes)
    with sampler:
        code = int(inner.func(inner))
    stacks = sampler.write(args.out)
    print(
        f"profile: {stacks} stacks ({sampler.samples} samples) -> {args.out}",
        file=sys.stderr,
    )
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-dedup",
        description="MHD deduplication reproduction (Zhou & Wen, ICPP 2013)",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="log per-file dedup progress"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one algorithm and print its metrics")
    p_run.add_argument("--algo", choices=sorted(available()), default="bf-mhd")
    p_run.add_argument("--verify", action="store_true", help="verify all restores")
    p_run.add_argument(
        "--fsck", action="store_true", help="run a deep store-integrity check"
    )
    p_run.add_argument(
        "--trace",
        metavar="PATH",
        help="write a JSONL span trace of the run (render with trace-view)",
    )
    p_run.add_argument(
        "--metrics",
        metavar="PATH",
        help="write the run's final metrics in Prometheus text format",
    )
    p_run.add_argument(
        "--progress",
        action="store_true",
        help="print heartbeat lines (files/bytes/DER-so-far) to stderr",
    )
    dur = p_run.add_argument_group("durability / fault injection")
    dur.add_argument(
        "--fsync",
        choices=("none", "data", "full"),
        default="none",
        help="fsync policy for --store-dir writes (default: none)",
    )
    dur.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="retry transient backend errors up to N times with backoff",
    )
    dur.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        metavar="P",
        help="inject seeded transient backend errors with probability P per op",
    )
    dur.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="RNG seed for --fault-rate injection (default: 0)",
    )
    _add_dedup_args(p_run)
    _add_corpus_args(p_run)
    p_run.set_defaults(func=cmd_run)

    p_rst = sub.add_parser("restore", help="list or extract files from a store")
    p_rst.add_argument("--store-dir", required=True, help="store created by run --store-dir")
    p_rst.add_argument("--list", action="store_true", help="list stored file ids")
    p_rst.add_argument("--output-dir", default=".", help="where to write restored files")
    p_rst.add_argument("files", nargs="*", help="specific file ids (default: all)")
    p_rst.set_defaults(func=cmd_restore)

    p_gc = sub.add_parser("gc", help="expire files and reclaim space in a store")
    p_gc.add_argument("--store-dir", required=True)
    p_gc.add_argument(
        "--delete",
        action="append",
        default=[],
        metavar="GLOB",
        help="file-id glob(s) to expire before sweeping (may repeat)",
    )
    p_gc.add_argument(
        "--keep-last",
        type=int,
        metavar="N",
        help="retention: keep only the newest N generations",
    )
    p_gc.add_argument(
        "--keep-every",
        type=int,
        default=0,
        metavar="K",
        help="retention: additionally keep every K-th older generation",
    )
    p_gc.set_defaults(func=cmd_gc)

    p_st = sub.add_parser("stats", help="summarise a persistent store")
    p_st.add_argument("--store-dir", required=True)
    p_st.add_argument("--fsck", action="store_true", help="deep integrity check")
    p_st.set_defaults(func=cmd_stats)

    p_fsck = sub.add_parser(
        "fsck", help="check a persistent store; --repair recovers after a crash"
    )
    p_fsck.add_argument("--store-dir", required=True)
    p_fsck.add_argument(
        "--check-hashes",
        action="store_true",
        help="also re-hash manifest entries against container bytes (slow)",
    )
    p_fsck.add_argument(
        "--repair",
        action="store_true",
        help="quarantine damaged objects and reconcile metadata, then re-verify",
    )
    p_fsck.set_defaults(func=cmd_fsck)

    p_gen = sub.add_parser("gen-corpus", help="materialise the synthetic corpus as files")
    p_gen.add_argument("--output-dir", required=True)
    _add_corpus_args(p_gen)
    p_gen.set_defaults(func=cmd_gen_corpus)

    p_ins = sub.add_parser("inspect", help="dump a file's recipe and manifests")
    p_ins.add_argument("--store-dir", required=True)
    p_ins.add_argument("--file", required=True, help="file id to inspect")
    p_ins.add_argument(
        "--manifests", action="store_true", help="also dump owning manifests"
    )
    p_ins.add_argument("--limit", type=int, default=20, help="entries shown per manifest")
    p_ins.set_defaults(func=cmd_inspect)

    p_cmp = sub.add_parser("compare", help="run every algorithm on one corpus")
    _add_dedup_args(p_cmp)
    _add_corpus_args(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_tr = sub.add_parser("trace", help="print corpus duplication ground truth")
    _add_dedup_args(p_tr)
    _add_corpus_args(p_tr)
    p_tr.set_defaults(func=cmd_trace)

    p_ls = sub.add_parser(
        "list", help="list registered algorithms with one-line descriptions"
    )
    p_ls.set_defaults(func=cmd_list)

    p_srv = sub.add_parser(
        "serve", help="run the multi-tenant dedup service on one TCP port"
    )
    p_srv.add_argument("--store-dir", required=True, help="shared physical store")
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument(
        "--port", type=int, default=0, help="listen port (0 = pick a free one)"
    )
    p_srv.add_argument("--algo", choices=sorted(available()), default="bf-mhd")
    p_srv.add_argument(
        "--max-bytes",
        type=int,
        default=0,
        help="default per-tenant byte quota (0 = unlimited)",
    )
    p_srv.add_argument(
        "--max-files",
        type=int,
        default=0,
        help="default per-tenant file quota (0 = unlimited)",
    )
    p_srv.add_argument(
        "--rate-bytes",
        type=float,
        default=0.0,
        help="default per-tenant ingest rate in bytes/s (0 = unlimited)",
    )
    p_srv.add_argument(
        "--workers", type=int, default=None, help="fleet thread-pool size"
    )
    p_srv.add_argument(
        "--queue-depth",
        type=int,
        default=4,
        help="bounded per-session put queue before socket back-pressure",
    )
    p_srv.add_argument(
        "--max-rate-delay",
        type=float,
        default=5.0,
        help="longest back-pressure sleep before a 429-style refusal (s)",
    )
    p_srv.add_argument(
        "--trace-dir",
        metavar="DIR",
        help="write one JSONL span trace per traced session under DIR",
    )
    _add_dedup_args(p_srv, store_dir=False)
    p_srv.set_defaults(func=cmd_serve)

    p_cl = sub.add_parser("client", help="talk to a running dedup service")
    cl_sub = p_cl.add_subparsers(dest="action", required=True)

    def _client_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--tenant", required=True, help="tenant id")
        p.add_argument("--host", default="127.0.0.1")
        p.add_argument("--port", type=int, required=True)
        p.set_defaults(func=cmd_client)

    p_push = cl_sub.add_parser("push", help="open a session and push files")
    _client_common(p_push)
    p_push.add_argument("--algo", default=None, help="algorithm for this session")
    p_push.add_argument(
        "--max-bytes", type=int, default=0, help="tenant byte quota on first contact"
    )
    p_push.add_argument(
        "--max-files", type=int, default=0, help="tenant file quota on first contact"
    )
    p_push.add_argument(
        "--rate-bytes", type=float, default=0.0, help="tenant rate limit on first contact"
    )
    p_push.add_argument(
        "--trace",
        metavar="PATH",
        help="trace the push client-side and propagate the trace id to the server",
    )
    p_push.add_argument("paths", nargs="+", help="files or directories to push")

    p_get = cl_sub.add_parser("restore", help="restore a tenant's files")
    _client_common(p_get)
    p_get.add_argument("--output-dir", default=".", help="restore destination")
    p_get.add_argument("paths", nargs="*", help="store paths (default: all)")

    _client_common(cl_sub.add_parser("list", help="list a tenant's files"))
    _client_common(cl_sub.add_parser("usage", help="show a tenant's quota usage"))

    p_tv = sub.add_parser(
        "trace-view", help="render a span trace's per-stage attribution table"
    )
    p_tv.add_argument(
        "trace_files",
        nargs="+",
        help="JSONL trace(s); several files are merged into one cross-process tree",
    )
    p_tv.add_argument(
        "--show-metrics",
        action="store_true",
        help="also print the final metric values recorded in the trace",
    )
    p_tv.set_defaults(func=cmd_trace_view)

    p_prof = sub.add_parser(
        "profile", help="run another sub-command under the continuous stack sampler"
    )
    p_prof.add_argument(
        "--out", required=True, metavar="PATH", help="collapsed-stack output file"
    )
    p_prof.add_argument(
        "--interval", type=float, default=0.005, help="sampling interval (s)"
    )
    p_prof.add_argument(
        "--threads",
        metavar="PREFIX[,PREFIX...]",
        help="only sample threads whose name starts with one of these prefixes",
    )
    p_prof.add_argument(
        "rest",
        nargs=argparse.REMAINDER,
        help="the repro-dedup sub-command to run (e.g. `run --algo bf-mhd`)",
    )
    p_prof.set_defaults(func=cmd_profile)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if getattr(args, "verbose", False) else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
