#!/usr/bin/env python3
"""End-to-end benchmark of the dedup stack.

    python3 benchmarks/e2e/run.py --seed 2013 [--trace] [--workload NAME] [--out FILE.json]

Without ``--workload`` every workload runs, each in a child process of
its own, and every metric is printed by name with unit, direction and
bound.  With ``--workload`` one workload runs in this process and the
last line of standard output is the result as one JSON object — the
form the benchmark driver reads (``--seconds`` sets how long it
measures, ``--trace 1`` selects the traced run and the per-layer
metrics).  Exit status is non-zero if any operation failed or any
restore mismatched its digest.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from e2ebench import REPO_ROOT, require_repro  # noqa: E402

# Everything below measures the program in this checkout; with no
# ``src/repro`` beside the benchmark there is nothing to run.
require_repro()

from e2ebench import corpus as corpus_setup  # noqa: E402
from e2ebench import drivers, layers  # noqa: E402
from e2ebench.settings import (  # noqa: E402
    DEFAULT_SEED,
    END_TO_END,
    MALLOC_ENV,
    MIN_TIMED_REPS,
    OPS_FAILED_SHARE,
    PER_LAYER,
    SETUP_REPS,
    WARMUP_UNIT_SHARE,
    WORKLOAD_BY_NAME,
    WORKLOADS,
    Metric,
    Workload,
    describe,
)
from e2ebench.spans import Tracer, self_seconds  # noqa: E402
from e2ebench.stats import summary  # noqa: E402

SCHEMA = "repro-e2e-bench/1"
#: Where traces are left and temporary stores are made: inside the
#: checkout (git-ignored), because the driver lets a run write nowhere
#: else and the store belongs on the checkout's filesystem, not a tmpfs.
WORK_ROOT = REPO_ROOT / ".e2e_work"
DEFAULT_SECONDS = 22
MB = 1e6


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=sorted(WORKLOAD_BY_NAME), help="run only this workload")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed of the corpus content")
    p.add_argument(
        "--seconds",
        type=float,
        default=DEFAULT_SECONDS,
        help="measure for this long (never fewer than the minimum timed repetitions)",
    )
    p.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="1: traced run, per-layer metrics (with no --workload: both runs)",
    )
    p.add_argument("--out", type=Path, help="also write the results to this JSON file")
    p.add_argument(
        "--scale",
        choices=("full", "smoke"),
        default="full",
        help="smoke: tiny corpus, 1 repetition - self-tests only, never reported",
    )
    p.add_argument("--materialise", type=Path, help=argparse.SUPPRESS)
    return p.parse_args(argv)


# --------------------------------------------------------------------------
# one workload, in this process
# --------------------------------------------------------------------------


def child_command(args: argparse.Namespace, workload: Workload, *extra: str) -> list[str]:
    """This script again, for ``workload`` with the run's seed and scale."""
    return [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload.name,
        "--seed", str(args.seed),
        "--scale", args.scale,
        *extra,
    ]  # fmt: skip


def set_up(args: argparse.Namespace, workload: Workload, work: Path, times: int):
    """Materialise the corpus ``times`` times in child processes.

    Returns the corpus of the last set-up and each set-up's wall seconds.
    """
    seconds = []
    target = work / "corpus"
    for _ in range(times):
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        t = time.perf_counter()
        subprocess.run(
            child_command(args, workload, "--materialise", str(target)), check=True, timeout=170
        )
        seconds.append(time.perf_counter() - t)
    return corpus_setup.load(target), seconds


def run_rep(
    workload: Workload,
    corpus: corpus_setup.Corpus,
    work: Path,
    tracer: Tracer,
    kind: str | None = None,
) -> drivers.RepResult:
    """One repetition in a fresh store directory, removed afterwards."""
    store = work / "store"
    shutil.rmtree(store, ignore_errors=True)
    try:
        kind = kind or workload.kind
        if kind == "library":
            return drivers.run_library(workload, corpus, store, tracer)
        if kind == "cluster":
            return drivers.run_cluster(workload, corpus, store, tracer)
        return drivers.run_service(workload, corpus, store, tracer, work / "server-spans.jsonl")
    finally:
        shutil.rmtree(store, ignore_errors=True)


def measure(
    workload: Workload,
    corpus: corpus_setup.Corpus,
    setup_s: list[float],
    seconds: float,
    smoke: bool,
    work: Path,
):
    """The untraced run: warm up, then timed repetitions for ``seconds``."""
    off = Tracer(enabled=False)
    min_reps = 1 if smoke else MIN_TIMED_REPS
    if workload.kind != "service" and not smoke:
        run_rep(workload, corpus.head(WARMUP_UNIT_SHARE), work, off)
    reps = []
    t0 = time.perf_counter()
    # Past the minimum, another repetition starts only if, at the pace so
    # far, it ends inside ``seconds``: the driver caps the time of all runs.
    while len(reps) < min_reps or (
        not smoke and (time.perf_counter() - t0) * (1 + 1 / len(reps)) <= seconds
    ):
        reps.append(run_rep(workload, corpus, work, off))

    if workload.kind == "service":
        rss = [r.extras["server_peak_rss_mb"] for r in reps]
        setup_s = [s + statistics.median(r.extras["server_start_s"] for r in reps) for s in setup_s]
    else:
        rss = [drivers.peak_rss_mb()]
    unit_ms = [[s * 1e3 for s in r.unit_seconds] for r in reps]
    values = {
        "ingest_mb_s": summary([r.user_bytes / MB / r.ingest_wall for r in reps]),
        "restore_mb_s": summary([r.restored_bytes / MB / r.restore_wall for r in reps]),
        "unit_p50_ms": {
            **summary([statistics.median(u) for u in unit_ms]),
            "value": statistics.median(ms for u in unit_ms for ms in u),
            "pooled_n": sum(len(u) for u in unit_ms),
        },
        "stored_bytes_per_user_byte": summary([r.space.stored_bytes / r.user_bytes for r in reps]),
        "metadata_ratio": summary([r.space.metadata_bytes / r.user_bytes for r in reps]),
        "peak_rss_mb": summary(rss),
        "setup_s": summary(setup_s),
    }
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    return values, attempted, failed, len(reps)


def measure_traced(workload: Workload, corpus: corpus_setup.Corpus, smoke: bool, work: Path):
    """The traced run: one untraced and one traced repetition, the
    kernels alone, and the library twin where the workload has one."""
    off = Tracer(enabled=False)
    if workload.kind != "service" and not smoke:
        run_rep(workload, corpus.head(WARMUP_UNIT_SHARE), work, off)
    untraced = run_rep(workload, corpus, work, off)
    tracer = Tracer()
    traced = run_rep(workload, corpus, work, tracer)
    iso = layers.isolate_kernels(workload, corpus, tracer)
    twin = run_rep(workload, corpus, work, off, kind="library") if workload.twin else None
    metrics = layers.per_layer_metrics(workload, corpus, untraced, traced, twin, iso, tracer)
    runs = [r for r in (untraced, traced, twin) if r is not None]
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    if not traced.fsck_clean:
        print("e2e benchmark: integrity check of the traced store failed", file=sys.stderr)
        attempted, failed = attempted + 1, failed + 1
    trace_file = WORK_ROOT / f"trace-{workload.name}.jsonl"
    tracer.write(trace_file)
    return metrics, attempted, failed, tracer, trace_file


def run_one(args: argparse.Namespace) -> int:
    workload = WORKLOAD_BY_NAME[args.workload]
    smoke = args.scale == "smoke"
    WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT, prefix=workload.name + "-") as tmp:
        work = Path(tmp)
        times = 1 if (args.trace or smoke) else SETUP_REPS
        corpus, setup_s = set_up(args, workload, work, times)
        entry: dict[str, Any] = {"corpus_mb": corpus.user_bytes / MB, "files": len(corpus.files)}
        if args.trace:
            metrics, attempted, failed, tracer, trace_file = measure_traced(
                workload, corpus, smoke, work
            )
            catalogue: tuple[Metric, ...] = PER_LAYER
            entry["per_layer"] = {
                m.name: {"value": metrics[m.name], "unit": m.unit, "better": m.better}
                for m in PER_LAYER
            }
            entry["trace_file"] = str(trace_file.relative_to(REPO_ROOT))
            print_self_times(tracer)
        else:
            values, attempted, failed, reps = measure(
                workload, corpus, setup_s, args.seconds, smoke, work
            )
            catalogue = END_TO_END
            entry["timed_reps"] = reps
            entry["end_to_end"] = {
                m.name: {**values[m.name], "unit": m.unit, "better": m.better, "bound": m.bound}
                for m in END_TO_END
            }
    entry.update(attempted=attempted, failed=failed, ops_failed_share=failed / attempted)
    section = entry["per_layer" if args.trace else "end_to_end"]
    print_workload(workload.name, entry)
    if args.out:
        write_doc(args.out, args, {workload.name: entry})
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    m.name: {"value": section[m.name]["value"], "unit": m.unit} for m in catalogue
                },
            }
        )
    )
    return 0 if failed == 0 else 1


# --------------------------------------------------------------------------
# every workload, one child process each
# --------------------------------------------------------------------------


def merge_entry(entry: dict[str, Any], part: dict[str, Any]) -> None:
    """Add one child's results to the workload's entry.

    The untraced and the traced child each count their own operations;
    the entry reports the sum, so a failure in either stays visible.
    """
    attempted = entry.get("attempted", 0) + part["attempted"]
    failed = entry.get("failed", 0) + part["failed"]
    entry.update(part)
    entry.update(attempted=attempted, failed=failed, ops_failed_share=failed / attempted)


def run_all(args: argparse.Namespace) -> int:
    print_settings(args)
    merged: dict[str, dict[str, Any]] = defaultdict(dict)
    status = 0
    WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT, prefix="parts-") as tmp:
        for workload in WORKLOADS:
            for trace in (0, 1) if args.trace else (0,):
                part = Path(tmp, f"{workload.name}-{trace}.json")
                cmd = child_command(
                    args, workload,
                    "--seconds", str(args.seconds),
                    "--trace", str(trace),
                    "--out", str(part),
                )  # fmt: skip
                proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
                # The child's last line is the driver's JSON; the rest is its table.
                sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
                sys.stdout.flush()
                if proc.returncode != 0:
                    status = 1
                if part.is_file():
                    merge_entry(
                        merged[workload.name],
                        json.loads(part.read_text())["workloads"][workload.name],
                    )
    if args.out:
        write_doc(args.out, args, merged)
    failed = sum(e.get("failed", 1) for e in merged.values())
    print(f"\n{OPS_FAILED_SHARE}: {failed} failed operations over {len(merged)} workloads")
    return 1 if status or failed or len(merged) != len(WORKLOADS) else 0


# --------------------------------------------------------------------------
# output
# --------------------------------------------------------------------------


def print_settings(args: argparse.Namespace) -> None:
    s = describe()
    print(f"e2e benchmark  seed={args.seed}  scale={args.scale}  measure={args.seconds}s/workload")
    print(f"  algorithm {s['algorithm']}  config {s['dedup_config']}  backend {s['backend']}")
    print(
        f"  per workload: {s['setup_reps']} set-ups, a warm-up over the first "
        f"{s['warmup_unit_share']:.0%} of the units, >= {s['min_timed_reps']} timed repetitions; "
        f"load from one process, <= {os.cpu_count()} threads"
    )
    print("  page cache warm, flushes free: latencies are this sandbox's, not a device's")
    ungated = ", ".join(w.name for w in WORKLOADS if not w.gated)
    print(f"  run here but not by the benchmark driver (not in BENCHMARK.json): {ungated}")
    malloc = " ".join(f"{k}={v}" for k, v in s["malloc_env"].items())
    print(f"  freed memory stays with the process: {malloc}")


def print_workload(name: str, entry: dict[str, Any]) -> None:
    gate = "" if WORKLOAD_BY_NAME[name].gated else ", not in BENCHMARK.json"
    print(f"\n== {name}  ({entry['corpus_mb']:.1f} MB in {entry['files']} files{gate})")
    for m in END_TO_END if "end_to_end" in entry else ():
        v = entry["end_to_end"][m.name]
        across = "" if m.across_seeds is None else f" ({m.across_seeds:.0%} across seeds)"
        print(
            f"  {m.name:<28} {v['value']:>12.4f} {v['unit']:<6} {v['better']:<6} is better, "
            f"bound {v['bound']:.0%}{across}   q1 {v['q1']:.4f} q3 {v['q3']:.4f} n={v['n']}"
        )
    if "per_layer" in entry:
        unused = {"service.", "cluster."} - {WORKLOAD_BY_NAME[name].kind + "."}
        for m, v in entry["per_layer"].items():
            if not m.startswith(tuple(unused)):  # a layer the workload never enters reads 0
                print(f"  {m:<42} {v['value']:>14.4f} {v['unit']}")
        attributed = entry["per_layer"]["obs.attributed_share"]["value"]
        if attributed < 0.9:
            print(f"  unattributed: program calls cover only {attributed:.0%} of traced ingest wall")
        print(f"  trace: {entry['trace_file']}")
    print(
        f"  {OPS_FAILED_SHARE:<28} {entry['ops_failed_share']:>12.4f} "
        f"({entry['failed']} failed of {entry['attempted']} operations)"
    )


def print_self_times(tracer: Tracer) -> None:
    """Where the traced repetition's time went: self time by span name."""
    by_name: dict[str, float] = defaultdict(float)
    selfs = self_seconds(tracer.spans)
    for s in tracer.spans:
        by_name[s.name] += selfs[s.span_id]
    print("\n  self time by span (traced repetition and isolated passes):")
    for name, seconds in sorted(by_name.items(), key=lambda kv: -kv[1]):
        print(f"    {name:<24} {seconds:>9.4f} s")


def write_doc(path: Path, args: argparse.Namespace, workloads: dict[str, Any]) -> None:
    doc = {
        "schema": SCHEMA,
        "seed": args.seed,
        "scale": args.scale,
        "measure_seconds": args.seconds,
        "host": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "settings": describe(),
        "workloads": workloads,
    }
    path.write_text(json.dumps(doc, indent=1) + "\n")


def with_malloc_settings() -> None:
    """Start this command again with ``MALLOC_ENV`` set, unless it is.

    glibc reads the settings when a process starts; the children (set-up,
    workloads, the server) inherit them.
    """
    if any(os.environ.get(k) != v for k, v in MALLOC_ENV.items()):
        os.environ.update(MALLOC_ENV)
        os.execv(sys.executable, [sys.executable, *sys.argv])


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.materialise is not None:
        corpus_setup.materialise(
            WORKLOAD_BY_NAME[args.workload],
            args.seed,
            args.materialise,
            args.scale == "smoke",
        )
        return 0
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    with_malloc_settings()
    raise SystemExit(main())
