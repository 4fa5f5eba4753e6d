"""Per-layer numbers: isolated kernel passes and the derivation from spans.

Layer names are ``src/repro`` packages.  ``chunking`` and ``hashing``
are measured by running their public kernels alone over every input;
``storage`` by the spans of the wrapped backend; ``service`` and
``cluster`` by spans around each client / router call; ``core`` is what
remains of the time spent inside the program's calls once storage and
the two kernels are taken out.
"""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass
from pathlib import Path

from repro.chunking import VectorizedChunker
from repro.hashing import BloomFilter, sha1_many
from repro.storage import DiskModel

from .backend import storage_counts
from .corpus import Corpus
from .drivers import RepResult
from .settings import PER_LAYER, Workload, dedup_config
from .spans import Span, Tracer
from .stats import supported_tail

MB = 1e6

#: Spans that are calls from the benchmark into the program (ingest side).
_PROGRAM_CALLS = (
    "core.ingest",
    "core.finalize",
    "cluster.put_file",
    "cluster.flush",
    "service.open",
    "service.push",
    "service.commit",
)


@dataclass
class Isolated:
    """Seconds and counts of the kernels run alone over every input."""

    chunk_seconds: float
    sha1_seconds: float
    bloom_seconds: float
    chunks: int
    nbytes: int


def isolate_kernels(workload: Workload, corpus: Corpus, tracer: Tracer) -> Isolated:
    """Chunk, hash and bloom-probe every input outside the dedup loop."""
    cfg = dedup_config(workload)
    chunker = VectorizedChunker(cfg.small_chunker_config())
    digests = []
    chunk_s = sha1_s = 0.0
    nbytes = 0
    for f in corpus.files:
        data = Path(f.path).read_bytes()
        nbytes += len(data)
        with tracer.span("chunking.alone", nbytes=len(data)) as span:
            chunks = chunker.chunk(data)
        chunk_s += _seconds(span)
        with tracer.span("hashing.sha1_alone", nbytes=len(data)) as span:
            digests.extend(sha1_many(c.data for c in chunks))
        sha1_s += _seconds(span)
    bloom = BloomFilter(cfg.bloom_bytes)
    with tracer.span("hashing.bloom_alone") as span:
        for d in digests:
            bloom.add(d)
        hits = sum(1 for d in digests if d in bloom)
    if hits != len(digests):
        raise AssertionError("bloom filter lost a digest it was given")
    return Isolated(chunk_s, sha1_s, _seconds(span), len(digests), nbytes)


def _seconds(span: Span | None) -> float:
    if span is None:
        raise ValueError("isolated passes need an enabled tracer")
    return span.seconds


def _in(spans: list[Span], window: tuple[float, float], *names: str) -> list[Span]:
    lo, hi = window
    return [s for s in spans if s.name in names and lo <= s.start < hi]


def _p50_ms(spans: list[Span]) -> float:
    return statistics.median(s.seconds for s in spans) * 1e3 if spans else 0.0


def per_layer_metrics(
    workload: Workload,
    corpus: Corpus,
    untraced: RepResult,
    traced: RepResult,
    twin: RepResult | None,
    iso: Isolated,
    tracer: Tracer,
) -> dict[str, float]:
    """Every ``PER_LAYER`` metric; layers a workload does not use read 0."""
    spans = tracer.spans
    user_mb = corpus.user_bytes / MB
    # Client threads run side by side: wall-clock budgets scale by them.
    lanes = int(workload.extra.get("tenants", 1))
    ingest_budget = traced.ingest_wall * lanes
    restore_budget = traced.restore_wall * lanes
    ingest_io = storage_counts(spans, traced.ingest_window)
    restore_io = storage_counts(spans, traced.restore_window)
    storage_ingest_s = sum(ingest_io.seconds.values())
    program_s = sum(s.seconds for s in _in(spans, traced.ingest_window, *_PROGRAM_CALLS))
    core_self_s = program_s - storage_ingest_s - iso.chunk_seconds - iso.sha1_seconds

    units = _in(spans, traced.ingest_window, "unit")
    last_gen = corpus.generations - 1

    def gen_mb_s(gen: int) -> float:
        chosen = [s for s in units if s.attrs.get("gen") == gen]
        seconds = sum(s.seconds for s in chosen)
        return sum(s.nbytes for s in chosen) / MB / seconds if seconds else 0.0

    m: dict[str, float] = dict.fromkeys((x.name for x in PER_LAYER), 0.0)
    m.update(traced.counters)
    m.update(
        {
            "chunking.mb_s": iso.nbytes / MB / iso.chunk_seconds,
            "chunking.busy_share": iso.chunk_seconds / ingest_budget,
            "chunking.chunks": iso.chunks,
            "chunking.mean_chunk_bytes": iso.nbytes / max(1, iso.chunks),
            "hashing.sha1_mb_s": iso.nbytes / MB / iso.sha1_seconds,
            "hashing.busy_share": iso.sha1_seconds / ingest_budget,
            "hashing.bloom_ops_s": 2 * iso.chunks / iso.bloom_seconds,
            "core.self_share": core_self_s / ingest_budget,
            "core.us_per_chunk": core_self_s / max(1, iso.chunks) * 1e6,
            "core.gen0_mb_s": gen_mb_s(0),
            "core.genlast_mb_s": gen_mb_s(last_gen),
            "core.restore_self_share": 1.0 - restore_io.seconds["get"] / restore_budget,
            "storage.put_busy_share": ingest_io.seconds["put"] / ingest_budget,
            "storage.get_busy_share": restore_io.seconds["get"] / restore_budget,
            "storage.puts": ingest_io.total_calls("put"),
            "storage.gets": ingest_io.total_calls("get") + restore_io.total_calls("get"),
            "storage.exists_calls": ingest_io.total_calls("exists")
            + restore_io.total_calls("exists"),
            "storage.keys_calls": ingest_io.total_calls("keys") + restore_io.total_calls("keys"),
            "storage.put_bytes_per_user_byte": ingest_io.total_bytes("put") / corpus.user_bytes,
            "storage.ingest_read_bytes_per_user_byte": ingest_io.total_bytes("get")
            / corpus.user_bytes,
            "storage.get_bytes_per_restored_byte": restore_io.total_bytes("get")
            / max(1, traced.restored_bytes),
            "storage.reads_per_restored_mb": restore_io.total_calls("get")
            / max(1e-9, traced.restored_bytes / MB),
            "storage.manifest_rewrites": ingest_io.rewrites[DiskModel.MANIFEST],
            "storage.objects_per_user_mb": traced.space.objects / user_mb,
            # fsync="none" is the benchmark's stated policy; nothing to count.
            "storage.fsyncs": 0,
            "obs.trace_overhead_share": traced.ingest_wall / untraced.ingest_wall - 1.0,
            "obs.attributed_share": program_s / ingest_budget,
            "workloads.corpus_gen_s": corpus.timings["gen_s"],
            "workloads.corpus_mb": user_mb,
            "workloads.files": len(corpus.files),
        }
    )
    if workload.kind == "service":
        sessions = [s.seconds * 1e3 for s in units]
        tail_pct, tail_ms = supported_tail(sessions)
        push_cpu = untraced.extras["server_push_cpu_s"]
        m.update(
            {
                "service.open_p50_ms": _p50_ms(_in(spans, traced.ingest_window, "service.open")),
                "service.push_p50_ms": _p50_ms(_in(spans, traced.ingest_window, "service.push")),
                "service.commit_p50_ms": _p50_ms(_in(spans, traced.ingest_window, "service.commit")),
                "service.get_p50_ms": _p50_ms(_in(spans, traced.restore_window, "service.get")),
                "service.ping_p50_ms": _p50_ms([s for s in spans if s.name == "service.ping"]),
                "service.session_tail_ms": tail_ms,
                "service.session_tail_pct": tail_pct,
                "service.refusals": traced.extras["service.refusals"],
                "service.server_cpu_s_per_user_mb": push_cpu / user_mb,
                "service.server_cpu_util": push_cpu
                / (untraced.ingest_wall * (os.cpu_count() or 1)),
            }
        )
        if twin is not None:
            m["service.overhead_share"] = 1.0 - twin.ingest_wall / untraced.ingest_wall
    if workload.kind == "cluster":
        flush = _in(spans, traced.ingest_window, "cluster.flush")
        m.update(
            {
                "cluster.put_file_p50_ms": _p50_ms(_in(spans, traced.ingest_window, "cluster.put_file")),
                "cluster.flush_s": sum(s.seconds for s in flush),
                "cluster.wal_put_bytes_per_user_byte": ingest_io.total_bytes("put", "cluster.wal")
                / corpus.user_bytes,
                "cluster.recipe_puts": ingest_io.total_calls("put", "cluster.recipe"),
                "cluster.shard_bytes_skew": traced.extras["cluster.shard_bytes_skew"],
                "cluster.cold_restart_s": traced.extras["cluster.cold_restart_s"],
            }
        )
        if twin is not None:
            m["cluster.der_loss_vs_single"] = (
                untraced.space.stored_bytes / twin.space.stored_bytes - 1.0
            )
    return m
