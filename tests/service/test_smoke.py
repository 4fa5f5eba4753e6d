"""The service smoke runs, as CI's ``service-smoke`` and
``telemetry-smoke`` jobs drive them.

A real ``repro-dedup serve`` process, two ``client push`` processes
for two tenants at the same time, an HTTP scrape of ``/metrics`` — then
the exposition format is validated line by line and every tenant the
store holds is fsck'd through a cold-opened view.  A traced server and
a traced ``client push`` must stitch into one cross-process trace, and
``/slo`` must report the tenant's objectives.
"""

import json
import os
import re
import subprocess
import sys
import urllib.request
from pathlib import Path

import numpy as np

from repro.core import DedupConfig
from repro.obs import load_trace, merge_traces, summarize
from repro.registry import resolve
from repro.service import TenantRegistry
from repro.storage import DirectoryBackend

SRC = Path(__file__).resolve().parents[2] / "src"

_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9.e+-]+$"
    r"|^# TYPE \S+ (counter|gauge|histogram)$"
)


#: Straight to the loopback port, whatever proxy the environment names.
_OPEN = urllib.request.build_opener(urllib.request.ProxyHandler({})).open


def cli(*args, **kwargs):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *args], env=env, text=True, **kwargs
    )


def serve(store, *args):
    """A ``serve`` process and its port, read from the ready line."""
    server = cli(
        "serve", "--store-dir", str(store), "--ecs", "1024", "--sd", "8", *args,
        stdout=subprocess.PIPE,
    )
    ready = server.stdout.readline()
    if not ready.startswith("serving on 127.0.0.1:"):
        server.kill()
        raise AssertionError(ready)
    return server, ready.rsplit(":", 1)[1].strip()


def write_image(path, seed):
    blob = np.random.default_rng(seed).integers(0, 256, 200_000, dtype=np.uint8)
    path.write_bytes(blob.tobytes())


def test_serve_two_tenants_then_metrics_and_fsck(tmp_path):
    store = tmp_path / "store"
    for name, seed in [("alice.img", 1), ("bob.img", 2)]:
        write_image(tmp_path / name, seed)

    server, port = serve(store)
    try:
        pushes = [
            cli("client", "push", "--tenant", tid, "--port", port, str(tmp_path / f"{tid}.img"),
                stdout=subprocess.DEVNULL)
            for tid in ("alice", "bob")
        ]
        assert [p.wait(timeout=120) for p in pushes] == [0, 0]
        with _OPEN(f"http://127.0.0.1:{port}/healthz", timeout=10) as r:
            assert r.read() == b"ok\n"
        with _OPEN(f"http://127.0.0.1:{port}/metrics", timeout=10) as r:
            body = r.read().decode()
    finally:
        server.terminate()
        server.wait(timeout=30)
        server.stdout.close()

    typed = set()
    for line in body.splitlines():
        assert _SAMPLE.match(line), f"invalid exposition line: {line!r}"
        if line.startswith("# TYPE"):
            name = line.split()[2]
            assert name not in typed, f"duplicate TYPE for {name}"
            typed.add(name)
    assert 'tenant="alice"' in body, "missing alice label"
    assert 'tenant="bob"' in body, "missing bob label"

    registry = TenantRegistry(DirectoryBackend(store))
    assert registry.discover() == ["alice", "bob"]
    for tid in registry.discover():
        dedup = resolve("bf-mhd")(
            DedupConfig(ecs=1024, sd=8, bloom_bytes=1 << 18), backend=registry.view(tid)
        )
        dedup.warm_start()
        dedup.process([])
        assert dedup.verify_integrity(check_entry_hashes=True).ok, tid


def test_traced_push_stitches_one_trace_and_slo(tmp_path):
    write_image(tmp_path / "carol.img", 3)
    traces = tmp_path / "traces"
    server, port = serve(tmp_path / "store", "--trace-dir", str(traces))
    try:
        push = cli(
            "client", "push", "--tenant", "carol", "--port", port,
            "--trace", str(tmp_path / "push.jsonl"), str(tmp_path / "carol.img"),
            stdout=subprocess.DEVNULL,
        )
        assert push.wait(timeout=120) == 0
        with _OPEN(f"http://127.0.0.1:{port}/slo", timeout=10) as r:
            slo = json.load(r)
    finally:
        server.terminate()
        server.wait(timeout=30)
        server.stdout.close()

    session_traces = sorted(traces.glob("*.jsonl"))
    assert len(session_traces) == 1, session_traces
    merged = merge_traces(
        [load_trace(str(p))[0] for p in [tmp_path / "push.jsonl", *session_traces]]
    )
    assert len({ev.trace_id for ev in merged if ev.trace_id}) == 1, "trace ids not stitched"
    span_ids = {ev.span_id for ev in merged}
    roots = [ev.name for ev in merged if ev.parent not in span_ids]
    assert roots == ["client.push"], roots
    assert {"session", "file", "chunk", "dedup", "commit"} <= {ev.name for ev in merged}
    assert summarize(merged).coverage >= 0.95

    assert slo["specs"], "no SLO specs configured"
    carol = slo["tenants"]["carol"]
    assert carol["latency"]["count"] >= 1
    for name, state in carol["slos"].items():
        assert {"burn_long", "burn_short", "alerting"} <= state.keys(), name
