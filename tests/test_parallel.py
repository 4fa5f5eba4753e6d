"""Tests for sharded multi-process deduplication and the thread fleet."""

import os
import signal
import threading
import time

import pytest

from repro.core import DedupConfig, MHDDeduplicator
from repro.parallel import (
    FleetExecutor,
    FleetResult,
    SerialLane,
    dedup_sharded,
    shard_by_machine,
)
from repro.workloads import BackupFile, tiny_corpus

CFG = DedupConfig(ecs=1024, sd=8, bloom_bytes=1 << 18)


@pytest.fixture(scope="module")
def files():
    return tiny_corpus().files()


def test_shard_by_machine(files):
    shards = shard_by_machine(files)
    assert set(shards) == {"pc00", "pc01", "pc02"}
    assert sum(len(v) for v in shards.values()) == len(files)
    for shard, shard_files in shards.items():
        assert all(f.file_id.startswith(shard) for f in shard_files)


def test_empty_corpus():
    fleet = dedup_sharded([], config=CFG, workers=1)
    assert fleet.shards == ()
    assert fleet.makespan_seconds == 0.0


def test_unknown_algorithm_fails_fast(files):
    with pytest.raises(ValueError):
        dedup_sharded(files[:5], algo="no-such-algo", config=CFG, workers=1)


def test_inprocess_matches_per_shard_sequential(files):
    """workers=1 must equal running each shard by hand."""
    fleet = dedup_sharded(files, config=CFG, workers=1)
    shards = shard_by_machine(files)
    for result in fleet.shards:
        manual = MHDDeduplicator(CFG).process(shards[result.shard])
        assert result.stats.stored_chunk_bytes == manual.stored_chunk_bytes
        assert result.stats.unique_chunks == manual.unique_chunks


def test_multiprocess_matches_inprocess(files):
    """The pool changes wall time, never results."""
    seq = dedup_sharded(files, config=CFG, workers=1)
    par = dedup_sharded(files, config=CFG, workers=3)
    assert len(seq.shards) == len(par.shards)
    for a, b in zip(seq.shards, par.shards):
        assert a.shard == b.shard
        assert a.stats.stored_chunk_bytes == b.stats.stored_chunk_bytes
        assert a.stats.io.ops == b.stats.io.ops


def test_aggregate_identities(files):
    fleet = dedup_sharded(files, config=CFG, workers=1)
    assert fleet.input_bytes == sum(f.size for f in files)
    assert fleet.data_only_der >= fleet.real_der >= 1.0
    assert fleet.makespan_seconds <= fleet.aggregate_seconds
    assert fleet.speedup >= 1.0


def test_sharding_misses_cross_shard_duplicates(files):
    """The scale-out trade-off: machines share OS content, so a global
    run dedups more than the sharded fleet."""
    fleet = dedup_sharded(files, config=CFG, workers=1)
    global_stats = MHDDeduplicator(CFG).process(files)
    assert fleet.stored_chunk_bytes >= global_stats.stored_chunk_bytes
    assert fleet.data_only_der <= global_stats.data_only_der


def test_custom_shard_function(files):
    """Shard by generation instead of machine."""

    def by_generation(fs):
        shards = {}
        for f in fs:
            shards.setdefault(f.file_id.split("/")[1], []).append(f)
        return shards

    fleet = dedup_sharded(files, config=CFG, workers=1, shard_fn=by_generation)
    assert {s.shard for s in fleet.shards} == {"gen000", "gen001", "gen002"}


def test_single_machine_corpus():
    files = [BackupFile("pc00/gen000/x", b"a" * 10_000)]
    fleet = dedup_sharded(files, config=CFG, workers=4)
    assert len(fleet.shards) == 1


def test_single_shard_speedup_is_one():
    files = [BackupFile("pc00/gen000/x", b"a" * 50_000)]
    fleet = dedup_sharded(files, config=CFG, workers=1)
    assert fleet.speedup == pytest.approx(1.0)


def test_device_model_passed_through(files):
    from repro.analysis import DeviceModel

    slow = dedup_sharded(files[:30], config=CFG, workers=1,
                         device=DeviceModel(seek_s=0.05))
    fast = dedup_sharded(files[:30], config=CFG, workers=1,
                         device=DeviceModel(seek_s=0.001))
    assert slow.makespan_seconds > fast.makespan_seconds


def test_fleet_cpu_and_pipeline_aggregates(files):
    fleet = dedup_sharded(files, config=CFG, workers=1)
    cpu = fleet.cpu
    pipe = fleet.pipeline
    assert cpu.hashed == sum(s.stats.cpu.hashed for s in fleet.shards)
    assert cpu.chunked == sum(s.stats.cpu.chunked for s in fleet.shards)
    assert pipe.batches == sum(s.stats.pipeline.batches for s in fleet.shards)
    assert pipe.peak_buffer_bytes == max(
        s.stats.pipeline.peak_buffer_bytes for s in fleet.shards
    )


def test_fleet_metrics_disabled_by_default(files):
    fleet = dedup_sharded(files, config=CFG, workers=1)
    assert all(s.metrics is None for s in fleet.shards)
    assert len(fleet.metrics()) == 0


def test_fleet_metrics_collected_and_merged(files):
    fleet = dedup_sharded(files, config=CFG, workers=1, collect_metrics=True)
    assert all(s.metrics is not None for s in fleet.shards)
    merged = fleet.metrics()
    assert merged.counter("ingest.files").value == len(files)
    assert merged.counter("ingest.bytes").value == sum(f.size for f in files)
    # The merged registry mirrors the fleet's summed I/O meter.
    total_ops = sum(s.stats.io.count() for s in fleet.shards)
    mirrored = sum(
        m.value
        for name, m in merged.items()
        if name.startswith("disk.") and name.endswith(".ops")
    )
    assert mirrored == total_ops


class TestFleetExecutor:
    def test_lane_preserves_submission_order(self):
        with FleetExecutor(workers=4) as fleet:
            lane = fleet.lane()
            order = []
            futs = [lane.submit(lambda i=i: order.append(i)) for i in range(20)]
            for fut in futs:
                fut.result(timeout=10)
        assert order == list(range(20))

    def test_lane_tasks_never_overlap(self):
        active = 0
        peak = 0
        lock = threading.Lock()

        def task():
            nonlocal active, peak
            with lock:
                active += 1
                peak = max(peak, active)
            time.sleep(0.002)
            with lock:
                active -= 1

        with FleetExecutor(workers=8) as fleet:
            lane = fleet.lane()
            futs = [lane.submit(task) for _ in range(10)]
            for fut in futs:
                fut.result(timeout=10)
        assert peak == 1

    def test_independent_lanes_run_concurrently(self):
        """Two lanes blocked on each other's event can only finish if the
        pool runs them at the same time."""
        a, b = threading.Event(), threading.Event()
        with FleetExecutor(workers=4) as fleet:
            fa = fleet.lane().submit(lambda: (a.set(), b.wait(10))[1])
            fb = fleet.lane().submit(lambda: (b.set(), a.wait(10))[1])
            assert fa.result(timeout=10) and fb.result(timeout=10)

    def test_exceptions_delivered_via_future(self):
        with FleetExecutor(workers=2) as fleet:
            lane = fleet.lane()
            boom = lane.submit(lambda: 1 / 0)
            after = lane.submit(lambda: "survived")
            with pytest.raises(ZeroDivisionError):
                boom.result(timeout=10)
            assert after.result(timeout=10) == "survived"

    def test_lane_idle_after_drain(self):
        with FleetExecutor(workers=2) as fleet:
            lane = fleet.lane()
            lane.submit(lambda: None).result(timeout=10)
            assert lane.depth == 0
            # A drained lane accepts new work (the pump restarts).
            assert lane.submit(lambda: 7).result(timeout=10) == 7

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            FleetExecutor(workers=0)

    def test_submit_after_shutdown_raises_and_strands_nothing(self):
        fleet = FleetExecutor(workers=2)
        lane = fleet.lane()
        assert lane.submit(lambda: 1).result(timeout=10) == 1
        fleet.shutdown()
        with pytest.raises(RuntimeError):
            lane.submit(lambda: 2)
        # The doomed task was drained, not left behind a pump that
        # will never run.
        assert lane.depth == 0

    def test_submit_failure_fails_racing_futures(self):
        """A submit racing the losing pump start gets its future failed,
        not stranded forever behind a pump that never runs."""
        box = {}

        class ClosedPool:
            def submit(self, fn):
                # Emulate a second lane.submit landing between the
                # pump flag being set and the pump start failing: it
                # queues without trying to start a pump of its own.
                box["racer"] = box["lane"].submit(lambda: "never runs")
                raise RuntimeError("cannot schedule new futures after shutdown")

        lane = SerialLane(ClosedPool())
        box["lane"] = lane
        with pytest.raises(RuntimeError):
            lane.submit(lambda: "never runs")
        with pytest.raises(RuntimeError, match="shut down"):
            box["racer"].result(timeout=0)
        assert lane.depth == 0
        # The lane stays usable once a pool accepts work again.
        assert not lane._pumping


def test_fleet_metrics_cross_process(files):
    """Shard registries survive the multiprocessing pickle boundary."""
    seq = dedup_sharded(files, config=CFG, workers=1, collect_metrics=True)
    par = dedup_sharded(files, config=CFG, workers=3, collect_metrics=True)
    assert seq.metrics().as_dict() == par.metrics().as_dict()


# -- failure capture and per-shard result streaming ------------------------


class KamikazeDedup(MHDDeduplicator):
    """Test algorithm: SIGKILLs its own process on the pc01 shard."""

    name = "kamikaze"

    def ingest(self, file):
        if "pc01" in file.file_id:
            os.kill(os.getpid(), signal.SIGKILL)
        super().ingest(file)


def _gen0(files):
    return [f for f in files if "/gen000/" in f.file_id]


def test_kill_one_worker_keeps_surviving_shards(files, monkeypatch):
    """An OOM-killed worker costs its shard, not the fleet (the old
    ``pool.map`` path discarded every completed result)."""
    import multiprocessing as mp

    if mp.get_start_method() != "fork":
        pytest.skip("kamikaze registration reaches workers via fork only")
    from repro import registry

    registry.available()  # populate before patching
    monkeypatch.setitem(registry._REGISTRY, "kamikaze", KamikazeDedup)
    fleet = dedup_sharded(
        _gen0(files), algo="kamikaze", config=CFG, workers=3, shard_timeout=5.0
    )
    assert not fleet.ok
    assert {s.shard for s in fleet.shards} == {"pc00", "pc02"}
    assert [f.shard for f in fleet.failures] == ["pc01"]
    assert fleet.failures[0].kind == "lost"
    # Survivors' aggregates still work.
    assert fleet.input_bytes == sum(
        f.size for f in _gen0(files) if "pc01" not in f.file_id
    )


def _broken_reader():
    raise OSError("disk on fire")


def test_worker_exception_reported_not_raised(files):
    """A shard whose source raises is reported on failures; the other
    shards' results survive, in-process and across the pool."""
    bad = BackupFile("pc99/gen000/bad", source=_broken_reader, size_hint=10)
    corpus = _gen0(files) + [bad]
    for workers in (1, 3):
        fleet = dedup_sharded(corpus, config=CFG, workers=workers)
        assert not fleet.ok
        assert {s.shard for s in fleet.shards} == {"pc00", "pc01", "pc02"}
        assert [f.shard for f in fleet.failures] == ["pc99"]
        assert fleet.failures[0].kind == "error"
        assert "disk on fire" in fleet.failures[0].error


def test_no_failures_on_happy_path(files):
    fleet = dedup_sharded(_gen0(files), config=CFG, workers=1)
    assert fleet.ok
    assert fleet.failures == ()


# -- speedup property ------------------------------------------------------


def test_speedup_is_a_property(files):
    fleet = dedup_sharded(_gen0(files), config=CFG, workers=1)
    assert isinstance(fleet.speedup, float)
    assert fleet.speedup >= 1.0


# -- edge cases ------------------------------------------------------------


def test_empty_shard_map(files):
    fleet = dedup_sharded(files[:5], config=CFG, workers=1, shard_fn=lambda fs: {})
    assert fleet.shards == ()
    assert fleet.ok
    assert fleet.input_bytes == 0
    assert fleet.makespan_seconds == 0.0


def test_all_executors_produce_identical_stats(files):
    """workers=1 (in-process) and the process pool are semantically equal."""
    corpus = _gen0(files)
    serial = dedup_sharded(corpus, config=CFG, workers=1)
    process = dedup_sharded(corpus, config=CFG, workers=3)
    assert len(process.shards) == len(serial.shards)
    for a, b in zip(serial.shards, process.shards):
        assert a.shard == b.shard
        assert a.stats.stored_chunk_bytes == b.stats.stored_chunk_bytes
        assert a.stats.unique_chunks == b.stats.unique_chunks
        assert a.stats.metadata_bytes == b.stats.metadata_bytes
        assert a.stats.io.ops == b.stats.io.ops


def test_zero_byte_corpus_ders_are_finite():
    corpus = [
        BackupFile("pc00/gen000/empty", b""),
        BackupFile("pc01/gen000/empty", b""),
    ]
    fleet = dedup_sharded(corpus, config=CFG, workers=1)
    assert fleet.input_bytes == 0
    assert fleet.data_only_der == 0.0
    assert fleet.real_der == 0.0
    assert fleet.ok


def test_metrics_degrade_with_partial_collection(files):
    """metrics() over a mixed fleet merges only the shards that
    collected, and never explodes on the ones that did not."""
    corpus = _gen0(files)
    with_metrics = dedup_sharded(corpus, config=CFG, workers=1, collect_metrics=True)
    without = dedup_sharded(corpus, config=CFG, workers=1, collect_metrics=False)
    mixed = FleetResult(shards=(with_metrics.shards[0],) + without.shards[1:])
    merged = mixed.metrics()
    assert merged.counter("ingest.files").value == with_metrics.shards[0].metrics.counter(
        "ingest.files"
    ).value
    assert without.shards[1].metrics is None
