"""The by-machine fleet: one ShardWorker per shard, one FleetResult."""

import pytest

from repro.analysis import DeviceModel
from repro.cluster import (
    FleetResult,
    ShardWorker,
    dedup_sharded,
    shard_by_machine,
)
from repro.core import DedupConfig, MHDDeduplicator
from repro.registry import resolve
from repro.storage import DirectoryBackend
from repro.workloads import BackupFile, small_corpus, tiny_corpus

CFG = DedupConfig(ecs=1024, sd=8, bloom_bytes=1 << 18)


@pytest.fixture(scope="module")
def files():
    return tiny_corpus().files()


def _gen0(files):
    return [f for f in files if "/gen000/" in f.file_id]


def test_shard_by_machine(files):
    shards = shard_by_machine(files)
    assert set(shards) == {"pc00", "pc01", "pc02"}
    assert sum(len(v) for v in shards.values()) == len(files)
    for shard, shard_files in shards.items():
        assert all(f.file_id.startswith(shard) for f in shard_files)


def test_empty_corpus():
    fleet = dedup_sharded([], config=CFG)
    assert fleet.shards == ()
    assert fleet.makespan_seconds == 0.0


def test_unknown_algorithm_fails_fast(files):
    with pytest.raises(ValueError):
        dedup_sharded(files[:5], algo="no-such-algo", config=CFG)


def test_inprocess_matches_per_shard_sequential(files):
    """Each shard must equal running that shard's files by hand."""
    fleet = dedup_sharded(files, config=CFG)
    shards = shard_by_machine(files)
    for result in fleet.shards:
        manual = MHDDeduplicator(CFG).process(shards[result.shard])
        assert result.stats.stored_chunk_bytes == manual.stored_chunk_bytes
        assert result.stats.unique_chunks == manual.unique_chunks


@pytest.mark.parametrize("algo", ["bf-mhd", "sparse-indexing"])
def test_shards_equal_standalone_deduplicators(algo):
    """The pin that the scaling bench's numbers cannot move: on the
    bench corpus, every counter of every shard — and the device-model
    seconds derived from them — equals a standalone deduplicator run
    over that shard's files."""
    corpus = small_corpus().files()
    config = DedupConfig(ecs=1024, sd=32)
    device = DeviceModel()
    fleet = dedup_sharded(corpus, algo=algo, config=config, device=device)
    shards = shard_by_machine(corpus)
    assert [s.shard for s in fleet.shards] == sorted(shards)
    for result in fleet.shards:
        manual = resolve(algo)(config).process(shards[result.shard])
        assert result.stats.as_dict() == manual.as_dict()
        assert result.dedup_seconds == device.dedup_time(manual)


def test_fleet_on_a_directory_store_restores_and_fscks(files, tmp_path):
    """The fleet leaves a real store behind: every file restores
    byte-identically through its shard's worker, reopened cold, and
    every shard passes a full integrity walk."""
    backend = DirectoryBackend(tmp_path / "store")
    fleet = dedup_sharded(files, config=CFG, backend=backend)
    shards = shard_by_machine(files)
    assert [s.shard for s in fleet.shards] == sorted(shards)
    for shard, shard_files in shards.items():
        worker = ShardWorker(shard, DirectoryBackend(tmp_path / "store"), config=CFG)
        worker.warm_start()
        for f in shard_files:
            with f.open() as r:
                assert worker.restore_segment(f.file_id) == r.read(), f.file_id
        assert worker.fsck(check_entry_hashes=True).ok, shard
    # Shards share the backend but nothing else: no object lives
    # outside a shard.<name>. namespace.
    assert all(ns.startswith("shard.") for ns in backend.namespaces())


def test_shard_exception_propagates(files):
    """An error in a shard is the caller's error, like any library call
    (surviving a dead worker is the router's quarantine/respawn job)."""

    def broken_reader():
        raise OSError("disk on fire")

    bad = BackupFile("pc99/gen000/bad", source=broken_reader, size_hint=10)
    with pytest.raises(OSError, match="disk on fire"):
        dedup_sharded(_gen0(files) + [bad], config=CFG)


def test_aggregate_identities(files):
    fleet = dedup_sharded(files, config=CFG)
    assert fleet.input_bytes == sum(f.size for f in files)
    assert fleet.data_only_der >= fleet.real_der >= 1.0
    assert fleet.makespan_seconds <= fleet.aggregate_seconds
    assert fleet.speedup >= 1.0


def test_sharding_misses_cross_shard_duplicates(files):
    """The scale-out trade-off: machines share OS content, so a global
    run dedups more than the sharded fleet."""
    fleet = dedup_sharded(files, config=CFG)
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

    fleet = dedup_sharded(files, config=CFG, shard_fn=by_generation)
    assert {s.shard for s in fleet.shards} == {"gen000", "gen001", "gen002"}


def test_single_machine_corpus():
    files = [BackupFile("pc00/gen000/x", b"a" * 10_000)]
    fleet = dedup_sharded(files, config=CFG)
    assert len(fleet.shards) == 1


def test_single_shard_speedup_is_one():
    files = [BackupFile("pc00/gen000/x", b"a" * 50_000)]
    fleet = dedup_sharded(files, config=CFG)
    assert fleet.speedup == pytest.approx(1.0)


def test_device_model_passed_through(files):
    slow = dedup_sharded(files[:30], config=CFG, device=DeviceModel(seek_s=0.05))
    fast = dedup_sharded(files[:30], config=CFG, device=DeviceModel(seek_s=0.001))
    assert slow.makespan_seconds > fast.makespan_seconds


def test_fleet_cpu_and_pipeline_aggregates(files):
    fleet = dedup_sharded(files, config=CFG)
    cpu = fleet.cpu
    pipe = fleet.pipeline
    assert cpu.hashed == sum(s.stats.cpu.hashed for s in fleet.shards)
    assert cpu.chunked == sum(s.stats.cpu.chunked for s in fleet.shards)
    assert pipe.batches == sum(s.stats.pipeline.batches for s in fleet.shards)
    assert pipe.peak_buffer_bytes == max(
        s.stats.pipeline.peak_buffer_bytes for s in fleet.shards
    )


def test_fleet_metrics_disabled_by_default(files):
    fleet = dedup_sharded(files, config=CFG)
    assert all(s.metrics is None for s in fleet.shards)
    assert len(fleet.metrics()) == 0


def test_fleet_metrics_collected_and_merged(files):
    fleet = dedup_sharded(files, config=CFG, collect_metrics=True)
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


def test_speedup_is_a_property(files):
    fleet = dedup_sharded(_gen0(files), config=CFG)
    assert isinstance(fleet.speedup, float)
    assert fleet.speedup >= 1.0


def test_empty_shard_map(files):
    fleet = dedup_sharded(files[:5], config=CFG, shard_fn=lambda fs: {})
    assert fleet.shards == ()
    assert fleet.input_bytes == 0
    assert fleet.makespan_seconds == 0.0


def test_zero_byte_corpus_ders_are_finite():
    corpus = [
        BackupFile("pc00/gen000/empty", b""),
        BackupFile("pc01/gen000/empty", b""),
    ]
    fleet = dedup_sharded(corpus, config=CFG)
    assert fleet.input_bytes == 0
    assert fleet.data_only_der == 0.0
    assert fleet.real_der == 0.0


def test_metrics_degrade_with_partial_collection(files):
    """metrics() over a mixed fleet merges only the shards that
    collected, and never explodes on the ones that did not."""
    corpus = _gen0(files)
    with_metrics = dedup_sharded(corpus, config=CFG, collect_metrics=True)
    without = dedup_sharded(corpus, config=CFG, collect_metrics=False)
    mixed = FleetResult(shards=(with_metrics.shards[0],) + without.shards[1:])
    merged = mixed.metrics()
    assert merged.counter("ingest.files").value == with_metrics.shards[0].metrics.counter(
        "ingest.files"
    ).value
    assert without.shards[1].metrics is None
