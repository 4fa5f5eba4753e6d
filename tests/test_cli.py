"""Tests for the repro-dedup command-line interface."""

import signal
import subprocess

import numpy as np
import pytest

from repro.cli import build_parser, main

FAST = ["--machines", "2", "--generations", "2", "--ecs", "1024", "--sd", "8"]


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run_default_algo(capsys):
    assert main(["run", *FAST]) == 0
    out = capsys.readouterr().out
    assert "bf-mhd results" in out
    assert "real DER" in out


@pytest.mark.parametrize("algo", ["cdc", "bimodal", "subchunk", "sparse-indexing"])
def test_run_each_algo(algo, capsys):
    assert main(["run", "--algo", algo, *FAST]) == 0
    assert f"{algo} results" in capsys.readouterr().out


def test_list_names_every_algorithm(capsys):
    from repro.registry import available

    assert main(["list"]) == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == len(available())
    for name in available():
        assert any(ln.startswith(name) for ln in lines)
    # Every row carries a human description, not just the name.
    for ln in lines:
        name, _, desc = ln.partition("  ")
        assert desc.strip(), f"missing description for {name!r}"


def test_run_with_verify(capsys):
    assert main(["run", "--verify", *FAST]) == 0
    assert "restore byte-identically" in capsys.readouterr().out


def test_compare(capsys):
    assert main(["compare", *FAST]) == 0
    out = capsys.readouterr().out
    for algo in ("bf-mhd", "cdc", "bimodal", "subchunk", "sparse-indexing"):
        assert algo in out


def test_trace(capsys):
    assert main(["trace", *FAST]) == 0
    out = capsys.readouterr().out
    assert "duplicate slices (L)" in out
    assert "DAD" in out


def test_run_on_real_directory(tmp_path, capsys):
    rng = np.random.default_rng(1)
    shared = rng.integers(0, 256, size=50_000, dtype=np.uint8).tobytes()
    (tmp_path / "a.bin").write_bytes(shared)
    (tmp_path / "b.bin").write_bytes(shared + b"tail")
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "c.bin").write_bytes(rng.integers(0, 256, size=10_000, dtype=np.uint8).tobytes())
    assert main(["run", "--verify", "--input-dir", str(tmp_path), "--ecs", "1024", "--sd", "4"]) == 0
    out = capsys.readouterr().out
    assert "all 3 files restore byte-identically" in out


def test_input_dir_empty_fails(tmp_path):
    with pytest.raises(SystemExit):
        main(["run", "--input-dir", str(tmp_path / "nope")])


class TestPersistentStore:
    def test_run_with_store_dir_and_fsck(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["run", *FAST, "--store-dir", store, "--fsck"]) == 0
        out = capsys.readouterr().out
        assert "integrity OK" in out
        assert "store persisted" in out

    @pytest.mark.parametrize("algo, growth", [("cdc", 1.0), ("bf-mhd", 1.05)])
    def test_run_twice_into_one_store(self, algo, growth, tmp_path, capsys):
        """The second run warm-starts from the first, replaces the
        same-named files' recipes and stores (almost) nothing new —
        nothing under exact CDC; MHD finds a restarted store's
        duplicates through its hooks alone and misses a few."""
        store = tmp_path / "store"
        args = ["run", *FAST, "--algo", algo, "--store-dir", str(store)]

        def chunk_bytes():
            return sum(p.stat().st_size for p in (store / "chunk").rglob("*") if p.is_file())

        assert main([*args, "--verify", "--fsck"]) == 0
        first = chunk_bytes()
        assert main([*args, "--verify", "--fsck"]) == 0
        out = capsys.readouterr().out
        assert out.count("integrity OK") == 2
        assert out.count("restore byte-identically") == 2
        assert first <= chunk_bytes() <= first * growth

    def test_restore_list(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        main(["run", *FAST, "--store-dir", store])
        capsys.readouterr()
        assert main(["restore", "--store-dir", store, "--list"]) == 0
        out = capsys.readouterr().out
        assert "pc00/gen000" in out

    def test_restore_all_files_byte_identical(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        outdir = str(tmp_path / "out")
        main(["run", *FAST, "--store-dir", store])
        assert main(["restore", "--store-dir", store, "--output-dir", outdir]) == 0
        # cross-check against the generator
        from repro.workloads import BackupCorpus, CorpusConfig

        corpus = BackupCorpus(
            CorpusConfig(
                machines=2, generations=2, os_count=2,
                os_bytes=1 << 20, app_bytes=1 << 18, user_bytes=1 << 19,
                mean_file=1 << 16, seed=2013,
            )
        )
        import os

        for f in corpus:
            path = os.path.join(outdir, f.file_id)
            with open(path, "rb") as fh:
                assert fh.read() == f.data

    def test_restore_selected_file(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        outdir = str(tmp_path / "out")
        main(["run", *FAST, "--store-dir", store])
        capsys.readouterr()
        main(["restore", "--store-dir", store, "--list"])
        first = capsys.readouterr().out.splitlines()[0]
        assert main(["restore", "--store-dir", store, "--output-dir", outdir, first]) == 0

    def test_restore_unknown_file_fails(self, tmp_path):
        store = str(tmp_path / "store")
        main(["run", *FAST, "--store-dir", store])
        assert main(["restore", "--store-dir", store, "no/such/file"]) == 1

    def test_failed_restore_leaves_no_file(self, tmp_path):
        """A restore that fails part-way — a container lost behind the
        file's first extent — leaves nothing under the target name."""
        from repro.core import DedupConfig
        from repro.registry import resolve
        from repro.storage import DirectoryBackend, DiskModel
        from repro.storage.file_manifest import file_object_ids
        from repro.workloads import BackupFile

        rng = np.random.default_rng(5)
        shared, head = rng.bytes(1 << 16), rng.bytes(1 << 16)
        backend = DirectoryBackend(tmp_path / "store")
        dedup = resolve("cdc")(DedupConfig(ecs=1024, sd=8), backend=backend)
        dedup.process([BackupFile("shared", shared), BackupFile("late", head + shared)])
        lost = file_object_ids("shared")[0]
        assert lost in [e.container_id for e in dedup.file_manifests.get("late").extents[1:]]
        assert backend.delete(DiskModel.CHUNK, lost)

        outdir = tmp_path / "out"
        args = ["restore", "--store-dir", str(tmp_path / "store"), "--output-dir", str(outdir)]
        with pytest.raises(KeyError):
            main([*args, "late"])
        assert list(outdir.iterdir()) == []


class TestGC:
    def test_gc_expires_generation(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        main(["run", *FAST, "--store-dir", store])
        capsys.readouterr()
        assert main(["gc", "--store-dir", store, "--delete", "*/gen000/*"]) == 0
        out = capsys.readouterr().out
        assert "deleted pc00/gen000" in out
        assert "reclaimed" in out
        assert "integrity OK" in out

    def test_gc_sweep_only(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        main(["run", *FAST, "--store-dir", store])
        capsys.readouterr()
        assert main(["gc", "--store-dir", store]) == 0
        out = capsys.readouterr().out
        assert "reclaimed 0" in out

    def test_gc_unmatched_pattern_fails(self, tmp_path):
        store = str(tmp_path / "store")
        main(["run", *FAST, "--store-dir", store])
        assert main(["gc", "--store-dir", store, "--delete", "zzz*"]) == 1

    def test_restore_after_gc(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        outdir = str(tmp_path / "out")
        main(["run", *FAST, "--store-dir", store])
        main(["gc", "--store-dir", store, "--delete", "*/gen000/*"])
        capsys.readouterr()
        assert main(["restore", "--store-dir", store, "--output-dir", outdir]) == 0
        out = capsys.readouterr().out
        assert "restored" in out


class TestStats:
    def test_stats_summarises_store(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        main(["run", *FAST, "--store-dir", store])
        capsys.readouterr()
        assert main(["stats", "--store-dir", store]) == 0
        out = capsys.readouterr().out
        assert "chunk" in out and "manifest" in out and "hook" in out
        assert "chunk data" in out

    def test_stats_with_fsck(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        main(["run", *FAST, "--store-dir", store])
        capsys.readouterr()
        assert main(["stats", "--store-dir", store, "--fsck"]) == 0
        assert "integrity OK" in capsys.readouterr().out

    def test_stats_metadata_excludes_quarantine(self, tmp_path, capsys):
        """Metadata is `run`'s figure, and a quarantined container is
        not metadata of the store it was moved out of."""
        import re
        import shutil

        def metadata(pattern: str, out: str) -> int:
            return int(re.search(pattern, out)[1].replace(",", ""))

        store = tmp_path / "store"
        main(["run", *FAST, "--store-dir", str(store)])
        run_meta = metadata(r"metadata\W+([\d,]+) B", capsys.readouterr().out)
        stats_line = r"metadata \(incl\. inodes\) ([\d,]+) B"
        assert main(["stats", "--store-dir", str(store)]) == 0
        before = metadata(stats_line, capsys.readouterr().out)
        assert before == run_meta

        container = sorted((store / "chunk").iterdir())[0]
        (store / "quarantine.chunk").mkdir()
        shutil.copy(container, store / "quarantine.chunk" / container.name)
        assert main(["stats", "--store-dir", str(store)]) == 0
        assert metadata(stats_line, capsys.readouterr().out) == before


    #: ``stats`` over the FAST run's store: the table below its title and the totals.
    STATS_TABLE = """\
namespace     | objects | payload     | inode bytes
--------------+---------+-------------+------------
chunk         | 108     | 4,446,114 B | 27,648 B   
manifest      | 108     | 45,822 B    | 27,648 B   
hook          | 494     | 9,880 B     | 126,464 B  
file_manifest | 111     | 11,259 B    | 28,416 B   
chunk data 4,446,114 B; metadata (incl. inodes) 277,137 B
"""

    def test_stats_lists_each_kind_once(self, tmp_path, capsys, monkeypatch):
        """One object count and one byte total per kind: the totals line
        is derived from the table's rows, not from a second walk."""
        import repro.cli

        listings = []

        class Listing(repro.cli.DirectoryBackend):
            def object_count(self, namespace):
                listings.append(namespace)
                return super().object_count(namespace)

            def bytes_stored(self, namespace):
                listings.append(namespace)
                return super().bytes_stored(namespace)

        store = str(tmp_path / "store")
        main(["run", *FAST, "--store-dir", store])
        capsys.readouterr()
        monkeypatch.setattr(repro.cli, "DirectoryBackend", Listing)
        assert main(["stats", "--store-dir", store]) == 0
        out = capsys.readouterr().out
        assert out.splitlines(keepends=True)[2:] == self.STATS_TABLE.splitlines(keepends=True)
        assert sorted(listings) == sorted(2 * ["chunk", "manifest", "hook", "file_manifest"])


class TestGenCorpus:
    def test_gen_corpus_roundtrips_through_input_dir(self, tmp_path, capsys):
        outdir = str(tmp_path / "corpus")
        assert main(["gen-corpus", "--output-dir", outdir,
                     "--machines", "2", "--generations", "1"]) == 0
        assert "wrote" in capsys.readouterr().out
        # the materialised corpus is valid --input-dir input
        assert main(["run", "--input-dir", outdir, "--ecs", "1024",
                     "--sd", "8", "--verify"]) == 0

    def test_gen_corpus_deterministic(self, tmp_path):
        import hashlib, os

        def tree_hash(root):
            h = hashlib.sha1()
            for dirpath, _dirs, names in sorted(os.walk(root)):
                for name in sorted(names):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
            return h.hexdigest()

        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        main(["gen-corpus", "--output-dir", a, "--machines", "2", "--generations", "1"])
        main(["gen-corpus", "--output-dir", b, "--machines", "2", "--generations", "1"])
        assert tree_hash(a) == tree_hash(b)


class TestInspect:
    def test_inspect_recipe(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        main(["run", *FAST, "--store-dir", store])
        capsys.readouterr()
        main(["restore", "--store-dir", store, "--list"])
        first = capsys.readouterr().out.splitlines()[0]
        assert main(["inspect", "--store-dir", store, "--file", first]) == 0
        out = capsys.readouterr().out
        assert "recipe" in out and "container" in out

    def test_inspect_with_manifests(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        main(["run", *FAST, "--store-dir", store])
        capsys.readouterr()
        main(["restore", "--store-dir", store, "--list"])
        first = capsys.readouterr().out.splitlines()[0]
        assert main(["inspect", "--store-dir", store, "--file", first, "--manifests"]) == 0
        out = capsys.readouterr().out
        assert "manifest" in out
        assert "hook" in out

    def test_inspect_missing_file(self, tmp_path):
        store = str(tmp_path / "store")
        main(["run", *FAST, "--store-dir", store])
        assert main(["inspect", "--store-dir", store, "--file", "nope"]) == 1


def test_verbose_flag_enables_logging(tmp_path, capsys, caplog):
    import logging

    with caplog.at_level(logging.INFO, logger="repro.dedup"):
        assert main(["-v", "run", *FAST]) == 0
    assert any("finalized" in r.message for r in caplog.records)


def test_gc_keep_last(tmp_path, capsys):
    store = str(tmp_path / "store")
    main(["run", *FAST, "--store-dir", store])
    capsys.readouterr()
    assert main(["gc", "--store-dir", store, "--keep-last", "1"]) == 0
    out = capsys.readouterr().out
    assert "deleted pc00/gen000" in out
    # the newest generation survives
    capsys.readouterr()
    main(["restore", "--store-dir", store, "--list"])
    listing = capsys.readouterr().out
    assert "gen001" in listing and "gen000" not in listing


def test_run_with_profile(capsys):
    assert main(["run", "--profile", "server-fleet", "--ecs", "2048", "--sd", "16"]) == 0
    assert "bf-mhd results" in capsys.readouterr().out


class TestProfileVerb:
    def test_profile_run_writes_collapsed_stacks(self, tmp_path, capsys):
        out = tmp_path / "run.folded"
        argv = ["profile", "--out", str(out), "run", "--machines", "2", "--generations", "1"]
        assert main(argv) == 0
        stacks = out.read_text(encoding="utf-8").splitlines()
        assert stacks, "no stack sampled"
        assert all(line.rsplit(" ", 1)[1].isdigit() for line in stacks)

    def test_profile_serve_writes_fleet_stacks_on_sigint(self, tmp_path):
        from tests.service.test_smoke import cli, write_image

        out = tmp_path / "serve.folded"
        write_image(tmp_path / "a.img", 4)
        server = cli(
            "profile", "--threads", "fleet", "--out", str(out),
            "serve", "--store-dir", str(tmp_path / "store"), "--ecs", "1024", "--sd", "8",
            stdout=subprocess.PIPE,
        )
        try:
            ready = server.stdout.readline()
            assert ready.startswith("serving on 127.0.0.1:"), ready
            port = ready.rsplit(":", 1)[1].strip()
            push = cli(
                "client", "push", "--tenant", "alice", "--port", port, str(tmp_path / "a.img"),
                stdout=subprocess.DEVNULL,
            )
            assert push.wait(timeout=120) == 0
            server.send_signal(signal.SIGINT)
            assert server.wait(timeout=30) == 0
        finally:
            if server.poll() is None:
                server.kill()
                server.wait(timeout=30)
            server.stdout.close()
        assert out.read_text(encoding="utf-8").strip(), "no fleet stack sampled"


class TestTelemetry:
    def test_run_writes_trace_and_metrics(self, tmp_path, capsys):
        trace = str(tmp_path / "t.jsonl")
        prom = str(tmp_path / "m.prom")
        assert main(["run", *FAST, "--trace", trace, "--metrics", prom]) == 0
        out = capsys.readouterr().out
        assert f"trace written to {trace}" in out
        assert f"metrics written to {prom}" in out

        from repro.obs import load_trace, summarize

        spans, metrics = load_trace(trace)
        summary = summarize(spans)
        assert {
            "run", "file", "chunk", "dedup", "hash", "index", "store", "end_file"
        } <= {r.name for r in summary.rows}
        # The hash stage belongs to Deduplicator.ingest, inside `dedup`.
        names = {ev.span_id: ev.name for ev in spans}
        assert {names[ev.parent] for ev in spans if ev.name == "hash"} == {"dedup"}
        # Per-stage self-times account for the whole run within 5%.
        assert summary.coverage == pytest.approx(1.0, abs=0.05)
        assert metrics["ingest.files"] > 0

        with open(prom, encoding="utf-8") as fh:
            for line in fh:
                assert line.startswith(("# TYPE ", "repro_")), line

    def test_trace_view_renders_table(self, tmp_path, capsys):
        trace = str(tmp_path / "t.jsonl")
        main(["run", *FAST, "--trace", trace])
        capsys.readouterr()
        assert main(["trace-view", trace]) == 0
        out = capsys.readouterr().out
        assert "stage" in out and "(run)" in out
        assert "stage self-times cover" in out

    def test_trace_view_show_metrics(self, tmp_path, capsys):
        trace = str(tmp_path / "t.jsonl")
        main(["run", *FAST, "--trace", trace])
        capsys.readouterr()
        assert main(["trace-view", trace, "--show-metrics"]) == 0
        out = capsys.readouterr().out
        assert "final metrics" in out
        assert "ingest.files" in out

    def test_trace_view_missing_file_fails(self, tmp_path, capsys):
        assert main(["trace-view", str(tmp_path / "nope.jsonl")]) == 1
        assert "invalid trace" in capsys.readouterr().err

    def test_trace_view_garbage_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main(["trace-view", str(bad)]) == 1
        assert "invalid trace" in capsys.readouterr().err

    def test_progress_heartbeats_on_stderr(self, capsys):
        assert main(["run", *FAST, "--progress"]) == 0
        err = capsys.readouterr().err
        assert "DER so far" in err

    def test_run_without_telemetry_flags_prints_no_trace_lines(self, capsys):
        assert main(["run", *FAST]) == 0
        out = capsys.readouterr().out
        assert "trace written" not in out
        assert "metrics written" not in out


class TestFaultsAndFsck:
    def test_chaos_run_survives_with_retries(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main([
            "run", *FAST, "--store-dir", store, "--fsync", "data",
            "--fault-rate", "0.02", "--fault-seed", "7", "--retries", "4",
            "--verify", "--fsck",
        ]) == 0
        out = capsys.readouterr().out
        assert "faults injected (seed 7)" in out
        assert "transient backend errors" in out
        assert "restore byte-identically" in out
        assert "integrity OK" in out

    def test_chaos_without_store_dir_uses_memory(self, capsys):
        assert main(["run", *FAST, "--fault-rate", "0.01", "--retries", "4"]) == 0
        assert "faults injected" in capsys.readouterr().out

    def test_fsck_clean_store(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        main(["run", *FAST, "--store-dir", store])
        capsys.readouterr()
        assert main(["fsck", "--store-dir", store]) == 0
        assert "integrity OK" in capsys.readouterr().out
        assert main(["fsck", "--store-dir", store, "--repair", "--check-hashes"]) == 0
        out = capsys.readouterr().out
        assert "recovery OK" in out and "0 repairs" in out

    def test_fsck_detects_and_repairs_damage(self, tmp_path, capsys):
        import os

        store = str(tmp_path / "store")
        main(["run", *FAST, "--store-dir", store])
        capsys.readouterr()
        mdir = os.path.join(store, "manifest")
        victim = os.path.join(mdir, sorted(os.listdir(mdir))[0])
        with open(victim, "rb") as fh:
            raw = fh.read()
        with open(victim, "wb") as fh:
            fh.write(raw[: len(raw) // 2])

        assert main(["fsck", "--store-dir", store]) == 1
        assert "ERROR" in capsys.readouterr().out

        assert main(["fsck", "--store-dir", store, "--repair"]) == 0
        out = capsys.readouterr().out
        assert "recovery OK" in out
        assert "quarantined" in out

        # Repair is durable: a plain fsck now passes again.
        assert main(["fsck", "--store-dir", store]) == 0
