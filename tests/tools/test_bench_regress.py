"""Unit tests for the benchmark regression gate."""

import json

import pytest

from tools.bench_regress import collect_metrics, compare_file, main


def bench(scale="tiny", **metrics):
    """A minimal BENCH payload with throughput numbers buried in it."""
    return {
        "bench": "x",
        "scale": scale,
        "runs": {"algo": dict(metrics)},
    }


def write(dirpath, name, payload):
    dirpath.mkdir(parents=True, exist_ok=True)
    (dirpath / name).write_text(json.dumps(payload))


class TestCollectMetrics:
    def test_finds_throughput_keys_anywhere(self):
        payload = {
            "runs": {"a": {"throughput_ratio": 0.5}},
            "extra": {"levels": [{"throughput_mb_s": 9.0}, {"throughput_mb_s": 10.0}]},
            "noise": {"p99_seconds": 1.0},
        }
        found = collect_metrics(payload)
        assert found == {
            "runs.a.throughput_ratio": 0.5,
            "extra.levels[0].throughput_mb_s": 9.0,
            "extra.levels[1].throughput_mb_s": 10.0,
        }

    def test_ops_per_second_is_a_gated_metric(self):
        payload = {"extra": {"bloom": {"add": {"ops": 10, "us_per_op": 2.0, "ops_s": 5e5}}}}
        assert collect_metrics(payload) == {"extra.bloom.add.ops_s": 5e5}

    def test_non_numeric_values_ignored(self):
        assert collect_metrics({"throughput_ratio": "fast"}) == {}


class TestCompareFile:
    def test_within_threshold_passes(self):
        base = bench(throughput_ratio=1.0)
        cur = bench(throughput_ratio=0.85)
        assert compare_file(cur, base, threshold=0.20) == []

    def test_regression_beyond_threshold_reported(self):
        base = bench(throughput_ratio=1.0)
        cur = bench(throughput_ratio=0.70)
        (msg,) = compare_file(cur, base, threshold=0.20)
        assert "throughput_ratio" in msg and "30.0% drop" in msg

    def test_improvement_never_flags(self):
        base = bench(throughput_ratio=1.0)
        cur = bench(throughput_ratio=5.0)
        assert compare_file(cur, base, threshold=0.20) == []

    def test_metric_missing_from_current_is_skipped(self):
        base = bench(throughput_ratio=1.0)
        cur = {"bench": "x", "scale": "tiny"}
        assert compare_file(cur, base, threshold=0.20) == []


class TestMain:
    def test_clean_run_exits_zero(self, tmp_path, capsys):
        write(tmp_path / "base", "BENCH_x.json", bench(throughput_ratio=1.0))
        write(tmp_path / "res", "BENCH_x.json", bench(throughput_ratio=0.95))
        code = main(
            ["--results", str(tmp_path / "res"), "--baseline", str(tmp_path / "base")]
        )
        assert code == 0
        assert "ok BENCH_x.json" in capsys.readouterr().out

    def test_regression_exits_nonzero(self, tmp_path, capsys):
        write(tmp_path / "base", "BENCH_x.json", bench(throughput_ratio=1.0))
        write(tmp_path / "res", "BENCH_x.json", bench(throughput_ratio=0.5))
        code = main(
            ["--results", str(tmp_path / "res"), "--baseline", str(tmp_path / "base")]
        )
        assert code == 1
        assert "REGRESSED BENCH_x.json" in capsys.readouterr().out

    def test_scale_mismatch_skipped(self, tmp_path, capsys):
        write(tmp_path / "base", "BENCH_x.json", bench(scale="small", throughput_ratio=1.0))
        write(tmp_path / "res", "BENCH_x.json", bench(scale="tiny", throughput_ratio=0.1))
        code = main(
            ["--results", str(tmp_path / "res"), "--baseline", str(tmp_path / "base")]
        )
        assert code == 0
        assert "scale mismatch" in capsys.readouterr().out

    def test_missing_fresh_run_skipped_not_failed(self, tmp_path, capsys):
        write(tmp_path / "base", "BENCH_x.json", bench(throughput_ratio=1.0))
        (tmp_path / "res").mkdir()
        code = main(
            ["--results", str(tmp_path / "res"), "--baseline", str(tmp_path / "base")]
        )
        assert code == 0
        assert "no fresh run" in capsys.readouterr().out

    def test_empty_baseline_is_a_noop(self, tmp_path):
        (tmp_path / "base").mkdir()
        (tmp_path / "res").mkdir()
        assert (
            main(["--results", str(tmp_path / "res"), "--baseline", str(tmp_path / "base")])
            == 0
        )

    def test_update_baseline_copies_results(self, tmp_path):
        write(tmp_path / "res", "BENCH_x.json", bench(throughput_ratio=1.0))
        code = main(
            [
                "--results",
                str(tmp_path / "res"),
                "--baseline",
                str(tmp_path / "base"),
                "--update-baseline",
            ]
        )
        assert code == 0
        assert (tmp_path / "base" / "BENCH_x.json").exists()

    def test_looser_threshold_tolerates_more(self, tmp_path):
        write(tmp_path / "base", "BENCH_x.json", bench(throughput_ratio=1.0))
        write(tmp_path / "res", "BENCH_x.json", bench(throughput_ratio=0.65))
        args = ["--results", str(tmp_path / "res"), "--baseline", str(tmp_path / "base")]
        assert main(args) == 1
        assert main([*args, "--threshold", "0.5"]) == 0

    def test_committed_baseline_is_readable(self):
        from tools.bench_regress import DEFAULT_BASELINE, load_bench

        files = sorted(DEFAULT_BASELINE.glob("BENCH_*.json"))
        assert files, "repo should ship a committed bench baseline"
        for path in files:
            payload = load_bench(path)
            assert collect_metrics(payload), f"{path.name} carries no throughput metrics"


def envelope(bench_name="x", scale="tiny", extra=None):
    payload = {"bench": bench_name, "scale": scale, "git_sha": "deadbeef"}
    if extra is not None:
        payload["extra"] = extra
    return payload


class TestValidate:
    def test_valid_envelope_passes(self, tmp_path, capsys):
        write(tmp_path / "res", "BENCH_x.json", envelope())
        assert main(["--validate", "--results", str(tmp_path / "res")]) == 0
        assert "ok BENCH_x.json" in capsys.readouterr().out

    def test_missing_envelope_key_fails(self, tmp_path, capsys):
        bad = envelope()
        del bad["git_sha"]
        write(tmp_path / "res", "BENCH_x.json", bad)
        assert main(["--validate", "--results", str(tmp_path / "res")]) == 1
        assert "git_sha" in capsys.readouterr().out

    def test_registered_bench_requires_extra_series(self, tmp_path, capsys):
        write(
            tmp_path / "res",
            "BENCH_cluster_scaling.json",
            envelope("cluster_scaling", extra={"shard_counts": [1, 2]}),
        )
        assert main(["--validate", "--results", str(tmp_path / "res")]) == 1
        out = capsys.readouterr().out
        assert "der_loss" in out and "rebalance" in out and "by_machine" in out

    def test_registered_bench_full_payload_passes(self, tmp_path, capsys):
        extra = {
            "shard_counts": [1, 2],
            "der_loss": {"1": 0.0, "2": 0.1},
            "clusters": {},
            "rebalance": {
                "segments_moved": 3,
                "bytes_moved": 100,
                "recipes_updated": 2,
                "seconds": 0.5,
                "residual_hot_bytes": 50,
            },
            "by_machine": {"data_only_der": 2.9, "der_loss": 0.1},
        }
        write(
            tmp_path / "res",
            "BENCH_cluster_scaling.json",
            envelope("cluster_scaling", extra=extra),
        )
        assert main(["--validate", "--results", str(tmp_path / "res")]) == 0

    def test_incomplete_rebalance_record_fails(self, tmp_path, capsys):
        extra = {
            "shard_counts": [1],
            "der_loss": {},
            "clusters": {},
            "rebalance": {"segments_moved": 3},
        }
        write(
            tmp_path / "res",
            "BENCH_cluster_scaling.json",
            envelope("cluster_scaling", extra=extra),
        )
        assert main(["--validate", "--results", str(tmp_path / "res")]) == 1
        assert "bytes_moved" in capsys.readouterr().out

    def test_throughput_bench_requires_bloom_section(self, tmp_path, capsys):
        bloom = {"add": {"ops_s": 1.0}, "contains_negative": {"ops_s": 1.0}}
        extra = {"chunkers": {}, "hashing": {}}
        write(tmp_path / "res", "BENCH_throughput.json", envelope("throughput", extra=extra))
        assert main(["--validate", "--results", str(tmp_path / "res")]) == 1
        assert "'bloom'" in capsys.readouterr().out
        extra["bloom"] = bloom
        write(tmp_path / "res", "BENCH_throughput.json", envelope("throughput", extra=extra))
        assert main(["--validate", "--results", str(tmp_path / "res")]) == 1
        assert "bloom missing key 'contains_positive'" in capsys.readouterr().out
        bloom["contains_positive"] = {"ops_s": 1.0}
        write(tmp_path / "res", "BENCH_throughput.json", envelope("throughput", extra=extra))
        assert main(["--validate", "--results", str(tmp_path / "res")]) == 0

    def test_empty_results_dir_fails(self, tmp_path):
        (tmp_path / "res").mkdir()
        assert main(["--validate", "--results", str(tmp_path / "res")]) == 1

    def test_unreadable_json_fails(self, tmp_path, capsys):
        d = tmp_path / "res"
        d.mkdir()
        (d / "BENCH_broken.json").write_text("{not json")
        assert main(["--validate", "--results", str(d)]) == 1
        assert "INVALID" in capsys.readouterr().out
