"""Benchmark regression gate: compare BENCH_*.json runs to a baseline.

Every bench writes a machine-readable ``BENCH_<name>.json`` next to its
text report (see ``benchmarks/conftest.py:write_report``).  This tool
compares the newest results against a committed baseline directory and
exits non-zero when any *throughput* metric regressed by more than the
threshold (default 20%).

Throughput metrics are higher-is-better numbers found anywhere in the
payload under these keys:

* ``throughput_ratio``  — device-model ingest throughput vs raw disk,
* ``throughput_mb_s``   — measured service / hot-path kernel throughput,
* ``ops_s``             — measured operations per second (Bloom filter).

Comparisons are only made between runs at the same corpus ``scale``
(a tiny-scale run against a small-scale baseline says nothing), and a
bench present on only one side is reported but never fails the gate —
adding a new bench must not break CI.

``--validate`` runs a schema check instead of the regression gate:
every ``BENCH_*.json`` under the results directory must be a JSON
object carrying the ``bench``/``scale``/``git_sha`` envelope that
``write_report`` emits, and benches with a registered payload schema
(see ``REQUIRED_EXTRA``) must carry their bench-specific series.  CI
runs this as a *blocking* step — a bench that silently stopped
emitting its numbers is a broken bench.

Usage::

    python tools/bench_regress.py                       # gate
    python tools/bench_regress.py --threshold 0.3       # looser gate
    python tools/bench_regress.py --update-baseline     # bless current
    python tools/bench_regress.py --validate            # schema check

Wall-clock numbers move with machine load, so CI runs this as a
non-blocking step; the committed baseline exists to make *large*
regressions visible in the job log, not to be a precision instrument.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

#: Higher-is-better metric keys collected from anywhere in a payload.
THROUGHPUT_KEYS = ("throughput_ratio", "throughput_mb_s", "ops_s")

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_RESULTS = REPO_ROOT / "benchmarks" / "results"
DEFAULT_BASELINE = REPO_ROOT / "benchmarks" / "baseline"


def collect_metrics(payload: object, path: str = "") -> dict[str, float]:
    """Flatten every throughput metric in a payload to ``path -> value``."""
    found: dict[str, float] = {}
    if isinstance(payload, dict):
        for key, value in payload.items():
            where = f"{path}.{key}" if path else key
            if key in THROUGHPUT_KEYS and isinstance(value, (int, float)):
                found[where] = float(value)
            else:
                found.update(collect_metrics(value, where))
    elif isinstance(payload, list):
        for i, value in enumerate(payload):
            found.update(collect_metrics(value, f"{path}[{i}]"))
    return found


def load_bench(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return payload


def compare_file(current: dict, baseline: dict, threshold: float) -> list[str]:
    """Regression messages for one bench (empty = within threshold)."""
    cur = collect_metrics(current)
    base = collect_metrics(baseline)
    regressions = []
    for where, base_value in sorted(base.items()):
        cur_value = cur.get(where)
        if cur_value is None or base_value <= 0:
            continue
        drop = 1.0 - cur_value / base_value
        if drop > threshold:
            regressions.append(
                f"  {where}: {base_value:.4g} -> {cur_value:.4g} "
                f"({drop:.1%} drop > {threshold:.0%} threshold)"
            )
    return regressions


#: Envelope keys ``write_report`` stamps on every BENCH payload.
REQUIRED_TOP = ("bench", "scale", "git_sha")

#: Bench name -> keys its ``extra`` payload must carry.  Registered
#: benches fail validation when a key disappears; unregistered benches
#: only need the envelope.
REQUIRED_EXTRA: dict[str, tuple[str, ...]] = {
    "cluster_scaling": (
        "shard_counts",
        "der_loss",
        "clusters",
        "rebalance",
        "by_machine",
    ),
    "throughput": ("chunkers", "hashing", "bloom"),
}

#: (bench, ``extra`` key) -> keys that record must report: the measured
#: cost the cluster bench exists to publish, and the three Bloom-filter
#: operations of the hot-path bench.
REQUIRED_RECORD: dict[tuple[str, str], tuple[str, ...]] = {
    ("cluster_scaling", "rebalance"): (
        "segments_moved",
        "bytes_moved",
        "recipes_updated",
        "seconds",
        "residual_hot_bytes",
    ),
    ("throughput", "bloom"): ("add", "contains_negative", "contains_positive"),
}


def validate_file(path: Path) -> list[str]:
    """Schema problems in one BENCH file (empty = valid)."""
    try:
        payload = load_bench(path)
    except (OSError, ValueError) as e:
        return [f"unreadable: {e}"]
    problems = [f"missing key {key!r}" for key in REQUIRED_TOP if key not in payload]
    bench = payload.get("bench")
    required = REQUIRED_EXTRA.get(bench, ())
    if required:
        extra = payload.get("extra")
        if not isinstance(extra, dict):
            problems.append("missing 'extra' payload")
        else:
            problems += [
                f"extra missing key {key!r}" for key in required if key not in extra
            ]
            for (name, section), fields in REQUIRED_RECORD.items():
                record = extra.get(section)
                if name == bench and isinstance(record, dict):
                    problems += [
                        f"{section} missing key {key!r}"
                        for key in fields
                        if key not in record
                    ]
    return problems


def validate(results: Path) -> int:
    files = sorted(results.glob("BENCH_*.json"))
    if not files:
        print(f"no BENCH_*.json under {results}; nothing to validate", file=sys.stderr)
        return 1
    failed = 0
    for path in files:
        problems = validate_file(path)
        if problems:
            failed += 1
            print(f"INVALID {path.name}:")
            for p in problems:
                print(f"  {p}")
        else:
            print(f"ok {path.name}")
    print(f"{len(files)} bench file(s) validated, {failed} invalid")
    return 1 if failed else 0


def update_baseline(results: Path, baseline: Path) -> int:
    baseline.mkdir(parents=True, exist_ok=True)
    copied = 0
    for src in sorted(results.glob("BENCH_*.json")):
        shutil.copy2(src, baseline / src.name)
        copied += 1
    print(f"baseline updated: {copied} BENCH files -> {baseline}")
    return 0 if copied else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--results", type=Path, default=DEFAULT_RESULTS, help="fresh BENCH_*.json dir"
    )
    parser.add_argument(
        "--baseline", type=Path, default=DEFAULT_BASELINE, help="committed baseline dir"
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="max tolerated fractional throughput drop (default: 0.20)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="copy the current results over the baseline and exit",
    )
    parser.add_argument(
        "--validate",
        action="store_true",
        help="schema-check the BENCH_*.json files instead of gating",
    )
    args = parser.parse_args(argv)

    if args.validate:
        return validate(args.results)
    if args.update_baseline:
        return update_baseline(args.results, args.baseline)

    baseline_files = sorted(args.baseline.glob("BENCH_*.json"))
    if not baseline_files:
        print(f"no baseline under {args.baseline}; nothing to compare", file=sys.stderr)
        return 0

    failed = 0
    compared = 0
    for base_path in baseline_files:
        cur_path = args.results / base_path.name
        if not cur_path.exists():
            print(f"SKIP {base_path.name}: no fresh run")
            continue
        try:
            baseline = load_bench(base_path)
            current = load_bench(cur_path)
        except (OSError, ValueError) as e:
            print(f"SKIP {base_path.name}: unreadable ({e})", file=sys.stderr)
            continue
        if current.get("scale") != baseline.get("scale"):
            print(
                f"SKIP {base_path.name}: scale mismatch "
                f"({current.get('scale')} vs baseline {baseline.get('scale')})"
            )
            continue
        compared += 1
        regressions = compare_file(current, baseline, args.threshold)
        if regressions:
            failed += 1
            print(f"REGRESSED {base_path.name}:")
            print("\n".join(regressions))
        else:
            print(f"ok {base_path.name}")

    print(f"{compared} bench(es) compared, {failed} regressed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
