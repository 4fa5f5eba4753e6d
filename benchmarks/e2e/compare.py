#!/usr/bin/env python3
"""Compare two result files of ``run.py --out``: parent A against change B.

    python3 benchmarks/e2e/compare.py A.json B.json

The two files must share seed and scale: the bounds are those for one
seed, and the two space metrics, which repeat bit-for-bit for a seed,
are held to 1 % (between seeds they move by more than that with the
corpus alone).  One row per (end-to-end metric, workload), judged by the
metric's own bound on medians and quartiles:

* ``regressed``  - B's median is worse than A's by more than the bound;
* ``better``     - B's median is better by more than A's own spread
                   (the distance between its quartiles; A needs more
                   than one sample);
* ``unchanged``  - neither;
* ``unresolved`` - the spread of either side is wider than the bound, so
                   a move of that size could not be seen - unless every
                   sample of B is better (or, beyond the bound, worse)
                   than every sample of A.

Any failed operation in B is a regression.  For workloads driven by a
single client the exact counts of the traced run must repeat
bit-for-bit; those that differ are listed.  Exit status 1 if anything
regressed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parent))

from e2ebench.settings import EXACT_COUNTS, WORKLOAD_BY_NAME  # noqa: E402


def _spread(m: dict[str, Any]) -> float:
    return (m["q3"] - m["q1"]) / abs(m["value"]) if m["value"] else 0.0


def verdict(a: dict[str, Any], b: dict[str, Any]) -> tuple[str, float]:
    """``(verdict, worsening)`` — worsening > 0 means B is worse, as a
    share of A's median."""
    sign = 1.0 if a["better"] == "lower" else -1.0
    worse = sign * (b["value"] - a["value"]) / abs(a["value"])
    bound = a["bound"]
    if max(_spread(a), _spread(b)) > bound:
        lo_a, hi_a = min(a["samples"]), max(a["samples"])
        lo_b, hi_b = min(b["samples"]), max(b["samples"])
        b_all_better = hi_b < lo_a if sign > 0 else lo_b > hi_a
        b_all_worse = lo_b > hi_a if sign > 0 else hi_b < lo_a
        if b_all_better:
            return "better", worse
        if b_all_worse and worse > bound:
            return "regressed", worse
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    # A single sample says nothing about its own spread: no gain from it.
    if a["n"] > 1 and -worse > _spread(a):
        return "better", worse
    return "unchanged", worse


def compare(doc_a: dict[str, Any], doc_b: dict[str, Any]) -> tuple[list[list[str]], list[str]]:
    """Rows ``[workload, metric, A, B, change, verdict]`` and exact-count diffs."""
    rows: list[list[str]] = []
    diffs: list[str] = []
    for name, wa in doc_a["workloads"].items():
        wb = doc_b["workloads"].get(name)
        if wb is None:
            rows.append([name, "*", "-", "-", "-", "missing in B"])
            continue
        for metric, a in wa.get("end_to_end", {}).items():
            b = wb.get("end_to_end", {}).get(metric)
            if b is None:
                rows.append([name, metric, f"{a['value']:.4f}", "-", "-", "missing in B"])
                continue
            v, worse = verdict(a, b)
            rows.append(
                [name, metric, f"{a['value']:.4f}", f"{b['value']:.4f}", f"{0.0 - worse:+.2%}", v]
            )
        failed = wb.get("failed", 0)
        rows.append(
            [name, "ops_failed_share", str(wa.get("failed", 0)), str(failed), "-",
             "regressed" if failed else "unchanged"]
        )  # fmt: skip
        if WORKLOAD_BY_NAME[name].kind == "service":
            continue  # two clients race: its counts are not exact
        for metric in EXACT_COUNTS:
            for section in ("end_to_end", "per_layer"):
                a = wa.get(section, {}).get(metric)
                b = wb.get(section, {}).get(metric)
                if a is not None and b is not None and a["value"] != b["value"]:
                    diffs.append(f"{name} {metric}: {a['value']!r} != {b['value']!r}")
    return rows, diffs


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    doc_a, doc_b = (json.loads(Path(p).read_text()) for p in args)
    if doc_a["seed"] != doc_b["seed"] or doc_a["scale"] != doc_b["scale"]:
        print(
            f"seeds/scales differ (A {doc_a['seed']}/{doc_a['scale']}, "
            f"B {doc_b['seed']}/{doc_b['scale']}): these are different inputs, "
            "compare runs of one seed and scale",
            file=sys.stderr,
        )
        return 2
    rows, diffs = compare(doc_a, doc_b)
    header = ["workload", "metric", "A", "B", "B vs A", "verdict"]
    widths = [max(len(r[i]) for r in [header, *rows]) for i in range(len(header))]
    for r in [header, *rows]:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    if diffs:
        print("\nexact counts that differ (single-client workloads):")
        for d in diffs:
            print("  " + d)
    else:
        print("\nexact counts: identical where both files have them")
    tally = {v: sum(1 for r in rows if r[5] == v) for v in ("better", "unchanged", "unresolved", "regressed")}
    print("  ".join(f"{k}: {v}" for k, v in tally.items()))
    return 1 if tally["regressed"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
