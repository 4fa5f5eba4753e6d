from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from compare import verdict  # noqa: E402


def metric(samples, better="higher", bound=0.10):
    from e2ebench.stats import summary

    return {**summary(samples), "better": better, "bound": bound}


def test_verdicts():
    a = metric([100, 101, 99, 100, 102])
    assert verdict(a, metric([100, 100, 101, 99, 101]))[0] == "unchanged"
    assert verdict(a, metric([85, 86, 84, 85, 87]))[0] == "regressed"
    assert verdict(a, metric([120, 121, 119, 120, 122]))[0] == "better"
    # Within the bound but beyond A's own spread: still a gain.
    assert verdict(a, metric([105, 106, 104, 105, 107]))[0] == "better"
    # Lower-is-better flips the direction.
    lo = metric([10.0, 10.1, 9.9, 10.0, 10.2], better="lower")
    assert verdict(lo, metric([12.0, 12.1, 11.9, 12.0, 12.2], better="lower"))[0] == "regressed"
    assert verdict(lo, metric([8.0, 8.1, 7.9, 8.0, 8.2], better="lower"))[0] == "better"


def test_space_metrics_are_held_to_one_percent_at_equal_seed():
    from e2ebench.settings import END_TO_END

    stored = next(m for m in END_TO_END if m.name == "stored_bytes_per_user_byte")
    # Exact for a seed: every repetition reads the same.
    a = metric([0.3619] * 5, better=stored.better, bound=stored.bound)
    for factor, expected in ((1.0, "unchanged"), (1.005, "unchanged"), (1.02, "regressed"),
                             (1.09, "regressed"), (0.995, "better")):  # fmt: skip
        b = metric([0.3619 * factor] * 5, better=stored.better, bound=stored.bound)
        assert verdict(a, b)[0] == expected, factor


def test_files_of_different_seeds_are_refused(tmp_path, capsys):
    import json

    from compare import main

    for name, seed in (("a.json", 2013), ("b.json", 7)):
        (tmp_path / name).write_text(json.dumps({"seed": seed, "scale": "full", "workloads": {}}))
    assert main([str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 2
    assert "compare runs of one seed" in capsys.readouterr().err


def test_spread_wider_than_bound_is_unresolved_unless_separated():
    noisy = metric([100, 130, 80, 110, 95])
    assert verdict(noisy, metric([101, 129, 82, 108, 96]))[0] == "unresolved"
    assert verdict(noisy, metric([140, 150, 135, 160, 145]))[0] == "better"  # every B above every A
    assert verdict(noisy, metric([60, 70, 55, 65, 50]))[0] == "regressed"  # every B below every A
