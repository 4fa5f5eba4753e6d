from __future__ import annotations

import pytest

from e2ebench.stats import percentile, quartiles, supported_tail, supported_tail_pct


@pytest.mark.parametrize(
    ("n", "pct"),
    [
        (16, 50.0),  # not even p75 has ten samples beyond it
        (39, 50.0),
        (40, 75.0),  # 40 * 0.25 = 10
        (99, 75.0),
        (100, 90.0),  # 100 * 0.10 = 10
        (199, 90.0),
        (200, 95.0),
        (1000, 99.0),
        (10000, 99.9),
    ],
)
def test_highest_percentile_with_ten_samples_beyond(n, pct):
    assert supported_tail_pct(n) == pct
    at_or_below = sum(1 for i in range(1, n + 1) if i * 1000 <= round(pct * 10) * n)
    assert pct == 50.0 or n - at_or_below >= 10


def test_supported_tail_value_is_that_percentile():
    values = list(range(1, 101))  # 1..100
    assert supported_tail(values) == (90.0, 90)
    assert percentile(values, 50) == 50
    assert percentile([5.0], 99) == 5.0


def test_quartiles():
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)
